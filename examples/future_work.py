"""Beyond the paper: the oracle ceiling and multi-class prediction.

Two experiments the paper's §6 points toward, run side by side on the
espresso workload (the paper's hardest prediction subject):

1. **The oracle ceiling** — how much could a *perfect* per-object
   predictor (Hanson's programmer, in effect) capture with the same
   16 x 4 KB arenas?  The gap to the trained predictor is the price of
   automation.
2. **Multi-class prediction** — an ordered ladder of lifetime classes
   with one arena area per rung.  Espresso's mid-range lifetimes (its
   Table 3 quartiles sit between 2 KB and 25 KB) are exactly what a
   second rung captures.

Run:  python examples/future_work.py [workload]
"""

import sys

from repro.alloc import PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.analysis import simulate_arena_oracle, simulate_spec
from repro.core import train_multiclass_predictor, train_site_predictor
from repro.workloads.registry import PROGRAM_ORDER, run_workload


def main() -> None:
    program = sys.argv[1] if len(sys.argv) > 1 else "espresso"
    if program not in PROGRAM_ORDER:
        raise SystemExit(f"unknown workload {program!r}; have {PROGRAM_ORDER}")

    print(f"tracing {program}...")
    train = run_workload(program, "train")
    test = run_workload(program, "test")
    total = test.total_bytes

    # The paper's configuration, true prediction.
    paper = simulate_spec(test, PAPER_DEFAULT_SPEC,
                          train_site_predictor(train))
    # The same arenas with perfect knowledge.
    oracle = simulate_arena_oracle(test)
    # The future-work ladder: 32 KB and 256 KB classes.
    ladder = (32 * 1024, 256 * 1024)
    multi = simulate_spec(
        test, AllocatorSpec(kind="multiarena", class_thresholds=ladder),
        train_multiclass_predictor(train, thresholds=ladder),
    )

    print(f"\n{program}: {test.total_objects} allocations, "
          f"{total} bytes\n")
    print(f"{'configuration':28s} {'arena bytes':>12s} {'max heap':>10s}")
    print("-" * 54)
    rows = [
        ("paper (1 class, trained)", paper.arena_bytes, paper.max_heap_size),
        ("paper arenas + oracle", oracle.arena_bytes, oracle.max_heap_size),
        ("2-class ladder (trained)", multi.arena_bytes, multi.max_heap_size),
    ]
    for name, captured, heap in rows:
        print(f"{name:28s} {100 * captured / total:11.1f}% {heap:9d}B")

    efficiency = paper.arena_bytes / max(oracle.arena_bytes, 1)
    print(f"\ntrained predictor reaches {100 * efficiency:.0f}% of the "
          "oracle's capture with the paper's single class;")
    print("the second rung trades extra arena area for the mid-range "
          "population the 32 KB cutoff strands.")


if __name__ == "__main__":
    main()
