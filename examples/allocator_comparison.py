"""Comparing allocators on one workload, Table 8/9 style.

Replays a single workload trace through all three allocator simulators —
BSD power-of-two, Knuth first-fit, and the lifetime-predicting arena
allocator (with both chain-identification strategies) — and prints the
space and CPU comparison for that program.

Run:  python examples/allocator_comparison.py [workload]
"""

import sys

from repro import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    AllocatorSpec,
    simulate_spec,
    train_site_predictor,
)
from repro.workloads.registry import PROGRAM_ORDER, run_workload


def main() -> None:
    program = sys.argv[1] if len(sys.argv) > 1 else "ghost"
    if program not in PROGRAM_ORDER:
        raise SystemExit(f"unknown workload {program!r}; have {PROGRAM_ORDER}")

    print(f"tracing {program} (train for the site database, test to replay)...")
    train = run_workload(program, "train")
    test = run_workload(program, "test")
    predictor = train_site_predictor(train)
    print(f"  site database: {predictor.site_count} sites; replaying "
          f"{test.total_objects} allocations\n")

    results = [
        simulate_spec(test, BSD_SPEC),
        simulate_spec(test, FIRSTFIT_SPEC),
        simulate_spec(test, AllocatorSpec(strategy="len4"), predictor),
        simulate_spec(test, AllocatorSpec(strategy="cce"), predictor),
    ]

    header = (
        f"{'allocator':14s} {'max heap':>10s} {'instr/alloc':>12s} "
        f"{'instr/free':>11s} {'a+f':>6s} {'arena allocs':>13s}"
    )
    print(header)
    print("-" * len(header))
    for result in results:
        arena_share = (
            f"{result.arena_alloc_pct:12.1f}%"
            if result.allocator.startswith("arena")
            else f"{'-':>13s}"
        )
        print(
            f"{result.allocator:14s} {result.max_heap_size:9d}B "
            f"{result.cost.per_alloc:12.1f} {result.cost.per_free:11.1f} "
            f"{result.cost.per_pair:6.0f} {arena_share}"
        )

    print(
        "\nthe arena rows pay 18 instructions per allocation for the "
        "lifetime test;\nwhere prediction succeeds the bump-pointer path "
        "wins it back several times over."
    )


if __name__ == "__main__":
    main()
