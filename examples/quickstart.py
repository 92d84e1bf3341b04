"""Quickstart: the paper's pipeline in thirty lines.

Profile a training execution of the gawk workload, train a short-lived
site predictor from it, score the predictor on a *different* input (true
prediction), and replay that input through the lifetime-predicting arena
allocator.

Run:  python examples/quickstart.py
"""

from repro import (
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    evaluate,
    simulate_spec,
    train_site_predictor,
)
from repro.workloads.registry import run_workload


def main() -> None:
    # 1. Training run: trace gawk formatting dictionary A.
    train = run_workload("gawk", "train", scale=0.5)
    print(f"training run: {train.total_objects} objects, "
          f"{train.total_bytes} bytes allocated")

    # 2. Learn the allocation sites whose objects all died young.
    predictor = train_site_predictor(train)
    print(f"site database: {predictor.site_count} short-lived sites "
          f"(threshold {predictor.threshold} bytes)")

    # 3. True prediction: score against a run over dictionary B.
    test = run_workload("gawk", "test", scale=0.5)
    score = evaluate(predictor, test)
    print(f"true prediction: {score.predicted_pct:.1f}% of bytes correctly "
          f"predicted short-lived ({score.actual_pct:.1f}% actually are), "
          f"{score.error_pct:.2f}% mispredicted")

    # 4. Replay the test run through the arena allocator and the first-fit
    #    baseline.
    arena = simulate_spec(test, PAPER_DEFAULT_SPEC, predictor)
    firstfit = simulate_spec(test, FIRSTFIT_SPEC)
    print(f"arena allocator: {arena.arena_alloc_pct:.1f}% of allocations "
          f"served by bump-pointer arenas")
    print(f"instructions per alloc+free: "
          f"arena {arena.cost.per_pair:.0f} vs "
          f"first-fit {firstfit.cost.per_pair:.0f}")
    print(f"max heap: arena {arena.max_heap_size // 1024} KB "
          f"(incl. {arena.arena_area_size // 1024} KB arena area) vs "
          f"first-fit {firstfit.max_heap_size // 1024} KB")


if __name__ == "__main__":
    main()
