"""Table 8: maximum heap sizes, first-fit vs the arena allocator.

The paper's space result: for programs with small heaps the fixed 64 KB
arena area dominates and the arena allocator *costs* space (122-200% of
first-fit); for the big-heap program (GHOST) segregation pays off — the
paper saw 51.9% (self) / 72.5% (true).

At this reproduction's input scale (tens of times smaller than the
paper's 33-167 MB runs) the ordering across programs is preserved exactly
— GHOST is by far the arena allocator's best case — but the absolute
crossover below 100% needs the paper's allocation volumes; see
EXPERIMENTS.md and the scale ablation in
``test_ablation_arena_blocking.py``.
"""

from __future__ import annotations

from repro.analysis import table8
from repro.analysis.report import render_table8

from conftest import write_result


def test_table8(store, results_dir):
    rows = table8(store)
    write_result(results_dir, "table8.txt", render_table8(rows))

    by_program = {row.program: row for row in rows}
    ratios = {row.program: row.true_ratio_pct for row in rows}

    # GHOST is the arena allocator's best case, by a wide margin.
    assert ratios["ghost"] == min(ratios.values()), (
        "Table 8: ghost has the lowest true-prediction heap ratio"
    )
    others_best = min(v for k, v in ratios.items() if k != "ghost")
    assert ratios["ghost"] < 0.75 * others_best, (
        "Table 8: ghost's heap ratio is under 75% of the next best"
    )

    # Small-heap programs pay for the 64 KB arena area (paper: all four
    # non-GHOST programs above 120%).
    for program in ("cfrac", "gawk", "perl"):
        assert ratios[program] > 120, (
            f"Table 8: {program}'s arena heap exceeds 120% of first-fit's"
        )

    # The arena allocator's general heap never exceeds first-fit by more
    # than the arena area plus modest overhead: segregation does not make
    # the general heap worse.
    for row in rows:
        general_heap = row.true_arena_heap - 64 * 1024
        assert general_heap <= row.firstfit_heap * 1.5, (
            f"Table 8: {row.program}'s general heap stays within 1.5x "
            "first-fit's"
        )

    # Self prediction is at least as space-effective as true prediction
    # for the big-heap program (paper: 51.9% vs 72.5%).
    ghost = by_program["ghost"]
    assert ghost.self_arena_heap <= ghost.true_arena_heap * 1.05, (
        "Table 8: ghost's self-prediction heap is within 5% of its "
        "true-prediction heap"
    )
