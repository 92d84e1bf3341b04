"""Table 9: average instructions per allocate and free.

The paper's CPU result, with its mixed outcome:

* BSD is the fast baseline (~70 instructions per alloc+free pair, 17 per
  free);
* first-fit costs roughly twice BSD;
* where prediction succeeds (GAWK), the arena allocator beats even BSD —
  the paper's 40 vs 71 instructions;
* the length-4 strategy is usually at least as fast as call-chain
  encryption, occasionally twice as fast (paper's GHOST column), because
  CCE's per-call cost is amortized over few allocations in call-heavy
  programs.
"""

from __future__ import annotations

from repro.analysis import table9
from repro.analysis.report import render_table9

from conftest import write_result


def test_table9(store, results_dir):
    rows = table9(store)
    write_result(results_dir, "table9.txt", render_table9(rows))

    by_program = {row.program: row for row in rows}

    for row in rows:
        # BSD frees are the flat 17-instruction push of the paper.
        assert row.bsd[1] == 17.0, (
            f"Table 9: a BSD free of {row.program} costs 17 instructions"
        )
        # BSD allocation lands in the paper's 50-61 band.
        assert 45 <= row.bsd[0] <= 70, (
            f"Table 9: a BSD alloc of {row.program} costs 45-70 instructions"
        )
        # First-fit costs more than BSD per pair (paper: 108-222 vs 67-78).
        assert row.pair_total(row.firstfit) > row.pair_total(row.bsd), (
            f"Table 9: first-fit costs {row.program} more than BSD per pair"
        )
        # Arena frees are cheap wherever most frees hit arenas.
        assert row.arena_len4[1] <= row.firstfit[1], (
            f"Table 9: an arena free of {row.program} costs no more than a "
            "first-fit free"
        )

    # GAWK: prediction succeeds, so the arena allocator beats both
    # baselines outright (paper: 40 vs 71 and 120).
    gawk = by_program["gawk"]
    assert gawk.pair_total(gawk.arena_len4) < gawk.pair_total(gawk.bsd), (
        "Table 9: gawk's arena pair is cheaper than BSD's"
    )
    assert (
        gawk.pair_total(gawk.arena_len4) < gawk.pair_total(gawk.firstfit)
    ), "Table 9: gawk's arena pair is cheaper than first-fit's"

    # len-4 vs CCE: in call-heavy programs the amortized per-allocation
    # cost of key maintenance exceeds the 10-instruction frame walk for
    # at least some programs (paper: CCE up to 2x slower on GHOST).
    assert any(
        row.pair_total(row.arena_cce) > row.pair_total(row.arena_len4) + 5
        for row in rows
    ), "Table 9: CCE costs over 5 instructions more than length-4 somewhere"
