"""Table 7: objects and bytes allocated in arenas (true prediction).

Shape checks from the paper's discussion:

* arena capture tracks the predicted short-lived fraction of Table 4;
* GAWK, the best-predicted program, is captured almost entirely;
* GHOST reproduces the paper's anomaly — a high fraction of its *objects*
  are arena-allocated but a much lower fraction of its *bytes*, because
  its signature 6 KB short-lived buffers cannot fit a 4 KB arena.
"""

from __future__ import annotations

from repro.analysis import table4, table7
from repro.analysis.report import render_table7

from conftest import write_result


def test_table7(store, results_dir):
    rows = table7(store)
    write_result(results_dir, "table7.txt", render_table7(rows))

    prediction = {row.program: row for row in table4(store)}
    by_program = {row.program: row for row in rows}

    for row in rows:
        predicted = (
            prediction[row.program].true_predicted_pct
            + prediction[row.program].true_error_pct
        )
        # Arena bytes cannot exceed what the predictor selects, and they
        # track it closely except where objects outgrow the arenas.
        assert row.arena_byte_pct <= predicted + 1.0, (
            f"Table 7: {row.program}'s arena bytes stay within the "
            "predicted fraction"
        )

    # GAWK: nearly everything lands in arenas (paper: 98.2% / 99.3%).
    gawk = by_program["gawk"]
    assert gawk.arena_alloc_pct > 90, (
        "Table 7: over 90% of gawk's allocations land in arenas"
    )
    assert gawk.arena_byte_pct > 90, (
        "Table 7: over 90% of gawk's bytes land in arenas"
    )

    # GHOST: many objects, few bytes - the 6 KB span buffers fall through
    # (paper: 81.3% of objects but only 37.7% of bytes).
    ghost = by_program["ghost"]
    assert ghost.arena_alloc_pct - ghost.arena_byte_pct > 30, (
        "Table 7: ghost's arena share of objects beats its share of bytes "
        "by over 30 points"
    )
    predicted_ghost = prediction["ghost"].true_predicted_pct
    assert ghost.arena_byte_pct < 0.6 * predicted_ghost, (
        "Table 7: ghost's arenas capture under 60% of its predicted bytes"
    )
