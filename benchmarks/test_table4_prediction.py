"""Table 4: bytes predicted short-lived from allocation site and size.

The paper's central result.  Shape checks:

* most bytes really are short-lived (the generational hypothesis);
* self prediction captures a large fraction of them with zero error;
* true prediction never beats self prediction, and its error stays small;
* GAWK (same script, different data) transfers essentially perfectly,
  while PERL (a different program entirely) transfers worst — the paper's
  explanation of its input pairs.
"""

from __future__ import annotations

from repro.analysis import table4
from repro.analysis.report import render_table4

from conftest import write_result


def test_table4(store, results_dir):
    rows = table4(store)
    write_result(results_dir, "table4.txt", render_table4(rows))

    by_program = {row.program: row for row in rows}

    for row in rows:
        # Generational hypothesis: short-lived bytes dominate (paper: >90%
        # everywhere; ghost's band buffer holds ours to ~80%).
        assert row.actual_pct > 75, (
            f"Table 4: over 75% of {row.program}'s bytes are short-lived"
        )
        # Self prediction is meaningful and error-free by construction.
        assert row.self_predicted_pct > 40, (
            f"Table 4: self prediction covers over 40% of {row.program}'s "
            "bytes"
        )
        assert row.self_error_pct == 0.0, (
            f"Table 4: self prediction of {row.program} makes no errors"
        )
        # True prediction cannot exceed self prediction by much (site sets
        # trained elsewhere may match fewer sites, never more volume).
        assert row.true_predicted_pct <= row.self_predicted_pct + 1.0, (
            f"Table 4: true prediction of {row.program} covers no more "
            "than self prediction"
        )
        # Errors stay a small fraction of bytes (paper max: 3.65%).
        assert row.true_error_pct < 5.0, (
            f"Table 4: true prediction of {row.program} errs on under 5% "
            "of bytes"
        )

    # GAWK: same program, different dictionary -> perfect transfer.
    gawk = by_program["gawk"]
    assert gawk.true_predicted_pct > 0.95 * gawk.self_predicted_pct, (
        "Table 4: gawk's true prediction keeps over 95% of its self "
        "prediction"
    )
    assert gawk.self_predicted_pct > 95, (
        "Table 4: self prediction covers over 95% of gawk's bytes"
    )

    # PERL: a different program -> the worst transfer of the five.
    perl = by_program["perl"]
    transfer = {
        row.program: row.true_predicted_pct / max(row.self_predicted_pct, 1)
        for row in rows
    }
    assert transfer["perl"] == min(transfer.values()), (
        "Table 4: perl's prediction transfers worst of the five"
    )
    assert perl.true_predicted_pct < 0.8 * perl.self_predicted_pct, (
        "Table 4: perl's true prediction keeps under 80% of its self "
        "prediction"
    )
