"""Table 5: prediction from object size alone.

The paper's ablation: size by itself identifies only a small fraction of
short-lived bytes, confirming Ungar & Jackson's observation that size and
lifetime correlate weakly.  Shape: size-only prediction is far below both
the actual short-lived fraction and site+size prediction, for every
program.
"""

from __future__ import annotations

from repro.analysis import table4, table5
from repro.analysis.report import render_table5

from conftest import write_result


def test_table5(store, results_dir):
    rows = table5(store)
    write_result(results_dir, "table5.txt", render_table5(rows))

    site_rows = {row.program: row for row in table4(store)}

    for row in rows:
        site = site_rows[row.program]
        # Size alone never beats site+size.
        assert row.predicted_pct <= site.self_predicted_pct + 1e-9, (
            f"Table 5: size-only prediction of {row.program} never beats "
            "site prediction"
        )
        # And it misses most of what sites capture (paper: 0-36% by size
        # vs 42-99% by site).
        assert row.predicted_pct < site.self_predicted_pct, (
            f"Table 5: size-only prediction of {row.program} covers less "
            "than site prediction"
        )

    # In aggregate, size-only prediction captures well under half of the
    # actually short-lived bytes.
    total_actual = sum(row.actual_pct for row in rows)
    total_predicted = sum(row.predicted_pct for row in rows)
    assert total_predicted < 0.6 * total_actual, (
        "Table 5: size-only prediction covers under 60% of the short-lived "
        "bytes in aggregate"
    )
