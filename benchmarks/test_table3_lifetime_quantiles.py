"""Table 3: quantile histograms of object lifetimes.

Regenerates the lifetime quartiles and checks the distributional shape of
the paper's Table 3: minimum lifetimes are tiny (an object's own size),
medians are modest, and maxima are orders of magnitude beyond the median —
the skew that motivates segregating short-lived objects.
"""

from __future__ import annotations

from repro.analysis import table3
from repro.analysis.report import render_table3

from conftest import write_result


def test_table3(store, results_dir):
    rows = table3(store)
    write_result(results_dir, "table3.txt", render_table3(rows))

    for row in rows:
        q_min, q25, q50, q75, q_max = row.byte_quantiles
        assert q_min <= q25 <= q50 <= q75 <= q_max, (
            f"Table 3: {row.program}'s byte quantiles are in order"
        )
        # Minima are single small objects.
        assert q_min < 200, (
            f"Table 3: {row.program}'s shortest lifetime is under 200 bytes"
        )
        # The oldest objects live orders of magnitude longer than the
        # median (paper: 3-6 orders of magnitude).
        assert q_max > 50 * max(q50, 1), (
            f"Table 3: {row.program}'s longest lifetime exceeds 50x its median"
        )
        # The maximum lifetime is essentially the whole run: some object
        # survives from early on to program exit (each paper row's max is
        # within a small factor of the program's total allocation).
        trace = store.trace(row.program)
        assert q_max > trace.total_bytes / 4, (
            f"Table 3: {row.program}'s longest lifetime spans over a quarter "
            "of the run"
        )

    # The P^2 approximation brackets the exact extremes exactly (min and
    # max markers are exact in the algorithm).
    for row in rows:
        assert row.p2_quantiles[0] >= 0, (
            f"Table 3: {row.program}'s P^2 minimum is not negative"
        )
        assert row.p2_quantiles == tuple(sorted(row.p2_quantiles)), (
            f"Table 3: {row.program}'s P^2 quantiles are in order"
        )
