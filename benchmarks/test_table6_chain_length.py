"""Table 6: effect of call-chain length on prediction.

The paper's layered-design result: length-1 chains (the direct caller of
malloc, usually an ``xmalloc`` wrapper) predict poorly; accuracy jumps
abruptly at a short length; and length-4 chains capture >90% of what the
complete chain captures — which is what makes the 10-instruction frame
walk of §5.1 affordable.
"""

from __future__ import annotations

from repro.analysis import TABLE6_LENGTHS, table6
from repro.analysis.report import render_table6

from conftest import write_result


def test_table6(store, results_dir):
    rows = table6(store)
    write_result(results_dir, "table6.txt", render_table6(rows))

    for row in rows:
        full_predicted = row.by_length[None][0]
        len1 = row.by_length[1][0]
        len4 = row.by_length[4][0]

        # The paper's conclusion: length-4 captures >90% of the full
        # chain's prediction.
        assert len4 >= 0.9 * full_predicted, (
            f"Table 6: length-4 chains of {row.program} keep 90% of the full "
            "chain's prediction"
        )

        # Prediction improves (weakly) from length-1 to length-4.
        assert len4 >= len1 - 1e-9, (
            f"Table 6: length-4 chains of {row.program} predict at least as "
            "much as length 1"
        )

        # There is an abrupt-improvement knee at length <= 4 wherever the
        # length-1 chain is not already sufficient.
        if len1 < 0.9 * full_predicted:
            assert row.knee() is not None, (
                f"Table 6: {row.program}'s prediction jumps at some length"
            )
            assert row.knee() <= 4, (
                f"Table 6: {row.program}'s prediction jumps at length 4 or "
                "below"
            )

        # New Ref fractions move with prediction: localizing more bytes
        # localizes at least as many heap references.
        newref1 = row.by_length[1][1]
        newref4 = row.by_length[4][1]
        assert newref4 >= newref1 - 1e-9, (
            f"Table 6: {row.program}'s New Ref fraction does not fall from "
            "length 1 to 4"
        )
