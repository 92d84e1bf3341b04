"""Table 1: general information about the test programs.

Descriptive rather than measured: regenerates the program/input
inventory, checking that every program documents its train/test input
relationship (the property §4 leans on to explain the true-prediction
results).
"""

from __future__ import annotations

from repro.analysis import table1
from repro.analysis.report import render_table1

from conftest import write_result


def test_table1(store, results_dir):
    rows = table1(store)
    write_result(results_dir, "table1.txt", render_table1(rows))

    assert [row.program for row in rows] == store.programs, (
        "Table 1: one row per program, in the paper's order"
    )
    for row in rows:
        assert row.description, f"Table 1: {row.program} has a description"
        assert row.train_input != row.test_input, (
            f"Table 1: {row.program} trains and tests on different inputs"
        )
        assert row.input_relation, (
            f"Table 1: {row.program} says how its two inputs relate"
        )

    by_program = {row.program: row for row in rows}
    # The paper's two signature input relationships are documented: gawk's
    # same-script pair and perl's different-program pair.
    assert "same script" in by_program["gawk"].input_relation, (
        "Table 1: gawk's two inputs run the same script"
    )
    assert "different program" in by_program["perl"].input_relation, (
        "Table 1: perl's two inputs are different programs"
    )
