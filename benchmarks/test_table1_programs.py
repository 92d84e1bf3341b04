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

    assert [row.program for row in rows] == store.programs
    for row in rows:
        assert row.description
        assert row.train_input != row.test_input
        assert row.input_relation

    by_program = {row.program: row for row in rows}
    # The paper's two signature input relationships are documented: gawk's
    # same-script pair and perl's different-program pair.
    assert "same script" in by_program["gawk"].input_relation
    assert "different program" in by_program["perl"].input_relation
