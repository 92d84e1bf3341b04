"""Table 2: memory allocation behaviour of the test programs.

Regenerates the per-program execution summary and checks the shape the
paper's Table 2 shows: GHOST is the big-heap, few-objects program; every
program makes a substantial fraction of its memory references to the heap.
"""

from __future__ import annotations

from repro.analysis import table2
from repro.analysis.report import render_table2

from conftest import write_result


def test_table2(store, results_dir):
    rows = table2(store)
    write_result(results_dir, "table2.txt", render_table2(rows))

    by_program = {row.program: row for row in rows}

    # GHOST: the largest live heap by an order of magnitude...
    ghost = by_program["ghost"]
    others_max = max(
        row.max_bytes for row in rows if row.program != "ghost"
    )
    assert ghost.max_bytes > 3 * others_max, (
        "Table 2: ghost's max live bytes exceed 3x every other program's"
    )
    # ...and the fewest objects (big objects, few of them).
    assert ghost.total_objects == min(row.total_objects for row in rows), (
        "Table 2: ghost allocates the fewest objects"
    )

    # Allocation-intensive: every program's heap takes a large share of
    # memory references (the paper's Heap Refs column is 47-80%).
    for row in rows:
        assert row.heap_ref_pct > 25, (
            f"Table 2: {row.program} sends over 25% of references to the heap"
        )

    # Everybody allocates at least hundreds of kilobytes and thousands of
    # objects at full scale.
    for row in rows:
        assert row.total_bytes > 100_000, (
            f"Table 2: {row.program} allocates over 100,000 bytes"
        )
        assert row.total_objects > 1_000, (
            f"Table 2: {row.program} allocates over 1,000 objects"
        )
