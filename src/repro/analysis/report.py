"""Text rendering of the reproduced tables.

Formats the row objects from :mod:`repro.analysis.tables` as the aligned
text tables the benchmark harness prints, with the same columns (and
units) the paper uses so EXPERIMENTS.md comparisons can be made by eye.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.tables import (
    TABLE6_LENGTHS,
    Table1Row,
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    Table6Row,
    Table7Row,
    Table8Row,
    Table9Row,
)

__all__ = [
    "render_table1",
    "render_table2", "render_table3", "render_table4", "render_table5",
    "render_table6", "render_table7", "render_table8", "render_table9",
]


def _render(headers: Sequence[str], rows: List[Sequence[str]],
             title: str) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    lines = [title]
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_table1(rows: List[Table1Row]) -> str:
    """Table 1: the test programs and their inputs."""
    lines = ["Table 1: general information about the test programs"]
    for r in rows:
        lines.append(f"  {r.program}:")
        lines.append(f"    {r.description}")
        lines.append(f"    train input: {r.train_input}")
        lines.append(f"    test input:  {r.test_input}")
        lines.append(f"    relation:    {r.input_relation}")
    return "\n".join(lines)


def render_table2(rows: List[Table2Row]) -> str:
    """Table 2: program allocation behaviour."""
    return _render(
        ["Program", "Instr(M)", "Calls(K)", "Bytes(K)", "Objects(K)",
         "MaxBytes(K)", "MaxObjects", "HeapRefs(%)"],
        [
            [
                r.program,
                f"{r.instructions / 1e6:.1f}",
                f"{r.function_calls / 1e3:.1f}",
                f"{r.total_bytes / 1e3:.0f}",
                f"{r.total_objects / 1e3:.1f}",
                f"{r.max_bytes / 1e3:.0f}",
                f"{r.max_objects}",
                f"{r.heap_ref_pct:.0f}",
            ]
            for r in rows
        ],
        "Table 2: memory allocation behaviour of the test programs",
    )


def render_table3(rows: List[Table3Row]) -> str:
    """Table 3: object lifetime quartiles."""
    return _render(
        ["Program", "0%(min)", "25%", "50%(median)", "75%", "100%(max)"],
        [
            [r.program] + [f"{q:,}" for q in r.byte_quantiles]
            for r in rows
        ],
        "Table 3: quantile histogram of object lifetimes (bytes, "
        "byte-weighted)",
    )


def render_table4(rows: List[Table4Row]) -> str:
    """Table 4: self and true prediction by site and size."""
    return _render(
        ["Program", "Sites", "Actual(%)",
         "SelfUsed", "SelfPred(%)", "SelfErr(%)",
         "TrueUsed", "TruePred(%)", "TrueErr(%)"],
        [
            [
                r.program,
                f"{r.total_sites}",
                f"{r.actual_pct:.0f}",
                f"{r.self_sites_used}",
                f"{r.self_predicted_pct:.1f}",
                f"{r.self_error_pct:.2f}",
                f"{r.true_sites_used}",
                f"{r.true_predicted_pct:.1f}",
                f"{r.true_error_pct:.2f}",
            ]
            for r in rows
        ],
        "Table 4: bytes predicted short-lived from allocation site and size",
    )


def render_table5(rows: List[Table5Row]) -> str:
    """Table 5: size-only prediction."""
    return _render(
        ["Program", "Actual(%)", "Predicted(%)", "SizesUsed"],
        [
            [
                r.program,
                f"{r.actual_pct:.0f}",
                f"{r.predicted_pct:.0f}",
                f"{r.sizes_used}",
            ]
            for r in rows
        ],
        "Table 5: bytes predicted short-lived from object size alone",
    )


def render_table6(rows: List[Table6Row]) -> str:
    """Table 6: effect of call-chain length."""
    headers = ["Length"]
    for row in rows:
        headers += [f"{row.program}(%)", "NewRef(%)"]
    body = []
    for length in TABLE6_LENGTHS:
        label = "inf" if length is None else str(length)
        line = [label]
        for row in rows:
            predicted, newref = row.by_length[length]
            knee = row.knee()
            cell = f"({predicted:.0f})" if length == knee else f"{predicted:.0f}"
            line += [cell, f"{newref:.0f}"]
        body.append(line)
    return _render(
        headers, body,
        "Table 6: short-lived prediction vs call-chain length "
        "(parentheses mark the abrupt-improvement length)",
    )


def render_table7(rows: List[Table7Row]) -> str:
    """Table 7: arena capture fractions."""
    return _render(
        ["Program", "Allocs(K)", "Arena(%)", "NonArena(%)",
         "Bytes(K)", "ArenaB(%)", "NonArenaB(%)"],
        [
            [
                r.program,
                f"{r.total_allocs / 1e3:.1f}",
                f"{r.arena_alloc_pct:.1f}",
                f"{r.non_arena_alloc_pct:.1f}",
                f"{r.total_bytes / 1e3:.0f}",
                f"{r.arena_byte_pct:.1f}",
                f"{r.non_arena_byte_pct:.1f}",
            ]
            for r in rows
        ],
        "Table 7: objects and bytes allocated in arenas (true prediction)",
    )


def render_table8(rows: List[Table8Row]) -> str:
    """Table 8: maximum heap sizes."""
    return _render(
        ["Program", "FirstFit(K)", "SelfArena(K)", "Self/FF(%)",
         "TrueArena(K)", "True/FF(%)"],
        [
            [
                r.program,
                f"{r.firstfit_heap / 1024:.0f}",
                f"{r.self_arena_heap / 1024:.0f}",
                f"{r.self_ratio_pct:.1f}",
                f"{r.true_arena_heap / 1024:.0f}",
                f"{r.true_ratio_pct:.1f}",
            ]
            for r in rows
        ],
        "Table 8: maximum heap sizes, first-fit vs lifetime-predicting arena",
    )


def render_table9(rows: List[Table9Row]) -> str:
    """Table 9: instructions per allocate/free."""
    headers = ["Program"]
    for name in ("bsd", "ff", "len4", "cce"):
        headers += [f"{name}:a", f"{name}:f", f"{name}:a+f"]
    body = []
    for r in rows:
        line = [r.program]
        for pair in (r.bsd, r.firstfit, r.arena_len4, r.arena_cce):
            line += [
                f"{pair[0]:.0f}",
                f"{pair[1]:.0f}",
                f"{pair[0] + pair[1]:.0f}",
            ]
        body.append(line)
    return _render(
        headers, body,
        "Table 9: average instructions per allocate and free "
        "(arena rows use true prediction)",
    )
