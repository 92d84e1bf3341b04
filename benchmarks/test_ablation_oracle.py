"""Ablation: trained prediction vs a per-object oracle.

The paper automates Hanson's allocator, replacing the programmer's
explicit lifetime annotations with a trained site database.  This
experiment quantifies the price of that automation: replaying each trace
with perfect per-object lifetime knowledge (the annotation ideal) and
with the true-prediction database, under identical arena machinery.

The ratio predicted/oracle is the predictor's capture efficiency — near
1.0 for GAWK (the paper's showcase), lower wherever sites mix lifetimes
(espresso) or training inputs differ (perl).
"""

from __future__ import annotations

from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.oracle import simulate_arena_oracle

from conftest import write_result


def test_oracle_gap(store, results_dir):
    rows = {}
    for program in store.programs:
        trace = store.trace(program)
        # The trained side is Table 7's replay.
        predicted = store.simulate(program, PAPER_DEFAULT_SPEC)
        oracle = simulate_arena_oracle(trace)
        rows[program] = (trace.total_bytes, predicted, oracle)

    lines = [
        "Trained true prediction vs per-object oracle (same 16 x 4 KB arenas)",
        "  program    pred-bytes%  oracle-bytes%  efficiency  "
        "pred-heap(K)  oracle-heap(K)",
    ]
    for program, (total, predicted, oracle) in rows.items():
        efficiency = (
            predicted.arena_bytes / oracle.arena_bytes
            if oracle.arena_bytes else 1.0
        )
        lines.append(
            f"  {program:10s} {100 * predicted.arena_bytes / total:11.1f} "
            f"{100 * oracle.arena_bytes / total:13.1f} {efficiency:10.2f} "
            f"{predicted.max_heap_size // 1024:12d} "
            f"{oracle.max_heap_size // 1024:14d}"
        )
    write_result(results_dir, "ablation_oracle.txt", "\n".join(lines))

    for program, (total, predicted, oracle) in rows.items():
        # The oracle is a ceiling: prediction never captures more bytes.
        assert predicted.arena_bytes <= oracle.arena_bytes * 1.001, (
            f"§1: trained prediction of {program} captures no more bytes "
            "than the oracle"
        )
        # Oracle placement never errs, so its arenas never hold an object
        # past the 2x-threshold area design; its heap is at most the
        # predicted configuration's.
        assert oracle.max_heap_size <= predicted.max_heap_size * 1.05, (
            f"§1: the oracle's heap for {program} is within 5% of the "
            "trained one's"
        )

    # The showcase: gawk's trained predictor is essentially the oracle.
    total, predicted, oracle = rows["gawk"]
    assert predicted.arena_bytes > 0.98 * oracle.arena_bytes, (
        "§1: gawk's trained prediction captures over 98% of the oracle's "
        "bytes"
    )

    # Somewhere the gap is real - prediction has a price.
    gaps = [
        oracle.arena_bytes - predicted.arena_bytes
        for _, predicted, oracle in rows.values()
    ]
    assert any(gap > 0.1 * total for gap in gaps), (
        "§1: the oracle captures over 10% more of some program's bytes"
    )
