"""Extension: multi-class lifetime prediction (the paper's future work).

§6 of the paper calls for "further exploration of algorithms based on
this idea".  This experiment evaluates the natural next step — an ordered
ladder of lifetime classes with one arena area per rung — against the
paper's single 32 KB class, under true prediction.

The interesting case is ESPRESSO: its lifetimes cluster in the 2–25 KB
range with a long mid tail (the paper's Table 3 row), so a single 32 KB
class strands a large mid-range population in the general heap.  A second
rung captures it, at the cost of the extra arena area — the same
space-for-capture trade the paper makes once, made twice.
"""

from __future__ import annotations

from repro.alloc.spec import PAPER_DEFAULT_SPEC, AllocatorSpec

from conftest import write_result

LADDER = (32 * 1024, 256 * 1024)


def test_multiclass_capture(store, results_dir):
    multi_spec = AllocatorSpec(kind="multiarena", class_thresholds=LADDER)
    rows = {
        program: (
            store.trace(program).total_bytes,
            store.simulate(program, PAPER_DEFAULT_SPEC),
            store.simulate(program, multi_spec),
        )
        for program in store.programs
    }

    lines = [
        "Multi-class arenas (ladder 32K / 256K) vs the paper's single class "
        "(true prediction)",
        "  program    single-bytes%  multi-bytes%  "
        "single-heap(K)  multi-heap(K)",
    ]
    for program, (total, single, multi) in rows.items():
        lines.append(
            f"  {program:10s} {100 * single.arena_bytes / total:12.1f} "
            f"{100 * multi.arena_bytes / total:13.1f} "
            f"{single.max_heap_size // 1024:14d} "
            f"{multi.max_heap_size // 1024:13d}"
        )
    write_result(results_dir, "extension_multiclass.txt", "\n".join(lines))

    for program, (total, single, multi) in rows.items():
        # The ladder never captures fewer bytes: its class 0 is the
        # paper's predictor and higher rungs only add capture.
        assert multi.arena_bytes >= single.arena_bytes - 0.001 * total, (
            f"§6: the ladder captures no fewer of {program}'s bytes"
        )
        # The space cost is the extra areas plus bounded overhead.
        assert (
            multi.max_heap_size
            <= single.max_heap_size + 2 * 256 * 1024 + 64 * 1024
        ), f"§6: the ladder adds at most its areas to {program}'s heap"

    # The motivating case: espresso's mid-range population is material.
    total, single, multi = rows["espresso"]
    assert multi.arena_bytes > 1.3 * single.arena_bytes, (
        "§6: the ladder captures over 1.3x espresso's single-class bytes"
    )
