"""Ablation: sensitivity to prediction errors (§5.2's CFRAC discussion).

The paper: "CFRAC shows what happens to this algorithm if too many
long-lived objects are erroneously predicted to be short-lived ... These
objects then tie up all the arenas, forcing the arena allocator to
degenerate to a general-purpose allocator" and "High error rates degrade
performance dramatically".

This experiment injects controlled amounts of misprediction — adding the
sites of progressively more long-lived objects to a clean predictor — and
measures arena capture and CPU cost as error grows, regenerating the
degradation curve behind the paper's CFRAC anecdote.
"""

from __future__ import annotations

from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.core.predictor import SitePredictor

from conftest import write_result

#: How many long-lived sites to wrongly admit at each step.
INJECTIONS = [0, 1, 2, 4, 8, 16]


def _with_injected_error(base: SitePredictor, trace, count: int) -> SitePredictor:
    """``base`` plus the sites of the ``count`` longest-lived objects."""
    if count == 0:
        return base
    by_lifetime = sorted(
        range(trace.total_objects),
        key=trace.lifetime_of,
        reverse=True,
    )
    extra = set()
    for obj_id in by_lifetime:
        extra.add(base.key_for(trace.chain_of(obj_id), trace.size_of(obj_id)))
        if len(extra) >= count:
            break
    return SitePredictor(
        base.sites | frozenset(extra),
        threshold=base.threshold,
        chain_length=base.chain_length,
        size_rounding=base.size_rounding,
        program=base.program,
    )


def test_pollution_degrades_arena(store, results_dir):
    program = "cfrac"
    trace = store.trace(program)
    base = store.self_predictor(program)
    rows = []
    for count in INJECTIONS:
        predictor = _with_injected_error(base, trace, count)
        error_pct = store.evaluate(program, predictor).error_pct
        # No spec mode names a polluted predictor, so this replay is fresh.
        sim = simulate_spec(store.source(program), PAPER_DEFAULT_SPEC,
                            predictor)
        rows.append((count, error_pct, sim))

    lines = [f"Arena degradation under injected misprediction ({program})",
             "  sites  error-bytes%  arena-allocs%  overflows  instr/alloc"]
    for count, error_pct, sim in rows:
        lines.append(
            f"  {count:5d}  {error_pct:12.2f}  {sim.arena_alloc_pct:13.1f}"
            f"  {sim.ops.arena_overflows:9d}  {sim.cost.per_alloc:11.1f}"
        )
    write_result(results_dir, "ablation_pollution.txt", "\n".join(lines))

    clean = rows[0][2]
    worst = rows[-1][2]

    # Pollution strictly increases error bytes.
    errors = [error for _, error, _ in rows]
    assert errors == sorted(errors), (
        "§5.2: cfrac's error bytes never fall as pollution grows"
    )
    assert errors[-1] > errors[0], (
        "§5.2: pollution raises cfrac's error bytes"
    )

    # The paper's degradation: long-lived objects tie up arenas, so the
    # capture rate falls and predicted-short traffic overflows into the
    # general heap.
    assert worst.arena_alloc_pct < clean.arena_alloc_pct, (
        "§5.2: pollution lowers cfrac's arena capture"
    )
    assert worst.ops.arena_overflows > clean.ops.arena_overflows, (
        "§5.2: pollution overflows more of cfrac's allocations"
    )

    # CPU cost degrades toward (or past) the general allocator's as the
    # allocator degenerates (the paper's CFRAC row is the worst of Table 9).
    assert worst.cost.per_alloc > clean.cost.per_alloc, (
        "§5.2, Table 9: pollution raises cfrac's instructions per alloc"
    )
