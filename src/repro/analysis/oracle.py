"""Oracle arena simulation: the upper bound on lifetime prediction.

The paper automates Hanson's allocator, where *the programmer* says which
objects are short-lived — effectively a per-object oracle.  This module
simulates that ideal: each object is placed by its *actual* lifetime
(read from the trace) rather than by a trained site database.  Comparing
oracle capture with true-prediction capture measures exactly what site
+size prediction gives up — the gap the paper's approach trades for
requiring no programmer annotations.

The oracle's verdicts are one byte per object, the form a trained
predictor's take in :func:`~repro.analysis.simulate.verdict_bytes`, so
its placement is the same arena walk and first-fit replay of what the
walk left to the general heap (DESIGN.md §17); no allocator asks it
anything.
"""

from __future__ import annotations

from dataclasses import replace

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.alloc.spec import AllocatorSpec
from repro.analysis.simulate import (
    SimulationResult,
    _check_arrays,
    arena_counts,
    arena_walk,
    general_replay,
    price,
)
from repro.core.predictor import DEFAULT_THRESHOLD
from repro.runtime.events import Trace

__all__ = ["simulate_arena_oracle"]


def simulate_arena_oracle(
    trace: Trace,
    threshold: int = DEFAULT_THRESHOLD,
    num_arenas: int = DEFAULT_NUM_ARENAS,
    arena_size: int = DEFAULT_ARENA_SIZE,
    model: CostModel = DEFAULT_COST_MODEL,
) -> SimulationResult:
    """Replay a trace with per-object (perfect) lifetime knowledge.

    Every object that truly dies within ``threshold`` byte-time is offered
    to the arenas; everything else goes straight to the general heap.  The
    arena machinery (blocking, overflow, size limits) stays exactly the
    paper's, so the result is the ceiling that a perfect predictor — not a
    perfect allocator — could reach.

    Object ``i``'s verdict is ``lifetime_of(i) < threshold``, made after
    the range checks :func:`~repro.analysis.simulate.verdict_bytes`
    makes, so a malformed trace raises the
    :class:`~repro.runtime.tracefile.TraceFormatError` a full replay
    raises.
    """
    spec = AllocatorSpec(
        num_arenas=num_arenas, arena_size=arena_size, threshold=threshold
    )
    _check_arrays(trace)
    lifetime_of = trace.lifetime_of
    short = bytes(lifetime_of(obj_id) < threshold
                  for obj_id in range(trace.total_objects))
    walk = arena_walk(trace, spec, short)
    general = general_replay(trace, short, walk.overflowed)
    counts = arena_counts(trace, spec, walk, general)
    return replace(price(counts, spec, model), allocator="arena (oracle)")
