"""Oracle arena simulation: the upper bound on lifetime prediction.

The paper automates Hanson's allocator, where *the programmer* says which
objects are short-lived — effectively a per-object oracle.  This module
simulates that ideal: each object is placed by its *actual* lifetime
(read from the trace) rather than by a trained site database.  Comparing
oracle capture with true-prediction capture measures exactly what site
+size prediction gives up — the gap the paper's approach trades for
requiring no programmer annotations.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.alloc.spec import AllocatorSpec
from repro.analysis.simulate import SimulationResult, price, replay_spec
from repro.core.predictor import DEFAULT_THRESHOLD, LifetimePredictor
from repro.core.sites import ChainTable
from repro.runtime.events import Trace

__all__ = ["simulate_arena_oracle"]


class _NextVerdict(dict):
    """A verdict memo that answers every lookup with the next verdict.

    It stores nothing, so a repeated ``(chain, size)`` key is asked
    again and gets the next object's answer, not the last one's.
    """

    __slots__ = ("_next",)

    def __init__(self, verdicts: Iterable[bool]):
        super().__init__()
        self._next = iter(verdicts).__next__

    def __missing__(self, key) -> bool:
        return self._next()


class _OracleAnswer(LifetimePredictor):
    """A predictor that answers each allocation with its object's fate.

    Models Hanson's programmer: the decision arrives with the allocation
    itself, not from a site database.  Replay allocates in dense id
    order and the arena reads its verdict memo once per allocation, so
    the memo :meth:`bind` returns yields object ``i``'s true verdict at
    the ``i``-th allocation.
    """

    def __init__(self, trace: Trace, threshold: int):
        self.trace = trace
        self.threshold = threshold

    def bind(self, chains: Optional[ChainTable] = None) -> _NextVerdict:
        lifetime_of = self.trace.lifetime_of
        threshold = self.threshold
        return _NextVerdict(
            lifetime_of(obj_id) < threshold
            for obj_id in range(self.trace.total_objects)
        )

    @property
    def site_count(self) -> int:
        return 0


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
    """
    spec = AllocatorSpec(
        num_arenas=num_arenas, arena_size=arena_size, threshold=threshold
    )
    counts = replay_spec(trace, spec, _OracleAnswer(trace, threshold))
    return replace(price(counts, spec, model), allocator="arena (oracle)")
