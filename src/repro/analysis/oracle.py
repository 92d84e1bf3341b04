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

from typing import Optional

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.spec import AllocatorSpec, build_allocator
from repro.analysis.simulate import SimulationResult
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel, arena_cost
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    LifetimePredictor,
    SiteLookup,
)
from repro.core.sites import CallChain, ChainTable
from repro.runtime.events import Trace

__all__ = ["simulate_arena_oracle"]


class _OracleAnswer(LifetimePredictor):
    """A predictor whose next answer is injected per allocation.

    Models Hanson's programmer: the decision arrives with the allocation
    itself, not from a site database.
    """

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.answer = False

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        return self.answer

    def bind(self, chains: Optional[ChainTable] = None) -> SiteLookup:
        # The answer changes per object, not per (chain, size): never memoize.
        return SiteLookup(self.predicts_short_lived, chains)

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
    oracle = _OracleAnswer(threshold)
    spec = AllocatorSpec(
        num_arenas=num_arenas, arena_size=arena_size, threshold=threshold
    )
    allocator = build_allocator(spec, oracle)
    allocator.bind_chains(trace.chains)
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    chain_ids = arrays["chain_ids"]
    addresses = {}
    for code in arrays["events"]:
        tag = code & 3
        if tag == 2:
            continue
        obj_id = code >> 2
        if tag == 1:
            allocator.free(addresses.pop(obj_id))
        else:
            oracle.answer = trace.lifetime_of(obj_id) < threshold
            addresses[obj_id] = allocator.malloc(
                sizes[obj_id], chain_ids[obj_id]
            )
    cost = arena_cost(
        allocator.ops,
        allocator.general.ops,
        strategy="len4",
        total_calls=trace.total_calls,
        model=model,
    )
    return SimulationResult(
        allocator="arena (oracle)",
        program=trace.program,
        dataset=trace.dataset,
        max_heap_size=allocator.max_heap_size,
        final_live_bytes=allocator.live_bytes,
        ops=allocator.ops.snapshot(),
        cost=cost,
        general_ops=allocator.general.ops.snapshot(),
        arena_allocs=allocator.ops.arena_allocs,
        arena_bytes=allocator.arena_bytes,
        general_allocs=allocator.ops.allocs - allocator.ops.arena_allocs,
        general_bytes=allocator.general_bytes,
        arena_area_size=allocator.arena_area_size,
    )
