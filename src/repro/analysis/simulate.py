"""Trace-driven allocator simulation.

The paper's §5.2 methodology: "we fed a trace of the program's allocation
events and a list of short-lived sites into a simulator of the prediction
algorithm.  The output of the simulator gives operation counts,
information about the fraction of objects and bytes allocated in arenas,
heap size, and fragmentation measurements."  This module is that
simulator driver: it replays a trace's alloc/free event sequence against
any of the allocator simulators and packages the measurements the tables
need.

A simulation is two steps: :func:`replay_spec` drives the allocator
and keeps its counters (:class:`ReplayCounts`), and :func:`price` turns
counters into instruction costs.  Pricing never touches the trace, so
:meth:`~repro.analysis.experiments.TraceStore.simulate` replays each
distinct placement once and prices it per caller; :func:`counts_for`
lets one arena replay answer every arena count it never outgrew, and
:func:`arena_pass` lets one that overflowed nothing answer every other
arena geometry of its predictor from a walk that keeps only each
arena's live count, with no allocator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING, Optional

from repro.alloc.arena import ARENA_ALIGNMENT
from repro.alloc.base import Allocator, OpCounts
from repro.alloc.costs import (
    DEFAULT_COST_MODEL,
    AllocatorCost,
    CostModel,
    arena_cost,
    bsd_cost,
    firstfit_cost,
)
from repro.alloc.spec import AllocatorSpec, build_allocator
from repro.core.predictor import LifetimePredictor
from repro.obs.spans import TRACER
from repro.runtime.events import EV_ALLOC, EV_FREE, EventSource, Trace
from repro.runtime.stream.protocol import check_footer, first_malformed

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

__all__ = [
    "SimulationResult",
    "ReplayCounts",
    "replay",
    "replay_spec",
    "counts_for",
    "arena_pass",
    "price",
    "simulate_spec",
]


@dataclass(frozen=True)
class SimulationResult:
    """Measurements from replaying one trace against one allocator."""

    allocator: str
    program: str
    dataset: str
    max_heap_size: int
    final_live_bytes: int
    ops: OpCounts
    cost: AllocatorCost
    #: Arena-allocator extras (None for the baselines).
    general_ops: Optional[OpCounts] = None
    arena_allocs: int = 0
    arena_bytes: int = 0
    general_allocs: int = 0
    general_bytes: int = 0
    arena_area_size: int = 0

    @property
    def total_allocs(self) -> int:
        """Allocations replayed."""
        return self.ops.allocs

    @property
    def total_bytes(self) -> int:
        """Bytes requested across the replay."""
        return self.ops.bytes_requested

    @property
    def arena_alloc_pct(self) -> float:
        """Percent of allocations served from arenas (Table 7)."""
        return _pct(self.arena_allocs, self.total_allocs)

    @property
    def arena_byte_pct(self) -> float:
        """Percent of bytes served from arenas (Table 7)."""
        return _pct(self.arena_bytes, self.total_bytes)


def replay(source: EventSource, allocator: Allocator,
           check_invariants: bool = False,
           telemetry: Optional["Telemetry"] = None) -> None:
    """Drive ``allocator`` with a trace's event sequence.

    ``source`` is an in-memory :class:`Trace` or a v3 trace file opened
    with :func:`~repro.runtime.tracefile.open_trace_stream`; replay
    memory is the source's — for a streamed file, the live address map
    plus one slice of a frame.

    The allocator is driven on ``(chain id, size)``, as the paper's
    simulator was (§5.2): replay binds it to the header's chain table
    (:meth:`~repro.alloc.base.Allocator.bind_chains`) before the first
    event.  An in-memory trace replays straight from its packed arrays,
    indexing sizes and chain ids by object id; any other source is
    replayed from its ``events()`` tuples.

    With ``check_invariants`` the allocator is audited after every 4096
    operations — slow, used by the integration tests.

    A malformed stream raises
    :class:`~repro.runtime.tracefile.TraceFormatError` naming the file,
    the event offset, and the object id (see
    :func:`~repro.runtime.stream.protocol.first_malformed`): a free of an
    object that is not live, an alloc under a chain id the header never
    interned or of a size below 1, or, on a stream, a touch of an object
    that is not live or an alloc out of dense id order.  On a stream, a
    footer that disagrees with the events raises too, once the pass ends
    (see :func:`~repro.runtime.stream.protocol.check_footer`).

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry`
    recorder for the duration of the replay: the allocator reports every
    operation through its probe and the recorder samples the heap gauges
    every ``telemetry.interval`` allocations.  The replay loop itself is
    untouched — with ``telemetry=None`` (the default) the allocators pay
    one ``is None`` test per operation.
    """
    header = source.header
    allocator.bind_chains(header.chains)
    if telemetry is not None:
        telemetry.attach(
            allocator, program=header.program, dataset=header.dataset,
            chains=header.chains,
        )
    with TRACER.span("simulate.replay", cat="simulate",
                     allocator=allocator.name, program=header.program,
                     dataset=header.dataset):
        malloc, free = allocator.malloc, allocator.free
        if check_invariants:
            malloc, free = _audited(allocator)
        if isinstance(source, Trace):
            _replay_arrays(source, malloc, free)
        else:
            _replay_events(source, malloc, free)
        if check_invariants:
            allocator.check_invariants()
    if telemetry is not None:
        telemetry.finish()


def _replay_arrays(trace: Trace, malloc, free) -> None:
    """Replay an in-memory trace from its packed event codes.

    Chain ids and sizes are range-checked once, over their whole arrays:
    a :class:`Trace` built by hand rather than loaded skips
    :func:`~repro.runtime.stream.protocol.build_trace`'s per-event
    checks.
    """
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    chain_ids = arrays["chain_ids"]
    if chain_ids and not (
        min(chain_ids) >= 0 and max(chain_ids) < len(trace.chains)
        and min(sizes) >= 1
    ):
        raise first_malformed(trace)
    addresses = {}
    for code in arrays["events"]:
        tag = code & 3
        if tag == EV_ALLOC:
            obj_id = code >> 2
            addresses[obj_id] = malloc(sizes[obj_id], chain_ids[obj_id])
        elif tag == EV_FREE:
            try:
                addr = addresses.pop(code >> 2)
            except KeyError as exc:
                raise first_malformed(trace) from exc
            free(addr)


def _replay_events(source: EventSource, malloc, free) -> None:
    """Replay any event source from its ``events()`` tuples.

    Each alloc is checked for dense id order, an interned chain id and
    a size of at least 1, each free and touch for a live object, and
    the footer against the events once the pass ends.
    """
    chain_count = len(source.header.chains)
    addresses = {}
    next_id = 0
    allocated = 0
    for ev in source.events():
        tag = ev[0]
        if tag == EV_ALLOC:
            obj_id = ev[1]
            chain_id = ev[2]
            size = ev[3]
            if (obj_id != next_id or not 0 <= chain_id < chain_count
                    or size < 1):
                raise first_malformed(source)
            next_id += 1
            allocated += size
            addresses[obj_id] = malloc(size, chain_id)
        elif tag == EV_FREE:
            try:
                addr = addresses.pop(ev[1])
            except KeyError as exc:
                raise first_malformed(source) from exc
            free(addr)
        elif ev[1] not in addresses:
            raise first_malformed(source)
    check_footer(source, next_id, allocated, addresses.__contains__)


def _audited(allocator: Allocator):
    """``malloc`` and ``free`` that audit ``allocator`` every 4096 calls."""
    step = 0

    def tick() -> None:
        nonlocal step
        step += 1
        if step % 4096 == 0:
            allocator.check_invariants()

    def malloc(size, chain):
        addr = allocator.malloc(size, chain)
        tick()
        return addr

    def free(addr):
        allocator.free(addr)
        tick()

    return malloc, free


def _result_name(spec: AllocatorSpec) -> str:
    """The result's allocator label (kept stable for every renderer)."""
    if spec.kind == "firstfit":
        return "first-fit"
    if spec.kind == "bsd":
        return "bsd"
    if spec.kind == "multiarena":
        return f"multi-arena ({spec.strategy})"
    return f"arena ({spec.strategy})"


@dataclass(frozen=True)
class ReplayCounts:
    """What one replay measured, before any instruction pricing.

    Everything here follows from the allocator's placement decisions,
    so specs that differ only in the costing ``strategy`` — or callers
    pricing under another :class:`CostModel` — share one replay and
    differ only in :func:`price`.  Holds counters only, never the
    allocator or the source.
    """

    program: str
    dataset: str
    max_heap_size: int
    final_live_bytes: int
    ops: OpCounts
    #: Arena kinds only: the embedded general heap's counters, the
    #: placement split, and the calls the ``cce`` strategy amortizes.
    general_ops: Optional[OpCounts] = None
    arena_bytes: int = 0
    general_bytes: int = 0
    arena_area_size: int = 0
    total_calls: int = 0
    #: Kind ``arena`` only: 1 + the highest arena index the replay made
    #: current, and whether a scan ever found every arena live.
    arenas_used: int = 0
    arenas_exhausted: bool = False


def replay_spec(
    source: EventSource,
    spec: AllocatorSpec,
    predictor: Optional[LifetimePredictor] = None,
    telemetry: Optional["Telemetry"] = None,
) -> ReplayCounts:
    """Replay a trace against the allocator ``spec`` describes and
    collect its counters (see :func:`simulate_spec`)."""
    allocator = build_allocator(spec, predictor)
    replay(source, allocator, telemetry=telemetry)
    common = dict(
        program=source.header.program,
        dataset=source.header.dataset,
        max_heap_size=allocator.max_heap_size,
        final_live_bytes=allocator.live_bytes,
        ops=allocator.ops,
    )
    if spec.kind in ("firstfit", "bsd"):
        return ReplayCounts(**common)
    if spec.kind == "multiarena":
        area = dict(arena_area_size=allocator.total_area_size)
    else:
        area = dict(
            arena_area_size=allocator.arena_area_size,
            arenas_used=allocator.arenas_used,
            arenas_exhausted=allocator.arenas_exhausted,
        )
    return ReplayCounts(
        general_ops=allocator.general.ops,
        arena_bytes=allocator.arena_bytes,
        general_bytes=allocator.general_bytes,
        total_calls=source.summary.total_calls,
        **area,
        **common,
    )


def counts_for(
    counts: ReplayCounts, spec: AllocatorSpec
) -> Optional[ReplayCounts]:
    """What a replay of ``spec`` counts, read off ``counts``; or None.

    ``counts`` is a replay of ``spec``'s placement with ``num_arenas``
    aside.  Arenas past ``arenas_used`` never changed a counter, and the
    general heap's counters do not depend on where it starts, so a
    replay that never found all its arenas live counts the same with
    any count from ``arenas_used`` up (DESIGN.md §17).  Only the arena
    area, and the max heap that includes it, are rewritten.  None when
    ``counts`` cannot tell: it exhausted its arenas, or reached more
    than ``spec`` has.
    """
    if spec.kind != "arena":
        return counts
    area = spec.num_arenas * spec.arena_size
    if area == counts.arena_area_size:
        return counts
    if counts.arenas_exhausted or counts.arenas_used > spec.num_arenas:
        return None
    return replace(
        counts,
        arena_area_size=area,
        max_heap_size=counts.max_heap_size - counts.arena_area_size + area,
    )


def arena_pass(
    general: ReplayCounts,
    trace: Trace,
    spec: AllocatorSpec,
    predictor: LifetimePredictor,
) -> Optional[ReplayCounts]:
    """What a replay of the arena ``spec`` counts, from ``general`` and a
    walk over the predicted-short objects' arena counts; or None.

    ``general`` is a replay of ``trace`` under ``predictor`` in another
    arena geometry, one that overflowed nothing.  Without an overflow the
    first-fit general heap gets exactly the objects ``predictor`` calls
    long-lived, in trace order, so its counters and every placement
    total are the predictor's, whatever the geometry (DESIGN.md §17).
    This rewrites what the geometry decides: the arena area, the max
    heap that includes it, ``arenas_used``, ``arenas_exhausted``, and the
    arena scans and resets.  No allocator is built and no address made:
    one walk over the trace's event codes keeps what a §5.1 arena holds,
    a live count per arena and the current arena's room, plus each live
    predicted-short object's arena, and applies the rule of
    :meth:`~repro.alloc.arena.ArenaAllocator.malloc` to them.  None when
    ``spec`` overflows: a predicted-short object is larger than its
    arenas (found before the walk), or a scan finds every arena live.
    ``predictor``'s verdicts must be a function of ``(chain, size)``, as
    every predictor a store resolves is.  The replay that made
    ``general`` range-checked the trace's chain ids and sizes; the walk
    checks that each free is of an object it placed.
    """
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    # One verdict byte per object; the walk holds no per-event list.
    short = bytes(map(predictor.bind(trace.chains).__getitem__,
                      zip(arrays["chain_ids"], sizes)))
    arena_size = spec.arena_size
    largest = max(compress(sizes, short), default=0)
    if ((largest + ARENA_ALIGNMENT - 1) // ARENA_ALIGNMENT
            * ARENA_ALIGNMENT > arena_size):
        return None
    counts = [0] * spec.num_arenas
    homes = {}  # live predicted-short object -> the index of its arena
    current = 0
    room = arena_size
    arenas_used = 1
    scanned = resets = 0
    with TRACER.span("simulate.arena_pass", cat="simulate",
                     allocator=spec.kind, program=trace.program,
                     dataset=trace.dataset):
        for code in arrays["events"]:
            obj_id = code >> 2
            if not short[obj_id]:
                continue
            tag = code & 3
            if tag == EV_ALLOC:
                need = ((sizes[obj_id] + ARENA_ALIGNMENT - 1)
                        // ARENA_ALIGNMENT * ARENA_ALIGNMENT)
                if need > room:
                    # A scan examines arenas from the first and resets
                    # the first one whose count is zero; it only ever
                    # switches to an arena it resets, so one room holds.
                    try:
                        current = counts.index(0)
                    except ValueError:
                        return None  # every arena live: an overflow
                    scanned += current + 1
                    resets += 1
                    room = arena_size
                    if current >= arenas_used:
                        arenas_used = current + 1
                room -= need
                counts[current] += 1
                homes[obj_id] = current
            elif tag == EV_FREE:
                try:
                    counts[homes.pop(obj_id)] -= 1
                except KeyError as exc:
                    raise first_malformed(trace) from exc
    area = spec.num_arenas * arena_size
    return replace(
        general,
        max_heap_size=general.max_heap_size - general.arena_area_size + area,
        arena_area_size=area,
        arenas_used=arenas_used,
        arenas_exhausted=False,
        ops=replace(general.ops, arenas_scanned=scanned,
                    arena_resets=resets),
    )


def price(
    counts: ReplayCounts,
    spec: AllocatorSpec,
    model: CostModel = DEFAULT_COST_MODEL,
) -> SimulationResult:
    """Price one replay's counters under ``spec``'s strategy and ``model``.

    The only place a :class:`SimulationResult` is built: a fresh replay
    and a memoized one come out identical field for field.  Each result
    gets its own copy of the counters.
    """
    ops = counts.ops
    common = dict(
        allocator=_result_name(spec),
        program=counts.program,
        dataset=counts.dataset,
        max_heap_size=counts.max_heap_size,
        final_live_bytes=counts.final_live_bytes,
        ops=ops.snapshot(),
    )
    if spec.kind == "firstfit":
        return SimulationResult(cost=firstfit_cost(ops, model), **common)
    if spec.kind == "bsd":
        return SimulationResult(cost=bsd_cost(ops, model), **common)
    cost = arena_cost(
        ops,
        counts.general_ops,
        strategy=spec.strategy,
        total_calls=counts.total_calls,
        model=model,
    )
    return SimulationResult(
        cost=cost,
        general_ops=counts.general_ops.snapshot(),
        arena_allocs=ops.arena_allocs,
        arena_bytes=counts.arena_bytes,
        general_allocs=ops.allocs - ops.arena_allocs,
        general_bytes=counts.general_bytes,
        arena_area_size=counts.arena_area_size,
        **common,
    )


def simulate_spec(
    source: EventSource,
    spec: AllocatorSpec,
    predictor: Optional[LifetimePredictor] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    telemetry: Optional["Telemetry"] = None,
) -> SimulationResult:
    """Replay a trace against the allocator an :class:`AllocatorSpec`
    describes.

    This is the single construction path: the allocator comes out of
    :func:`~repro.alloc.spec.build_allocator`, so every consumer —
    tables, bench, stats, the design-space search — replays exactly the
    configuration the spec hashes to.  ``predictor`` is the resolved
    predictor object for the arena kinds (see
    :meth:`~repro.analysis.experiments.TraceStore.predictor_for`).
    Always a fresh replay; :meth:`~repro.analysis.experiments.TraceStore.
    simulate` is the memoized form.
    """
    return price(replay_spec(source, spec, predictor, telemetry), spec, model)


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator
