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
:meth:`~repro.analysis.experiments.TraceStore.simulate` computes each
distinct placement once and prices it per caller, and
:func:`counts_for` lets one arena replay answer every arena count it
never outgrew.

On an in-memory trace the store answers BSD and predicting arena
placements without building either allocator, and gets field for field
what :func:`replay_spec` counts (DESIGN.md §17).  :func:`bsd_walk`
reads the BSD heap off each bucket's peak live count.  An arena
placement is :func:`arena_walk`, which keeps each arena's live count
and the current arena's room, composed by :func:`arena_counts` with
:func:`general_replay`, one first-fit replay of the objects the walk
left to the general heap; geometries and predictors that leave
first-fit the same objects share that replay.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import compress
from typing import TYPE_CHECKING, Optional, Tuple

from repro.alloc.arena import ARENA_ALIGNMENT
from repro.alloc.base import Allocator, OpCounts
from repro.alloc.bsd import PAGE_SIZE, bucket_for
from repro.alloc.costs import (
    DEFAULT_COST_MODEL,
    AllocatorCost,
    CostModel,
    arena_cost,
    bsd_cost,
    firstfit_cost,
)
from repro.alloc.spec import FIRSTFIT_SPEC, AllocatorSpec, build_allocator
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
    "ArenaWalk",
    "verdict_bytes",
    "arena_walk",
    "general_replay",
    "arena_counts",
    "bsd_walk",
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


def _check_arrays(trace: Trace) -> None:
    """Raise the trace's first malformed event unless every chain id is
    interned and every size is at least 1.

    Checked once, over the whole arrays: a :class:`Trace` built by hand
    rather than loaded skips
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


def _replay_arrays(trace: Trace, malloc, free) -> None:
    """Replay an in-memory trace from its packed event codes, once
    :func:`_check_arrays` passes."""
    _check_arrays(trace)
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    chain_ids = arrays["chain_ids"]
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


@dataclass(frozen=True)
class ArenaWalk:
    """What one arena geometry did with a trace's predicted-short objects
    (:func:`arena_walk`): the arena half of a §5.1 replay's counters, and
    the predicted-short objects it left to the general heap."""

    predicted_short: int
    arena_allocs: int
    arena_frees: int
    arena_bytes: int
    #: Requested bytes of the arena objects never freed.
    arena_live_bytes: int
    arenas_scanned: int
    arena_resets: int
    arenas_used: int
    arenas_exhausted: bool
    #: The overflowed objects' ids, in trace order.
    overflowed: Tuple[int, ...]


def verdict_bytes(trace: Trace, predictor: LifetimePredictor) -> bytes:
    """``predictor``'s verdict on each object of ``trace``, one byte per
    object, nonzero for short-lived.

    The arrays are range-checked first (:func:`_check_arrays`), so a
    chain id the header never interned raises the trace's
    :class:`~repro.runtime.tracefile.TraceFormatError` and never reaches
    the predictor's memo.  ``predictor``'s verdicts must be a function of
    ``(chain, size)``, as every predictor a store resolves is.
    """
    _check_arrays(trace)
    arrays = trace.raw_arrays()
    return bytes(map(predictor.bind(trace.chains).__getitem__,
                     zip(arrays["chain_ids"], arrays["sizes"])))


def arena_walk(trace: Trace, spec: AllocatorSpec, short: bytes) -> ArenaWalk:
    """The arena half of a replay of the arena ``spec``, from a walk over
    the predicted-short objects' arena counts.

    ``short`` is :func:`verdict_bytes` of ``trace`` under the spec's
    predictor.  One walk over the trace's event codes keeps what a §5.1
    arena holds, a live count per arena and the current arena's room,
    plus each live arena object's arena, and applies the rule of
    :meth:`~repro.alloc.arena.ArenaAllocator.malloc` to them; it skips
    touch codes and every object not predicted short, and builds no
    allocator and makes no address (DESIGN.md §17).  A predicted-short
    object overflows to the general heap when it is larger than an arena
    (no scan), or when a scan finds every arena live, which scans all
    of them and sets ``arenas_exhausted``.  A free of a predicted-short
    object the walk neither placed nor overflowed raises the trace's
    first malformed event; :func:`general_replay` checks the frees of
    every other object.  Like :func:`_replay_arrays`, the walk takes
    each object to be allocated once, as in every loaded or built trace.
    """
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    arena_size = spec.arena_size
    num_arenas = spec.num_arenas
    counts = [0] * num_arenas
    homes = {}  # live arena object -> the index of its arena
    overflowed = {}  # overflowed object -> None, in trace order
    current = 0
    room = arena_size
    arenas_used = 1
    scanned = resets = 0
    exhausted = False
    with TRACER.span("simulate.arena_walk", cat="simulate",
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
                    if need > arena_size:
                        overflowed[obj_id] = None  # no arena holds it
                        continue
                    # A scan examines arenas from the first and resets
                    # the first one whose count is zero; it only ever
                    # switches to an arena it resets, so one room holds.
                    try:
                        current = counts.index(0)
                    except ValueError:
                        scanned += num_arenas  # every arena live
                        exhausted = True
                        overflowed[obj_id] = None
                        continue
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
                    if obj_id not in overflowed:
                        raise first_malformed(trace) from exc
    predicted_short = len(short) - short.count(0)
    arena_allocs = predicted_short - len(overflowed)
    return ArenaWalk(
        predicted_short=predicted_short,
        arena_allocs=arena_allocs,
        arena_frees=arena_allocs - len(homes),
        arena_bytes=(sum(compress(sizes, short))
                     - sum(map(sizes.__getitem__, overflowed))),
        arena_live_bytes=sum(map(sizes.__getitem__, homes)),
        arenas_scanned=scanned,
        arena_resets=resets,
        arenas_used=arenas_used,
        arenas_exhausted=exhausted,
        overflowed=tuple(overflowed),
    )


#: Maps a verdict byte to 1 when it says long-lived, else to 0.
_LONG = bytes([1]) + bytes(255)


def general_replay(
    trace: Trace, short: bytes, overflowed: Tuple[int, ...]
) -> ReplayCounts:
    """A first-fit replay of the objects an arena walk left to the
    general heap: every object ``short`` calls long-lived, and the
    ``overflowed`` ones, in trace order.

    ``short`` is :func:`verdict_bytes` of ``trace``, which range-checked
    its arrays.  The allocator comes out of ``build_allocator(FIRSTFIT_SPEC)``, and
    the replay records a ``simulate.replay`` span.  Its counters are the
    general heap's of a full arena replay that made the same placements:
    first-fit decides from block sizes only, so its base does not matter
    (DESIGN.md §17).  A free of an object that is not live raises the
    trace's first malformed event.
    """
    general = bytearray(short.translate(_LONG))
    for obj_id in overflowed:
        general[obj_id] = 1
    allocator = build_allocator(FIRSTFIT_SPEC)
    malloc, free = allocator.malloc, allocator.free
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    addresses = {}
    with TRACER.span("simulate.replay", cat="simulate",
                     allocator=allocator.name, program=trace.program,
                     dataset=trace.dataset):
        for code in arrays["events"]:
            obj_id = code >> 2
            if not general[obj_id]:
                continue
            tag = code & 3
            if tag == EV_ALLOC:
                addresses[obj_id] = malloc(sizes[obj_id])
            elif tag == EV_FREE:
                try:
                    addr = addresses.pop(obj_id)
                except KeyError as exc:
                    raise first_malformed(trace) from exc
                free(addr)
    return ReplayCounts(
        program=trace.program,
        dataset=trace.dataset,
        max_heap_size=allocator.max_heap_size,
        final_live_bytes=allocator.live_bytes,
        ops=allocator.ops,
    )


def arena_counts(
    trace: Trace,
    spec: AllocatorSpec,
    walk: ArenaWalk,
    general: ReplayCounts,
) -> ReplayCounts:
    """What a replay of the arena ``spec`` counts on ``trace``, from its
    :func:`arena_walk` and the :func:`general_replay` of the objects that
    walk left to the general heap; equal to a fresh :func:`replay_spec`
    field for field.

    An arena decision reads only verdicts, live counts and the current
    arena's room, so the general heap gets exactly those objects in
    trace order (DESIGN.md §17).  As in
    :class:`~repro.alloc.arena.ArenaAllocator`, every free is counted on
    the arena allocator and ``general_ops.frees`` stays 0.
    """
    allocs = trace.total_objects
    requested = trace.total_bytes
    area = spec.num_arenas * spec.arena_size
    general_ops = general.ops
    return ReplayCounts(
        program=trace.program,
        dataset=trace.dataset,
        max_heap_size=area + general.max_heap_size,
        final_live_bytes=general.final_live_bytes + walk.arena_live_bytes,
        ops=OpCounts(
            allocs=allocs,
            frees=general_ops.frees + walk.arena_frees,
            bytes_requested=requested,
            arena_allocs=walk.arena_allocs,
            arena_frees=walk.arena_frees,
            arenas_scanned=walk.arenas_scanned,
            arena_resets=walk.arena_resets,
            arena_overflows=len(walk.overflowed),
            predictions=allocs,
            predicted_short=walk.predicted_short,
        ),
        general_ops=replace(general_ops, frees=0),
        arena_bytes=walk.arena_bytes,
        general_bytes=requested - walk.arena_bytes,
        arena_area_size=area,
        total_calls=trace.total_calls,
        arenas_used=walk.arenas_used,
        arenas_exhausted=walk.arenas_exhausted,
    )


def bsd_walk(trace: Trace) -> ReplayCounts:
    """What a replay of the BSD allocator counts on ``trace``, from each
    bucket's peak live count; equal to a fresh :func:`replay_spec` field
    for field, with no allocator built.

    :class:`~repro.alloc.bsd.BsdAllocator` never splits, coalesces or
    returns a block.  A bucket's LIFO list is empty exactly when its
    live count equals the blocks carved so far, and only then does an
    alloc refill it, with one chunk of ``max(1 << bucket, PAGE_SIZE)``
    bytes from a page-sized ``sbrk``.  So a bucket whose live count
    peaks at P refills ``ceil(P / (chunk >> bucket))`` times, and
    ``sbrks`` and the max heap are the refills and their chunks summed
    over the buckets (DESIGN.md §17).  The walk keeps a live count and
    its peak per bucket and each live object's bucket.  It checks what
    :func:`_replay_arrays` checks and raises the same
    :class:`~repro.runtime.tracefile.TraceFormatError`, and like that
    replay it takes each object to be allocated once.
    """
    _check_arrays(trace)
    arrays = trace.raw_arrays()
    sizes = arrays["sizes"]
    bucket_of = {size: bucket_for(size) for size in set(sizes)}
    buckets = bytes(map(bucket_of.__getitem__, sizes))
    counts = [0] * 65  # a 64-bit size's bucket is at most 64
    peaks = [0] * 65
    live = {}  # live object -> its bucket
    with TRACER.span("simulate.bsd_walk", cat="simulate", allocator="bsd",
                     program=trace.program, dataset=trace.dataset):
        for code in arrays["events"]:
            tag = code & 3
            if tag == EV_ALLOC:
                obj_id = code >> 2
                bucket = live[obj_id] = buckets[obj_id]
                count = counts[bucket] + 1
                counts[bucket] = count
                if count > peaks[bucket]:
                    peaks[bucket] = count
            elif tag == EV_FREE:
                try:
                    counts[live.pop(code >> 2)] -= 1
                except KeyError as exc:
                    raise first_malformed(trace) from exc
    sbrks = heap = 0
    for bucket, peak in enumerate(peaks):
        if peak:
            chunk = max(1 << bucket, PAGE_SIZE)
            refills = -(-peak // (chunk >> bucket))
            sbrks += refills
            heap += refills * chunk
    allocs = len(sizes)
    return ReplayCounts(
        program=trace.program,
        dataset=trace.dataset,
        max_heap_size=heap,
        final_live_bytes=sum(map(sizes.__getitem__, live)),
        ops=OpCounts(allocs=allocs, frees=allocs - len(live),
                     bytes_requested=trace.total_bytes, sbrks=sbrks),
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
