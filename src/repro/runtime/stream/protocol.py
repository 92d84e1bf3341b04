"""The typed event protocol behind every trace consumer.

An event stream is::

    StreamHeader                     (prologue: identity + chain table)
    (tag, ...) event tuples          (program order)
    StreamSummary                    (epilogue: aggregate counters)

Events are plain tuples with an integer tag first, chosen for hot-path
speed — the replay loop dispatches on ``ev[0]`` without attribute lookups:

* ``(EV_ALLOC, obj_id, chain_id, size, birth)`` — an object birth.  The
  chain id indexes the header's chain table; carrying size and chain in
  the event is what lets consumers run without a materialized object
  table (and removes the per-event ``size_of``/``chain_of`` lookups the
  old replay loop did).
* ``(EV_FREE, obj_id, death, touches)`` — an explicit free at byte-time
  ``death``; ``touches`` is the object's lifetime reference count.
* ``(EV_TOUCH, obj_id, count)`` — ``count`` heap references to a live
  object (present only when the trace was recorded with touch events).

Object ids are dense in allocation order — the ``n``-th ``EV_ALLOC`` of a
stream carries ``obj_id == n`` — which is what lets
:func:`build_trace` rebuild the parallel-array :class:`Trace` with pure
appends.

An :class:`EventSource` bundles the header, the summary, and a
*re-iterable* event sequence: ``events()`` returns a fresh iterator on
every call, so one source can be replayed several times (Table 8 replays
the same trace against three allocators).  Consumers that accept "a
trace" take either a :class:`~repro.runtime.events.Trace` or an
:class:`EventSource` and normalize via :func:`as_event_source`; the
memory model is then the source's: O(1) extra for a wrapped in-memory
trace, O(live objects + one chunk) for a v3 file
(:class:`~repro.runtime.stream.v3.TraceFileSource`).

Objects never freed follow the trace convention — they die at program
exit (``summary.end_time``).  Their identity is implicit (everything
still in a consumer's live set when the stream ends); only their touch
counts need carrying, which ``summary.unfreed_touches`` does in
O(live-at-exit) space.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterator, Tuple, Union

from repro.core.sites import ChainTable
from repro.runtime.events import _NEVER_FREED, LiveStats, Trace
from repro.runtime.tracefile import TraceFormatError

__all__ = [
    "EV_ALLOC",
    "EV_FREE",
    "EV_TOUCH",
    "Event",
    "StreamHeader",
    "StreamSummary",
    "EventSource",
    "TraceEventSource",
    "as_event_source",
    "build_trace",
    "check_footer",
    "event_error",
    "first_malformed",
    "iter_object_lifetimes",
    "iter_object_records",
    "stream_live_stats",
]

#: Event tags.  Values match the low-bit tags packed into
#: :class:`~repro.runtime.events.Trace` event codes, so wrapping a trace
#: is a shift-and-mask, not a translation table.
EV_ALLOC = 0
EV_FREE = 1
EV_TOUCH = 2

Event = Tuple[int, ...]


@dataclass(frozen=True)
class StreamHeader:
    """Stream prologue: execution identity plus the interned chain table.

    Available before the first event, so consumers can resolve
    ``chain_id`` -> :class:`~repro.core.sites.CallChain` while streaming.
    """

    program: str
    dataset: str
    chains: ChainTable
    has_touch_events: bool


@dataclass(frozen=True)
class StreamSummary:
    """Stream epilogue: the aggregate counters a trace carries.

    ``end_time`` is the final byte-time clock value (total bytes
    allocated); ``unfreed_touches`` holds ``(obj_id, touches)`` pairs for
    never-freed objects with a nonzero touch count, sorted by object id —
    by definition O(live objects at exit).
    """

    total_calls: int
    heap_refs: int
    non_heap_refs: int
    end_time: int
    total_objects: int
    event_count: int
    unfreed_touches: Tuple[Tuple[int, int], ...] = ()


class EventSource:
    """One execution's event stream: header, events, summary.

    ``events()`` must return a *fresh* iterator each call.  ``header``
    and ``summary`` are available without consuming events (the v3 file
    format keeps its footer reachable through a fixed-size trailer for
    exactly this reason).
    """

    @property
    def header(self) -> StreamHeader:
        raise NotImplementedError

    @property
    def summary(self) -> StreamSummary:
        raise NotImplementedError

    def events(self) -> Iterator[Event]:
        """The event tuples in program order (a fresh iterator per call)."""
        raise NotImplementedError


class TraceEventSource(EventSource):
    """An in-memory :class:`Trace` viewed through the event protocol."""

    def __init__(self, trace: Trace):
        self.trace = trace
        arrays = trace.raw_arrays()
        self._chain_ids = arrays["chain_ids"]
        self._sizes = arrays["sizes"]
        self._births = arrays["births"]
        self._deaths = arrays["deaths"]
        self._touches = arrays["touches"]
        self._codes = arrays["events"]
        self._touch_counts = arrays["touch_counts"]
        self._header = StreamHeader(
            program=trace.program,
            dataset=trace.dataset,
            chains=trace.chains,
            has_touch_events=trace.has_touch_events,
        )
        self._summary: Union[StreamSummary, None] = None

    @property
    def header(self) -> StreamHeader:
        return self._header

    @property
    def summary(self) -> StreamSummary:
        if self._summary is None:
            trace = self.trace
            self._summary = StreamSummary(
                total_calls=trace.total_calls,
                heap_refs=trace.heap_refs,
                non_heap_refs=trace.non_heap_refs,
                end_time=trace.end_time,
                total_objects=trace.total_objects,
                event_count=trace.event_count,
                unfreed_touches=trace.unfreed_touches,
            )
        return self._summary

    def events(self) -> Iterator[Event]:
        chain_ids = self._chain_ids
        sizes = self._sizes
        births = self._births
        deaths = self._deaths
        touches = self._touches
        touch_counts = self._touch_counts
        touch_index = 0
        for code in self._codes:
            tag = code & 3
            obj_id = code >> 2
            if tag == EV_ALLOC:
                yield (
                    EV_ALLOC, obj_id,
                    chain_ids[obj_id], sizes[obj_id], births[obj_id],
                )
            elif tag == EV_FREE:
                yield (EV_FREE, obj_id, deaths[obj_id], touches[obj_id])
            else:
                yield (EV_TOUCH, obj_id, touch_counts[touch_index])
                touch_index += 1


def as_event_source(trace: Union[Trace, EventSource]) -> EventSource:
    """Normalize "a trace" to an :class:`EventSource`.

    Every consumer that historically took a :class:`Trace` funnels
    through this, so materialized and streaming callers share one code
    path (and therefore one set of results).
    """
    if isinstance(trace, EventSource):
        return trace
    if isinstance(trace, Trace):
        return TraceEventSource(trace)
    raise TypeError(
        f"expected a Trace or EventSource, got {type(trace).__name__}"
    )


def event_error(
    source: EventSource, offset: int, ev: Event, next_id: int = -1
) -> TraceFormatError:
    """The error for the malformed event ``ev`` at ``offset``.

    Every consumer reports a malformed stream through this one message:
    the file (``program/dataset`` for an in-memory stream), the event
    offset and the object id.  A free is malformed when its object is
    not live.  An alloc is malformed when it names a chain id the header
    never interned, or else when its id is not ``next_id``, the next in
    dense allocation order, or else when its size is below 1.
    """
    header = source.header
    obj_id = ev[1]
    if ev[0] == EV_FREE:
        problem = f"free of object {obj_id}, which is not live"
    elif not 0 <= ev[2] < len(header.chains):
        problem = (
            f"object {obj_id} names chain id {ev[2]}, but the header "
            f"interns {len(header.chains)} chains"
        )
    elif obj_id != next_id:
        problem = (
            f"alloc of object {obj_id} out of order: object ids are dense "
            f"in allocation order, so the next is {next_id}"
        )
    else:
        problem = f"object {obj_id} has size {ev[3]}; sizes are >= 1"
    return TraceFormatError(f"{_where(source)}: event {offset}: {problem}")


def _where(source: EventSource) -> str:
    """The file ``source`` reads, or ``program/dataset`` for an in-memory
    stream."""
    header = source.header
    return getattr(source, "path", None) or (
        f"{header.program}/{header.dataset}"
    )


def first_malformed(source: EventSource) -> TraceFormatError:
    """The error for the first malformed event of ``source``.

    Consumers check each event the way :func:`build_trace` does but keep
    no event counter; once a check fails they call this, which walks a
    fresh ``events()`` pass to name the offending event's offset through
    :func:`event_error`.  So the offset costs nothing unless the stream
    is malformed.  A source whose second pass finds nothing malformed
    changed between the two passes, which is itself a format error.
    """
    chain_count = len(source.header.chains)
    live = set()
    next_id = 0
    for offset, ev in enumerate(source.events()):
        tag = ev[0]
        if tag == EV_ALLOC:
            if (ev[1] != next_id or not 0 <= ev[2] < chain_count
                    or ev[3] < 1):
                return event_error(source, offset, ev, next_id)
            live.add(next_id)
            next_id += 1
        elif tag == EV_FREE:
            if ev[1] not in live:
                return event_error(source, offset, ev)
            live.remove(ev[1])
    return TraceFormatError(
        f"{_where(source)}: a check failed on an event that a second pass "
        f"over the stream finds well formed"
    )


def check_footer(source: EventSource, objects: int, allocated: int,
                 still_live) -> None:
    """Raise unless ``source``'s footer agrees with its events.

    ``objects`` and ``allocated`` are the objects and bytes the events
    allocated, and ``still_live(obj_id)`` tells whether an object was
    never freed.  The footer's ``total_objects`` must count the objects,
    its ``end_time`` (the byte-time clock at exit) must equal the bytes,
    and every ``unfreed_touches`` id must name an object still live at
    the end.  :func:`build_trace`, :func:`iter_object_records`,
    :func:`stream_live_stats` and a streamed replay call this once their
    single pass ends, so all raise the same
    :class:`~repro.runtime.tracefile.TraceFormatError`, naming the file
    and the footer field.
    """
    where = _where(source)
    summary = source.summary
    if summary.total_objects != objects:
        raise TraceFormatError(
            f"{where}: footer total_objects is {summary.total_objects}, "
            f"but the events allocate {objects} objects"
        )
    if summary.end_time != allocated:
        raise TraceFormatError(
            f"{where}: footer end_time is {summary.end_time}, but the "
            f"events allocate {allocated} bytes"
        )
    for obj_id, _ in summary.unfreed_touches:
        if not still_live(obj_id):
            raise TraceFormatError(
                f"{where}: footer unfreed_touches names object {obj_id}, "
                f"which is not live at the end of the stream"
            )


def build_trace(source: EventSource) -> Trace:
    """Materialize an event stream back into an in-memory :class:`Trace`.

    The inverse of :class:`TraceEventSource`: alloc events arrive in
    dense object-id order, so the parallel arrays are rebuilt with pure
    appends and the result round-trips exactly (same events, arrays, and
    aggregates).

    A malformed stream raises
    :class:`~repro.runtime.tracefile.TraceFormatError` (see
    :func:`event_error`): an alloc out of dense id order, under a chain
    id the header never interned or of a size below 1, or a free of an
    object that is not live — never allocated, negative, or already
    freed.  An event's offset is the length of the event array before
    it, so the checks cost a few comparisons per event and keep no
    counter.  A footer that disagrees with the events raises too (see
    :func:`check_footer`).
    """
    header = source.header
    chain_count = len(header.chains)
    never = _NEVER_FREED
    chain_ids = array("i")
    sizes = array("q")
    births = array("q")
    deaths = array("q")
    touches = array("q")
    events = array("q")
    touch_counts = array("q")
    ev: Event = ()
    try:
        for ev in source.events():
            tag = ev[0]
            obj_id = ev[1]
            if tag == EV_ALLOC:
                if (obj_id != len(sizes) or not 0 <= ev[2] < chain_count
                        or ev[3] < 1):
                    raise event_error(source, len(events), ev, len(sizes))
                chain_ids.append(ev[2])
                sizes.append(ev[3])
                births.append(ev[4])
                deaths.append(never)
                touches.append(0)
                events.append((obj_id << 2) | EV_ALLOC)
            elif tag == EV_FREE:
                if obj_id < 0 or deaths[obj_id] != never:
                    raise event_error(source, len(events), ev)
                deaths[obj_id] = ev[2]
                touches[obj_id] = ev[3]
                events.append((obj_id << 2) | EV_FREE)
            else:
                events.append((obj_id << 2) | EV_TOUCH)
                touch_counts.append(ev[2])
    except IndexError as exc:
        # ``deaths[obj_id]`` of an id past every allocated object.
        if ev and ev[0] == EV_FREE and ev[1] >= len(sizes):
            raise event_error(source, len(events), ev) from exc
        raise
    objects = len(sizes)
    check_footer(
        source, objects, sum(sizes),
        lambda obj_id: 0 <= obj_id < objects and deaths[obj_id] == never,
    )
    summary = source.summary
    for obj_id, count in summary.unfreed_touches:
        touches[obj_id] = count
    return Trace(
        program=header.program,
        dataset=header.dataset,
        chains=header.chains,
        chain_ids=chain_ids,
        sizes=sizes,
        births=births,
        deaths=deaths,
        touches=touches,
        events=events,
        total_calls=summary.total_calls,
        heap_refs=summary.heap_refs,
        non_heap_refs=summary.non_heap_refs,
        touch_counts=touch_counts,
    )


def iter_object_lifetimes(
    source: EventSource,
) -> Iterator[Tuple[int, int, int, int]]:
    """``(chain_id, size, lifetime, touches)`` per object, one stream pass.

    Freed objects are yielded at their free event (lifetime =
    ``death - birth``); objects never freed are yielded after the stream
    ends, in object-id order, with the trace convention lifetime
    ``end_time - birth``.  The working set is the live-object dict, and
    a malformed stream raises as in :func:`iter_object_records`, whose
    records this collapses.

    Every per-object accumulation in the pipeline that is
    order-independent — the all-short-lived site folds behind each
    predictor family, survival curves, lifetime quantile inputs — is fed
    from this iterator, which is why the streaming and materialized
    paths produce identical predictor databases and tables.
    """
    for _, chain_id, size, birth, death, touches in iter_object_records(
        source
    ):
        yield (chain_id, size, death - birth, touches)


def iter_object_records(
    source: EventSource,
) -> Iterator[Tuple[int, int, int, int, int, int]]:
    """``(obj_id, chain_id, size, birth, death, touches)`` per object.

    One stream pass with a live-object working set.  Freed objects are
    yielded at their free event; objects never freed are yielded after
    the stream ends, in object-id order, dying at ``summary.end_time``.
    Folds that partition the run into windows key on the absolute
    birth/death byte-times and the dense object id, which is why
    :func:`~repro.runtime.folds.fold_object_lifetimes` feeds its folds
    this tuple shape (see
    :meth:`~repro.runtime.folds.LifetimeFold.add_object`).

    A malformed stream, or a footer that disagrees with it, raises the
    :class:`~repro.runtime.tracefile.TraceFormatError` that
    :func:`build_trace` raises for it (see :func:`first_malformed` and
    :func:`check_footer`).
    """
    chain_count = len(source.header.chains)
    live = {}
    next_id = 0
    allocated = 0
    for ev in source.events():
        tag = ev[0]
        if tag == EV_ALLOC:
            if (ev[1] != next_id or not 0 <= ev[2] < chain_count
                    or ev[3] < 1):
                raise first_malformed(source)
            next_id += 1
            allocated += ev[3]
            live[ev[1]] = (ev[2], ev[3], ev[4])
        elif tag == EV_FREE:
            try:
                chain_id, size, birth = live.pop(ev[1])
            except KeyError as exc:
                raise first_malformed(source) from exc
            yield (ev[1], chain_id, size, birth, ev[2], ev[3])
    check_footer(source, next_id, allocated, live.__contains__)
    summary = source.summary
    end_time = summary.end_time
    unfreed_touches = dict(summary.unfreed_touches)
    for obj_id in sorted(live):
        chain_id, size, birth = live[obj_id]
        yield (
            obj_id, chain_id, size, birth, end_time,
            unfreed_touches.get(obj_id, 0),
        )


def stream_live_stats(source: EventSource) -> LiveStats:
    """High-water marks of live bytes/objects from one stream pass.

    Same accumulation as :meth:`Trace.live_stats`; a wrapped in-memory
    trace delegates to it so the per-trace cache keeps working.  A
    malformed stream, or a footer that disagrees with it, raises as in
    :func:`iter_object_records`.
    """
    if isinstance(source, TraceEventSource):
        return source.trace.live_stats()
    chain_count = len(source.header.chains)
    live_sizes = {}
    live_bytes = live_objects = next_id = allocated = 0
    max_bytes = max_objects = 0
    for ev in source.events():
        tag = ev[0]
        if tag == EV_TOUCH:
            continue
        if tag == EV_FREE:
            try:
                live_bytes -= live_sizes.pop(ev[1])
            except KeyError as exc:
                raise first_malformed(source) from exc
            live_objects -= 1
        else:
            size = ev[3]
            if ev[1] != next_id or not 0 <= ev[2] < chain_count or size < 1:
                raise first_malformed(source)
            next_id += 1
            allocated += size
            live_sizes[ev[1]] = size
            live_bytes += size
            live_objects += 1
            if live_bytes > max_bytes:
                max_bytes = live_bytes
            if live_objects > max_objects:
                max_objects = live_objects
    check_footer(source, next_id, allocated, live_sizes.__contains__)
    return LiveStats(max_bytes, max_objects)
