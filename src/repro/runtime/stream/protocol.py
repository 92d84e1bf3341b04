"""The stream checks and walkers behind every trace consumer.

The event protocol itself — the ``EV_*`` tags, :class:`StreamHeader`,
:class:`StreamSummary` and :class:`EventSource` — lives in
:mod:`repro.runtime.events` beside :class:`~repro.runtime.events.Trace`,
which is the in-memory event source; this module re-exports it.  A
consumer takes an :class:`EventSource`: either a ``Trace`` or a v3 file
(:class:`~repro.runtime.stream.v3.TraceFileSource`), whose memory model
is O(live objects + one slice of a frame).

Object ids are dense in allocation order — the ``n``-th ``EV_ALLOC`` of a
stream carries ``obj_id == n`` — which is what lets
:func:`build_trace` rebuild the parallel-array :class:`Trace` with pure
appends.  Every walker here checks each event the way
:func:`build_trace` does and reports a malformed stream through
:func:`event_error`, and checks the footer with :func:`check_footer`
once its pass ends.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Tuple

from repro.runtime.events import (
    _NEVER_FREED,
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    Event,
    EventSource,
    LiveStats,
    StreamHeader,
    StreamSummary,
    Trace,
)
from repro.runtime.tracefile import TraceFormatError

__all__ = [
    "EV_ALLOC",
    "EV_FREE",
    "EV_TOUCH",
    "Event",
    "StreamHeader",
    "StreamSummary",
    "EventSource",
    "build_trace",
    "check_footer",
    "event_error",
    "first_malformed",
    "iter_object_lifetimes",
    "iter_object_records",
    "stream_live_stats",
]


def event_error(
    source: EventSource, offset: int, ev: Event, next_id: int = -1
) -> TraceFormatError:
    """The error for the malformed event ``ev`` at ``offset``.

    Every consumer reports a malformed stream through this one message:
    the file (``program/dataset`` for an in-memory stream), the event
    offset and the object id.  A free or a touch is malformed when its
    object is not live.  An alloc is malformed when it names a chain id
    the header never interned, or else when its id is not ``next_id``,
    the next in dense allocation order, or else when its size is below 1.
    """
    header = source.header
    obj_id = ev[1]
    if ev[0] == EV_FREE:
        problem = f"free of object {obj_id}, which is not live"
    elif ev[0] == EV_TOUCH:
        problem = f"touch of object {obj_id}, which is not live"
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
        elif ev[1] not in live:
            return event_error(source, offset, ev)
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

    The inverse of :meth:`Trace.events`: alloc events arrive in
    dense object-id order, so the parallel arrays are rebuilt with pure
    appends and the result round-trips exactly (same events, arrays, and
    aggregates).

    A malformed stream raises
    :class:`~repro.runtime.tracefile.TraceFormatError` (see
    :func:`event_error`): an alloc out of dense id order, under a chain
    id the header never interned or of a size below 1, or a free or a
    touch of an object that is not live — never allocated, negative, or
    already freed.  An event's offset is the length of the event array
    before it, so the checks cost a few comparisons per event and keep
    no counter.  A footer that disagrees with the events raises too (see
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
                if obj_id < 0 or deaths[obj_id] != never:
                    raise event_error(source, len(events), ev)
                events.append((obj_id << 2) | EV_TOUCH)
                touch_counts.append(ev[2])
    except IndexError as exc:
        # ``deaths[obj_id]`` of an id past every allocated object.
        if ev and ev[0] != EV_ALLOC and ev[1] >= len(sizes):
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

    Nothing in the package reads objects this way: its folds go through
    :func:`~repro.runtime.folds.fold_object_lifetimes`, which reads an
    in-memory trace's arrays with no event pass.  The pipeline
    benchmark's quantile layer pass (``benchmarks/pipeline/layers.py``)
    imports it.
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
        elif ev[1] not in live:
            raise first_malformed(source)
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

    Same accumulation as :meth:`Trace.live_stats`; a :class:`Trace`
    delegates to it so the per-trace cache keeps working.  A malformed
    stream, or a footer that disagrees with it, raises as in
    :func:`iter_object_records`.
    """
    if isinstance(source, Trace):
        return source.live_stats()
    chain_count = len(source.header.chains)
    live_sizes = {}
    live_bytes = live_objects = next_id = allocated = 0
    max_bytes = max_objects = 0
    for ev in source.events():
        tag = ev[0]
        if tag == EV_TOUCH:
            if ev[1] not in live_sizes:
                raise first_malformed(source)
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
