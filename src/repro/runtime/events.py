"""Allocation trace data model.

A :class:`Trace` is the reproduction's stand-in for the address/event traces
Barrett & Zorn generated with Larus' AE tool: the complete record of one
program execution's allocation behaviour.  It holds

* one record per heap object — allocation chain, requested size, birth and
  death on the byte-time clock, and how many times the object was touched;
* the interleaved event sequence (alloc/free in program order), which the
  trace-driven allocator simulations replay;
* aggregate counters: function calls executed (needed to amortize
  call-chain-encryption cost, §5.1) and heap/non-heap memory reference
  counts (needed for the Heap Refs column of Table 2 and the New Ref
  columns of Table 6).

Time is the paper's byte-time: the total number of bytes allocated so far
(§3.2).  An object's lifetime is ``death - birth`` in those units; objects
still live when the program ends have no death time and are treated as
long-lived by every consumer.

Object records are stored as parallel arrays so multi-hundred-thousand
object traces stay cheap.

A trace is also the in-memory :class:`EventSource`, the stream every
consumer takes (the other one is a v3 file,
:class:`~repro.runtime.stream.v3.TraceFileSource`).  An event stream
is::

    StreamHeader                     (prologue: identity + chain table)
    (tag, ...) event tuples          (program order)
    StreamSummary                    (epilogue: aggregate counters)

Events are plain tuples with an integer tag first, chosen for hot-path
speed — the replay loop dispatches on ``ev[0]`` without attribute lookups:

* ``(EV_ALLOC, obj_id, chain_id, size, birth)`` — an object birth.  The
  chain id indexes the header's chain table; carrying size and chain in
  the event is what lets consumers run without a materialized object
  table.
* ``(EV_FREE, obj_id, death, touches)`` — an explicit free at byte-time
  ``death``; ``touches`` is the object's lifetime reference count.
* ``(EV_TOUCH, obj_id, count)`` — ``count`` heap references to a live
  object (present only when the trace was recorded with touch events).

The tags are also the low two bits of a trace's packed event codes
(object id above), so :meth:`Trace.events` is a shift and a mask per
event, not a translation table.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from repro.core.sites import CallChain, ChainTable

__all__ = [
    "EV_ALLOC",
    "EV_FREE",
    "EV_TOUCH",
    "Event",
    "EventSource",
    "LiveStats",
    "StreamHeader",
    "StreamSummary",
    "Trace",
    "TraceBuilder",
]

#: Sentinel stored in the deaths array for objects never freed.
_NEVER_FREED = -1

#: Event tags: the first field of an event tuple, and the low two bits
#: of a trace's packed event codes.
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

    ``events()`` must return a *fresh* iterator each call, so one source
    can be replayed several times (Table 8 replays the same trace against
    three allocators).  ``header`` and ``summary`` are available without
    consuming events (the v3 file format keeps its footer reachable
    through a fixed-size trailer for exactly this reason).

    Objects never freed die at program exit (``summary.end_time``).
    Their identity is implicit (everything still in a consumer's live
    set when the stream ends); only their touch counts need carrying,
    which ``summary.unfreed_touches`` does.
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


@dataclass(frozen=True)
class LiveStats:
    """High-water marks of live heap data over a whole execution."""

    max_live_bytes: int
    max_live_objects: int


class Trace(EventSource):
    """One program execution's complete allocation trace."""

    def __init__(
        self,
        program: str,
        dataset: str,
        chains: ChainTable,
        chain_ids: array,
        sizes: array,
        births: array,
        deaths: array,
        touches: array,
        events: array,
        total_calls: int,
        heap_refs: int,
        non_heap_refs: int,
        touch_counts: array = None,
    ):
        self.program = program
        self.dataset = dataset
        self.chains = chains
        self._chain_ids = chain_ids
        self._sizes = sizes
        self._births = births
        self._deaths = deaths
        self._touches = touches
        self._events = events
        self.total_calls = total_calls
        self.heap_refs = heap_refs
        self.non_heap_refs = non_heap_refs
        self._touch_counts = touch_counts if touch_counts is not None else array("q")
        self._live_stats: Optional[LiveStats] = None
        self._total_bytes: Optional[int] = None
        self._summary: Optional[StreamSummary] = None

    # ------------------------------------------------------------------
    # Object records
    # ------------------------------------------------------------------

    @property
    def total_objects(self) -> int:
        """Number of objects allocated during the execution."""
        return len(self._sizes)

    @property
    def total_bytes(self) -> int:
        """Total bytes allocated; also the final byte-time clock value."""
        if self._total_bytes is None:
            self._total_bytes = sum(self._sizes)
        return self._total_bytes

    @property
    def end_time(self) -> int:
        """The byte-time clock at program exit (equals ``total_bytes``)."""
        return self.total_bytes

    def chain_of(self, obj_id: int) -> CallChain:
        """The raw (unpruned) call chain of object ``obj_id``."""
        return self.chains.chain(self._chain_ids[obj_id])

    def size_of(self, obj_id: int) -> int:
        """Requested size of object ``obj_id`` in bytes."""
        return self._sizes[obj_id]

    def lifetime_of(self, obj_id: int) -> int:
        """Lifetime of object ``obj_id`` in byte-time.

        Objects never explicitly freed die at program exit, so their
        lifetime runs to the end of the trace (the paper's convention —
        each program's maximum lifetime in Table 3 equals its total
        allocation).
        """
        death = self._deaths[obj_id]
        if death == _NEVER_FREED:
            death = self.end_time
        return death - self._births[obj_id]

    def freed(self, obj_id: int) -> bool:
        """Whether object ``obj_id`` was explicitly freed before exit."""
        return self._deaths[obj_id] != _NEVER_FREED

    def touches_of(self, obj_id: int) -> int:
        """How many heap references were made to object ``obj_id``."""
        return self._touches[obj_id]

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------

    @property
    def header(self) -> StreamHeader:
        return StreamHeader(
            program=self.program,
            dataset=self.dataset,
            chains=self.chains,
            has_touch_events=self.has_touch_events,
        )

    @property
    def summary(self) -> StreamSummary:
        """The trace's counters; the one walk over the object arrays, for
        ``unfreed_touches``, is made on first use and cached."""
        if self._summary is None:
            deaths = self._deaths
            touches = self._touches
            self._summary = StreamSummary(
                total_calls=self.total_calls,
                heap_refs=self.heap_refs,
                non_heap_refs=self.non_heap_refs,
                end_time=self.end_time,
                total_objects=self.total_objects,
                event_count=self.event_count,
                unfreed_touches=tuple(
                    (obj_id, touches[obj_id])
                    for obj_id in range(len(deaths))
                    if deaths[obj_id] == _NEVER_FREED and touches[obj_id] != 0
                ),
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
        for code in self._events:
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

    @property
    def has_touch_events(self) -> bool:
        """Whether per-reference touch events were recorded."""
        return len(self._touch_counts) > 0

    @property
    def event_count(self) -> int:
        """Total number of recorded events (alloc + free + touch)."""
        return len(self._events)

    def live_stats(self) -> LiveStats:
        """Maximum simultaneously-live bytes and objects (Table 2 columns).

        Computed by replaying the event sequence; cached after first call.
        """
        if self._live_stats is None:
            live_bytes = live_objects = 0
            max_bytes = max_objects = 0
            for code in self._events:
                tag = code & 3
                if tag == EV_TOUCH:
                    continue
                size = self._sizes[code >> 2]
                if tag == EV_FREE:
                    live_bytes -= size
                    live_objects -= 1
                else:
                    live_bytes += size
                    live_objects += 1
                    if live_bytes > max_bytes:
                        max_bytes = live_bytes
                    if live_objects > max_objects:
                        max_objects = live_objects
            self._live_stats = LiveStats(max_bytes, max_objects)
        return self._live_stats

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------

    @property
    def total_refs(self) -> int:
        """All modelled memory references, heap and non-heap."""
        return self.heap_refs + self.non_heap_refs

    @property
    def heap_ref_fraction(self) -> float:
        """Fraction of modelled memory references that touch the heap."""
        total = self.total_refs
        if total == 0:
            return 0.0
        return self.heap_refs / total

    def raw_arrays(self):
        """Internal arrays, for serialization.  Treat as read-only."""
        return {
            "chain_ids": self._chain_ids,
            "sizes": self._sizes,
            "births": self._births,
            "deaths": self._deaths,
            "touches": self._touches,
            "events": self._events,
            "touch_counts": self._touch_counts,
        }


@dataclass
class TraceBuilder:
    """Incremental construction of a :class:`Trace`.

    The traced heap drives this builder: one :meth:`add_alloc` per object
    birth, one :meth:`add_free` per death, then :meth:`build`.  Ids are
    assigned densely in allocation order.
    """

    program: str
    dataset: str
    chains: ChainTable = field(default_factory=ChainTable)

    record_touches: bool = False

    def __post_init__(self) -> None:
        self._chain_ids = array("i")
        self._sizes = array("q")
        self._births = array("q")
        self._deaths = array("q")
        self._touches = array("q")
        self._events = array("q")
        self._touch_counts = array("q")
        self.total_calls = 0
        self.heap_refs = 0
        self.non_heap_refs = 0

    def add_alloc(self, chain: CallChain, size: int, birth: int) -> int:
        """Record an object birth; returns the new object's id."""
        obj_id = len(self._sizes)
        self._chain_ids.append(self.chains.intern(chain))
        self._sizes.append(size)
        self._births.append(birth)
        self._deaths.append(_NEVER_FREED)
        self._touches.append(0)
        self._events.append((obj_id << 2) | EV_ALLOC)
        return obj_id

    def add_free(self, obj_id: int, death: int, touches: int) -> None:
        """Record the death of object ``obj_id`` at byte-time ``death``.

        Raises :class:`ValueError` for an object never allocated or
        negative, and for a double free, so a built trace holds no free
        that a v3 consumer would reject.
        """
        if not 0 <= obj_id < len(self._deaths):
            raise ValueError(f"free of object {obj_id}, which is not live")
        if self._deaths[obj_id] != _NEVER_FREED:
            raise ValueError(f"object {obj_id} freed twice")
        self._deaths[obj_id] = death
        self._touches[obj_id] = touches
        self._events.append((obj_id << 2) | EV_FREE)

    def set_touches(self, obj_id: int, touches: int) -> None:
        """Record touch counts for an object that is never freed."""
        self._touches[obj_id] = touches

    def add_touch_event(self, obj_id: int, count: int) -> None:
        """Record one touch event (only when ``record_touches`` is set).

        Raises :class:`ValueError` for an object that is not live (never
        allocated, negative, or already freed), as :meth:`add_free` does,
        so a built trace holds no touch that a v3 consumer would reject.
        """
        if (not 0 <= obj_id < len(self._deaths)
                or self._deaths[obj_id] != _NEVER_FREED):
            raise ValueError(f"touch of object {obj_id}, which is not live")
        self._events.append((obj_id << 2) | EV_TOUCH)
        self._touch_counts.append(count)

    def build(self) -> Trace:
        """Finalize and return the immutable :class:`Trace`."""
        return Trace(
            program=self.program,
            dataset=self.dataset,
            chains=self.chains,
            chain_ids=self._chain_ids,
            sizes=self._sizes,
            births=self._births,
            deaths=self._deaths,
            touches=self._touches,
            events=self._events,
            total_calls=self.total_calls,
            heap_refs=self.heap_refs,
            non_heap_refs=self.non_heap_refs,
            touch_counts=self._touch_counts,
        )
