"""Streaming trace IR: the event pipeline from workload to tables.

The paper's method is trace-driven end to end, but nothing in the math
requires the whole trace in memory: replay, profile training, and the
survival/locality analyses all consume events single-pass (the P^2
quantile trainer is one-pass by construction).  This package defines the
typed event protocol those consumers share:

* :mod:`repro.runtime.stream.protocol` — event tuples (alloc/free/touch),
  the chain-table prologue (:class:`StreamHeader`) and aggregate-counters
  epilogue (:class:`StreamSummary`), re-exported from
  :mod:`repro.runtime.events`, and the checked walkers over any
  :class:`EventSource`: the in-memory
  :class:`~repro.runtime.events.Trace` or a v3 file;
* :mod:`repro.runtime.stream.v3` — trace format v3: chunked,
  length-prefixed gzip frames with a footer index, replayable from disk
  in O(live objects + one slice of a frame) memory via
  :func:`~repro.runtime.tracefile.open_trace_stream`.
"""

from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    EventSource,
    StreamHeader,
    StreamSummary,
    build_trace,
    iter_object_lifetimes,
    stream_live_stats,
)
from repro.runtime.stream.v3 import (
    DEFAULT_CHUNK_EVENTS,
    TraceFileSource,
    write_trace_v3,
)

__all__ = [
    "EV_ALLOC",
    "EV_FREE",
    "EV_TOUCH",
    "EventSource",
    "StreamHeader",
    "StreamSummary",
    "build_trace",
    "iter_object_lifetimes",
    "stream_live_stats",
    "DEFAULT_CHUNK_EVENTS",
    "TraceFileSource",
    "write_trace_v3",
]
