"""Traced allocation runtime — the reproduction's substitute for AE tracing.

Workload programs allocate through a :class:`~repro.runtime.heap.TracedHeap`,
which maintains the call chain, advances the byte-time clock, and records
every birth/death into a :class:`~repro.runtime.events.Trace`.  Traces are
serialized by :mod:`repro.runtime.tracefile` and stream through the event
protocol of :mod:`repro.runtime.stream`.
"""

from repro.runtime.events import LiveStats, Trace, TraceBuilder
from repro.runtime.heap import HeapError, HeapObject, TracedHeap, traced
from repro.runtime.stackcap import StackTracedHeap, capture_chain
from repro.runtime.tracefile import (
    TraceFormatError,
    convert_trace,
    load_trace,
    open_trace_stream,
    save_trace,
)
from repro.runtime.stream import (
    EventSource,
    StreamHeader,
    StreamSummary,
    build_trace,
)

__all__ = [
    "LiveStats",
    "Trace",
    "TraceBuilder",
    "HeapError",
    "HeapObject",
    "TracedHeap",
    "traced",
    "StackTracedHeap",
    "capture_chain",
    "TraceFormatError",
    "load_trace",
    "save_trace",
    "open_trace_stream",
    "convert_trace",
    "EventSource",
    "StreamHeader",
    "StreamSummary",
    "build_trace",
]
