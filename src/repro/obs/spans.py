"""Pipeline span tracing: nested wall-time spans and a Chrome exporter.

Spans are the pipeline's one stage clock (:mod:`repro.obs.metrics` only
counts).  A span trace answers "what did *this* run actually do, in what
order, nested how, and how long did each stage take" — one
:class:`Span` per instrumented region, with its start offset, duration,
and ancestry; the folded view sums self time per stage path.  The whole experiment pipeline is
instrumented: workload execution and trace-cache resolution
(:mod:`repro.analysis.trace_cache`, :mod:`repro.analysis.experiments`),
predictor training and evaluation (:mod:`repro.core.predictor`),
per-allocator replay (:mod:`repro.analysis.simulate`), table computation
(:mod:`repro.analysis.tables`), and every CLI subcommand (a root span).

Like the PR 2 telemetry probe, the tracer is free when off: the
process-wide :data:`TRACER` starts disabled, and a disabled
:meth:`SpanTracer.span` returns one shared no-op context manager — a
single attribute check per instrumented region, no allocation, no clock
read.  Enable it with the CLI's ``--spans-out`` flag (or
``REPRO_SPANS_OUT`` for benchmark sessions) and the finished spans export
two ways:

* :func:`chrome_trace` / :func:`write_chrome_trace` — Chrome trace-event
  JSON (``ph: "X"`` complete events), loadable in Perfetto or
  ``chrome://tracing``;
* :func:`~repro.obs.report.render_folded` — a folded-stack text view
  (``parent;child <self-microseconds>``), flamegraph-ready.

The exporters are deterministic: given the same recorded spans they emit
byte-identical output (sorted keys, stable event order) — the tests drive
a tracer with a fake clock and assert exactly that.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = [
    "Span",
    "SpanTracer",
    "TRACER",
    "chrome_trace",
    "write_chrome_trace",
    "traced",
]


@dataclass(frozen=True)
class Span:
    """One finished instrumented region.

    ``ts_us``/``dur_us`` are integer microseconds relative to the
    tracer's first span; ``path`` is the chain of enclosing span names
    ending in this span's own, and ``seq`` is the enter order (the stable
    sort key for export — children enter after their parents).
    """

    name: str
    cat: str
    ts_us: int
    dur_us: int
    depth: int
    seq: int
    path: Tuple[str, ...]
    args: Dict[str, Any] = field(default_factory=dict)
    #: Logical thread lane for export.  Spans recorded in this process
    #: are lane 1; spans absorbed from pool workers keep their worker's
    #: lane so Perfetto shows parallel warm workers side by side.
    tid: int = 1

    @property
    def end_us(self) -> int:
        """The span's end offset in microseconds."""
        return self.ts_us + self.dur_us


class _NullSpan:
    """The shared no-op context manager a disabled tracer hands out."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; records itself into the tracer on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_start_us", "_seq",
                 "_depth", "_path")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str,
                 args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args

    def __enter__(self) -> "_LiveSpan":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._exit(self)
        return False


class SpanTracer:
    """Recorder of nested pipeline spans for one process.

    ``clock`` is injectable (seconds, monotonic) so tests can drive the
    tracer deterministically; timestamps are stored as microsecond
    offsets from the first span ever entered, which keeps the export free
    of wall-clock epochs.
    """

    def __init__(self, enabled: bool = False,
                 clock: Callable[[], float] = time.perf_counter):
        self._enabled = enabled
        self._clock = clock
        self._origin: Optional[float] = None
        self._stack: List[str] = []
        self._open_depth = 0
        self._seq = 0
        self.spans: List[Span] = []

    @property
    def enabled(self) -> bool:
        """Whether :meth:`span` records anything right now."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; already-recorded spans are kept."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every recorded span and restart the clock origin."""
        self._origin = None
        self._stack.clear()
        self._open_depth = 0
        self._seq = 0
        self.spans.clear()

    def span(self, name: str, cat: str = "pipeline", **args):
        """A context manager timing the enclosed block as one span.

        When the tracer is disabled this returns a shared no-op object —
        the only cost of leaving instrumentation in a hot path.
        """
        if not self._enabled:
            return _NULL_SPAN
        return _LiveSpan(self, name, cat, args)

    # ------------------------------------------------------------------
    # Internal: called by _LiveSpan
    # ------------------------------------------------------------------

    def _now_us(self) -> int:
        now = self._clock()
        if self._origin is None:
            self._origin = now
        return round((now - self._origin) * 1_000_000)

    def _enter(self, live: _LiveSpan) -> None:
        live._start_us = self._now_us()
        live._seq = self._seq
        self._seq += 1
        live._depth = len(self._stack)
        self._stack.append(live.name)
        live._path = tuple(self._stack)

    def _exit(self, live: _LiveSpan) -> None:
        end_us = self._now_us()
        if self._stack and self._stack[-1] == live.name:
            self._stack.pop()
        self.spans.append(
            Span(
                name=live.name,
                cat=live.cat,
                ts_us=live._start_us,
                dur_us=max(0, end_us - live._start_us),
                depth=live._depth,
                seq=live._seq,
                path=live._path,
                args=dict(live.args),
            )
        )

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def sorted_spans(self) -> List[Span]:
        """All finished spans in enter order (parents before children)."""
        return sorted(self.spans, key=lambda s: s.seq)

    def find(self, name: str) -> List[Span]:
        """Every finished span with ``name``, in enter order."""
        return [s for s in self.sorted_spans() if s.name == name]

    # ------------------------------------------------------------------
    # Cross-process merging (mirrors Metrics.merge for pool workers)
    # ------------------------------------------------------------------

    def state(self, start: int = 0) -> List[Dict[str, Any]]:
        """The spans recorded since index ``start`` as a picklable snapshot.

        A pool worker tracing its own work calls this on exit and returns
        the snapshot with its result; the parent folds it back in with
        :meth:`absorb`.  ``start`` lets a reused pool process snapshot
        only the spans of the current task.  Paths and depths are taken
        relative to the spans still open here: a forked worker inherits
        its parent's open stack, which :meth:`absorb` prefixes again.
        """
        base = len(self._stack)
        spans = sorted(self.spans[start:], key=lambda s: s.seq)
        return [
            {
                "name": s.name,
                "cat": s.cat,
                "ts_us": s.ts_us,
                "dur_us": s.dur_us,
                "depth": s.depth - base,
                "path": list(s.path[base:]),
                "args": dict(s.args),
            }
            for s in spans
        ]

    def absorb(self, state: List[Dict[str, Any]], tid: int = 1) -> None:
        """Fold a worker's :meth:`state` snapshot into this tracer.

        Worker timestamps are offsets from the *worker's* clock origin,
        so they are shifted onto this tracer's timeline by anchoring the
        snapshot's latest end at the parent's current time (the moment
        the result crossed the pool boundary) and clamping at zero.
        Paths gain the parent's currently-open stack as a prefix, depths
        shift to match, sequence numbers are reassigned from the parent
        counter, and every absorbed span lands on lane ``tid`` so
        exports show worker activity beside the parent's.
        """
        if not self._enabled or not state:
            return
        now = self._now_us()
        offset = now - max(s["ts_us"] + s["dur_us"] for s in state)
        prefix = tuple(self._stack)
        for item in sorted(state, key=lambda s: (s["ts_us"], s["depth"])):
            self.spans.append(
                Span(
                    name=item["name"],
                    cat=item["cat"],
                    ts_us=max(0, item["ts_us"] + offset),
                    dur_us=item["dur_us"],
                    depth=item["depth"] + len(prefix),
                    seq=self._seq,
                    path=prefix + tuple(item["path"]),
                    args=dict(item["args"]),
                    tid=tid,
                )
            )
            self._seq += 1


#: Process-wide tracer, disabled by default.  The CLI's ``--spans-out``
#: flag and the benchmark conftest's ``REPRO_SPANS_OUT`` hook enable it.
TRACER = SpanTracer()


def traced(name: Optional[str] = None, cat: str = "pipeline"):
    """Decorator: run the function under a span on the global tracer.

    Costs one ``enabled`` check per call while tracing is off, so it is
    safe on functions called from benchmarks.
    """

    def decorate(fn):
        span_name = name if name is not None else fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not TRACER.enabled:
                return fn(*args, **kwargs)
            with TRACER.span(span_name, cat=cat):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def chrome_trace(tracer: SpanTracer,
                 process_name: str = "repro-alloc") -> Dict[str, Any]:
    """The tracer's spans as a Chrome trace-event document.

    One ``ph: "X"`` (complete) event per span; spans recorded in this
    process land on tid 1 and spans absorbed from pool workers keep
    their worker lane.  Nesting within a lane is carried by timestamp
    containment, which holds by construction because a child span starts
    after and ends before its parent.  Perfetto and ``chrome://tracing``
    both load the result.
    """
    events: List[Dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for span in tracer.sorted_spans():
        event: Dict[str, Any] = {
            "ph": "X",
            "name": span.name,
            "cat": span.cat,
            "ts": span.ts_us,
            "dur": span.dur_us,
            "pid": 1,
            "tid": span.tid,
        }
        if span.args:
            event["args"] = {
                key: span.args[key] for key in sorted(span.args)
            }
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: SpanTracer, path: Union[str, Path],
                       process_name: str = "repro-alloc") -> Path:
    """Write :func:`chrome_trace` as deterministic JSON and return the path."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    document = chrome_trace(tracer, process_name=process_name)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path
