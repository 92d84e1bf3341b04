"""Shared counter and gauge registry for pipeline and simulation.

The experiment pipeline (trace-cache hits, misses and stores, warm
outcomes) counts its events here, and the simulation telemetry layer
(:mod:`repro.obs.telemetry`) records its sample and misprediction totals
into the same registry, so one report covers the whole system.  The
CLI's ``warm -v`` prints the report, and the benchmarks import
:data:`METRICS` to surface cache behaviour across sessions.

The registry holds no clock: stage time is the span tracer's
(:data:`repro.obs.spans.TRACER`; ``--spans-out`` and ``--spans-folded``
export it).  A :class:`Metrics` object holds named counters, some of
them high-water-mark gauges.  A single process-wide instance,
:data:`METRICS`, is the default sink; components accept a ``metrics``
argument so tests can isolate their measurements.

Because worker processes get their own registry, :meth:`Metrics.merge`
folds a worker's :meth:`Metrics.to_dict` snapshot back into the parent;
this is how ``TraceStore.warm(jobs=N)`` keeps child-process counts in
the session report.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, Optional, Set, Union

__all__ = [
    "Metrics",
    "METRICS",
    "peak_rss_kb",
    "record_peak_rss",
]


class Metrics:
    """Named event counters and high-water-mark gauges."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Set[str] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_max(self, name: str, value: int) -> None:
        """Raise counter ``name`` to ``value`` if it is below it.

        Marks ``name`` as a high-water-mark gauge (e.g. peak RSS):
        :meth:`merge` takes the *max* of gauges rather than adding them —
        worker peaks are concurrent highs of separate address spaces, and
        summing them would report memory no process ever used.
        """
        self._gauges.add(name)
        if value > self._counters.get(name, 0):
            self._counters[name] = value

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def counter(self, name: str) -> int:
        """The value of counter ``name`` (0 if never incremented)."""
        return self._counters.get(name, 0)

    @property
    def counters(self) -> Dict[str, int]:
        """Snapshot of all counters."""
        return dict(self._counters)

    def gauge_values(self) -> Dict[str, int]:
        """Current value of every high-water-mark gauge, sorted by name.

        Gauges are the counters recorded via :meth:`set_max` (e.g.
        ``peak_rss_kb``); exporters ship them as their own section so
        diff tooling can treat them as informational rather than
        additive counters.
        """
        return {
            name: self._counters.get(name, 0)
            for name in sorted(self._gauges)
        }

    def reset(self) -> None:
        """Drop all recorded counters and gauges."""
        self._counters.clear()
        self._gauges.clear()

    # ------------------------------------------------------------------
    # Aggregation and export
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serializable snapshot of every counter and gauge."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": sorted(self._gauges),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The :meth:`to_dict` snapshot as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def merge(self, other: Union["Metrics", Dict[str, object]]) -> None:
        """Fold another registry (or its :meth:`to_dict` form) into this one.

        Counters add values — except gauges (anything either side
        recorded via :meth:`set_max`), which merge by maximum: a
        worker's peak RSS is a concurrent high, not a disjoint
        contribution.  This is how per-worker measurements from a
        process pool reach the parent's report instead of dying with the
        child.
        """
        if isinstance(other, Metrics):
            other = other.to_dict()
        gauges = set(other.get("gauges", ()))
        for name, value in other.get("counters", {}).items():
            if name in gauges or name in self._gauges:
                self.set_max(name, int(value))
            else:
                self.incr(name, int(value))

    def report(self, title: Optional[str] = None) -> str:
        """A human-readable summary of every counter and gauge."""
        lines = [title] if title else []
        if self._counters:
            width = max(len(name) for name in self._counters)
            for name in sorted(self._counters):
                lines.append(f"  {name:<{width}}  {self._counters[name]}")
        else:
            lines.append("  (no measurements recorded)")
        return "\n".join(lines)


def peak_rss_kb() -> int:
    """This process's peak resident set size in kilobytes.

    Read from ``getrusage(RUSAGE_SELF).ru_maxrss`` (kilobytes on Linux,
    bytes on macOS — normalized here).  Returns 0 on platforms without
    the :mod:`resource` module, so callers never need a platform guard.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS units
        peak //= 1024
    return int(peak)


def record_peak_rss(metrics: Optional[Metrics] = None) -> int:
    """Record :func:`peak_rss_kb` under the ``peak_rss_kb`` gauge.

    Records into ``metrics`` (default: the process-wide :data:`METRICS`)
    via :meth:`Metrics.set_max` and returns the sampled value, so one
    call both updates the registry and feeds a report line.
    """
    peak = peak_rss_kb()
    (metrics if metrics is not None else METRICS).set_max(
        "peak_rss_kb", peak
    )
    return peak


#: Process-wide default sink shared by the CLI, TraceStore, telemetry,
#: and benchmarks.
METRICS = Metrics()
