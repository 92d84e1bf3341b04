"""Observability layer: metrics registry, heap telemetry, exporters.

``repro.obs`` is the cross-cutting instrumentation subsystem.  It has two
halves that share one counter backend:

* :mod:`repro.obs.metrics` — the named counter/gauge registry
  (:class:`Metrics`, process-wide :data:`METRICS`) used by the experiment
  pipeline (trace cache, warm) *and* by simulation telemetry, so one
  report covers both.
* :mod:`repro.obs.telemetry` — the :class:`Telemetry` recorder that rides
  along a trace replay through the probe interface on
  :class:`~repro.alloc.base.Allocator`, producing time-series heap
  samples and per-site misprediction counters.
* :mod:`repro.obs.spans` — the :class:`SpanTracer` that records nested
  wall-time spans across the whole pipeline (workload runs, cache
  resolution, training, replay, table rendering) and exports them as
  Chrome trace-event JSON for Perfetto.  It is the one stage clock.

:mod:`repro.obs.export` writes JSONL/JSON/CSV artifacts,
:mod:`repro.obs.attrib` attributes simulated cost / occupancy /
fragmentation / misprediction penalties per allocation site (an
order-independent fold), :mod:`repro.obs.windows` partitions a run
into N windows of per-window heap series (a position-aware fold), :mod:`repro.obs.drift` scores per-site temporal drift
against the global classification, :mod:`repro.obs.diff` diffs two
recorded sessions into per-site regression verdicts,
:mod:`repro.obs.html` renders the self-contained HTML run report, and
:mod:`repro.obs.report` renders the ``stats`` / ``timeline`` CLI views
plus the folded-stack span view.
"""

from repro.obs.metrics import METRICS, Metrics
from repro.obs.telemetry import (
    DEFAULT_SAMPLE_INTERVAL,
    MISPREDICTION_KINDS,
    NullTelemetry,
    SiteCounters,
    Telemetry,
)
from repro.obs.spans import (
    TRACER,
    Span,
    SpanTracer,
    chrome_trace,
    traced,
    write_chrome_trace,
)
from repro.obs.export import export_timeline, telemetry_summary, write_jsonl
from repro.obs.attrib import (
    AttributionProfile,
    SiteAttribution,
    attribute_sites,
    attribute_table,
    export_attribution,
    render_attrib,
)
from repro.obs.diff import (
    DiffResult,
    MetricDelta,
    diff_documents,
    diff_paths,
    render_diff_report,
)
from repro.obs.report import (
    render_folded,
    render_stats,
    render_timeline,
    sparkline,
)
from repro.obs.windows import (
    WindowFold,
    WindowProfile,
    WindowSpec,
    export_windows,
    render_windows,
    window_profile,
)
from repro.obs.drift import drift_report, render_drift, write_drift_json
from repro.obs.html import render_report, write_report

__all__ = [
    "METRICS",
    "Metrics",
    "TRACER",
    "Span",
    "SpanTracer",
    "chrome_trace",
    "traced",
    "write_chrome_trace",
    "render_folded",
    "DEFAULT_SAMPLE_INTERVAL",
    "MISPREDICTION_KINDS",
    "NullTelemetry",
    "SiteCounters",
    "Telemetry",
    "export_timeline",
    "telemetry_summary",
    "write_jsonl",
    "AttributionProfile",
    "SiteAttribution",
    "attribute_sites",
    "attribute_table",
    "export_attribution",
    "render_attrib",
    "DiffResult",
    "MetricDelta",
    "diff_documents",
    "diff_paths",
    "render_diff_report",
    "render_stats",
    "render_timeline",
    "sparkline",
    "WindowFold",
    "WindowProfile",
    "WindowSpec",
    "export_windows",
    "render_windows",
    "window_profile",
    "drift_report",
    "render_drift",
    "write_drift_json",
    "render_report",
    "write_report",
]
