"""Windowed heap time-series: a position-aware fold over the event IR.

Barrett & Zorn train one *global* per-site threshold for the whole run,
but allocation behavior is phased: a site that is short-lived during
parsing may be long-lived during evaluation.  Whole-run attribution
(:mod:`repro.obs.attrib`) and point-in-time telemetry gauges
(:mod:`repro.obs.telemetry`) cannot see that — this module partitions a
run into ``N`` windows along the byte-time axis and computes, per
window:

* **allocation and death activity** — objects/bytes born in the window,
  objects/bytes dying in it, and the derived per-KB rates;
* **live heap at the window boundary** — live bytes/objects at the
  window's end position, an order-independent reconstruction of the
  gauge ``timeline`` samples during a replay;
* **occupancy byte-time** — the integral of ``size`` over each object's
  overlap with the window, the fragmentation-frontier denominator the
  ROADMAP's relocation study needs;
* **padding fragmentation** — the power-of-two bucket padding (the BSD
  profile of :mod:`repro.obs.attrib`) of objects born in the window;
* **lifetime quantiles of deaths** — p50/p90/p99 of the lifetimes of
  objects dying in the window, read from a log2-bucketed histogram
  (exact ranks over bucket upper bounds: deterministic, order-independent,
  O(1) memory per window — unlike the order-*dependent* P² estimator);
* **per-site short-lived fractions** — objects, short-lived objects, and
  predictor verdicts per call chain, keyed by the *birth* window (the
  predictor acts at allocation time), which is what
  :mod:`repro.obs.drift` scores for temporal drift.

Two window axes are supported.  ``bytes`` divides the byte-time clock
``[0, end_time]`` into N equal spans.  ``events`` gives every window the
same number of *allocation events*: object ids are dense in allocation
order, so the i-th boundary is the birth byte-time of object
``i * total_objects // N`` — recovered in one extra streaming prepass —
and the fold then runs on byte-time positions exactly like the ``bytes``
axis.  Either way the per-object window keys are functions of the
object's intrinsic ``(obj_id, birth, death)`` record alone, so
:class:`WindowFold` obeys the :class:`~repro.runtime.folds.LifetimeFold`
contract (order-independent ``add_object``) and runs byte-identically
materialized and streamed through
:func:`~repro.runtime.folds.fold_object_lifetimes`.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.alloc.bsd import bucket_for
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    LifetimePredictor,
    SiteMemo,
)
from repro.core.sites import CallChain, ChainTable
from repro.obs.spans import TRACER
from repro.runtime.folds import LifetimeFold, fold_object_lifetimes
from repro.runtime.events import EV_ALLOC, EventSource

__all__ = [
    "WINDOW_AXES",
    "WINDOWS_SCHEMA_VERSION",
    "DEFAULT_WINDOWS",
    "SiteWindow",
    "WindowSpec",
    "WindowFold",
    "WindowProfile",
    "window_spec_for",
    "window_profile",
    "render_windows",
    "write_windows_json",
    "write_windows_csv",
    "export_windows",
]

#: The supported window axes.
WINDOW_AXES = ("bytes", "events")

#: Version stamp of the exported windows document.
WINDOWS_SCHEMA_VERSION = 1

#: Default number of windows a run is partitioned into.
DEFAULT_WINDOWS = 16

#: Per-window metric columns in export order (also the CSV column set).
_ROW_FIELDS = (
    "index",
    "start",
    "end",
    "allocs",
    "alloc_bytes",
    "frees",
    "free_bytes",
    "alloc_rate",
    "free_rate",
    "live_bytes_end",
    "live_objects_end",
    "occupancy_byte_time",
    "frag_bytes",
    "short_allocs",
    "short_alloc_bytes",
    "predicted_allocs",
    "late_free",
    "missed_short",
    "short_fraction",
    "lifetime_p50",
    "lifetime_p90",
    "lifetime_p99",
)

#: Ranks reported from the per-window death-lifetime histogram.
_QUANTILES = (("lifetime_p50", 0.50), ("lifetime_p90", 0.90),
              ("lifetime_p99", 0.99))


@dataclass(frozen=True)
class WindowSpec:
    """The window partition: axis, count, and byte-time start positions.

    ``starts`` has one entry per window (``starts[0] == 0``), sorted
    non-decreasing; window ``w`` spans ``[starts[w], starts[w+1])`` in
    byte-time, the last window closing at ``end_time`` inclusive.  The
    spec is a frozen value object, so two folds built from the same
    spec key every object identically regardless of event order.
    """

    axis: str
    count: int
    end_time: int
    starts: Tuple[int, ...]

    def index(self, position: int) -> int:
        """The window containing byte-time ``position`` (clamped)."""
        return max(0, bisect_right(self.starts, position) - 1)

    def span(self, window: int) -> Tuple[int, int]:
        """``(start, end)`` byte-times of one window."""
        start = self.starts[window]
        end = (
            self.starts[window + 1]
            if window + 1 < self.count else self.end_time
        )
        return start, end


def window_spec_for(
    source: EventSource,
    windows: int = DEFAULT_WINDOWS,
    by: str = "bytes",
) -> WindowSpec:
    """Build the window partition for one event source.

    ``by="bytes"`` needs only the summary (equal byte-time spans).
    ``by="events"`` makes one streaming prepass to recover the birth
    byte-times at the N-quantile allocation indices — object ids are
    dense in allocation order, so window ``i`` then holds allocation
    events ``[i*M//N, (i+1)*M//N)`` exactly, expressed as a byte-time
    interval the fold can key on without ever seeing event order.
    """
    if by not in WINDOW_AXES:
        raise ValueError(
            f"unknown window axis {by!r} (have {', '.join(WINDOW_AXES)})"
        )
    if windows < 1:
        raise ValueError(f"window count must be >= 1, got {windows}")
    end_time = source.summary.end_time
    if by == "bytes":
        starts = tuple(
            (i * end_time) // windows for i in range(windows)
        )
        return WindowSpec("bytes", windows, end_time, starts)
    total = source.summary.total_objects
    # Which allocation index opens each window; index 0 always opens
    # window 0 at byte-time 0, so only the later boundaries need births.
    opens_at: Dict[int, List[int]] = {}
    for i in range(1, windows):
        boundary = (i * total) // windows
        if boundary > 0:
            opens_at.setdefault(boundary, []).append(i)
    starts = [0] * windows
    if opens_at:
        pending = len(opens_at)
        for ev in source.events():
            if ev[0] != EV_ALLOC:
                continue
            hits = opens_at.get(ev[1])
            if hits is None:
                continue
            for window in hits:
                starts[window] = ev[4]
            pending -= 1
            if pending == 0:
                break
    return WindowSpec("events", windows, end_time, tuple(starts))


@dataclass
class SiteWindow:
    """One call chain's tallies inside one window (birth-keyed)."""

    objects: int = 0
    bytes: int = 0
    short_objects: int = 0
    predicted_objects: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "objects": self.objects,
            "bytes": self.bytes,
            "short_objects": self.short_objects,
            "predicted_objects": self.predicted_objects,
        }


class WindowFold(LifetimeFold):
    """The per-window accumulators as a position-aware lifetime fold.

    ``add_object`` keys every tally on the object's intrinsic positions
    (birth window for allocation-side metrics and site scoring, death
    window for death-side metrics, the overlapped range for occupancy
    and boundary liveness), so it is order-independent.  The fold
    carries the window spec, the chain table, and the predictor.
    """

    def __init__(
        self,
        spec: WindowSpec,
        chains: ChainTable,
        predictor: Optional[LifetimePredictor] = None,
        threshold: Optional[int] = None,
    ):
        self.spec = spec
        self.chains = chains
        self.predictor = predictor
        self._verdict = (
            SiteMemo(predictor.predicts_short_lived, chains)
            if predictor is not None else None
        )
        if threshold is None:
            threshold = getattr(predictor, "threshold", DEFAULT_THRESHOLD)
        self.threshold = threshold
        count = spec.count
        self.allocs = [0] * count
        self.alloc_bytes = [0] * count
        self.frees = [0] * count
        self.free_bytes = [0] * count
        self.frag_bytes = [0] * count
        self.short_allocs = [0] * count
        self.short_alloc_bytes = [0] * count
        self.predicted_allocs = [0] * count
        self.late_free = [0] * count
        self.missed_short = [0] * count
        self.live_bytes_end = [0] * count
        self.live_objects_end = [0] * count
        self.occupancy = [0] * count
        self.death_hist: List[Dict[int, int]] = [{} for _ in range(count)]
        self.sites: Dict[int, Dict[int, SiteWindow]] = {}

    def add_object(
        self,
        obj_id: int,
        chain_id: int,
        size: int,
        birth: int,
        death: int,
        touches: int,
    ) -> None:
        spec = self.spec
        birth_w = spec.index(birth)
        death_w = spec.index(death)
        lifetime = death - birth
        short = lifetime < self.threshold
        predicted = (
            self._verdict is not None and self._verdict[chain_id, size]
        )
        self.allocs[birth_w] += 1
        self.alloc_bytes[birth_w] += size
        self.frag_bytes[birth_w] += (1 << bucket_for(size)) - size
        if short:
            self.short_allocs[birth_w] += 1
            self.short_alloc_bytes[birth_w] += size
        if predicted:
            self.predicted_allocs[birth_w] += 1
            if not short:
                self.late_free[birth_w] += 1
        elif short and self.predictor is not None:
            self.missed_short[birth_w] += 1
        self.frees[death_w] += 1
        self.free_bytes[death_w] += size
        hist = self.death_hist[death_w]
        bucket = lifetime.bit_length()
        hist[bucket] = hist.get(bucket, 0) + 1
        for window in range(birth_w, death_w + 1):
            start, end = spec.span(window)
            overlap = min(death, end) - max(birth, start)
            if overlap > 0:
                self.occupancy[window] += size * overlap
            # Live at the window's end boundary: born at or before it,
            # dead strictly after.  The last boundary is end_time, where
            # every object has died by the trace convention.
            if window < death_w and end < death:
                self.live_bytes_end[window] += size
                self.live_objects_end[window] += 1
        per_site = self.sites.get(chain_id)
        if per_site is None:
            per_site = self.sites[chain_id] = {}
        record = per_site.get(birth_w)
        if record is None:
            record = per_site[birth_w] = SiteWindow()
        record.objects += 1
        record.bytes += size
        if short:
            record.short_objects += 1
        if predicted:
            record.predicted_objects += 1


def _hist_quantile(hist: Dict[int, int], total: int, q: float) -> int:
    """The q-quantile's bucket upper bound (0 when nothing died).

    Rank ``ceil(q * total)`` over the sorted buckets; bucket ``k`` holds
    lifetimes in ``[2^(k-1), 2^k)`` (bucket 0 holds exactly 0), so the
    reported value is the inclusive upper bound ``2^k - 1`` — an exact,
    deterministic rank over a lossy but order-independent binning.
    """
    if total == 0:
        return 0
    rank = max(1, -(-int(q * total * 1000000) // 1000000))
    seen = 0
    for bucket in sorted(hist):
        seen += hist[bucket]
        if seen >= rank:
            return (1 << bucket) - 1
    return (1 << max(hist)) - 1


def _rate(count: int, span: int) -> float:
    """Events per KB of byte-time, rounded for stable serialization."""
    if span == 0:
        return 0.0
    return round(1024.0 * count / span, 6)


@dataclass
class WindowProfile:
    """One execution's finished windowed time series."""

    program: str
    dataset: str
    spec: WindowSpec
    threshold: int
    predictor_sites: int
    fold: WindowFold = field(repr=False)

    @property
    def rows(self) -> List[Dict[str, Any]]:
        """The per-window rows, export order, derived columns included."""
        fold = self.fold
        spec = self.spec
        rows = []
        for window in range(spec.count):
            start, end = spec.span(window)
            span = end - start
            allocs = fold.allocs[window]
            frees = fold.frees[window]
            hist = fold.death_hist[window]
            row: Dict[str, Any] = {
                "index": window,
                "start": start,
                "end": end,
                "allocs": allocs,
                "alloc_bytes": fold.alloc_bytes[window],
                "frees": frees,
                "free_bytes": fold.free_bytes[window],
                "alloc_rate": _rate(allocs, span),
                "free_rate": _rate(frees, span),
                "live_bytes_end": fold.live_bytes_end[window],
                "live_objects_end": fold.live_objects_end[window],
                "occupancy_byte_time": fold.occupancy[window],
                "frag_bytes": fold.frag_bytes[window],
                "short_allocs": fold.short_allocs[window],
                "short_alloc_bytes": fold.short_alloc_bytes[window],
                "predicted_allocs": fold.predicted_allocs[window],
                "late_free": fold.late_free[window],
                "missed_short": fold.missed_short[window],
                "short_fraction": (
                    round(fold.short_allocs[window] / allocs, 6)
                    if allocs else 0.0
                ),
            }
            for name, q in _QUANTILES:
                row[name] = _hist_quantile(hist, frees, q)
            rows.append(row)
        return rows

    def site_windows(self) -> Dict[CallChain, Dict[int, SiteWindow]]:
        """Per-site per-window tallies with chains resolved."""
        chains = self.fold.chains
        return {
            chains.chain(chain_id): dict(per_site)
            for chain_id, per_site in self.fold.sites.items()
        }

    def totals(self) -> Dict[str, int]:
        """Whole-run sums of the summable per-window columns."""
        fold = self.fold
        return {
            "allocs": sum(fold.allocs),
            "alloc_bytes": sum(fold.alloc_bytes),
            "frees": sum(fold.frees),
            "free_bytes": sum(fold.free_bytes),
            "frag_bytes": sum(fold.frag_bytes),
            "short_allocs": sum(fold.short_allocs),
            "short_alloc_bytes": sum(fold.short_alloc_bytes),
            "predicted_allocs": sum(fold.predicted_allocs),
            "late_free": sum(fold.late_free),
            "missed_short": sum(fold.missed_short),
            "occupancy_byte_time": sum(fold.occupancy),
            "sites": len(fold.sites),
        }

    def to_dict(self) -> Dict[str, Any]:
        """The deterministic windows document (sites sorted by chain)."""
        site_block = []
        for chain, per_site in sorted(self.site_windows().items()):
            site_block.append({
                "chain": list(chain),
                "windows": [
                    {"index": window, **per_site[window].to_dict()}
                    for window in sorted(per_site)
                ],
            })
        return {
            "kind": "windows",
            "schema_version": WINDOWS_SCHEMA_VERSION,
            "program": self.program,
            "dataset": self.dataset,
            "axis": self.spec.axis,
            "windows": self.spec.count,
            "end_time": self.spec.end_time,
            "threshold": self.threshold,
            "predictor_sites": self.predictor_sites,
            "totals": self.totals(),
            "rows": self.rows,
            "sites": site_block,
        }


def window_profile(
    source: EventSource,
    windows: int = DEFAULT_WINDOWS,
    by: str = "bytes",
    predictor: Optional[LifetimePredictor] = None,
    threshold: Optional[int] = None,
) -> WindowProfile:
    """Compute one execution's windowed time series.

    ``source`` is a :class:`~repro.runtime.events.Trace` or a v3 file.
    The fold runs through
    :func:`~repro.runtime.folds.fold_object_lifetimes`, so materialized
    and streamed inputs produce the same profile field for field.
    """
    header = source.header
    spec = window_spec_for(source, windows=windows, by=by)
    with TRACER.span("windows.fold", cat="obs", program=header.program,
                     dataset=header.dataset, windows=windows, axis=by):
        fold = fold_object_lifetimes(
            source,
            WindowFold(
                spec, header.chains,
                predictor=predictor, threshold=threshold,
            ),
        )
    return WindowProfile(
        program=header.program,
        dataset=header.dataset,
        spec=spec,
        threshold=fold.threshold,
        predictor_sites=getattr(predictor, "site_count", 0),
        fold=fold,
    )


# ----------------------------------------------------------------------
# Rendering and deterministic exports
# ----------------------------------------------------------------------


def render_windows(profile: WindowProfile) -> str:
    """The windowed series as a terminal table, one row per window."""
    totals = profile.totals()
    lines = [
        f"windows: {profile.program}/{profile.dataset}"
        f" · {profile.spec.count} windows by {profile.spec.axis}"
        f" · threshold {profile.threshold} bytes",
        f"  {totals['allocs']:,} objects · {totals['alloc_bytes']:,} bytes"
        f" · {totals['sites']:,} sites"
        f" · short {totals['short_allocs']:,}"
        f" · predicted {totals['predicted_allocs']:,}",
        "    win      allocs       frees    live-bytes   short%"
        "   pred%    p50-life    p90-life",
    ]
    for row in profile.rows:
        allocs = row["allocs"]
        short_pct = 100.0 * row["short_allocs"] / allocs if allocs else 0.0
        pred_pct = (
            100.0 * row["predicted_allocs"] / allocs if allocs else 0.0
        )
        lines.append(
            f"    {row['index']:>3}  {allocs:>10,}  {row['frees']:>10,}"
            f"  {row['live_bytes_end']:>12,}  {short_pct:6.1f}%"
            f"  {pred_pct:5.1f}%  {row['lifetime_p50']:>10,}"
            f"  {row['lifetime_p90']:>10,}"
        )
    return "\n".join(lines)


def write_windows_json(
    profile: WindowProfile, path: Union[str, Path]
) -> Path:
    """Write the windows document as deterministic JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_windows_csv(
    profile: WindowProfile, path: Union[str, Path]
) -> Path:
    """Write one CSV row per window, fixed column order."""
    import csv

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_ROW_FIELDS)
        for row in profile.rows:
            writer.writerow([
                repr(row[name]) if isinstance(row[name], float)
                else str(row[name])
                for name in _ROW_FIELDS
            ])
    return path


def export_windows(
    profile: WindowProfile,
    out_dir: Union[str, Path],
    basename: Optional[str] = None,
) -> Dict[str, Path]:
    """Write the JSON/CSV artifacts under ``out_dir``.

    Returns ``{"json": ..., "csv": ...}`` paths; the basename defaults to
    ``<program>-<dataset>-w<count><axis[0]>`` flattened the same way the
    telemetry exporter flattens its artifact names.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if basename is None:
        raw = (
            f"{profile.program}-{profile.dataset}"
            f"-w{profile.spec.count}{profile.spec.axis[0]}"
        )
        basename = "".join(
            ch if ch.isalnum() or ch in "-._" else "_" for ch in raw
        )
    return {
        "json": write_windows_json(
            profile, out_dir / f"{basename}.windows.json"
        ),
        "csv": write_windows_csv(
            profile, out_dir / f"{basename}.windows.csv"
        ),
    }
