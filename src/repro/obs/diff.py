"""Differential telemetry: regression verdicts between two sessions.

This is the repo's one session comparator.  It answers "did it
regress?" — and *which sites* or benchmarks paid — across every
observability document the repo emits.  It diffs two session files of
the same kind:

* **attribution** documents (``profile-sites --json`` /
  ``*.attrib.json``) — per-call-chain cost, fragmentation, and
  misprediction metrics;
* **telemetry** summaries (``stats --json`` / ``*.summary.json``) —
  whole-run totals plus the top misprediction sites;
* **bench** sessions (``BENCH_<seq>.json``) — the per-benchmark
  simulated costs, all deterministic;
* **drift** reports (``windows`` / ``*.drift.json``) — per-site
  temporal-drift scores, so a site that *starts* drifting between two
  runs gates the diff;
* **search** sessions (``SEARCH_<seq>.json``) — per-candidate objective
  scores and raw metrics, so a code change that worsens any candidate's
  score (or loses a candidate outright) gates the diff.

The verdict contract: each metric has a *good direction* ("lower",
"higher", "equal", or "info"), movements within the relative threshold
are ``unchanged``, beyond it ``improved``/``regressed`` by direction,
"equal" metrics regress on *any* move, and "info" metrics (occupancy,
object counts, gauges like ``peak_rss_kb``) never gate.  ``bench
compare`` is the bench preset at threshold 0 (:func:`bench_gate`).
Incomparable documents raise ``ValueError`` rather than mis-report:
mixed kinds, bench sessions at different schema versions or scales,
and non-finite values (``json`` reads ``Infinity``/``NaN``).  The
report and its JSON form are deterministic — same inputs, same bytes —
and the CLI exits nonzero iff :attr:`DiffResult.regressed`.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple, Union

__all__ = [
    "DEFAULT_REL_THRESHOLD",
    "MetricDelta",
    "DiffResult",
    "load_session_doc",
    "detect_kind",
    "diff_documents",
    "diff_paths",
    "bench_gate",
    "render_diff_report",
]

#: Default relative threshold: movements within 1% are ``unchanged``.
DEFAULT_REL_THRESHOLD = 0.01

#: Relative slack absorbing float serialization rounding, nothing more.
_FLOAT_EPS = 1e-9

_VERDICT_ORDER = ("regressed", "improved", "unchanged", "info")


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement at one key (site, totals, or benchmark)."""

    key: str
    metric: str
    old: float
    new: float
    direction: str  # the *good* direction: lower/higher/equal/info
    verdict: str    # regressed/improved/unchanged/info

    @property
    def rel_change(self) -> float:
        """Relative change (new vs old); inf when old was zero."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / abs(self.old)

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


@dataclass
class DiffResult:
    """Everything a session diff decides, before rendering."""

    kind: str
    rel_threshold: float
    old_identity: Dict[str, Any]
    new_identity: Dict[str, Any]
    deltas: List[MetricDelta] = field(default_factory=list)
    only_old: List[str] = field(default_factory=list)
    only_new: List[str] = field(default_factory=list)
    keys_compared: int = 0

    @property
    def regressed(self) -> bool:
        """True when any gated metric moved the wrong way, or a key
        present in the old session vanished from the new one."""
        return bool(self.only_old) or any(
            d.verdict == "regressed" for d in self.deltas
        )

    def by_verdict(self, verdict: str) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == verdict]

    def to_dict(self) -> Dict[str, Any]:
        counts = {v: len(self.by_verdict(v)) for v in _VERDICT_ORDER}
        return {
            "kind": self.kind,
            "rel_threshold": self.rel_threshold,
            "old_identity": dict(self.old_identity),
            "new_identity": dict(self.new_identity),
            "keys_compared": self.keys_compared,
            "counts": counts,
            "regressed": self.regressed,
            "deltas": [d.to_dict() for d in self.deltas],
            "only_old": list(self.only_old),
            "only_new": list(self.only_new),
        }


def load_session_doc(path: Union[str, Path]) -> Dict[str, Any]:
    """Load one session document (attribution/telemetry/bench JSON)."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object session document")
    return doc


def detect_kind(doc: Dict[str, Any]) -> str:
    """Which session family a loaded document belongs to."""
    if doc.get("kind") in ("attribution", "drift", "search"):
        return doc["kind"]
    if "records" in doc and "schema_version" in doc:
        return "bench"
    if "totals" in doc and "top_misprediction_sites" in doc:
        return "telemetry"
    raise ValueError(
        "unrecognized session document: expected an attribution export "
        "(kind=attribution), a drift report (kind=drift), a search "
        "session (kind=search), a telemetry summary (totals + "
        "top_misprediction_sites), or a bench session "
        "(records + schema_version)"
    )


# ----------------------------------------------------------------------
# Per-kind normalizers: document -> (identity, {key: {metric: value}})
# plus a direction table naming each metric's *good* direction.  Metrics
# absent from a table are informational.
# ----------------------------------------------------------------------

_ATTRIB_DIRECTIONS = {
    "alloc_instr": "lower",
    "free_instr": "lower",
    "total_instr": "lower",
    "frag_bytes": "lower",
    "frag_byte_time": "lower",
    "late_free": "lower",
    "late_free_byte_time": "lower",
    "missed_short": "lower",
    "missed_short_bytes": "lower",
    "mispredictions": "lower",
    # objects/bytes/touches/short_*/predicted_objects/occupancy_byte_time
    # describe the workload, not the allocator — informational.
}

_TELEMETRY_DIRECTIONS = {
    "late_free": "lower",
    "overflow": "lower",
    "missed_short": "lower",
    "arena_allocs": "higher",
    "arena_bytes": "higher",
    # allocs/frees/bytes/sites and the other placements are workload
    # shape or rebalancing targets — informational.
}

_BENCH_DIRECTIONS = {
    "allocs": "equal",
    "frees": "equal",
    "instr_per_alloc": "lower",
    "instr_per_free": "lower",
    "max_heap_size": "lower",
    "arena_alloc_pct": "higher",
    "arena_byte_pct": "higher",
    "mispredictions_total": "lower",
    # final_live_bytes describes the workload's exit state, not the
    # allocator — informational.
}

_DRIFT_DIRECTIONS = {
    "drift_windows": "lower",
    "drift_objects": "lower",
    "drift_score": "lower",
    "drifting_sites": "lower",
    # objects/short_fraction/sites_scored describe the workload and the
    # scoring coverage, not predictor health — informational.
}

_SEARCH_DIRECTIONS = {
    "score": "lower",
    "total_instr": "lower",
    "max_heap_size": "lower",
    "frag_byte_time": "lower",
    # rank follows from the scores (double-gating it would report every
    # score movement twice) and the ratios follow from the metrics and
    # the baseline — informational.
}

Entries = Dict[str, Dict[str, float]]


def _numeric_items(data: Dict[str, Any]) -> Dict[str, float]:
    return {
        key: float(value)
        for key, value in data.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    }


Normalized = Tuple[Dict[str, Any], Entries, Dict[str, str]]


def _identity(doc: Dict[str, Any], keys: Tuple[str, ...]) -> Dict[str, Any]:
    return {key: doc.get(key) for key in keys}


def _site_entries(doc: Dict[str, Any], sites: str) -> Entries:
    """``totals`` plus one ``site:<chain>`` entry per listed site."""
    entries: Entries = {"totals": _numeric_items(doc.get("totals", {}))}
    for site in doc.get(sites, []):
        entries["site:" + ";".join(site.get("chain", []))] = (
            _numeric_items(site)
        )
    return entries


def _normalize_attribution(doc: Dict[str, Any]) -> Normalized:
    identity = _identity(doc, ("program", "dataset", "profile", "threshold"))
    return identity, _site_entries(doc, "sites"), _ATTRIB_DIRECTIONS


def _normalize_telemetry(doc: Dict[str, Any]) -> Normalized:
    identity = _identity(
        doc, ("program", "dataset", "allocator", "threshold", "interval")
    )
    entries = _site_entries(doc, "top_misprediction_sites")
    gauges = doc.get("gauges")
    if isinstance(gauges, dict) and gauges:
        entries["gauges"] = _numeric_items(gauges)
    return identity, entries, _TELEMETRY_DIRECTIONS


def _normalize_bench(doc: Dict[str, Any]) -> Normalized:
    identity = {
        "schema_version": doc.get("schema_version"),
        "scale": doc.get("provenance", {}).get("scale", 1.0),
    }
    entries: Entries = {}
    for record in doc.get("records", []):
        metrics = _numeric_items(record)
        mispredictions = record.get("mispredictions", {})
        if isinstance(mispredictions, dict):
            metrics["mispredictions_total"] = float(
                sum(mispredictions.values())
            )
        entries[str(record.get("name"))] = metrics
    return identity, entries, _BENCH_DIRECTIONS


def _normalize_drift(doc: Dict[str, Any]) -> Normalized:
    identity = _identity(
        doc, ("program", "dataset", "axis", "windows", "threshold",
              "classifier", "min_windows", "min_objects", "flip_fraction")
    )
    return identity, _site_entries(doc, "sites"), _DRIFT_DIRECTIONS


def _normalize_search(doc: Dict[str, Any]) -> Normalized:
    identity = _identity(
        doc, ("program", "dataset", "scale", "mode", "seed", "space_hash")
    )
    entries: Entries = {}
    baseline = doc.get("baseline", {})
    if isinstance(baseline, dict):
        entries["baseline"] = _numeric_items(baseline.get("metrics", {}))
    for candidate in doc.get("results", []):
        key = "spec:" + str(candidate.get("spec_hash"))
        metrics = _numeric_items(candidate.get("metrics", {}))
        metrics["score"] = float(candidate.get("score", 0.0))
        metrics["rank"] = float(candidate.get("rank", 0))
        entries[key] = metrics
    return identity, entries, _SEARCH_DIRECTIONS


_NORMALIZERS = {
    "attribution": _normalize_attribution,
    "telemetry": _normalize_telemetry,
    "bench": _normalize_bench,
    "drift": _normalize_drift,
    "search": _normalize_search,
}


def _changed(old: float, new: float) -> bool:
    return abs(new - old) > _FLOAT_EPS * max(abs(old), abs(new), 1.0)


def _verdict(
    old: float, new: float, direction: str, rel_threshold: float
) -> str:
    if direction == "info":
        return "info"
    if direction == "equal":
        return "regressed"  # caller only asks about changed values
    rel = abs(new - old) / abs(old) if old != 0 else float("inf")
    if rel <= rel_threshold:
        return "unchanged"
    worse = (direction == "lower") == (new > old)
    return "regressed" if worse else "improved"


def _check_bench_identity(old: Dict[str, Any], new: Dict[str, Any]) -> None:
    if old["schema_version"] != new["schema_version"]:
        raise ValueError(
            f"schema version mismatch: old session v{old['schema_version']} "
            f"vs new v{new['schema_version']} — regenerate the baseline"
        )
    if old["scale"] != new["scale"]:
        raise ValueError(
            f"scale mismatch: old session ran at scale {old['scale']}, new "
            f"at {new['scale']} — benchmark trajectories are per-scale"
        )


def _check_finite(side: str, entries: Entries) -> None:
    for key, metrics in entries.items():
        for metric, value in metrics.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"{side} session has a non-finite value at {key}: "
                    f"{metric} = {value} — only finite metrics compare"
                )


def diff_documents(
    old: Dict[str, Any],
    new: Dict[str, Any],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> DiffResult:
    """Diff two loaded session documents of the same kind.

    Raises ValueError when the kinds differ — diffing an attribution
    export against a bench session is a category error, not a report —
    when bench sessions disagree on schema version or scale, and when
    either side carries a non-finite metric value.
    """
    old_kind, new_kind = detect_kind(old), detect_kind(new)
    if old_kind != new_kind:
        raise ValueError(
            f"cannot diff a {old_kind} session against a {new_kind} "
            "session — both sides must be the same document kind"
        )
    old_identity, old_entries, directions = _NORMALIZERS[old_kind](old)
    new_identity, new_entries, _ = _NORMALIZERS[new_kind](new)
    if old_kind == "bench":
        _check_bench_identity(old_identity, new_identity)
    _check_finite("old", old_entries)
    _check_finite("new", new_entries)
    result = DiffResult(
        kind=old_kind,
        rel_threshold=rel_threshold,
        old_identity=old_identity,
        new_identity=new_identity,
        only_old=sorted(set(old_entries) - set(new_entries)),
        only_new=sorted(set(new_entries) - set(old_entries)),
    )
    for key in sorted(set(old_entries) & set(new_entries)):
        old_metrics, new_metrics = old_entries[key], new_entries[key]
        result.keys_compared += 1
        for metric in sorted(set(old_metrics) & set(new_metrics)):
            old_value, new_value = old_metrics[metric], new_metrics[metric]
            if not _changed(old_value, new_value):
                continue
            direction = directions.get(metric, "info")
            verdict = _verdict(old_value, new_value, direction, rel_threshold)
            result.deltas.append(MetricDelta(
                key, metric, old_value, new_value, direction, verdict
            ))
    order = {verdict: rank for rank, verdict in enumerate(_VERDICT_ORDER)}
    result.deltas.sort(key=lambda d: (order[d.verdict], d.key, d.metric))
    return result


def diff_paths(
    old_path: Union[str, Path],
    new_path: Union[str, Path],
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> DiffResult:
    """Load two session files and diff them."""
    return diff_documents(
        load_session_doc(old_path),
        load_session_doc(new_path),
        rel_threshold=rel_threshold,
    )


def bench_gate(old: Dict[str, Any], new: Dict[str, Any]) -> DiffResult:
    """``bench compare``: :func:`diff_documents` under the bench preset.

    Every bench metric is deterministic simulated cost, so the threshold
    is 0: any move in the bad direction regresses.
    """
    if detect_kind(old) != "bench" or detect_kind(new) != "bench":
        raise ValueError(
            "bench compare gates bench sessions (BENCH_<seq>.json); use "
            "diff-sessions for other session documents"
        )
    return diff_documents(old, new, rel_threshold=0.0)


def _fmt_value(value: float) -> str:
    if value == int(value):
        return f"{int(value):,}"
    return f"{value:.6g}"


def _fmt_delta(delta: MetricDelta) -> str:
    rel = delta.rel_change
    rel_text = f"{100.0 * rel:+.1f}%" if rel != float("inf") else "+inf%"
    tolerance = (
        " (zero tolerance)" if delta.direction == "equal"
        else " (informational)" if delta.direction == "info"
        else ""
    )
    return (
        f"{delta.verdict.upper() if delta.verdict == 'regressed' else delta.verdict}"
        f" {delta.key}: {delta.metric} "
        f"{_fmt_value(delta.old)} -> {_fmt_value(delta.new)}"
        f" [{rel_text}]{tolerance}"
    )


def render_diff_report(result: DiffResult) -> str:
    """The diff as deterministic text: regressions first, verdict last."""
    threshold_pct = 100.0 * result.rel_threshold
    lines = [
        f"session diff ({result.kind}): {result.keys_compared} keys"
        f" compared, threshold ±{threshold_pct:g}%"
    ]
    for key, value in sorted(result.old_identity.items()):
        new_value = result.new_identity.get(key)
        if new_value != value:
            lines.append(f"  identity {key}: {value!r} -> {new_value!r}")
    for key in result.only_old:
        lines.append(f"  MISSING {key}: present in old session, absent in new")
    shown = 0
    for verdict in _VERDICT_ORDER:
        deltas = result.by_verdict(verdict)
        if verdict in ("unchanged", "info") and len(deltas) > 20:
            lines.append(
                f"  ({len(deltas)} {verdict} metric movements not shown)"
            )
            continue
        for delta in deltas:
            lines.append("  " + _fmt_delta(delta))
            shown += 1
    for key in result.only_new:
        lines.append(f"  added {key}: no old record, not gated")
    if not shown and not result.only_old and not result.only_new:
        lines.append("  sessions are metric-identical")
    regressions = len(result.by_verdict("regressed"))
    lines.append(
        "result: "
        + ("OK — no regressions"
           if not result.regressed
           else f"FAIL — {regressions} regression(s), "
                f"{len(result.only_old)} missing key(s)")
    )
    return "\n".join(lines)
