"""Per-site lifetime drift: where the global classification stops holding.

Barrett & Zorn's predictor assigns each site one classification for the
whole run — short-lived or not — and §5.2's failure modes (late frees
polluting the arena, short objects missed by the general heap) are
exactly what happens when a site's behavior *changes* over the run while
its classification cannot.  This module makes that failure mode visible:
it scores every site of a :class:`~repro.obs.windows.WindowProfile`
window by window and flags the ones whose per-window short-lived
fraction contradicts their global classification in at least ``k``
windows.

The rules, all deterministic functions of the windowed tallies:

* a site's **classification** is the predictor's majority verdict when a
  trained database is attached (``predicted_objects / objects >= 0.5`` —
  verdicts key on ``(chain, size)``, so a chain allocating several sizes
  can split), and otherwise the oracle fallback ``global short_fraction
  >= 0.5``;
* a window **contradicts** the classification when it holds at least
  ``min_objects`` of the site's objects (noise floor) and its
  short-lived fraction falls on the other side of ``flip_fraction``;
* a site **drifts** when at least ``min_windows`` windows contradict.

The report is a plain dict with ``kind: "drift"`` and includes *every*
scored site, drifting or not — :mod:`repro.obs.diff` treats vanished
keys as regressions, so emitting only the drifters would make a site
that *starts* drifting look like a disappearance instead of a metric
regression.  ``diff-sessions`` picks the kind up automatically and
gates ``drift_windows`` / ``drift_objects`` / ``drift_score`` per site
plus the totals, all lower-is-better.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.obs.windows import WindowProfile

__all__ = [
    "DRIFT_SCHEMA_VERSION",
    "DEFAULT_MIN_WINDOWS",
    "DEFAULT_MIN_OBJECTS",
    "DEFAULT_FLIP_FRACTION",
    "drift_report",
    "render_drift",
    "write_drift_json",
]

#: Version stamp of the exported drift document.
DRIFT_SCHEMA_VERSION = 1

#: Windows that must contradict before a site counts as drifting.
DEFAULT_MIN_WINDOWS = 2

#: Objects a window must hold for its fraction to count (noise floor).
DEFAULT_MIN_OBJECTS = 8

#: The short-fraction boundary a window must cross to contradict.
DEFAULT_FLIP_FRACTION = 0.5


def drift_report(
    profile: WindowProfile,
    min_windows: int = DEFAULT_MIN_WINDOWS,
    min_objects: int = DEFAULT_MIN_OBJECTS,
    flip_fraction: float = DEFAULT_FLIP_FRACTION,
) -> Dict[str, Any]:
    """Score every site of a window profile for temporal drift.

    Returns the deterministic drift document: identity fields, the
    scoring parameters, whole-run totals, and one entry per scored site
    sorted by chain.  Drifting sites carry a ``windows`` detail block
    (only the contradicting windows, by index); clean sites stay
    compact but present, so diff keys are stable across runs.
    """
    if min_windows < 1:
        raise ValueError(f"min_windows must be >= 1, got {min_windows}")
    threshold = profile.threshold
    has_predictor = profile.fold.predictor is not None
    sites = []
    total_drifting = 0
    total_drift_windows = 0
    total_drift_objects = 0
    for chain, per_window in sorted(profile.site_windows().items()):
        objects = sum(r.objects for r in per_window.values())
        short_objects = sum(r.short_objects for r in per_window.values())
        predicted = sum(r.predicted_objects for r in per_window.values())
        short_fraction = short_objects / objects if objects else 0.0
        if has_predictor:
            classified_short = objects > 0 and predicted / objects >= 0.5
        else:
            classified_short = short_fraction >= 0.5
        contradictions = []
        drift_objects = 0
        for window in sorted(per_window):
            record = per_window[window]
            if record.objects < min_objects:
                continue
            window_fraction = record.short_objects / record.objects
            window_short = window_fraction >= flip_fraction
            if window_short != classified_short:
                contradictions.append({
                    "index": window,
                    "objects": record.objects,
                    "short_objects": record.short_objects,
                    "short_fraction": round(window_fraction, 6),
                })
                drift_objects += record.objects
        drifting = len(contradictions) >= min_windows
        entry: Dict[str, Any] = {
            "chain": list(chain),
            "classification": "short" if classified_short else "long",
            "objects": objects,
            "short_fraction": round(short_fraction, 6),
            "drift_windows": len(contradictions) if drifting else 0,
            "drift_objects": drift_objects if drifting else 0,
            "drift_score": (
                round(drift_objects / objects, 6)
                if drifting and objects else 0.0
            ),
            "drifting": drifting,
        }
        if drifting:
            entry["windows"] = contradictions
            total_drifting += 1
            total_drift_windows += len(contradictions)
            total_drift_objects += drift_objects
        sites.append(entry)
    return {
        "kind": "drift",
        "schema_version": DRIFT_SCHEMA_VERSION,
        "program": profile.program,
        "dataset": profile.dataset,
        "axis": profile.spec.axis,
        "windows": profile.spec.count,
        "threshold": threshold,
        "classifier": "predictor" if has_predictor else "oracle",
        "min_windows": min_windows,
        "min_objects": min_objects,
        "flip_fraction": round(flip_fraction, 6),
        "totals": {
            "sites_scored": len(sites),
            "drifting_sites": total_drifting,
            "drift_windows": total_drift_windows,
            "drift_objects": total_drift_objects,
        },
        "sites": sites,
    }


def _chain_label(chain, depth: int = 4) -> str:
    tail = chain[-depth:]
    label = ">".join(tail)
    return ("…" + label) if len(chain) > depth else label


def render_drift(report: Dict[str, Any], top: int = 10) -> str:
    """The drift report as a terminal table, worst sites first."""
    totals = report["totals"]
    lines = [
        f"lifetime drift: {report['program']}/{report['dataset']}"
        f" · {report['windows']} windows by {report['axis']}"
        f" · {report['classifier']} classifier",
        f"  {totals['sites_scored']:,} sites scored"
        f" · {totals['drifting_sites']:,} drifting"
        f" · {totals['drift_windows']:,} contradicting windows"
        f" · {totals['drift_objects']:,} objects",
    ]
    drifters = sorted(
        (s for s in report["sites"] if s["drifting"]),
        key=lambda s: (-s["drift_score"], -s["drift_objects"],
                       tuple(s["chain"])),
    )
    if drifters:
        lines.append(f"  top {min(top, len(drifters))} drifting sites:")
        lines.append(
            "    score    windows     objects  class  site"
        )
        for entry in drifters[:top]:
            lines.append(
                f"    {entry['drift_score']:5.3f}  {entry['drift_windows']:>9,}"
                f"  {entry['drift_objects']:>10,}  {entry['classification']:>5}"
                f"  {_chain_label(tuple(entry['chain']))}"
            )
    else:
        lines.append("  no drifting sites — the global classification holds")
    return "\n".join(lines)


def write_drift_json(
    report: Dict[str, Any], path: Union[str, Path]
) -> Path:
    """Write the drift document as deterministic JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
