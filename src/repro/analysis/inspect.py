"""Trace inspection reports for the CLI.

Human-oriented views of a single trace: the overall lifetime distribution
(a one-program Table 3) and the highest-volume allocation sites with
their quartiles and short-lived verdicts (the per-site data of §4.1).
Shared by ``repro-alloc quantiles`` / ``repro-alloc sites`` and the
``lifetime_analysis`` example.
"""

from __future__ import annotations

from typing import List

from repro.core.predictor import DEFAULT_THRESHOLD, actual_short_lived_bytes
from repro.core.profile import build_profile
from repro.core.quantile import P2Histogram
from repro.runtime.events import Trace

__all__ = ["lifetime_report", "sites_report"]


def lifetime_report(trace: Trace, threshold: int = DEFAULT_THRESHOLD) -> str:
    """A one-program lifetime summary (Table 3 plus the headline claim)."""
    pairs = sorted(
        (trace.lifetime_of(obj_id), trace.size_of(obj_id))
        for obj_id in range(trace.total_objects)
    )
    if not pairs:
        return f"{trace.program}/{trace.dataset}: empty trace"
    total = trace.total_bytes
    histogram = P2Histogram(cells=4)
    histogram.extend(lifetime for lifetime, _ in pairs)
    byte_qs = _byte_weighted_quartiles(pairs, total)
    short = actual_short_lived_bytes(trace, threshold)

    lines = [
        f"{trace.program}/{trace.dataset}: {trace.total_objects} objects, "
        f"{total} bytes",
        "lifetime quartiles (byte-weighted): "
        + "  ".join(f"{q:,}" for q in byte_qs),
        "lifetime quartiles (P2, per object): "
        + "  ".join(f"{q:,.0f}" for q in histogram.quantiles()),
        f"short-lived at {threshold} bytes: {100 * short / total:.1f}% "
        "of all bytes",
    ]
    return "\n".join(lines)


def _byte_weighted_quartiles(pairs, total) -> List[int]:
    targets = [0.0, 0.25, 0.50, 0.75, 1.0]
    result: List[int] = []
    cumulative = 0
    iterator = iter(targets)
    target = next(iterator)
    for lifetime, size in pairs:
        cumulative += size
        while cumulative >= target * total:
            result.append(lifetime)
            nxt = next(iterator, None)
            if nxt is None:
                target = float("inf")
                break
            target = nxt
    while len(result) < 5:
        result.append(pairs[-1][0])
    return result[:5]


def sites_report(
    trace: Trace,
    top: int = 15,
    threshold: int = DEFAULT_THRESHOLD,
    size_rounding: int = 4,
) -> str:
    """The highest-volume allocation sites with lifetime verdicts."""
    profile = build_profile(trace, size_rounding=size_rounding)
    ranked = sorted(profile.sites(), key=lambda kv: -kv[1].bytes)
    lines = [
        f"{trace.program}/{trace.dataset}: {len(profile)} sites, "
        f"top {min(top, len(profile))} by volume "
        f"(threshold {threshold} bytes)",
        f"{'site (last 3 callers, size)':46s} {'objs':>8s} {'bytes%':>7s} "
        f"{'median':>10s} {'max':>12s}  verdict",
    ]
    for (chain, size), stats in ranked[:top]:
        name = ">".join(chain[-3:]) + f" ({size}B)"
        median = stats.histogram.quantiles()[2]
        verdict = (
            "short-lived" if stats.all_short_lived(threshold) else "mixed/long"
        )
        lines.append(
            f"{name:46s} {stats.objects:8d} "
            f"{100 * stats.bytes / max(profile.total_bytes, 1):6.1f}% "
            f"{median:10.0f} {stats.max_lifetime:12d}  {verdict}"
        )
    short = profile.short_lived_sites(threshold)
    short_bytes = sum(stats.bytes for stats in short.values())
    lines.append(
        f"{len(short)}/{len(profile)} sites uniformly short-lived, "
        f"covering {100 * short_bytes / max(profile.total_bytes, 1):.1f}% "
        "of bytes"
    )
    return "\n".join(lines)
