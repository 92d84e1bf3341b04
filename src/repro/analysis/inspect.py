"""Trace inspection reports for the CLI.

Human-oriented views of a single trace: the overall lifetime distribution
(a one-program Table 3) and the highest-volume allocation sites with
their quartiles and short-lived verdicts (the per-site data of §4.1).
Shared by ``repro-alloc quantiles`` / ``repro-alloc sites`` and the
``lifetime_analysis`` example.  The lifetime distribution is Table 3's
fold: :func:`~repro.runtime.folds.lifetime_runs`, read by
:func:`~repro.runtime.folds.lifetime_quartiles`.
"""

from __future__ import annotations

from repro.core.predictor import DEFAULT_THRESHOLD, actual_short_lived_bytes
from repro.core.profile import build_profile
from repro.runtime.events import Trace
from repro.runtime.folds import lifetime_quartiles, lifetime_runs

__all__ = ["lifetime_report", "sites_report"]


def lifetime_report(trace: Trace, threshold: int = DEFAULT_THRESHOLD) -> str:
    """A one-program lifetime summary (Table 3 plus the headline claim)."""
    runs = lifetime_runs(trace)
    if not runs:
        return f"{trace.program}/{trace.dataset}: empty trace"
    total = trace.total_bytes
    byte_qs, p2_qs = lifetime_quartiles(runs)
    short = actual_short_lived_bytes(trace, threshold)

    lines = [
        f"{trace.program}/{trace.dataset}: {trace.total_objects} objects, "
        f"{total} bytes",
        "lifetime quartiles (byte-weighted): "
        + "  ".join(f"{q:,}" for q in byte_qs),
        "lifetime quartiles (P2, per object): "
        + "  ".join(f"{q:,.0f}" for q in p2_qs),
        f"short-lived at {threshold} bytes: {100 * short / total:.1f}% "
        "of all bytes",
    ]
    return "\n".join(lines)


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
