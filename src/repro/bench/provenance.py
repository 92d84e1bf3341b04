"""Session provenance: what produced a benchmark record, exactly.

A perf number without its commit, scale, and interpreter is noise — the
related measurement-methodology literature (Risco-Martín et al.; van
Kempen & Berger) is largely a catalogue of conclusions that evaporated
when the harness changed under them.  Every ``BENCH_<seq>.json`` session
and the benchmark suite's ``results/metrics.json`` dump therefore carry
the same provenance block, built here.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from datetime import datetime, timezone
from typing import Any, Dict, Optional

__all__ = ["BENCH_SCHEMA_VERSION", "git_sha", "collect_provenance"]

#: Version of the BENCH record schema.  Bump on any field change so the
#: comparator can refuse to diff records it does not understand.
#: Version 2 dropped the wall-clock and RSS fields.
BENCH_SCHEMA_VERSION = 2


def git_sha(short: bool = False) -> str:
    """The repository's current commit, or ``"unknown"`` outside git."""
    cmd = ["git", "rev-parse"] + (["--short"] if short else []) + ["HEAD"]
    try:
        out = subprocess.run(
            cmd, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
        return out or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def collect_provenance(
    scale: float, extra: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The provenance block stamped into every session artifact.

    ``created_at`` is informational (history listings); the comparator
    and the determinism tests ignore it.
    """
    info: Dict[str, Any] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "scale": float(scale),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}",
        "argv0": sys.argv[0].rsplit("/", 1)[-1] if sys.argv else "",
        # Deliberate wall-clock read: created_at is informational only
        # and excluded from determinism comparisons (see docstring).
        "created_at": datetime.now(timezone.utc).isoformat(  # alloclint: disable=R003
            timespec="seconds"
        ),
    }
    if extra:
        info.update(extra)
    return info
