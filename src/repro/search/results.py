"""Ranked search sessions: ``SEARCH_<seq>.json`` on disk.

A search session records the full provenance of one design-space run —
workload, scale, mode, seed, objective weights, the space and its hash,
the baseline spec's measurements — plus every evaluated candidate
ranked by score (ties broken by canonical spec hash).

Unlike bench sessions, search sessions carry **no wall-clock stamp and
no replay mode**: the same (space, workload, scale, seed, objective)
must produce a byte-identical file whether the replay ran materialized
or streamed (``--stream``), and CI compares the files with ``cmp`` to
prove it.  The store is a :class:`~repro.bench.store.SessionStore`, as
:class:`~repro.bench.BenchStore` is (append-only numbered files, atomic
writes, ``latest``/``prev``/seq/path references), so ``diff-sessions``
can gate one ranked session against another.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.bench.provenance import git_sha
from repro.bench.store import SessionStore

__all__ = [
    "SEARCH_DIR_ENV",
    "SEARCH_SCHEMA_VERSION",
    "SearchFormatError",
    "SearchSession",
    "SearchStore",
    "default_search_dir",
    "render_best",
    "render_session",
    "search_provenance",
]

#: Environment variable naming the search-session directory.
SEARCH_DIR_ENV = "REPRO_SEARCH_DIR"

#: Version of the SEARCH session schema.  Bump on any field change so
#: readers can refuse documents they do not understand.
SEARCH_SCHEMA_VERSION = 1


class SearchFormatError(ValueError):
    """A search-session document that cannot be understood."""


def search_provenance() -> Dict[str, Any]:
    """The provenance block for a search session.

    Deliberately excludes wall-clock time and the replay mode: two runs
    of the same search must produce byte-identical sessions regardless
    of when they ran or whether the replay streamed.
    """
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": f"{platform.system()}-{platform.machine()}",
    }


@dataclass
class SearchSession:
    """One ranked design-space run, JSON round-trippable."""

    seq: int
    program: str
    dataset: str
    scale: float
    mode: str
    seed: int
    objective: Dict[str, float]
    space: Dict[str, Any]
    space_hash: str
    baseline: Dict[str, Any]
    #: Ranked candidates, best first; each entry carries ``rank``,
    #: ``spec``, ``spec_hash``, ``describe``, ``metrics``, ``ratios``,
    #: and ``score``.
    results: List[Dict[str, Any]] = field(default_factory=list)
    provenance: Dict[str, Any] = field(default_factory=dict)

    @property
    def best(self) -> Optional[Dict[str, Any]]:
        """The top-ranked candidate, or None for an empty session."""
        return self.results[0] if self.results else None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": "search",
            "schema_version": SEARCH_SCHEMA_VERSION,
            "seq": self.seq,
            "program": self.program,
            "dataset": self.dataset,
            "scale": self.scale,
            "mode": self.mode,
            "seed": self.seed,
            "objective": self.objective,
            "space": self.space,
            "space_hash": self.space_hash,
            "baseline": self.baseline,
            "results": self.results,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SearchSession":
        if not isinstance(data, dict) or data.get("kind") != "search":
            raise SearchFormatError(
                "not a search session: expected a JSON object with "
                "kind='search'"
            )
        version = data.get("schema_version")
        if version != SEARCH_SCHEMA_VERSION:
            raise SearchFormatError(
                f"unsupported search schema_version {version!r}; "
                f"this build reads version {SEARCH_SCHEMA_VERSION}"
            )
        try:
            return cls(
                seq=data["seq"],
                program=data["program"],
                dataset=data["dataset"],
                scale=data["scale"],
                mode=data["mode"],
                seed=data["seed"],
                objective=data["objective"],
                space=data["space"],
                space_hash=data["space_hash"],
                baseline=data["baseline"],
                results=data["results"],
                provenance=data.get("provenance", {}),
            )
        except KeyError as exc:
            raise SearchFormatError(
                f"search session is missing field {exc.args[0]!r}"
            )


class SearchStore(SessionStore):
    """Reads and appends the ``SEARCH_<seq>.json`` trajectory."""

    prefix = "SEARCH"
    session_type = SearchSession
    dir_env = SEARCH_DIR_ENV
    default_dir = Path("results") / "search"


def default_search_dir() -> Path:
    """``$REPRO_SEARCH_DIR`` or ``results/search`` under the working tree."""
    return SearchStore.default_directory()


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------

def render_session(session: SearchSession, top: Optional[int] = None) -> str:
    """The ranked-candidates table for one session."""
    lines = [
        f"search session {session.seq:04d}: {session.program}/"
        f"{session.dataset} scale {session.scale:g}, mode {session.mode}, "
        f"seed {session.seed}, space {session.space_hash}",
        f"objective weights: "
        f"instr {session.objective.get('instructions', 0):g}, "
        f"heap {session.objective.get('max_heap', 0):g}, "
        f"frag {session.objective.get('fragmentation', 0):g} "
        f"(baseline arena = 1.0)",
        "",
        "rank  score    instr-ratio  heap-ratio  frag-ratio  spec",
    ]
    shown = session.results if top is None else session.results[:top]
    for entry in shown:
        ratios = entry.get("ratios", {})

        def cell(name: str, width: int) -> str:
            value = ratios.get(name)
            if value is None:
                # Axis the baseline zeroed out — no relative movement.
                return "-".rjust(width)
            return f"{value:>{width}.4f}"

        lines.append(
            f"{entry['rank']:>4}  {entry['score']:7.4f}  "
            f"{cell('instructions', 11)}  {cell('max_heap', 10)}  "
            f"{cell('fragmentation', 10)}  "
            f"{entry.get('describe', entry['spec_hash'])}"
        )
    if not shown:
        lines.append("  (no candidates evaluated)")
    hidden = len(session.results) - len(shown)
    if hidden > 0:
        lines.append(f"  ... {hidden} more candidate(s); --top 0 for all")
    return "\n".join(lines)


def render_best(session: SearchSession) -> str:
    """The winner summary the improvement gate prints."""
    best = session.best
    if best is None:
        return (
            f"search session {session.seq:04d}: no candidates evaluated"
        )
    verdict = (
        "beats the paper-default arena spec"
        if best["score"] < 1.0
        else "does not beat the paper-default arena spec"
    )
    lines = [
        f"best of search session {session.seq:04d} "
        f"({session.program}, scale {session.scale:g}): "
        f"score {best['score']:.4f} — {verdict}",
        f"  spec {best['spec_hash']}: "
        f"{best.get('describe', '')}".rstrip(),
        f"  spec json: {json.dumps(best['spec'], sort_keys=True)}",
    ]
    return "\n".join(lines)
