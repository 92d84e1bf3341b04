"""Numbered session trajectories on disk: ``<PREFIX>_<seq>.json``.

A trajectory is an append-only directory of numbered session files.
:class:`SessionStore` is the one implementation; a subclass names the
file prefix, the session class, the environment variable and the
default directory.  :class:`BenchStore` keeps ``BENCH_<seq>.json``
(default ``results/bench``, overridable with ``--bench-dir`` or
``REPRO_BENCH_DIR``), and :class:`~repro.search.results.SearchStore`
keeps ``SEARCH_<seq>.json``.  Sequence numbers are zero-padded so
lexical and numeric order agree; writes publish through
:func:`~repro.runtime.tracefile.atomic_output` so an interrupted run
never leaves a half-written session for ``bench compare`` or
``diff-sessions`` to trip over.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, List, Tuple, Union

from repro.bench.record import BenchSession
from repro.runtime.tracefile import atomic_output

__all__ = ["BENCH_DIR_ENV", "BenchStore", "SessionStore", "default_bench_dir"]

#: Environment variable naming the trajectory directory.
BENCH_DIR_ENV = "REPRO_BENCH_DIR"


class SessionStore:
    """Reads and appends one ``<prefix>_<seq>.json`` trajectory.

    Sessions are objects with a ``seq``, a ``to_dict()`` and a
    ``session_type.from_dict`` that reads it back.  Files are written
    with ``indent=2, sort_keys=True`` and a trailing newline, so the
    same session always writes the same bytes.
    """

    #: Session files are ``<prefix>_<seq:04d>.json``.
    prefix = ""
    #: The class :meth:`load` builds, through its ``from_dict``.
    session_type: Any = None
    #: Environment variable that overrides :attr:`default_dir`.
    dir_env = ""
    #: The directory, under the working tree, when neither the caller
    #: nor the environment names one.
    default_dir = Path()

    def __init__(self, directory: Union[str, os.PathLike, None] = None):
        self.directory = (
            Path(directory) if directory else self.default_directory()
        )

    @classmethod
    def default_directory(cls) -> Path:
        """``$<dir_env>`` or :attr:`default_dir`."""
        env = os.environ.get(cls.dir_env)
        if env:
            return Path(env).expanduser()
        return cls.default_dir

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------

    def session_paths(self) -> List[Tuple[int, Path]]:
        """Every ``(seq, path)`` in the trajectory, ascending by seq."""
        pattern = re.compile(rf"^{self.prefix}_(\d+)\.json$")
        found: List[Tuple[int, Path]] = []
        if self.directory.is_dir():
            for path in self.directory.iterdir():
                match = pattern.match(path.name)
                if match:
                    found.append((int(match.group(1)), path))
        found.sort(key=lambda pair: pair[0])
        return found

    def next_seq(self) -> int:
        """The sequence number the next :meth:`write` will use."""
        paths = self.session_paths()
        return (paths[-1][0] + 1) if paths else 1

    def history(self) -> list:
        """Every session in the trajectory, ascending by seq."""
        return [self.load(path) for _, path in self.session_paths()]

    # ------------------------------------------------------------------
    # Reading and writing
    # ------------------------------------------------------------------

    def path_for(self, seq: int) -> Path:
        """Where session ``seq`` lives (whether or not present)."""
        return self.directory / f"{self.prefix}_{seq:04d}.json"

    def load(self, ref: Union[int, str, os.PathLike]):
        """Load a session by seq number, ``"latest"``/``"prev"``, or path."""
        path = self.resolve(ref)
        with open(path, "r", encoding="utf-8") as handle:
            return self.session_type.from_dict(json.load(handle))

    def resolve(self, ref: Union[int, str, os.PathLike]) -> Path:
        """Turn a session reference into the file that holds it."""
        if isinstance(ref, int):
            return self.path_for(ref)
        text = str(ref)
        if text in ("latest", "prev"):
            paths = self.session_paths()
            want = 1 if text == "latest" else 2
            if len(paths) < want:
                raise FileNotFoundError(
                    f"no {text!r} session: the trajectory at "
                    f"{self.directory} holds {len(paths)} session(s)"
                )
            return paths[-want][1]
        if text.isdigit():
            return self.path_for(int(text))
        return Path(ref)

    def write(self, session) -> Path:
        """Atomically write ``session`` to its trajectory file."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(session.seq)
        payload = json.dumps(session.to_dict(), indent=2, sort_keys=True)
        with atomic_output(path) as fh:
            fh.write(payload.encode("utf-8") + b"\n")
        return path

    def __repr__(self) -> str:
        return f"<{type(self).__name__} dir={str(self.directory)!r}>"


class BenchStore(SessionStore):
    """Reads and appends the ``BENCH_<seq>.json`` trajectory."""

    prefix = "BENCH"
    session_type = BenchSession
    dir_env = BENCH_DIR_ENV
    default_dir = Path("results") / "bench"


def default_bench_dir() -> Path:
    """``$REPRO_BENCH_DIR`` or ``results/bench`` under the working tree."""
    return BenchStore.default_directory()
