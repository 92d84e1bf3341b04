"""Persistent, cross-process trace cache.

Running a workload is the dominant cost of every experiment, and every
pytest worker, benchmark session, and CLI invocation needs the same
``(program, dataset)`` executions.  This module stores finished traces on
disk in the versioned :mod:`repro.runtime.tracefile` format so a second
process loads a v3 trace file in milliseconds instead of re-running the
workload.

Cache layout — one chunked v3 trace file per execution under a single
directory (default ``~/.cache/repro-alloc``, overridable with the
``REPRO_CACHE_DIR`` environment variable)::

    <program>-<dataset>-scale<scale>-v<FORMAT_VERSION>-<srchash>.rtr3

The v3 format lets :meth:`TraceCache.open_stream` replay an entry in
O(live objects + one slice) memory without materializing it; ``load``
still returns a fully materialized :class:`~repro.runtime.events.Trace`
from the same bytes.  The key bakes in everything that could change the
trace:

* ``program``, ``dataset``, ``scale`` — the execution's identity;
* ``FORMAT_VERSION`` — the tracefile format, so format upgrades never
  read stale bytes;
* ``srchash`` — a SHA-256 digest over the :mod:`repro.workloads` package
  source (plus the traced runtime), so editing any workload invalidates
  its cached traces automatically.

Corrupt or truncated entries (an interrupted writer, a damaged disk) are
treated as misses: the workload re-runs and the entry is rewritten.
Writers are crash- and race-safe because :func:`~repro.runtime.tracefile.
save_trace` publishes atomically via ``os.replace``.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Optional, Union

from repro.obs.metrics import METRICS, Metrics
from repro.obs.spans import TRACER
from repro.runtime import tracefile
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import EventSource
from repro.runtime.tracefile import (
    TraceFormatError,
    load_trace,
    open_trace_stream,
    save_trace,
)

__all__ = [
    "TraceCache",
    "default_cache_dir",
    "workloads_source_hash",
    "cache_disabled_by_env",
]

#: Environment variable naming the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable that disables the cache entirely when set to a
#: non-empty value ("0" also counts as set; any value disables).
NO_CACHE_ENV = "REPRO_NO_CACHE"


def default_cache_dir() -> Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-alloc``."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro-alloc"


def cache_disabled_by_env() -> bool:
    """Whether ``REPRO_NO_CACHE`` turns the cache off for this process."""
    return bool(os.environ.get(NO_CACHE_ENV))


_SOURCE_HASH_CACHE: Optional[str] = None


def workloads_source_hash() -> str:
    """A short digest of the workload package and traced-runtime source.

    Editing any workload (or the heap/event layer that defines what a
    trace contains) changes the digest, so stale cached traces can never
    be served after a code change.  Computed once per process.
    """
    global _SOURCE_HASH_CACHE
    if _SOURCE_HASH_CACHE is None:
        import repro.runtime as runtime_pkg
        import repro.workloads as workloads_pkg

        digest = hashlib.sha256()
        for pkg in (workloads_pkg, runtime_pkg):
            root = Path(pkg.__file__).resolve().parent
            for path in sorted(root.rglob("*.py")):
                digest.update(path.relative_to(root).as_posix().encode())
                digest.update(b"\0")
                digest.update(path.read_bytes())
                digest.update(b"\0")
        _SOURCE_HASH_CACHE = digest.hexdigest()[:12]
    return _SOURCE_HASH_CACHE


class TraceCache:
    """Disk-backed store of workload traces, shared across processes.

    ``load`` returns ``None`` on any miss — absent entry, wrong version,
    or a corrupt/truncated file — so callers follow one code path:
    load, or run-and-store.  Hit/miss counts go to ``metrics`` (the
    process-wide :data:`~repro.obs.metrics.METRICS` by default)
    under ``trace_cache.hit`` / ``trace_cache.miss`` /
    ``trace_cache.store``.
    """

    def __init__(
        self,
        directory: Union[str, os.PathLike, None] = None,
        metrics: Optional[Metrics] = None,
    ):
        self.directory = Path(directory) if directory else default_cache_dir()
        self.metrics = metrics if metrics is not None else METRICS

    def entry_path(self, program: str, dataset: str, scale: float) -> Path:
        """Where the trace for one execution lives (whether or not present)."""
        name = (
            f"{program}-{dataset}-scale{float(scale)}"
            f"-v{tracefile.FORMAT_VERSION}-{workloads_source_hash()}.rtr3"
        )
        return self.directory / name

    def has(self, program: str, dataset: str, scale: float) -> bool:
        """Whether an entry exists on disk (it may still fail to load)."""
        return self.entry_path(program, dataset, scale).is_file()

    def load(self, program: str, dataset: str, scale: float) -> Optional[Trace]:
        """The cached trace, or ``None`` on a miss.

        A corrupt or truncated entry counts as a miss and is deleted so
        the next :meth:`store` rewrites it cleanly.
        """
        path = self.entry_path(program, dataset, scale)
        try:
            with TRACER.span("trace_cache.load", cat="cache",
                             program=program, dataset=dataset):
                trace = load_trace(path)
        except FileNotFoundError:
            self.metrics.incr("trace_cache.miss")
            return None
        except (TraceFormatError, OSError):
            # Interrupted writer or damaged file: drop it and re-run.
            self.metrics.incr("trace_cache.miss")
            self.metrics.incr("trace_cache.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.metrics.incr("trace_cache.hit")
        return trace

    def open_stream(
        self, program: str, dataset: str, scale: float
    ) -> Optional[EventSource]:
        """A streaming :class:`EventSource` over the entry, or ``None``.

        The constant-memory counterpart of :meth:`load`: the returned
        source replays the cached v3 file chunk by chunk instead of
        materializing it.  Misses follow :meth:`load`'s contract — absent
        entries return ``None``, corrupt entries are deleted and counted
        under ``trace_cache.corrupt``.  (A corrupt file can still be
        detected mid-replay by the source itself; only open-time damage is
        converted to a miss here.)
        """
        path = self.entry_path(program, dataset, scale)
        try:
            with TRACER.span("trace_cache.open_stream", cat="cache",
                             program=program, dataset=dataset):
                source = open_trace_stream(path)
        except FileNotFoundError:
            self.metrics.incr("trace_cache.miss")
            return None
        except (TraceFormatError, OSError):
            self.metrics.incr("trace_cache.miss")
            self.metrics.incr("trace_cache.corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.metrics.incr("trace_cache.hit")
        return source

    def store(self, trace: Trace, scale: float) -> Path:
        """Write ``trace`` to its cache entry (atomic) and return the path."""
        path = self.entry_path(trace.program, trace.dataset, scale)
        self.directory.mkdir(parents=True, exist_ok=True)
        with TRACER.span("trace_cache.store", cat="cache",
                         program=trace.program, dataset=trace.dataset):
            save_trace(trace, path)
        self.metrics.incr("trace_cache.store")
        return path

    def clear(self) -> int:
        """Delete every cache entry; returns how many files were removed."""
        removed = 0
        if self.directory.is_dir():
            # Both the current v3 suffix and the pre-v3 ``.json.gz``
            # entries older caches may still hold.
            for pattern in ("*.rtr3", "*.json.gz"):
                for path in self.directory.glob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __repr__(self) -> str:
        return f"<TraceCache dir={str(self.directory)!r}>"
