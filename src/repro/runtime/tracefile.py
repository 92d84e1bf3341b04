"""Trace serialization: format v3 is the one trace format.

Every trace is stored in the streaming format of
:mod:`repro.runtime.stream.v3` — chunked, length-prefixed gzip frames
with a footer index.  :func:`save_trace` writes it whatever the file is
named, :func:`load_trace` materializes it, and :func:`open_trace_stream`
replays it from disk in O(live objects + one slice) memory.  Writes
publish atomically through :func:`atomic_output`.

The v2 format — one (optionally gzipped) JSON document — is read only by
:func:`convert_trace` (``repro-alloc convert``), the one-way upgrade of
traces written before v3 became the only format.  Loading or streaming a
v2 file raises a :class:`TraceFormatError` that names ``convert``.
"""

from __future__ import annotations

import gzip
import json
import os
import tempfile
import zlib
from array import array
from contextlib import contextmanager
from typing import BinaryIO, Iterator, Union

from repro.core.sites import ChainTable
from repro.runtime.events import Trace

__all__ = [
    "save_trace",
    "load_trace",
    "open_trace_stream",
    "convert_trace",
    "atomic_output",
    "TraceFormatError",
    "FORMAT_VERSION",
    "V3_MAGIC",
]

#: Current trace format generation (what the cache keys embed).
FORMAT_VERSION = 3
#: The single-document JSON format that :func:`convert_trace` upgrades.
_V2_FORMAT_VERSION = 2

#: Leading magic of a v3 streaming trace file.
V3_MAGIC = b"RPRTRC3\n"

PathLike = Union[str, "os.PathLike[str]"]


class TraceFormatError(Exception):
    """Raised when a trace file is malformed or from an unknown version."""


@contextmanager
def atomic_output(path: PathLike) -> Iterator[BinaryIO]:
    """Open ``path`` for writing via a temp file published by ``os.replace``.

    Write-then-rename: an interrupted write must never leave a truncated
    file under the final name (the persistent trace cache relies on
    every published entry being complete).  The temp file lives in the
    destination directory so ``os.replace`` stays on one filesystem.
    """
    name = os.fspath(path)
    directory = os.path.dirname(name) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(name) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, name)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write ``trace`` to ``path`` in format v3, whatever the file name."""
    from repro.runtime.stream.v3 import write_trace_v3

    write_trace_v3(trace, path)


def load_trace(path: PathLike) -> Trace:
    """Materialize the v3 trace at ``path``.

    Prefer :func:`open_trace_stream` when the consumer can take an
    :class:`~repro.runtime.stream.protocol.EventSource` instead.
    """
    from repro.runtime.stream.protocol import build_trace

    return build_trace(open_trace_stream(path))


def open_trace_stream(path: PathLike):
    """An :class:`~repro.runtime.stream.protocol.EventSource` streaming
    the v3 trace at ``path`` from disk."""
    from repro.runtime.stream.v3 import TraceFileSource

    return TraceFileSource(path)


def convert_trace(src: PathLike, dst: PathLike) -> None:
    """Rewrite trace file ``src`` (v2 or v3) as a v3 file at ``dst``.

    A v3 source streams disk to disk without materializing; a v2
    document has no index to stream from, so it is read whole and
    checked as :func:`~repro.runtime.stream.protocol.build_trace` checks
    a stream before anything is written: a malformed one raises a
    :class:`TraceFormatError` naming ``src`` and leaves ``dst`` alone.
    """
    from repro.runtime.stream.protocol import build_trace
    from repro.runtime.stream.v3 import write_trace_v3

    with open(src, "rb") as fh:
        is_v3 = fh.read(len(V3_MAGIC)) == V3_MAGIC
    if is_v3:
        source = open_trace_stream(src)
    else:
        source = _read_v2(src)
        source.path = os.fspath(src)  # what a failed check names
        build_trace(source)
    write_trace_v3(source, dst)


def _read_v2(path: PathLike) -> Trace:
    """The trace in the v2 document at ``path`` (gzipped when ``.gz``)."""
    if str(path).endswith(".gz"):
        with gzip.open(path, "rb") as fh:
            try:
                data = fh.read()
            except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
                raise TraceFormatError(
                    f"{path}: truncated or corrupt gzip data: {exc}"
                ) from exc
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "repro-trace":
        raise TraceFormatError(f"{path}: not a repro trace file")
    if doc.get("version") != _V2_FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: unsupported trace version {doc.get('version')!r} "
            f"(convert reads versions {_V2_FORMAT_VERSION} "
            f"and {FORMAT_VERSION})"
        )
    try:
        chains = ChainTable.from_list(
            [tuple(chain) for chain in doc["chains"]]
        )
        trace = Trace(
            program=doc["program"],
            dataset=doc["dataset"],
            chains=chains,
            chain_ids=array("i", doc["chain_ids"]),
            sizes=array("q", doc["sizes"]),
            births=array("q", doc["births"]),
            deaths=array("q", doc["deaths"]),
            touches=array("q", doc["touches"]),
            events=array("q", doc["events"]),
            touch_counts=array("q", doc.get("touch_counts", [])),
            total_calls=doc["total_calls"],
            heap_refs=doc["heap_refs"],
            non_heap_refs=doc["non_heap_refs"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: malformed trace file: {exc}") from exc
    # Each event code indexes the per-object arrays by object id.
    arrays = trace.raw_arrays()
    objects = trace.total_objects
    if any(
        len(arrays[name]) != objects
        for name in ("chain_ids", "births", "deaths", "touches")
    ) or (arrays["events"] and max(arrays["events"]) >> 2 >= objects):
        raise TraceFormatError(
            f"{path}: malformed trace file: the per-object arrays and the "
            f"event codes disagree on the object count ({objects} sizes)"
        )
    return trace
