"""Trace format v3: chunked, length-prefixed gzip frames + footer index.

Layout (all integers little-endian)::

    offset 0   magic            b"RPRTRC3\\n"                     8 bytes
               H frame          gzip JSON header (identity, chain
                                table, has_touch_events)
               E frame ...      gzip JSON event chunks, ~64k events
                                each, in program order (one JSON
                                list per event tuple), written and
                                read a slice of events at a time
               F frame          gzip JSON footer (aggregate counters,
                                unfreed touch counts, chunk index)
    trailer    b"RPRTRIDX" + u64 footer offset + magic            24 bytes

    frame   =  1-byte kind (H/E/F) + u32 payload length + gzip payload

The fixed-size trailer makes the footer reachable with one backward
seek, so a reader exposes the :class:`~repro.runtime.stream.protocol.
StreamSummary` *at open time* without touching the event frames.  The
chunk index in the footer records every E frame's offset and event
count.

Events stream one *slice* of a frame at a time, giving O(live objects +
one slice) replay memory.  The writer JSON-encodes :data:`_SLICE_EVENTS`
events at a time into the frame's one deflate stream; deflate's output
does not depend on how its input is split, so the bytes are those of
the whole frame compressed at once.  The reader inflates a frame's JSON
text and parses it a slice at a time, cutting only at a ``],[`` between
two events (see :func:`_read_event_slices`).

Writes go through :func:`repro.runtime.tracefile.atomic_output`, so an
interrupted write never publishes a partial file.  Each payload is one
gzip member with a fixed header (mtime 0, XFL 2, OS 3) written here
rather than by :func:`gzip.compress`, whose OS byte differs between
Python versions; so a given stream produces the same bytes on every
supported interpreter linked against the same zlib.  Reads validate the
magic, the trailer, every frame boundary, and the final event count
against the footer: a truncated or corrupt mid-stream chunk raises
:class:`~repro.runtime.tracefile.TraceFormatError`, never a silently
short trace.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from itertools import islice
from typing import BinaryIO, Iterator, List, Optional, Tuple

from repro.core.sites import ChainTable
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    Event,
    EventSource,
    StreamHeader,
    StreamSummary,
)
from repro.runtime import tracefile

__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "TraceFileSource",
    "write_trace_v3",
]

#: Events per E frame.  Large enough that gzip compresses well and the
#: per-frame overhead vanishes; a frame's size no longer sets memory,
#: since both sides hold one slice of it.
DEFAULT_CHUNK_EVENTS = 65536

#: Events per slice of an E frame: the writer encodes this many at a
#: time, and no slice the reader parses holds more than about this many.
#: A decoded event costs about 168 bytes, so a slice is well under a
#: megabyte where a whole 65,536-event frame was about 11 MB.
_SLICE_EVENTS = 4096

_TRAILER_MAGIC = b"RPRTRIDX"
#: kind byte + u32 payload length.
_FRAME = struct.Struct("<cI")
#: trailer magic + u64 footer offset + file magic.
_TRAILER = struct.Struct("<8sQ8s")

_KIND_HEADER = b"H"
_KIND_EVENTS = b"E"
_KIND_FOOTER = b"F"

#: Each event kind's fields by tag, named as error messages name them.
_FIELDS = {
    EV_ALLOC: ("tag", "object id", "chain id", "size", "birth"),
    EV_FREE: ("tag", "object id", "death", "touch count"),
    EV_TOUCH: ("tag", "object id", "touch count"),
}
#: Expected tuple length per event tag (frame validation).
_EVENT_LENGTHS = {tag: len(names) for tag, names in _FIELDS.items()}

#: The compact separators every frame's JSON is written with.
_SEPARATORS = (",", ":")
#: An E frame in the writer's layout starts and ends with these.
_EVENTS_OPEN = b'{"events":[['
_EVENTS_CLOSE = b"]]}"
#: The bytes of an E frame body's integers and the commas between them.
_INTEGER_BYTES = b"0123456789-,"
#: The bytes of the shortest event with its comma, ``,[2,0,0]``.
_MIN_EVENT_BYTES = 8

#: The gzip member header of every frame payload: magic, deflate, no
#: flags, mtime 0, XFL 2 (level 9), OS 3 (Unix).
_GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\x03"
#: gzip member trailer: CRC-32 and input size mod 2**32.
_GZIP_TRAILER = struct.Struct("<II")


class _Member:
    """One frame's gzip payload, deflated a piece of its text at a time.

    The CRC-32 and the byte length carry across pieces, and deflate's
    output does not depend on how its input is split, so the member's
    bytes are those of the whole text compressed at once.
    """

    def __init__(self) -> None:
        self._deflate = zlib.compressobj(9, zlib.DEFLATED, -15)
        self._parts = [_GZIP_HEADER]
        self._crc = self._size = 0

    def add(self, text) -> None:
        self._parts.append(self._deflate.compress(text))
        self._crc = zlib.crc32(text, self._crc)
        self._size += len(text)

    def write(self, fh: BinaryIO, kind: bytes) -> int:
        """Write the finished frame to ``fh``; returns its length."""
        self._parts.append(self._deflate.flush())
        self._parts.append(
            _GZIP_TRAILER.pack(self._crc, self._size & 0xFFFFFFFF)
        )
        length = sum(map(len, self._parts))
        fh.write(_FRAME.pack(kind, length))
        fh.writelines(self._parts)
        return _FRAME.size + length


def _write_document(fh: BinaryIO, kind: bytes, doc: dict) -> int:
    """Write one frame holding ``doc``; returns its length."""
    member = _Member()
    member.add(json.dumps(doc, separators=_SEPARATORS).encode("utf-8"))
    return member.write(fh, kind)


def _next_slice(events: Iterator[Event], room: int) -> List[Event]:
    """Up to ``room`` more events of ``events``, at most one slice."""
    return list(islice(events, min(room, _SLICE_EVENTS)))


def write_trace_v3(
    source: EventSource,
    path: "tracefile.PathLike",
    chunk_events: int = DEFAULT_CHUNK_EVENTS,
) -> None:
    """Write ``source``'s stream to ``path`` in v3 format (atomically).

    Consumes the events exactly once; peak memory is one slice's worth
    of event tuples and their JSON text, plus the compressed frame, so a
    disk-to-disk conversion never materializes the trace.
    """
    if chunk_events < 1:
        raise ValueError(f"chunk_events must be >= 1, got {chunk_events}")
    header = source.header
    header_doc = {
        "format": "repro-trace-stream",
        "version": 3,
        "program": header.program,
        "dataset": header.dataset,
        "has_touch_events": header.has_touch_events,
        "chains": [list(chain) for chain in header.chains.to_list()],
    }
    with tracefile.atomic_output(path) as fh:
        fh.write(tracefile.V3_MAGIC)
        offset = len(tracefile.V3_MAGIC)
        offset += _write_document(fh, _KIND_HEADER, header_doc)
        chunks = []
        event_count = 0
        events = source.events()
        piece = _next_slice(events, chunk_events)
        while piece:
            # One E frame, ``{"events":[...]}``, a slice at a time.  The
            # source's tuples go in as they are: ``json`` writes a tuple
            # as an array, so the bytes match a list's.
            member = _Member()
            member.add(b'{"events":[')
            count = 0
            while piece:
                if count:
                    member.add(b",")
                text = json.dumps(piece, separators=_SEPARATORS).encode()
                member.add(memoryview(text)[1:-1])
                count += len(piece)
                piece = _next_slice(events, chunk_events - count)
            member.add(b"]}")
            chunks.append([offset, count])
            event_count += count
            offset += member.write(fh, _KIND_EVENTS)
            piece = _next_slice(events, chunk_events)
        summary = source.summary
        if summary.event_count != event_count:
            raise ValueError(
                f"source summary declares {summary.event_count} events "
                f"but {event_count} were streamed"
            )
        footer_doc = {
            "total_calls": summary.total_calls,
            "heap_refs": summary.heap_refs,
            "non_heap_refs": summary.non_heap_refs,
            "end_time": summary.end_time,
            "total_objects": summary.total_objects,
            "event_count": event_count,
            "unfreed_touches": [list(pair) for pair in summary.unfreed_touches],
            "chunks": chunks,
        }
        _write_document(fh, _KIND_FOOTER, footer_doc)
        fh.write(_TRAILER.pack(_TRAILER_MAGIC, offset, tracefile.V3_MAGIC))


class TraceFileSource(EventSource):
    """Streaming reader over a v3 trace file.

    Opening reads only the header and footer frames (via the trailer),
    then closes the file; every :meth:`events` call opens its own
    handle, so one source supports repeated and concurrent replays.
    """

    def __init__(self, path: "tracefile.PathLike"):
        self.path = os.fspath(path)
        with open(self.path, "rb") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            floor = len(tracefile.V3_MAGIC) + _TRAILER.size
            if size < floor:
                raise tracefile.TraceFormatError(
                    f"{self.path}: truncated v3 trace ({size} bytes)"
                )
            fh.seek(0)
            if fh.read(len(tracefile.V3_MAGIC)) != tracefile.V3_MAGIC:
                raise tracefile.TraceFormatError(
                    f"{self.path}: not a v3 trace file (bad magic); "
                    f"`repro-alloc convert` upgrades a v2 trace"
                )
            fh.seek(size - _TRAILER.size)
            trailer_magic, footer_offset, end_magic = _TRAILER.unpack(
                fh.read(_TRAILER.size)
            )
            if (trailer_magic != _TRAILER_MAGIC
                    or end_magic != tracefile.V3_MAGIC):
                raise tracefile.TraceFormatError(
                    f"{self.path}: truncated v3 trace (bad trailer)"
                )
            if not len(tracefile.V3_MAGIC) <= footer_offset <= size - floor:
                raise tracefile.TraceFormatError(
                    f"{self.path}: footer offset {footer_offset} outside file"
                )
            self._data_end = footer_offset
            fh.seek(footer_offset)
            kind, text = _read_frame(fh, self.path, size - _TRAILER.size)
            if kind != _KIND_FOOTER:
                raise tracefile.TraceFormatError(
                    f"{self.path}: expected footer frame at {footer_offset}, "
                    f"got kind {kind!r}"
                )
            footer_doc = _document(text, self.path)
            fh.seek(len(tracefile.V3_MAGIC))
            kind, text = _read_frame(fh, self.path, footer_offset)
            if kind != _KIND_HEADER:
                raise tracefile.TraceFormatError(
                    f"{self.path}: expected header frame, got kind {kind!r}"
                )
            header_doc = _document(text, self.path)
            self._first_event_offset = fh.tell()
        try:
            chains = ChainTable.from_list(
                [tuple(chain) for chain in header_doc["chains"]]
            )
            self._header = StreamHeader(
                program=header_doc["program"],
                dataset=header_doc["dataset"],
                chains=chains,
                has_touch_events=bool(header_doc["has_touch_events"]),
            )
            self._summary = StreamSummary(
                total_calls=footer_doc["total_calls"],
                heap_refs=footer_doc["heap_refs"],
                non_heap_refs=footer_doc["non_heap_refs"],
                end_time=footer_doc["end_time"],
                total_objects=footer_doc["total_objects"],
                event_count=footer_doc["event_count"],
                unfreed_touches=tuple(
                    (int(obj_id), int(count))
                    for obj_id, count in footer_doc["unfreed_touches"]
                ),
            )
            self.chunk_index: Tuple[Tuple[int, int], ...] = tuple(
                (int(off), int(count)) for off, count in footer_doc["chunks"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise tracefile.TraceFormatError(
                f"{self.path}: malformed v3 header/footer: {exc}"
            ) from exc

    @property
    def header(self) -> StreamHeader:
        return self._header

    @property
    def summary(self) -> StreamSummary:
        return self._summary

    def events(self) -> Iterator[Event]:
        yielded = 0
        with open(self.path, "rb") as fh:
            fh.seek(self._first_event_offset)
            while fh.tell() < self._data_end:
                for events in _read_event_slices(
                    fh, self.path, self._data_end, yielded
                ):
                    for ev in events:
                        if not ev or _EVENT_LENGTHS.get(ev[0]) != len(ev):
                            # Raises, naming the slice's first bad event.
                            _check_events(events, self.path, yielded)
                        yield tuple(ev)
                    yielded += len(events)
        if yielded != self._summary.event_count:
            raise tracefile.TraceFormatError(
                f"{self.path}: event stream ended after {yielded} events, "
                f"footer declares {self._summary.event_count}"
            )


def _read_event_slices(
    fh: BinaryIO, path: str, limit: int, offset: int
) -> Iterator[list]:
    """The events of the E frame at ``fh``, parsed a slice at a time.

    ``limit`` bounds the frame as in :func:`_read_frame`, and ``offset``
    is the stream offset of the frame's first event.  Only this
    generator holds the frame's JSON text, so the text is freed before
    the next frame is inflated.

    A frame in the writer's layout, ``{"events":[[...],...,[...]]}``,
    is cut at the first ``],[`` past every :data:`_SLICE_EVENTS`
    shortest events' bytes, so a slice holds at most about that many
    events (about a third as many at the 20-25 bytes a workload's event
    takes), and each slice is parsed as its own JSON list.  Between two
    events that cut is exact.  A ``],[`` inside a string or a nested
    list leaves the slice with an unterminated string or an unclosed
    bracket, so the slice fails to parse and raises rather than yielding
    other events.

    A slice of flat integer lists, the only thing the writer puts in a
    frame, reduces to ``[`` + ``[]`` per event + ``]`` once its digits,
    minus signs and commas are deleted: one C-level pass proves every
    field an integer.  A slice that fails that test, and a frame not in
    the writer's layout (parsed whole), has each event checked by
    :func:`_check_events`.
    """
    kind, text = _read_frame(fh, path, limit)
    if kind != _KIND_EVENTS:
        raise tracefile.TraceFormatError(
            f"{path}: unexpected {kind!r} frame in the event region"
        )
    if not (text.startswith(_EVENTS_OPEN) and text.endswith(_EVENTS_CLOSE)):
        events = _document(text, path).get("events")
        if not isinstance(events, list):
            raise tracefile.TraceFormatError(
                f"{path}: event chunk without an event list"
            )
        _check_events(events, path, offset)
        yield events
        return
    view = memoryview(text)
    # The frame's outer ``[`` and ``]``; every cut is the comma of a
    # ``],[``, and a slice runs from one cut, or the ``[``, to the next.
    start, stop = len(_EVENTS_OPEN) - 2, len(text) - 2
    step = _SLICE_EVENTS * _MIN_EVENT_BYTES
    while start < stop:
        cut = text.find(b"],[", start + step, stop)
        end = stop if cut < 0 else cut + 1
        chunk = b"".join((b"[", view[start + 1:end], b"]"))
        try:
            events = json.loads(chunk)
        except (ValueError, RecursionError) as exc:
            raise tracefile.TraceFormatError(
                f"{path}: event {offset} starts a slice of the frame that "
                f"is not valid JSON: {exc}"
            ) from exc
        if (chunk.translate(None, _INTEGER_BYTES)
                != b"[" + b"[]" * len(events) + b"]"):
            _check_events(events, path, offset)
        yield events
        offset += len(events)
        start = end


def _check_events(events: list, path: str, offset: int) -> None:
    """Raise unless every event is a list of its tag's integer fields.

    ``offset`` is the stream offset of ``events[0]``.  The error names
    the file, the event offset and, for a field that is not an integer,
    the object id and the field.
    """
    for at, ev in enumerate(events, offset):
        names = _field_names(ev)
        if names is None:
            raise tracefile.TraceFormatError(
                f"{path}: event {at}: malformed event {_json(ev)}"
            )
        for name, value in zip(names, ev):
            if type(value) is not int:
                raise tracefile.TraceFormatError(
                    f"{path}: event {at}: object {_json(ev[1])} has "
                    f"{name} {_json(value)}; {name}s are integers"
                )


def _field_names(ev) -> Optional[Tuple[str, ...]]:
    """The names of ``ev``'s fields, None if it is no event's shape.

    A tag that is not an integer has no layout to check the other
    fields against, so only it is named.
    """
    if not isinstance(ev, list) or len(ev) < 2:
        return None
    if type(ev[0]) is not int:
        return ("tag",)
    names = _FIELDS.get(ev[0])
    return names if names is not None and len(names) == len(ev) else None


def _json(value) -> str:
    return json.dumps(value, separators=_SEPARATORS)


def _read_frame(
    fh: BinaryIO, path: str, limit: int
) -> Tuple[bytes, bytes]:
    """Read one frame: its kind and its inflated JSON text.

    Every failure mode is a :class:`TraceFormatError`.  ``limit`` is the
    first offset past the region this frame must fit in (the footer
    offset for event frames), so a corrupted length field cannot
    silently read into the footer or past EOF.
    """
    raw = fh.read(_FRAME.size)
    if len(raw) != _FRAME.size:
        raise tracefile.TraceFormatError(
            f"{path}: truncated frame header at offset "
            f"{fh.tell() - len(raw)}"
        )
    kind, length = _FRAME.unpack(raw)
    if fh.tell() + length > limit:
        raise tracefile.TraceFormatError(
            f"{path}: frame of {length} bytes at offset {fh.tell()} "
            f"overruns its region (ends past {limit})"
        )
    payload = fh.read(length)
    if len(payload) != length:
        raise tracefile.TraceFormatError(
            f"{path}: truncated frame payload "
            f"({len(payload)} of {length} bytes)"
        )
    # One gzip member: zlib checks its header, CRC-32 and length.
    inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
    try:
        text = inflate.decompress(payload)
    except zlib.error as exc:
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: {exc}"
        ) from exc
    if not inflate.eof or inflate.unused_data:
        raise tracefile.TraceFormatError(
            f"{path}: corrupt frame payload: not one whole gzip member"
        )
    return kind, text


def _document(text: bytes, path: str) -> dict:
    """The JSON object a frame's ``text`` holds."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise tracefile.TraceFormatError(
            f"{path}: frame is not valid JSON: {exc}"
        ) from exc
    if not isinstance(doc, dict):
        raise tracefile.TraceFormatError(
            f"{path}: frame document is not an object"
        )
    return doc
