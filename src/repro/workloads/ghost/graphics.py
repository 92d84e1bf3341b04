"""Rasterization substrate for the ghost workload.

GhostScript's allocation signature, which the paper's GHOST rows reflect,
comes from its graphics engine more than its interpreter: a large,
long-lived page raster; short-lived per-paint scan buffers (GHOST's
"about 5000 6-kilobyte short-lived objects" that defeat 4 KB arenas in
Table 7); per-path segment lists that die at every ``newpath``; and a
glyph cache whose bitmaps live until evicted.

This module implements a real (if deliberately simple) scan-line
rasterizer with exactly that allocation structure:

* :class:`PageDevice` owns the framebuffer — one byte per pixel, 768x1024
  by default, allocated once and never freed (it dies at program exit).
* :class:`Path` collects traced segment records; ``curveto`` flattens
  Béziers into segments via short-lived workspace allocations.
* ``fill``/``stroke`` allocate a **span buffer of 8 bytes per pixel
  column** (768 columns -> 6144 bytes, deliberately larger than the
  paper's 4 KB arenas), rasterize into it with even-odd scan conversion,
  blit to the framebuffer, and free it.
* :class:`GlyphCache` renders character bitmaps on miss and evicts in FIFO
  order at capacity, giving glyphs their cache-lifetime distribution.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple

from repro.runtime.heap import HeapObject, TracedHeap, traced

__all__ = [
    "GraphicsError",
    "Path",
    "PageDevice",
    "GlyphCache",
    "Rasterizer",
    "PAGE_WIDTH",
    "PAGE_HEIGHT",
    "SPAN_BYTES_PER_COLUMN",
]

PAGE_WIDTH = 768
#: Logical pages are 1024 units tall, but the device rasterizes into a
#: quarter-page band buffer (GhostScript's banded NODISPLAY path): rows
#: wrap modulo the band height.  This keeps the framebuffer the program's
#: dominant live object without letting it dwarf the paint churn.
PAGE_HEIGHT = 256
#: Span buffers hold 8 bytes (two supersampled coverage rows) per column:
#: 768 columns -> 6144-byte buffers, the workload's signature short-lived
#: object that cannot fit a 4 KB arena.
SPAN_BYTES_PER_COLUMN = 8

SEGMENT_SIZE = 24
FLATTEN_WORKSPACE_SIZE = 96
CURVE_FLATNESS_STEPS = 12
GLYPH_CACHE_CAPACITY = 180


class GraphicsError(Exception):
    """Raised on invalid graphics operations (e.g. lineto with no point)."""


class Path:
    """The current path: a chain of traced segment records."""

    def __init__(self, heap: TracedHeap):
        self.heap = heap
        self.segments: List[Tuple[HeapObject, float, float, float, float]] = []
        self.current: Optional[Tuple[float, float]] = None
        self.start: Optional[Tuple[float, float]] = None

    def moveto(self, x: float, y: float) -> None:
        """Begin a new subpath at (x, y)."""
        self.current = (x, y)
        self.start = (x, y)

    def lineto(self, x: float, y: float, segment: HeapObject) -> None:
        """Append a line segment; ``segment`` is its traced record."""
        if self.current is None:
            raise GraphicsError("lineto with no current point")
        x0, y0 = self.current
        self.segments.append((segment, x0, y0, x, y))
        self.current = (x, y)

    def close(self, segment: HeapObject) -> None:
        """Close the current subpath back to its start."""
        if self.current is None or self.start is None:
            raise GraphicsError("closepath with no current point")
        x0, y0 = self.current
        x1, y1 = self.start
        self.segments.append((segment, x0, y0, x1, y1))
        self.current = self.start

    def clear(self) -> None:
        """Free every segment record (the ``newpath`` operator)."""
        for segment, *_ in self.segments:
            self.heap.free(segment)
        self.segments = []
        self.current = None
        self.start = None

    def bounds(self) -> Optional[Tuple[float, float, float, float]]:
        """The path's bounding box, or ``None`` when empty."""
        if not self.segments:
            return None
        xs = [v for _, x0, _, x1, _ in self.segments for v in (x0, x1)]
        ys = [v for _, _, y0, _, y1 in self.segments for v in (y0, y1)]
        return min(xs), min(ys), max(xs), max(ys)


class PageDevice:
    """The output raster: one big long-lived framebuffer allocation."""

    def __init__(self, heap: TracedHeap, framebuffer: HeapObject,
                 width: int = PAGE_WIDTH, height: int = PAGE_HEIGHT):
        self.heap = heap
        self.width = width
        self.height = height
        self.framebuffer = framebuffer
        #: Count of pixels painted, per page, for output verification.
        self.painted_pixels = 0
        self.pages_shown = 0
        self._clist: List[HeapObject] = []

    @traced
    def record_op(self, nbytes: int) -> None:
        """Append one display-list (clist) record for the current page.

        GhostScript's banded device queues every paint and text operation
        as a command-list record that lives until ``showpage`` replays the
        band.  These page-lifetime records are the medium-lived data that
        short-lived churn scatters across the first-fit address space —
        the pollution effect §5.2 describes.
        """
        record = self.heap.malloc(nbytes)
        self.heap.touch(record, 1 + nbytes // 16)
        self._clist.append(record)

    def blit_span(self, y: int, x0: int, x1: int) -> None:
        """Paint the pixel run [x0, x1) on row ``y``.

        Rows wrap modulo the band height (banded device), so every span of
        the logical page lands in the buffer.
        """
        x0 = max(0, x0)
        x1 = min(self.width, x1)
        if x1 <= x0 or y < 0:
            return
        self.heap.touch(self.framebuffer, 1 + (x1 - x0) // 4)
        self.painted_pixels += x1 - x0

    def show_page(self) -> None:
        """Emit the page: replay and free its display list."""
        self.heap.touch(self.framebuffer, self.width * self.height // 4096)
        for record in self._clist:
            self.heap.touch(record, 2)
            self.heap.free(record)
        self._clist = []
        self.pages_shown += 1


class GlyphCache:
    """FIFO cache of rendered character bitmaps."""

    def __init__(self, heap: TracedHeap, capacity: int = GLYPH_CACHE_CAPACITY):
        self.heap = heap
        self.capacity = capacity
        self._cache: "OrderedDict[Tuple[str, int], HeapObject]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def lookup(self, char: str, size: int) -> Optional[HeapObject]:
        """The cached bitmap for (char, size), or ``None`` on a miss."""
        bitmap = self._cache.get((char, size))
        if bitmap is not None:
            self.hits += 1
            self.heap.touch(bitmap, 2)
        return bitmap

    def insert(self, char: str, size: int, bitmap: HeapObject) -> None:
        """Cache a freshly rendered bitmap, evicting the oldest at capacity."""
        self.misses += 1
        if len(self._cache) >= self.capacity:
            _, evicted = self._cache.popitem(last=False)
            self.heap.free(evicted)
        self._cache[(char, size)] = bitmap


class Rasterizer:
    """Scan-line rasterization over a page device.

    Owns the allocation pattern of painting: one span buffer per paint
    operation, freed when the paint completes.
    """

    def __init__(self, heap: TracedHeap, device: PageDevice):
        self.heap = heap
        self.device = device

    @traced
    def span_buffer(self) -> HeapObject:
        """Allocate the per-paint coverage buffer (the 6 KB object)."""
        buf = self.heap.malloc(self.device.width * SPAN_BYTES_PER_COLUMN)
        self.heap.touch(buf, self.device.width // 64)
        return buf

    @traced
    def fill_path(self, path: Path) -> int:
        """Even-odd scan-convert ``path`` into the framebuffer.

        Returns the number of spans painted.
        """
        bounds = path.bounds()
        if bounds is None:
            return 0
        self.device.record_op(64 + 8 * len(path.segments))
        buf = self.span_buffer()
        try:
            spans = 0
            y_lo = max(0, int(bounds[1]))
            y_hi = max(y_lo, int(bounds[3]))
            for y in range(y_lo, y_hi + 1):
                crossings = self._crossings(path, y + 0.5)
                self.heap.touch(buf, 1 + len(crossings) // 2)
                for i in range(0, len(crossings) - 1, 2):
                    x0, x1 = int(crossings[i]), int(crossings[i + 1]) + 1
                    self.device.blit_span(y, x0, x1)
                    spans += 1
            return spans
        finally:
            self.heap.free(buf)

    @traced
    def stroke_path(self, path: Path, width: float = 1.0) -> int:
        """Stroke every segment as a thin quad fill.

        Allocates one span buffer for the whole stroke (as GhostScript's
        stroke device does) plus a short-lived expansion record per
        segment.
        """
        if not path.segments:
            return 0
        self.device.record_op(64 + 8 * len(path.segments))
        buf = self.span_buffer()
        try:
            spans = 0
            half = max(0.5, width / 2.0)
            for segment, x0, y0, x1, y1 in path.segments:
                self.heap.touch(segment, 1)
                expansion = self.heap.malloc(32)
                try:
                    spans += self._stroke_segment(x0, y0, x1, y1, half, buf)
                finally:
                    self.heap.free(expansion)
            return spans
        finally:
            self.heap.free(buf)

    def _stroke_segment(self, x0: float, y0: float, x1: float, y1: float,
                        half: float, buf: HeapObject) -> int:
        spans = 0
        if abs(y1 - y0) <= abs(x1 - x0):
            # Mostly horizontal: one span per row of the thickened band.
            if x1 < x0:
                x0, y0, x1, y1 = x1, y1, x0, y0
            y_mid = (y0 + y1) / 2.0
            for y in range(int(y_mid - half), int(y_mid + half) + 1):
                self.heap.touch(buf, 1)
                self.device.blit_span(y, int(x0), int(x1) + 1)
                spans += 1
        else:
            if y1 < y0:
                x0, y0, x1, y1 = x1, y1, x0, y0
            slope = (x1 - x0) / (y1 - y0) if y1 != y0 else 0.0
            for y in range(int(y0), int(y1) + 1):
                x = x0 + slope * (y - y0)
                self.heap.touch(buf, 1)
                self.device.blit_span(y, int(x - half), int(x + half) + 1)
                spans += 1
        return spans

    @staticmethod
    def _crossings(path: Path, scan_y: float) -> List[float]:
        crossings = []
        for _, x0, y0, x1, y1 in path.segments:
            if y0 == y1:
                continue
            if (y0 <= scan_y < y1) or (y1 <= scan_y < y0):
                t = (scan_y - y0) / (y1 - y0)
                crossings.append(x0 + t * (x1 - x0))
        crossings.sort()
        return crossings

    @traced
    def flatten_curve(
        self,
        x0: float, y0: float,
        x1: float, y1: float,
        x2: float, y2: float,
        x3: float, y3: float,
    ) -> List[Tuple[float, float]]:
        """Flatten a cubic Bézier into line-segment endpoints.

        Allocates (and frees) the flattening workspace GhostScript keeps
        per curve; returns the polyline's points after the start point.
        """
        workspace = self.heap.malloc(FLATTEN_WORKSPACE_SIZE)
        try:
            self.heap.touch(workspace, CURVE_FLATNESS_STEPS)
            points = []
            for step in range(1, CURVE_FLATNESS_STEPS + 1):
                t = step / CURVE_FLATNESS_STEPS
                u = 1.0 - t
                x = (
                    u * u * u * x0 + 3 * u * u * t * x1
                    + 3 * u * t * t * x2 + t * t * t * x3
                )
                y = (
                    u * u * u * y0 + 3 * u * u * t * y1
                    + 3 * u * t * t * y2 + t * t * t * y3
                )
                points.append((x, y))
            return points
        finally:
            self.heap.free(workspace)
