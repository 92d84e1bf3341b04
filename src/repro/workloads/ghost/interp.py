"""PostScript interpreter for the ghost workload.

Executes the PostScript subset the generated documents use: operand-stack
arithmetic, ``def``/name lookup with a dictionary stack (``dict``/
``begin``/``end``), control (``repeat``, ``for``, ``if``, ``ifelse``),
path construction (``moveto``/``lineto``/``rlineto``/``curveto``/
``arc``/``closepath``), painting (``stroke``/``fill``/``setlinewidth``),
text (``findfont``/``scalefont``/``setfont``/``show``/``stringwidth``),
state (``gsave``/``grestore``/``translate``/``scale``) and ``showpage``.

Allocation model (mirroring GhostScript's object memory):

* composite objects are traced — string literals, procedure bodies, font
  dictionaries, dictionary entries, path segments;
* simple values (numbers, names) live on the operand stack unallocated;
* painting allocates through :class:`~repro.workloads.ghost.graphics.Rasterizer`
  (span buffers, glyph bitmaps, flattening workspaces);
* strings are freed when ``show`` consumes them; inline procedure bodies
  are freed when their controlling operator finishes; defined procedures
  and fonts live until program exit.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from repro.runtime.heap import HeapObject, TracedHeap, traced
from repro.workloads.ghost.graphics import (
    GlyphCache,
    PageDevice,
    Path,
    Rasterizer,
)
from repro.workloads.ghost.scanner import Token, scan

__all__ = ["PSError", "PSInterp"]

STRING_HEADER = 16
PROC_HEADER = 16
TOKEN_SLOT = 8
FONT_DICT_SIZE = 128
FONT_METRICS_SIZE = 16 + 256
SCALED_FONT_SIZE = 64
DICT_ENTRY_SIZE = 32
GSTATE_SIZE = 96
SHOW_ENUM_SIZE = 48
SEGMENT_SIZE = 24


class PSError(Exception):
    """Raised on PostScript execution errors (stack underflow, undefined)."""


class PSInterp:
    """A single-use PostScript interpreter over a traced heap."""

    def __init__(self, heap: TracedHeap):
        self.heap = heap
        self.opstack: List[tuple] = []
        self.userdict: Dict[str, tuple] = {}
        self._dict_entries: Dict[str, HeapObject] = {}
        self.fonts: Dict[str, Tuple[HeapObject, HeapObject]] = {}
        self.current_font: Optional[Tuple[str, int, HeapObject]] = None
        self.translate_x = 0.0
        self.translate_y = 0.0
        self.scale_x = 1.0
        self.scale_y = 1.0
        self.line_width = 1.0
        self._gstate_stack: List[tuple] = []
        #: The dictionary stack above userdict: (handle, bindings) pairs.
        self._dict_stack: List[Tuple[HeapObject, Dict[str, tuple]]] = []

        self.device = PageDevice(heap, framebuffer=self._alloc_framebuffer())
        self.rasterizer = Rasterizer(heap, self.device)
        self.glyphs = GlyphCache(heap)
        self.path = Path(heap)

        self._operators: Dict[str, Callable[[], None]] = {
            "add": self.op_add, "sub": self.op_sub, "mul": self.op_mul,
            "div": self.op_div, "neg": self.op_neg,
            "dup": self.op_dup, "pop": self.op_pop, "exch": self.op_exch,
            "def": self.op_def,
            "repeat": self.op_repeat, "for": self.op_for,
            "if": self.op_if, "ifelse": self.op_ifelse,
            "lt": self.op_lt, "le": self.op_le, "gt": self.op_gt,
            "ge": self.op_ge, "eq": self.op_eq,
            "newpath": self.op_newpath, "moveto": self.op_moveto,
            "rmoveto": self.op_rmoveto, "lineto": self.op_lineto,
            "rlineto": self.op_rlineto, "curveto": self.op_curveto,
            "closepath": self.op_closepath,
            "stroke": self.op_stroke, "fill": self.op_fill,
            "findfont": self.op_findfont, "scalefont": self.op_scalefont,
            "setfont": self.op_setfont, "show": self.op_show,
            "showpage": self.op_showpage,
            "gsave": self.op_gsave, "grestore": self.op_grestore,
            "translate": self.op_translate, "scale": self.op_scale,
            "arc": self.op_arc, "setlinewidth": self.op_setlinewidth,
            "stringwidth": self.op_stringwidth,
            "dict": self.op_dict, "begin": self.op_begin, "end": self.op_end,
        }

    @traced
    def _alloc_framebuffer(self) -> HeapObject:
        """The page raster: the program's one huge long-lived object."""
        from repro.workloads.ghost.graphics import PAGE_HEIGHT, PAGE_WIDTH

        return self.heap.malloc(PAGE_WIDTH * PAGE_HEIGHT)

    # ------------------------------------------------------------------
    # Stack plumbing
    # ------------------------------------------------------------------

    def push(self, value: tuple) -> None:
        self.opstack.append(value)

    def pop(self) -> tuple:
        if not self.opstack:
            raise PSError("stackunderflow")
        return self.opstack.pop()

    def pop_num(self) -> float:
        value = self.pop()
        if value[0] != "num":
            raise PSError(f"typecheck: wanted number, got {value[0]}")
        return value[1]

    def pop_proc(self) -> tuple:
        value = self.pop()
        if value[0] != "proc":
            raise PSError(f"typecheck: wanted procedure, got {value[0]}")
        return value

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @traced
    def run(self, source: str) -> None:
        """Scan and execute a PostScript program."""
        file_buffer = self.heap.malloc(STRING_HEADER + len(source))
        try:
            self.heap.touch(file_buffer, len(source) // 64)
            tokens = scan(source)
        finally:
            self.heap.free(file_buffer)
        self.exec_tokens(tokens)

    @traced
    def exec_tokens(self, tokens: List[Token]) -> None:
        for token in tokens:
            self.exec_token(token)

    def exec_token(self, token: Token) -> None:
        kind, value = token
        if kind == "number":
            self.push(("num", value))
        elif kind == "string":
            self.push(self.make_string(value))
        elif kind == "litname":
            self.push(("name", value))
        elif kind == "proc":
            self.push(self.make_proc(value))
        elif kind == "array":
            self.push(self.make_proc(value))
        elif kind == "name":
            self.exec_name(value)
        else:
            raise PSError(f"unknown token kind {kind!r}")

    @traced
    def exec_name(self, name: str) -> None:
        """Execute a name: dict stack, then userdict, then system operator."""
        binding = None
        for handle, bindings in reversed(self._dict_stack):
            if name in bindings:
                self.heap.touch(handle, 1)
                binding = bindings[name]
                break
        if binding is None:
            binding = self.userdict.get(name)
        if binding is not None:
            entry = self._dict_entries.get(name)
            if entry is not None:
                self.heap.touch(entry, 1)
            if binding[0] == "proc":
                self.exec_proc(binding)
            else:
                self.push(binding)
            return
        operator = self._operators.get(name)
        if operator is None:
            raise PSError(f"undefined: {name}")
        operator()

    @traced
    def exec_proc(self, proc: tuple) -> None:
        """Execute a procedure body."""
        self.heap.touch(proc[2], 1)
        self.exec_tokens(proc[1])

    # ------------------------------------------------------------------
    # Composite object constructors
    # ------------------------------------------------------------------

    @traced
    def make_string(self, text: str) -> tuple:
        """Allocate a PostScript string object."""
        handle = self.heap.malloc(STRING_HEADER + max(1, len(text)))
        self.heap.touch(handle, 1 + len(text) // 8)
        return ("str", text, handle)

    @traced
    def make_proc(self, tokens: List[Token]) -> tuple:
        """Allocate a procedure (executable array) body."""
        handle = self.heap.malloc(PROC_HEADER + TOKEN_SLOT * max(1, len(tokens)))
        self.heap.touch(handle, 1 + len(tokens) // 4)
        return ("proc", tokens, handle)

    def free_value(self, value: tuple) -> None:
        """Free a composite value; simple values are no-ops."""
        if value[0] in ("str", "proc"):
            self.heap.free(value[2])

    # ------------------------------------------------------------------
    # Arithmetic and stack operators
    # ------------------------------------------------------------------

    def op_add(self) -> None:
        b, a = self.pop_num(), self.pop_num()
        self.push(("num", a + b))

    def op_sub(self) -> None:
        b, a = self.pop_num(), self.pop_num()
        self.push(("num", a - b))

    def op_mul(self) -> None:
        b, a = self.pop_num(), self.pop_num()
        self.push(("num", a * b))

    def op_div(self) -> None:
        b, a = self.pop_num(), self.pop_num()
        if b == 0:
            raise PSError("undefinedresult: division by zero")
        self.push(("num", a / b))

    def op_neg(self) -> None:
        self.push(("num", -self.pop_num()))

    def op_dup(self) -> None:
        value = self.pop()
        self.push(value)
        self.push(value)

    def op_pop(self) -> None:
        self.free_value(self.pop())

    def op_exch(self) -> None:
        b, a = self.pop(), self.pop()
        self.push(b)
        self.push(a)

    @traced
    def op_def(self) -> None:
        """``/name value def``: bind in userdict with a traced entry."""
        value = self.pop()
        key = self.pop()
        if key[0] != "name":
            raise PSError(f"typecheck: def needs a literal name, got {key[0]}")
        if self._dict_stack:
            handle, bindings = self._dict_stack[-1]
            self.heap.touch(handle, 2)
            old = bindings.get(key[1])
            if old is not None:
                self.free_value(old)
            bindings[key[1]] = value
            return
        old = self.userdict.get(key[1])
        if old is not None:
            self.free_value(old)
        else:
            entry = self.heap.malloc(DICT_ENTRY_SIZE + len(key[1]))
            self.heap.touch(entry, 2)
            self._dict_entries[key[1]] = entry
        self.userdict[key[1]] = value

    # ------------------------------------------------------------------
    # Control operators
    # ------------------------------------------------------------------

    def op_repeat(self) -> None:
        proc = self.pop_proc()
        count = int(self.pop_num())
        try:
            for _ in range(count):
                self.exec_proc(proc)
        finally:
            self.free_value(proc)

    def op_for(self) -> None:
        proc = self.pop_proc()
        limit = self.pop_num()
        step = self.pop_num()
        start = self.pop_num()
        if step == 0:
            raise PSError("rangecheck: for with zero step")
        try:
            value = start
            while (step > 0 and value <= limit) or (step < 0 and value >= limit):
                self.push(("num", value))
                self.exec_proc(proc)
                value += step
        finally:
            self.free_value(proc)

    def op_if(self) -> None:
        proc = self.pop_proc()
        condition = self.pop_num()
        try:
            if condition != 0:
                self.exec_proc(proc)
        finally:
            self.free_value(proc)

    def op_ifelse(self) -> None:
        alt = self.pop_proc()
        proc = self.pop_proc()
        condition = self.pop_num()
        try:
            self.exec_proc(proc if condition != 0 else alt)
        finally:
            self.free_value(proc)
            self.free_value(alt)

    def _compare(self, relation: Callable[[float, float], bool]) -> None:
        b, a = self.pop_num(), self.pop_num()
        self.push(("num", 1.0 if relation(a, b) else 0.0))

    def op_lt(self) -> None:
        self._compare(lambda a, b: a < b)

    def op_le(self) -> None:
        self._compare(lambda a, b: a <= b)

    def op_gt(self) -> None:
        self._compare(lambda a, b: a > b)

    def op_ge(self) -> None:
        self._compare(lambda a, b: a >= b)

    def op_eq(self) -> None:
        self._compare(lambda a, b: a == b)

    # ------------------------------------------------------------------
    # Path operators
    # ------------------------------------------------------------------

    @traced
    def alloc_segment(self) -> HeapObject:
        """One path-segment record."""
        return self.heap.malloc(SEGMENT_SIZE)

    def _point(self) -> Tuple[float, float]:
        y = self.pop_num()
        x = self.pop_num()
        return (
            x * self.scale_x + self.translate_x,
            y * self.scale_y + self.translate_y,
        )

    def op_newpath(self) -> None:
        self.path.clear()

    def op_moveto(self) -> None:
        x, y = self._point()
        self.path.moveto(x, y)

    def op_rmoveto(self) -> None:
        dy = self.pop_num() * self.scale_y
        dx = self.pop_num() * self.scale_x
        if self.path.current is None:
            raise PSError("nocurrentpoint: rmoveto")
        x, y = self.path.current
        self.path.moveto(x + dx, y + dy)

    @traced
    def op_lineto(self) -> None:
        x, y = self._point()
        self.path.lineto(x, y, self.alloc_segment())

    @traced
    def op_rlineto(self) -> None:
        dy = self.pop_num() * self.scale_y
        dx = self.pop_num() * self.scale_x
        if self.path.current is None:
            raise PSError("nocurrentpoint: rlineto")
        x, y = self.path.current
        self.path.lineto(x + dx, y + dy, self.alloc_segment())

    @traced
    def op_curveto(self) -> None:
        x3, y3 = self._point()
        # The stack holds x1 y1 x2 y2 x3 y3; x3/y3 already popped.
        x2, y2 = self._point()
        x1, y1 = self._point()
        if self.path.current is None:
            raise PSError("nocurrentpoint: curveto")
        x0, y0 = self.path.current
        points = self.rasterizer.flatten_curve(x0, y0, x1, y1, x2, y2, x3, y3)
        for x, y in points:
            self.path.lineto(x, y, self.alloc_segment())

    def op_closepath(self) -> None:
        self.path.close(self.alloc_segment())

    @traced
    def op_stroke(self) -> None:
        self.rasterizer.stroke_path(self.path, width=self.line_width)
        self.path.clear()

    @traced
    def op_fill(self) -> None:
        self.rasterizer.fill_path(self.path)
        self.path.clear()

    # ------------------------------------------------------------------
    # Text operators
    # ------------------------------------------------------------------

    @traced
    def op_findfont(self) -> None:
        key = self.pop()
        if key[0] != "name":
            raise PSError("typecheck: findfont needs a font name")
        name = key[1]
        if name not in self.fonts:
            font_dict = self.heap.malloc(FONT_DICT_SIZE)
            metrics = self.heap.malloc(FONT_METRICS_SIZE)
            self.heap.touch(metrics, 16)
            self.fonts[name] = (font_dict, metrics)
        self.heap.touch(self.fonts[name][0], 1)
        self.push(("font", name, 1))

    @traced
    def op_scalefont(self) -> None:
        size = int(self.pop_num())
        font = self.pop()
        if font[0] != "font":
            raise PSError("typecheck: scalefont needs a font")
        self.push(("font", font[1], size))

    @traced
    def op_setfont(self) -> None:
        font = self.pop()
        if font[0] != "font":
            raise PSError("typecheck: setfont needs a font")
        record = self.heap.malloc(SCALED_FONT_SIZE)
        self.heap.touch(record, 2)
        if self.current_font is not None:
            self.heap.free(self.current_font[2])
        self.current_font = (font[1], font[2], record)

    @traced
    def op_show(self) -> None:
        value = self.pop()
        if value[0] != "str":
            raise PSError("typecheck: show needs a string")
        if self.current_font is None:
            raise PSError("invalidfont: no font set")
        if self.path.current is None:
            raise PSError("nocurrentpoint: show")
        self.device.record_op(40 + len(value[1]))
        enum = self.heap.malloc(SHOW_ENUM_SIZE)
        try:
            name, size, record = self.current_font
            self.heap.touch(record, 1)
            x, y = self.path.current
            for char in value[1]:
                self.show_glyph(char, size, int(x), int(y))
                x += 0.6 * size
                self.heap.touch(enum, 1)
            self.path.moveto(x, y)
        finally:
            self.heap.free(enum)
            self.free_value(value)

    @traced
    def show_glyph(self, char: str, size: int, x: int, y: int) -> None:
        """Paint one character via the glyph cache."""
        bitmap = self.glyphs.lookup(char, size)
        if bitmap is None:
            bitmap = self.render_glyph(char, size)
            self.glyphs.insert(char, size, bitmap)
        rows = max(1, size // 2)
        for row in range(rows):
            self.device.blit_span(y + row, x, x + max(1, int(0.6 * size)))

    @traced
    def render_glyph(self, char: str, size: int) -> HeapObject:
        """Rasterize a character bitmap (a glyph-cache miss)."""
        bitmap = self.heap.malloc(16 + max(1, (size * size) // 8))
        self.heap.touch(bitmap, max(1, (size * size) // 64))
        return bitmap

    # ------------------------------------------------------------------
    # Page and state operators
    # ------------------------------------------------------------------

    @traced
    def op_showpage(self) -> None:
        self.device.show_page()
        self.path.clear()

    @traced
    def op_gsave(self) -> None:
        record = self.heap.malloc(GSTATE_SIZE)
        self.heap.touch(record, 4)
        self._gstate_stack.append((
            record, self.translate_x, self.translate_y,
            self.scale_x, self.scale_y, self.line_width,
        ))

    @traced
    def op_grestore(self) -> None:
        if not self._gstate_stack:
            raise PSError("stackunderflow: grestore")
        record, tx, ty, sx, sy, lw = self._gstate_stack.pop()
        self.heap.free(record)
        self.translate_x = tx
        self.translate_y = ty
        self.scale_x = sx
        self.scale_y = sy
        self.line_width = lw

    def op_translate(self) -> None:
        dy = self.pop_num() * self.scale_y
        dx = self.pop_num() * self.scale_x
        self.translate_x += dx
        self.translate_y += dy

    def op_scale(self) -> None:
        sy = self.pop_num()
        sx = self.pop_num()
        if sx == 0 or sy == 0:
            raise PSError("undefinedresult: zero scale")
        self.scale_x *= sx
        self.scale_y *= sy

    def op_setlinewidth(self) -> None:
        width = self.pop_num()
        if width < 0:
            raise PSError("rangecheck: negative line width")
        self.line_width = max(width * self.scale_x, 0.1)

    @traced
    def op_arc(self) -> None:
        """``x y r ang1 ang2 arc``: append a polyline approximation.

        Like GhostScript, the arc is flattened; each step allocates a
        segment record, and a flattening workspace covers the whole arc.
        """
        ang2 = math.radians(self.pop_num())
        ang1 = math.radians(self.pop_num())
        radius = self.pop_num() * self.scale_x
        cy = self.pop_num() * self.scale_y + self.translate_y
        cx = self.pop_num() * self.scale_x + self.translate_x
        if radius < 0:
            raise PSError("rangecheck: negative arc radius")
        if ang2 < ang1:
            ang2 += 2 * math.pi
        steps = max(4, int(24 * (ang2 - ang1) / (2 * math.pi)))
        workspace = self.heap.malloc(96)
        try:
            self.heap.touch(workspace, steps)
            start = (cx + radius * math.cos(ang1),
                     cy + radius * math.sin(ang1))
            if self.path.current is None:
                self.path.moveto(*start)
            else:
                self.path.lineto(*start, self.alloc_segment())
            for step in range(1, steps + 1):
                angle = ang1 + (ang2 - ang1) * step / steps
                self.path.lineto(
                    cx + radius * math.cos(angle),
                    cy + radius * math.sin(angle),
                    self.alloc_segment(),
                )
        finally:
            self.heap.free(workspace)

    @traced
    def op_stringwidth(self) -> None:
        """``(text) stringwidth``: push the advance width and height."""
        value = self.pop()
        if value[0] != "str":
            raise PSError("typecheck: stringwidth needs a string")
        if self.current_font is None:
            raise PSError("invalidfont: no font set")
        _, size, record = self.current_font
        self.heap.touch(record, 1)
        width = 0.6 * size * len(value[1])
        self.free_value(value)
        self.push(("num", width))
        self.push(("num", 0.0))

    @traced
    def op_dict(self) -> None:
        """``n dict``: allocate an empty dictionary object."""
        capacity = int(self.pop_num())
        if capacity < 0:
            raise PSError("rangecheck: negative dict size")
        handle = self.heap.malloc(32 + DICT_ENTRY_SIZE * max(1, capacity))
        self.heap.touch(handle, 2)
        self.push(("dict", {}, handle))

    def op_begin(self) -> None:
        value = self.pop()
        if value[0] != "dict":
            raise PSError("typecheck: begin needs a dict")
        self._dict_stack.append((value[2], value[1]))

    def op_end(self) -> None:
        if not self._dict_stack:
            raise PSError("dictstackunderflow: end")
        handle, bindings = self._dict_stack.pop()
        # Leaving scope releases the dictionary and its bindings.
        for binding in bindings.values():
            self.free_value(binding)
        self.heap.free(handle)
