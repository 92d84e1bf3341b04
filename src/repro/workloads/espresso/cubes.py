"""Positional-cube representation for the espresso workload.

Espresso represents a product term (cube) over *n* input variables with
two bits per variable — ``01`` for the complemented literal, ``10`` for
the true literal, ``11`` for "don't care" — and a cover as a set of cubes.
This module implements that representation: cube masks live in Python
integers for the bit manipulation, while every cube and cover carries a
traced heap allocation sized as the C ``pset``/``pset_family`` would be
(16-byte header plus one 32-bit word per 16 variables; covers grow by
doubling, reallocating their cube block exactly as ``sf_addset`` does).

All operations flow through :class:`CubeLib` methods so their allocation
sites carry espresso's layered call chains (``cube_and`` →
``cube_new`` → ``xalloc`` → malloc).
"""

from __future__ import annotations

from typing import List, Optional

from repro.runtime.heap import HeapObject, TracedHeap, traced

__all__ = ["Cube", "Cover", "CubeLib", "CubeSpace"]

CUBE_HEADER = 16
COVER_HEADER = 8
COVER_INITIAL_CAPACITY = 8


class CubeSpace:
    """Bit-mask geometry for an ``n``-variable cube space."""

    def __init__(self, nvars: int):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        self.nvars = nvars
        #: ``01`` repeated: the low bit of every pair.
        self.lo_mask = sum(1 << (2 * i) for i in range(nvars))
        #: The universe cube: every variable free.
        self.full = (1 << (2 * nvars)) - 1

    def pair(self, var: int) -> int:
        """The two-bit field of variable ``var``."""
        return 0b11 << (2 * var)

    def cube_bytes(self) -> int:
        """Modelled C size of one cube."""
        return CUBE_HEADER + 4 * ((self.nvars + 15) // 16)

    def is_valid(self, mask: int) -> bool:
        """Whether no variable's pair is ``00`` (an empty intersection)."""
        return ((mask | (mask >> 1)) & self.lo_mask) == self.lo_mask

    def fixed_vars(self, mask: int) -> List[int]:
        """Variables bound to a single phase in ``mask``."""
        return [
            var for var in range(self.nvars)
            if (mask >> (2 * var)) & 0b11 != 0b11
        ]

    def literal_count(self, mask: int) -> int:
        """Number of fixed literals (espresso's cube cost)."""
        count = 0
        for var in range(self.nvars):
            if (mask >> (2 * var)) & 0b11 != 0b11:
                count += 1
        return count

    def from_string(self, term: str) -> int:
        """Parse a PLA input-plane term (``0``, ``1``, ``-``) into a mask."""
        if len(term) != self.nvars:
            raise ValueError(
                f"term {term!r} has {len(term)} columns, expected {self.nvars}"
            )
        mask = 0
        for var, ch in enumerate(term):
            if ch == "0":
                bits = 0b01
            elif ch == "1":
                bits = 0b10
            elif ch == "-":
                bits = 0b11
            else:
                raise ValueError(f"bad PLA character {ch!r} in {term!r}")
            mask |= bits << (2 * var)
        return mask

    def to_string(self, mask: int) -> str:
        """Format a mask back into PLA notation."""
        chars = []
        for var in range(self.nvars):
            bits = (mask >> (2 * var)) & 0b11
            chars.append({0b01: "0", 0b10: "1", 0b11: "-"}[bits])
        return "".join(chars)


class Cube:
    """One product term: a bit mask plus its traced allocation."""

    __slots__ = ("mask", "handle")

    def __init__(self, mask: int, handle: HeapObject):
        self.mask = mask
        self.handle = handle


class Cover:
    """A set of cubes with a traced, capacity-doubling cube block."""

    __slots__ = ("cubes", "struct", "block", "capacity")

    def __init__(self, cubes: List[Cube], struct: HeapObject,
                 block: HeapObject, capacity: int):
        self.cubes = cubes
        self.struct = struct
        self.block = block
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)


class CubeLib:
    """Cube and cover operations over a traced heap."""

    def __init__(self, heap: TracedHeap, space: CubeSpace):
        self.heap = heap
        self.space = space

    # ------------------------------------------------------------------
    # Allocation layers
    # ------------------------------------------------------------------

    @traced
    def xalloc(self, size: int) -> HeapObject:
        """Checked allocation wrapper (espresso's ``ALLOC``)."""
        return self.heap.malloc(size)

    @traced
    def cube_new(self, mask: int) -> Cube:
        """Allocate a cube with the given mask."""
        handle = self.xalloc(self.space.cube_bytes())
        self.heap.touch(handle, 3)
        return Cube(mask, handle)

    def cube_free(self, cube: Cube) -> None:
        """Release one cube."""
        self.heap.free(cube.handle)

    @traced
    def cover_new(self) -> Cover:
        """Allocate an empty cover."""
        struct = self.xalloc(COVER_HEADER + 16)
        block = self.xalloc(
            COVER_HEADER + self.space.cube_bytes() * COVER_INITIAL_CAPACITY
        )
        return Cover([], struct, block, COVER_INITIAL_CAPACITY)

    @traced
    def cover_add(self, cover: Cover, cube: Cube) -> None:
        """Append a cube (ownership transferred), doubling block as needed."""
        if len(cover.cubes) >= cover.capacity:
            cover.capacity *= 2
            new_block = self.xalloc(
                COVER_HEADER + self.space.cube_bytes() * cover.capacity
            )
            self.heap.touch(new_block, len(cover.cubes))
            self.heap.free(cover.block)
            cover.block = new_block
        self.heap.touch(cover.block, 1)
        cover.cubes.append(cube)

    def cover_free(self, cover: Cover) -> None:
        """Release a cover and every cube in it."""
        for cube in cover.cubes:
            self.cube_free(cube)
        self.heap.free(cover.block)
        self.heap.free(cover.struct)

    @traced
    def cover_from_masks(self, masks: List[int]) -> Cover:
        """Build a cover of fresh cubes from raw masks."""
        cover = self.cover_new()
        for mask in masks:
            self.cover_add(cover, self.cube_new(mask))
        return cover

    @traced
    def cover_copy(self, cover: Cover) -> Cover:
        """A deep copy of a cover."""
        result = self.cover_new()
        for cube in cover.cubes:
            self.heap.touch(cube.handle, 1)
            self.cover_add(result, self.cube_new(cube.mask))
        return result

    # ------------------------------------------------------------------
    # Cube algebra
    # ------------------------------------------------------------------

    @traced
    def cube_and(self, a: Cube, b: Cube) -> Optional[Cube]:
        """Intersection; ``None`` when the cubes are disjoint."""
        self.heap.touch(a.handle, 2)
        self.heap.touch(b.handle, 2)
        mask = a.mask & b.mask
        if not self.space.is_valid(mask):
            return None
        return self.cube_new(mask)

    def cube_contains(self, outer: Cube, inner: Cube) -> bool:
        """Whether ``inner`` is contained in ``outer``."""
        self.heap.touch(outer.handle, 2)
        self.heap.touch(inner.handle, 2)
        return (inner.mask & ~outer.mask) == 0

    def cubes_intersect(self, a: Cube, b: Cube) -> bool:
        """Whether the cubes share any minterm (no allocation)."""
        self.heap.touch(a.handle, 2)
        self.heap.touch(b.handle, 2)
        return self.space.is_valid(a.mask & b.mask)

    @traced
    def supercube(self, cubes: List[Cube]) -> Cube:
        """The smallest cube containing every cube in ``cubes``."""
        if not cubes:
            raise ValueError("supercube of nothing")
        mask = 0
        for cube in cubes:
            self.heap.touch(cube.handle, 1)
            mask |= cube.mask
        return self.cube_new(mask)

    @traced
    def cube_sharp(self, a: Cube, b: Cube) -> List[Cube]:
        """Disjoint sharp ``a # b``: the part of ``a`` outside ``b``.

        Returns freshly allocated cubes; ``[copy of a]`` when disjoint,
        ``[]`` when ``a`` is contained in ``b``.
        """
        self.heap.touch(a.handle, 2)
        self.heap.touch(b.handle, 2)
        if not self.space.is_valid(a.mask & b.mask):
            return [self.cube_new(a.mask)]
        pieces: List[Cube] = []
        remaining = a.mask
        for var in range(self.space.nvars):
            pair_shift = 2 * var
            a_bits = (remaining >> pair_shift) & 0b11
            b_bits = (b.mask >> pair_shift) & 0b11
            outside = a_bits & ~b_bits & 0b11
            if outside:
                piece = (remaining & ~(0b11 << pair_shift)) | (
                    outside << pair_shift
                )
                pieces.append(self.cube_new(piece))
                # Restrict the remainder to the overlap in this variable.
                remaining = (remaining & ~(0b11 << pair_shift)) | (
                    (a_bits & b_bits) << pair_shift
                )
        return pieces

    # ------------------------------------------------------------------
    # Cofactors
    # ------------------------------------------------------------------

    @traced
    def cofactor_literal(self, cover: Cover, var: int, phase: int) -> Cover:
        """The cover's cofactor against literal ``var=phase``.

        ``phase`` 1 means the true literal.  Conflicting cubes drop out;
        surviving cubes have the variable freed.
        """
        want = 0b10 if phase else 0b01
        pair = self.space.pair(var)
        result = self.cover_new()
        for cube in cover.cubes:
            self.heap.touch(cube.handle, 1)
            bits = (cube.mask >> (2 * var)) & 0b11
            if not bits & want:
                continue
            self.cover_add(result, self.cube_new(cube.mask | pair))
        return result

    @traced
    def cofactor_cube(self, cover: Cover, against: Cube) -> Cover:
        """The cover's cofactor against a whole cube."""
        self.heap.touch(against.handle, 1)
        free_fixed = 0
        for var in self.space.fixed_vars(against.mask):
            free_fixed |= self.space.pair(var)
        result = self.cover_new()
        for cube in cover.cubes:
            self.heap.touch(cube.handle, 1)
            if not self.space.is_valid(cube.mask & against.mask):
                continue
            self.cover_add(result, self.cube_new(cube.mask | free_fixed))
        return result

    # ------------------------------------------------------------------
    # Variable selection
    # ------------------------------------------------------------------

    def most_binate_var(self, cover: Cover) -> Optional[int]:
        """The variable appearing in both phases most often; ``None`` if unate."""
        best_var = None
        best_score = 0
        for var in range(self.space.nvars):
            zeros = ones = 0
            shift = 2 * var
            for cube in cover.cubes:
                bits = (cube.mask >> shift) & 0b11
                if bits == 0b01:
                    zeros += 1
                elif bits == 0b10:
                    ones += 1
            if zeros and ones and zeros + ones > best_score:
                best_score = zeros + ones
                best_var = var
        return best_var
