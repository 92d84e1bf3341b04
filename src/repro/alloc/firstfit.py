"""First-fit allocator with Knuth's enhancements.

The paper's space baseline (§5.2): "a relatively simple first-fit
algorithm with enhancements described by Knuth" — boundary tags for O(1)
coalescing, a roving pointer from which each search starts (Knuth, TAOCP
vol. 1 §2.5), immediate coalescing of freed blocks with both neighbours,
and ``sbrk`` growth when no free block fits.

The rover moves only when the block it points at leaves the free list.
Taken by a search, that block hands the rover to its remainder (split)
or to its successor on the list (taken whole); merged into a freed left
neighbour, to its successor.  A search that picks any other block leaves
the rover where the search began, so searches do *not* resume where the
last one stopped (DESIGN.md §19 says why the rule stays).  A freed block
that does not coalesce into its left neighbour is linked in just after
the rover.

The simulator keeps full block metadata (address, size, free bit, and
links to both physical neighbours, the boundary tags' job) so
fragmentation and the maximum break are measured, not modelled.  Each
block carries a fixed 8-byte header — the per-object overhead that arena
allocation avoids, which is part of why the arena allocator wins on space
for big heaps (Table 8, GHOST row).

Work accounting: ``blocks_scanned`` counts free-list blocks examined,
``splits`` and ``coalesces`` count block surgery, ``sbrks`` counts heap
growth; :mod:`repro.alloc.costs` converts these to instructions.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.alloc.address_space import DEFAULT_SBRK_INCREMENT, AddressSpace
from repro.alloc.base import Allocator, AllocatorError, ChainKey

__all__ = ["FirstFitAllocator", "HEADER_SIZE", "ALIGNMENT", "MIN_BLOCK_SIZE"]

#: Per-block bookkeeping overhead: size word + boundary tag.
HEADER_SIZE = 8
#: Payload alignment, matching a typical 32-bit-era ``malloc``.
ALIGNMENT = 8
#: Smallest block worth splitting off (header + one aligned payload unit).
MIN_BLOCK_SIZE = HEADER_SIZE + ALIGNMENT


class _Block:
    """One contiguous block, allocated or free; a new block is free.

    ``size`` includes the header.  ``left`` and ``right`` link the
    physical neighbours (``None`` at the heap's ends), which is what
    Knuth's boundary tags give a real heap: O(1) access to both
    coalescing candidates.  Free blocks are also linked into the circular
    free list through ``prev``/``next``.
    """

    __slots__ = ("addr", "size", "free", "prev", "next", "left", "right",
                 "req_size")

    def __init__(self, addr: int, size: int, left: Optional["_Block"],
                 right: Optional["_Block"]):
        self.addr = addr
        self.size = size
        self.free = True
        self.prev: Optional["_Block"] = None
        self.next: Optional["_Block"] = None
        self.left = left
        self.right = right
        self.req_size = 0  # caller-requested bytes when allocated

    def __repr__(self) -> str:
        state = "free" if self.free else "used"
        return f"<block @{self.addr} size={self.size} {state}>"


class FirstFitAllocator(Allocator):
    """Knuth-style first-fit with boundary tags and a roving pointer."""

    name = "first-fit"

    def __init__(
        self,
        base: int = 0,
        sbrk_increment: int = DEFAULT_SBRK_INCREMENT,
    ):
        super().__init__()
        self.space = AddressSpace(base=base, increment=sbrk_increment)
        self._blocks: Dict[int, _Block] = {}  # by start address
        self._top: Optional[_Block] = None  # the block ending at the break
        self._rover: Optional[_Block] = None  # some free block, or None
        self._live_bytes = 0
        # Telemetry gauges, maintained incrementally so snapshots never
        # walk the heap: total size of allocated blocks and the free-list
        # length.  The allocated-block count is the block map's size less
        # the free-list length.
        self._used_block_bytes = 0
        self._free_blocks = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------

    def malloc(self, size: int, chain: Optional[ChainKey] = None) -> int:
        if size <= 0:
            raise AllocatorError(f"allocation size must be positive, got {size}")
        ops = self.ops
        ops.allocs += 1
        ops.bytes_requested += size
        need = ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT + HEADER_SIZE

        # First-fit scan from the roving pointer; counts blocks examined.
        block = start = self._rover
        if block is not None:
            scanned = 1
            while block.size < need:
                block = block.next
                if block is start:
                    block = None
                    break
                scanned += 1
            ops.blocks_scanned += scanned
        if block is None:
            block = self._grow(need)

        # Carve ``need`` bytes out of the free block, splitting if worthwhile.
        if not block.free or block.size < need:
            raise AllocatorError(f"internal: cannot allocate from {block!r}")
        remainder = block.size - need
        if remainder >= MIN_BLOCK_SIZE:
            ops.splits += 1
            right = block.right
            tail = _Block(block.addr + need, remainder, block, right)
            if right is None:
                self._top = tail
            else:
                right.left = tail
            block.right = tail
            block.size = need
            self._blocks[tail.addr] = tail
            # The remainder takes the allocated block's place on the free
            # list, and the rover's too if it pointed at the block.
            if block.next is block:
                tail.prev = tail.next = tail
            else:
                tail.prev = block.prev
                tail.next = block.next
                block.prev.next = tail
                block.next.prev = tail
            if self._rover is block:
                self._rover = tail
            block.prev = block.next = None
        else:
            self._freelist_remove(block)
        block.free = False
        block.req_size = size
        self._used_block_bytes += block.size
        self._live_bytes += size
        addr = block.addr + HEADER_SIZE
        if self.probe is not None:
            self.probe.on_alloc(addr, size, chain, "unpredicted")
        return addr

    def free(self, addr: int) -> None:
        block = self._blocks.get(addr - HEADER_SIZE)
        if block is None:
            raise AllocatorError(f"free of unknown address {addr}")
        if block.free:
            raise AllocatorError(f"double free at address {addr}")
        self.ops.frees += 1
        self._live_bytes -= block.req_size
        self._used_block_bytes -= block.size
        block.free = True
        block.req_size = 0

        # Coalesce with free neighbours through the neighbour links,
        # right first.
        right = block.right
        if right is not None and right.free:
            self.ops.coalesces += 1
            self._freelist_remove(right)
            del self._blocks[right.addr]
            block.size += right.size
            right = block.right = right.right
            if right is None:
                self._top = block
            else:
                right.left = block
        left = block.left
        if left is not None and left.free:
            # The left neighbour absorbs the block; it is already listed.
            self.ops.coalesces += 1
            del self._blocks[block.addr]
            left.size += block.size
            left.right = right
            if right is None:
                self._top = left
            else:
                right.left = left
        else:
            self._freelist_insert(block)
        if self.probe is not None:
            self.probe.on_free(addr)

    @property
    def max_heap_size(self) -> int:
        return self.space.max_heap_size

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    def telemetry_snapshot(self) -> dict:
        """Heap gauges from real block metadata (all O(1) reads).

        * ``external_frag`` — bytes in free blocks as a fraction of the
          heap extent (space the program break covers but no object uses);
        * ``internal_frag`` — header and padding waste *inside* allocated
          blocks (block size minus header minus requested bytes, summed)
          as a fraction of the heap extent.
        """
        extent = self.space.brk - self.space.base
        free_bytes = extent - self._used_block_bytes
        used_blocks = len(self._blocks) - self._free_blocks
        internal_waste = (
            self._used_block_bytes
            - used_blocks * HEADER_SIZE
            - self._live_bytes
        )
        return {
            "heap_size": extent,
            "max_heap_size": self.space.max_heap_size,
            "live_bytes": self._live_bytes,
            "used_blocks": used_blocks,
            "free_blocks": self._free_blocks,
            "free_bytes": free_bytes,
            "external_frag": _frac(free_bytes, extent),
            "internal_frag": _frac(internal_waste, extent),
            "blocks_scanned": self.ops.blocks_scanned,
        }

    # ------------------------------------------------------------------
    # Growth
    # ------------------------------------------------------------------

    def _grow(self, need: int) -> _Block:
        """Extend the heap so a block of ``need`` bytes exists at the top."""
        self.ops.sbrks += 1
        # If the topmost block is free, sbrk only the shortfall and extend it.
        top = self._top
        if top is not None and top.free:
            old_brk = self.space.sbrk(need - top.size)
            top.size += self.space.brk - old_brk
            return top
        old_brk = self.space.sbrk(need)
        block = _Block(old_brk, self.space.brk - old_brk, top, None)
        if top is not None:
            top.right = block
        self._top = block
        self._blocks[block.addr] = block
        self._freelist_insert(block)
        return block

    # ------------------------------------------------------------------
    # Circular free list with roving pointer
    # ------------------------------------------------------------------

    def _freelist_insert(self, block: _Block) -> None:
        self._free_blocks += 1
        if self._rover is None:
            block.prev = block.next = block
            self._rover = block
            return
        after = self._rover
        block.next = after.next
        block.prev = after
        after.next.prev = block
        after.next = block

    def _freelist_remove(self, block: _Block) -> None:
        self._free_blocks -= 1
        if block.next is block:
            self._rover = None
        else:
            block.prev.next = block.next
            block.next.prev = block.prev
            if self._rover is block:
                self._rover = block.next
        block.prev = block.next = None

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Full heap audit: coverage, neighbour links, the free list."""
        addr = self.space.base
        free_blocks = set()
        used_block_bytes = 0
        left = None
        walked = 0
        while addr < self.space.brk:
            block = self._blocks.get(addr)
            if block is None:
                raise AllocatorError(f"hole or overlap at address {addr}")
            if block.left is not left or (
                left is not None and left.right is not block
            ):
                raise AllocatorError(f"neighbour links wrong at {block!r}")
            if block.free:
                if left is not None and left.free:
                    raise AllocatorError(
                        f"adjacent free blocks not coalesced at {addr}"
                    )
                free_blocks.add(id(block))
            else:
                used_block_bytes += block.size
            addr += block.size
            left = block
            walked += 1
        if addr != self.space.brk:
            raise AllocatorError("blocks overrun the program break")
        if self._top is not left or (
            left is not None and left.right is not None
        ):
            raise AllocatorError(
                f"top block is {self._top!r}, heap ends at {left!r}"
            )
        if walked != len(self._blocks):
            raise AllocatorError(
                f"block map holds {len(self._blocks)} blocks, "
                f"heap has {walked}"
            )
        if used_block_bytes != self._used_block_bytes:
            raise AllocatorError(
                f"telemetry gauge stale: {self._used_block_bytes} used-block "
                f"bytes counted, heap has {used_block_bytes}"
            )
        # Free list must contain exactly the free blocks, each once.
        seen = set()
        if self._rover is not None:
            block = self._rover
            while True:
                if id(block) in seen:
                    break
                if not block.free:
                    raise AllocatorError(f"allocated block on free list: {block!r}")
                seen.add(id(block))
                block = block.next
        if seen != free_blocks:
            raise AllocatorError(
                f"free list has {len(seen)} blocks, heap has {len(free_blocks)}"
            )
        if len(seen) != self._free_blocks:
            raise AllocatorError(
                f"free-list gauge stale: counted {self._free_blocks}, "
                f"list has {len(seen)}"
            )


def _frac(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return round(numerator / denominator, 6)
