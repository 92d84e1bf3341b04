"""First-fit allocator with Knuth's enhancements.

The paper's space baseline (§5.2): "a relatively simple first-fit
algorithm with enhancements described by Knuth" — boundary tags for O(1)
coalescing, a roving pointer so successive searches resume where the last
one stopped (Knuth, TAOCP vol. 1 §2.5), immediate coalescing of freed
blocks with both neighbours, and ``sbrk`` growth when no free block fits.

The simulator keeps full block metadata (address, size, free bit, and the
boundary-tag neighbour maps) so fragmentation and the maximum break are
measured, not modelled.  Each block carries a fixed 8-byte header — the
per-object overhead that arena allocation avoids, which is part of why the
arena allocator wins on space for big heaps (Table 8, GHOST row).

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
    """One contiguous block, allocated or free.

    ``size`` includes the header.  Free blocks are linked into the circular
    free list through ``prev``/``next``.
    """

    __slots__ = ("addr", "size", "free", "prev", "next", "req_size")

    def __init__(self, addr: int, size: int, free: bool):
        self.addr = addr
        self.size = size
        self.free = free
        self.prev: Optional["_Block"] = None
        self.next: Optional["_Block"] = None
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
        self._ends: Dict[int, _Block] = {}  # block ending at addr -> block
        self._rover: Optional[_Block] = None  # some free block, or None
        self._live_bytes = 0
        # Telemetry gauges, maintained incrementally so snapshots never
        # walk the heap: count and total size of allocated blocks, and
        # the free-list length.
        self._used_blocks = 0
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
            ends = self._ends
            tail = _Block(block.addr + need, remainder, free=True)
            del ends[block.addr + block.size]
            block.size = need
            ends[block.addr + need] = block
            self._blocks[tail.addr] = tail
            ends[tail.addr + remainder] = tail
            # The remainder takes the allocated block's place on the free
            # list, so the roving pointer naturally continues from it.
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
        self._used_blocks += 1
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
        self._used_blocks -= 1
        self._used_block_bytes -= block.size
        block.free = True
        block.req_size = 0

        # Coalesce with free neighbours through the boundary tags.
        blocks = self._blocks
        ends = self._ends
        right = blocks.get(block.addr + block.size)
        if right is not None and right.free:
            self.ops.coalesces += 1
            self._freelist_remove(right)
            del blocks[right.addr]
            del ends[block.addr + block.size]
            del ends[right.addr + right.size]
            block.size += right.size
            ends[block.addr + block.size] = block
        left = ends.get(block.addr)
        if left is not None and left.free:
            # The left neighbour absorbs the block; it is already listed.
            self.ops.coalesces += 1
            del blocks[block.addr]
            del ends[left.addr + left.size]
            del ends[block.addr + block.size]
            left.size += block.size
            ends[left.addr + left.size] = left
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
        internal_waste = (
            self._used_block_bytes
            - self._used_blocks * HEADER_SIZE
            - self._live_bytes
        )
        return {
            "heap_size": extent,
            "max_heap_size": self.space.max_heap_size,
            "live_bytes": self._live_bytes,
            "used_blocks": self._used_blocks,
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
        top = self._ends.get(self.space.brk)
        if top is not None and top.free:
            grow = need - top.size
            old_brk = self.space.sbrk(grow)
            del self._ends[old_brk]
            top.size += self.space.brk - old_brk
            self._ends[top.addr + top.size] = top
            return top
        old_brk = self.space.sbrk(need)
        block = _Block(old_brk, self.space.brk - old_brk, free=True)
        self._blocks[block.addr] = block
        self._ends[block.addr + block.size] = block
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
        """Full heap audit: coverage, adjacency, free-list consistency."""
        addr = self.space.base
        free_blocks = set()
        used_blocks = 0
        used_block_bytes = 0
        prev_free = False
        while addr < self.space.brk:
            block = self._blocks.get(addr)
            if block is None:
                raise AllocatorError(f"hole or overlap at address {addr}")
            if self._ends.get(addr + block.size) is not block:
                raise AllocatorError(f"end map wrong for {block!r}")
            if block.free:
                if prev_free:
                    raise AllocatorError(
                        f"adjacent free blocks not coalesced at {addr}"
                    )
                free_blocks.add(id(block))
            else:
                used_blocks += 1
                used_block_bytes += block.size
            prev_free = block.free
            addr += block.size
        if addr != self.space.brk:
            raise AllocatorError("blocks overrun the program break")
        if (used_blocks, used_block_bytes) != (
            self._used_blocks, self._used_block_bytes
        ):
            raise AllocatorError(
                f"telemetry gauges stale: {self._used_blocks} blocks/"
                f"{self._used_block_bytes} bytes counted, heap has "
                f"{used_blocks}/{used_block_bytes}"
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
