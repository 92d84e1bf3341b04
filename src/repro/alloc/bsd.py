"""4.3BSD-style power-of-two buddy-bucket allocator.

The paper's CPU baseline in Table 9 is the classic Berkeley ``malloc``
(Kingsley's caching allocator): requests are rounded up — including a
small per-object header — to the next power of two, and each power-of-two
class keeps its own LIFO free list.  Allocation pops the bucket's list (or
carves a fresh page from ``sbrk`` when the bucket is empty); free pushes
the object back.  Nothing is ever split, coalesced, or returned to the
system, which makes both operations nearly constant-time but wastes up to
half of every object's space — the classic speed-for-space trade.

The simulator reproduces that placement policy exactly, so its operation
counters (bucket pops, page carves) drive the cost model, and its break
high-water mark shows the space cost next to first-fit's.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.alloc.address_space import AddressSpace
from repro.alloc.base import Allocator, AllocatorError, ChainKey

__all__ = ["BsdAllocator", "BSD_HEADER_SIZE", "MIN_BUCKET", "PAGE_SIZE"]

#: Per-object header holding the bucket index (historic ``union overhead``).
BSD_HEADER_SIZE = 4
#: Smallest object class: 2^4 = 16 bytes, as in 4.3BSD on 32-bit machines.
MIN_BUCKET = 4
#: Page carved from the system per empty-bucket refill.
PAGE_SIZE = 4096


def bucket_for(size: int) -> int:
    """Bucket index whose block size 2^index fits ``size`` plus header."""
    if size <= 0:
        raise AllocatorError(f"allocation size must be positive, got {size}")
    return max(MIN_BUCKET, (size + BSD_HEADER_SIZE - 1).bit_length())


class BsdAllocator(Allocator):
    """Kingsley/4.3BSD power-of-two segregated free-list allocator."""

    name = "bsd"

    def __init__(self, base: int = 0):
        super().__init__()
        # BSD requests whole pages from the system; model that directly.
        self.space = AddressSpace(base=base, increment=PAGE_SIZE)
        self._free: Dict[int, List[int]] = {}  # bucket -> LIFO of addresses
        # Live block -> requested size; free recomputes the bucket from it.
        self._allocated: Dict[int, int] = {}
        self._live_bytes = 0

    def malloc(self, size: int, chain: Optional[ChainKey] = None) -> int:
        self.ops.allocs += 1
        self.ops.bytes_requested += size
        # bucket_for(size), inlined: replay runs this once per allocation.
        if size <= 0:
            raise AllocatorError(f"allocation size must be positive, got {size}")
        bucket = (size + BSD_HEADER_SIZE - 1).bit_length()
        if bucket < MIN_BUCKET:
            bucket = MIN_BUCKET
        stack = self._free.get(bucket)
        if not stack:
            stack = self._refill(bucket)
        addr = stack.pop()
        self._allocated[addr] = size
        self._live_bytes += size
        user_addr = addr + BSD_HEADER_SIZE
        if self.probe is not None:
            self.probe.on_alloc(user_addr, size, chain, "unpredicted")
        return user_addr

    def free(self, addr: int) -> None:
        base_addr = addr - BSD_HEADER_SIZE
        size = self._allocated.pop(base_addr, None)
        if size is None:
            raise AllocatorError(f"free of unknown address {addr}")
        self.ops.frees += 1
        self._live_bytes -= size
        bucket = (size + BSD_HEADER_SIZE - 1).bit_length()
        if bucket < MIN_BUCKET:
            bucket = MIN_BUCKET
        self._free[bucket].append(base_addr)
        if self.probe is not None:
            self.probe.on_free(addr)

    def _refill(self, bucket: int) -> List[int]:
        """Carve a page (or one block, if larger) into bucket-size pieces;
        returns the bucket's refilled free list."""
        self.ops.sbrks += 1
        block_size = 1 << bucket
        chunk = max(block_size, PAGE_SIZE)
        start = self.space.sbrk(chunk)
        stack = self._free.setdefault(bucket, [])
        stack.extend(range(start, start + chunk, block_size))
        return stack

    @property
    def max_heap_size(self) -> int:
        return self.space.max_heap_size

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    def telemetry_snapshot(self) -> dict:
        """Bucket-heap gauges, read off the free lists.

        Every carved byte is in a block that is either live or on a
        bucket's free list, so the free lists give both gauges.
        ``internal_frag`` is the classic power-of-two waste: live blocks'
        rounded size (header included) minus the bytes actually requested,
        as a fraction of the heap extent.  ``external_frag`` is the bytes
        sitting on free lists as a fraction of the extent.
        """
        extent = self.space.brk - self.space.base
        free_blocks = free_bytes = 0
        for bucket, stack in self._free.items():
            free_blocks += len(stack)
            free_bytes += len(stack) << bucket
        return {
            "heap_size": extent,
            "max_heap_size": self.space.max_heap_size,
            "live_bytes": self._live_bytes,
            "used_blocks": len(self._allocated),
            "free_blocks": free_blocks,
            "free_bytes": free_bytes,
            "external_frag": _frac(free_bytes, extent),
            "internal_frag": _frac(
                extent - free_bytes - self._live_bytes, extent
            ),
        }

    def check_invariants(self) -> None:
        """Every block is either allocated or on exactly one free list."""
        seen = set()
        for bucket, stack in self._free.items():
            block_size = 1 << bucket
            for addr in stack:
                if addr in seen:
                    raise AllocatorError(f"block {addr} on a free list twice")
                seen.add(addr)
                if addr + block_size > self.space.brk:
                    raise AllocatorError(f"free block {addr} beyond break")
        for addr in self._allocated:
            if addr in seen:
                raise AllocatorError(f"block {addr} both free and allocated")


def _frac(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return round(numerator / denominator, 6)
