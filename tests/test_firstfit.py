"""Unit and property tests for the Knuth first-fit allocator."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.base import AllocatorError
from repro.alloc.firstfit import (
    ALIGNMENT,
    HEADER_SIZE,
    FirstFitAllocator,
)


class TestBasics:
    def test_simple_alloc_free(self):
        alloc = FirstFitAllocator()
        addr = alloc.malloc(100)
        assert addr >= HEADER_SIZE
        assert alloc.live_bytes == 100
        alloc.free(addr)
        assert alloc.live_bytes == 0
        alloc.check_invariants()

    def test_payloads_do_not_overlap(self):
        alloc = FirstFitAllocator()
        addrs = [alloc.malloc(24) for _ in range(50)]
        spans = sorted((a, a + 24) for a in addrs)
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start
        alloc.check_invariants()

    def test_alignment(self):
        alloc = FirstFitAllocator()
        for size in (1, 7, 13, 100):
            addr = alloc.malloc(size)
            assert addr % ALIGNMENT == 0

    def test_zero_size_rejected(self):
        with pytest.raises(AllocatorError):
            FirstFitAllocator().malloc(0)

    def test_unknown_free_rejected(self):
        alloc = FirstFitAllocator()
        alloc.malloc(16)
        with pytest.raises(AllocatorError):
            alloc.free(99999)

    def test_double_free_rejected(self):
        alloc = FirstFitAllocator()
        addr = alloc.malloc(16)
        alloc.free(addr)
        with pytest.raises(AllocatorError):
            alloc.free(addr)


class TestReuseAndCoalescing:
    # A small sbrk increment keeps the heap tight so the search from the
    # rover (which stays put unless its own block is taken: not next-fit)
    # has exactly one hole that can satisfy the probe request, making
    # reuse assertions deterministic.

    def test_freed_block_reused(self):
        alloc = FirstFitAllocator(sbrk_increment=80)
        first = alloc.malloc(64)
        alloc.malloc(64)  # prevent top-block absorption
        alloc.free(first)
        again = alloc.malloc(64)
        assert again == first
        alloc.check_invariants()

    def test_adjacent_frees_coalesce(self):
        alloc = FirstFitAllocator(sbrk_increment=80)
        a = alloc.malloc(32)
        b = alloc.malloc(32)
        alloc.malloc(32)  # keep the heap top allocated
        alloc.free(a)
        alloc.free(b)
        alloc.check_invariants()
        assert alloc.ops.coalesces >= 1
        # Only the merged hole can serve a request bigger than either block.
        merged = alloc.malloc(64)
        assert merged == a
        alloc.check_invariants()

    def test_right_then_left_coalesce(self):
        alloc = FirstFitAllocator(sbrk_increment=80)
        a = alloc.malloc(32)
        b = alloc.malloc(32)
        c = alloc.malloc(32)
        alloc.malloc(32)
        alloc.free(a)
        alloc.free(c)
        alloc.free(b)  # merges with both neighbours
        alloc.check_invariants()
        assert alloc.ops.coalesces >= 2
        assert alloc.malloc(96) == a

    def test_split_leaves_usable_remainder(self):
        alloc = FirstFitAllocator(sbrk_increment=80)
        big = alloc.malloc(256)
        guard = alloc.malloc(16)
        alloc.free(big)
        # Only big's hole can hold 200 bytes; the split remainder stays free.
        assert alloc.malloc(200) == big
        assert alloc.ops.splits >= 1
        alloc.check_invariants()
        assert guard != big

    def test_heap_growth_on_demand(self):
        alloc = FirstFitAllocator(sbrk_increment=4096)
        alloc.malloc(3000)
        grown_once = alloc.max_heap_size
        alloc.malloc(3000)
        assert alloc.max_heap_size > grown_once
        assert alloc.ops.sbrks == 2

    def test_top_free_block_extended(self):
        alloc = FirstFitAllocator(sbrk_increment=4096)
        addr = alloc.malloc(1000)
        alloc.free(addr)  # whole heap is one free block at the top
        alloc.malloc(6000)  # must extend, not add a second region
        alloc.check_invariants()


class TestOperationCounts:
    def test_scan_counting(self):
        alloc = FirstFitAllocator()
        alloc.malloc(16)
        assert alloc.ops.blocks_scanned == 0  # empty free list: no scan
        assert alloc.ops.allocs == 1

    def test_bytes_requested(self):
        alloc = FirstFitAllocator()
        alloc.malloc(10)
        alloc.malloc(20)
        assert alloc.ops.bytes_requested == 30


class TestRandomizedInvariants:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_traffic_keeps_invariants(self, seed):
        rng = random.Random(seed)
        alloc = FirstFitAllocator(sbrk_increment=1024)
        live = {}
        expected_bytes = 0
        for _ in range(300):
            if live and rng.random() < 0.45:
                addr, size = live.popitem()
                alloc.free(addr)
                expected_bytes -= size
            else:
                size = rng.choice([1, 8, 16, 24, 100, 500, 2000])
                addr = alloc.malloc(size)
                assert addr not in live
                live[addr] = size
                expected_bytes += size
            assert alloc.live_bytes == expected_bytes
        alloc.check_invariants()
        for addr in list(live):
            alloc.free(addr)
        alloc.check_invariants()
        assert alloc.live_bytes == 0

    def test_full_drain_leaves_single_hole(self):
        alloc = FirstFitAllocator()
        addrs = [alloc.malloc(48) for _ in range(20)]
        for addr in addrs:
            alloc.free(addr)
        alloc.check_invariants()
        # All space coalesced: one free block spanning the whole heap.
        free_blocks = [b for b in alloc._blocks.values() if b.free]
        assert len(free_blocks) == 1


class TestAudit:
    def test_audit_catches_broken_neighbour_links(self):
        # The audit checks the links free and _grow follow, not just the
        # address map.
        alloc = FirstFitAllocator(sbrk_increment=64)
        first, second, _ = (alloc.malloc(16) for _ in range(3))
        alloc.check_invariants()
        middle = alloc._blocks[second - HEADER_SIZE]
        middle.left = None
        with pytest.raises(AllocatorError, match="neighbour links"):
            alloc.check_invariants()
        middle.left = alloc._blocks[first - HEADER_SIZE]
        alloc._top = middle
        with pytest.raises(AllocatorError, match="top block"):
            alloc.check_invariants()
