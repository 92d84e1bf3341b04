"""Unit tests for the lifetime-predicting arena allocator."""

from __future__ import annotations

import pytest

from repro.alloc.arena import ARENA_ALIGNMENT, Arena, ArenaAllocator
from repro.alloc.base import AllocatorError
from repro.core.predictor import LifetimePredictor


class AlwaysShort(LifetimePredictor):
    """Predicts every allocation short-lived."""

    threshold = 32 * 1024

    def predicts_short_lived(self, chain, size):
        return True

    @property
    def site_count(self):
        return 1


class NeverShort(LifetimePredictor):
    """Predicts nothing short-lived (the degenerate first-fit case)."""

    threshold = 32 * 1024

    def predicts_short_lived(self, chain, size):
        return False

    @property
    def site_count(self):
        return 0


CHAIN = ("main", "f")


class TestArena:
    def test_bump_allocation(self):
        heap_arena = Arena(base=0, size=256)
        first = heap_arena.bump(10)
        second = heap_arena.bump(10)
        assert first == 0
        assert second == 16  # aligned to 8
        assert heap_arena.count == 2
        assert heap_arena.live_bytes == 20

    def test_fits_respects_alignment(self):
        heap_arena = Arena(base=0, size=24)
        assert heap_arena.fits(17)  # 24 aligned
        heap_arena.bump(17)
        assert not heap_arena.fits(1)

    def test_release_and_reset(self):
        heap_arena = Arena(base=0, size=64)
        addr = heap_arena.bump(8)
        assert heap_arena.release(addr) == 8
        assert heap_arena.count == 0
        heap_arena.reset()
        assert heap_arena.alloc == 0

    def test_reset_with_live_objects_rejected(self):
        heap_arena = Arena(base=0, size=64)
        heap_arena.bump(8)
        with pytest.raises(AllocatorError):
            heap_arena.reset()

    def test_release_unknown_address(self):
        heap_arena = Arena(base=0, size=64)
        with pytest.raises(AllocatorError):
            heap_arena.release(32)


class TestArenaAllocator:
    def test_predicted_objects_go_to_arenas(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=128)
        addr = alloc.malloc(16, CHAIN)
        assert addr < alloc.arena_area_size
        assert alloc.ops.arena_allocs == 1
        assert alloc.arena_bytes == 16

    def test_unpredicted_objects_go_to_general_heap(self):
        alloc = ArenaAllocator(NeverShort(), num_arenas=2, arena_size=128)
        addr = alloc.malloc(16, CHAIN)
        assert addr >= alloc.arena_area_size
        assert alloc.ops.arena_allocs == 0
        assert alloc.general_bytes == 16

    def test_no_predictor_degenerates_to_general(self):
        alloc = ArenaAllocator(None, num_arenas=2, arena_size=128)
        addr = alloc.malloc(16, CHAIN)
        assert addr >= alloc.arena_area_size
        assert alloc.ops.predictions == 0

    def test_oversized_objects_fall_through(self):
        # The paper's GHOST effect: objects larger than an arena go to the
        # general heap even when predicted short-lived.
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=128)
        addr = alloc.malloc(256, CHAIN)
        assert addr >= alloc.arena_area_size
        assert alloc.ops.arena_overflows == 1

    def test_arena_free_decrements_count(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=128)
        addr = alloc.malloc(16, CHAIN)
        alloc.free(addr)
        assert alloc.ops.arena_frees == 1
        assert alloc.arenas[0].count == 0

    def test_empty_arena_recycled(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=64)
        first_batch = [alloc.malloc(24, CHAIN) for _ in range(2)]  # fills a0
        for addr in first_batch:
            alloc.free(addr)
        # Arena 0 is full but dead; the next allocation that does not fit
        # must reset and reuse it.
        alloc.malloc(24, CHAIN)
        alloc.malloc(24, CHAIN)
        overflow = alloc.malloc(24, CHAIN)
        assert overflow < alloc.arena_area_size
        assert alloc.ops.arena_resets >= 1
        alloc.check_invariants()

    def test_pollution_forces_general_fallback(self):
        # One immortal object per arena pins every count above zero, so a
        # later predicted-short allocation has nowhere to go: the paper's
        # CFRAC pollution failure mode.
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=64)
        for _ in range(2):
            for _ in range(2):
                alloc.malloc(24, CHAIN)  # fills one arena (24->24 aligned x2)
        spilled = alloc.malloc(24, CHAIN)
        assert spilled >= alloc.arena_area_size
        assert alloc.ops.arena_overflows == 1
        alloc.check_invariants()

    def test_records_arenas_reached_and_exhaustion(self):
        # 64-byte arenas of 48-byte objects: each allocation fills one.
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=3, arena_size=64)
        first = alloc.malloc(48, CHAIN)
        assert (alloc.arenas_used, alloc.arenas_exhausted) == (1, False)
        alloc.malloc(48, CHAIN)  # arena 0 is full and live: use arena 1
        assert (alloc.arenas_used, alloc.arenas_exhausted) == (2, False)
        alloc.free(first)
        alloc.malloc(48, CHAIN)  # arena 0 emptied first: reset it
        alloc.malloc(4096, CHAIN)  # oversized: never scans
        assert (alloc.arenas_used, alloc.arenas_exhausted) == (2, False)
        alloc.malloc(48, CHAIN)
        assert (alloc.arenas_used, alloc.arenas_exhausted) == (3, False)
        alloc.malloc(48, CHAIN)  # all three live: overflow
        assert (alloc.arenas_used, alloc.arenas_exhausted) == (3, True)
        assert alloc.ops.arena_overflows == 2

    def test_free_dispatch_by_address(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=128)
        arena_addr = alloc.malloc(16, CHAIN)
        general_addr = alloc.malloc(4096, CHAIN)  # oversized
        alloc.free(general_addr)
        alloc.free(arena_addr)
        assert alloc.ops.frees == 2
        assert alloc.ops.arena_frees == 1
        assert alloc.live_bytes == 0

    def test_max_heap_includes_arena_area(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=16, arena_size=4096)
        alloc.malloc(16, CHAIN)
        assert alloc.max_heap_size >= 16 * 4096

    def test_counts_partition(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=2, arena_size=128)
        for size in (16, 300, 24, 500):
            alloc.malloc(size, CHAIN)
        assert (
            alloc.ops.arena_allocs
            + (alloc.ops.allocs - alloc.ops.arena_allocs)
            == 4
        )
        assert alloc.arena_bytes + alloc.general_bytes == 16 + 300 + 24 + 500

    def test_rejects_bad_geometry(self):
        with pytest.raises(AllocatorError):
            ArenaAllocator(num_arenas=0)
        with pytest.raises(AllocatorError):
            ArenaAllocator(arena_size=4)

    def test_zero_size_rejected(self):
        with pytest.raises(AllocatorError):
            ArenaAllocator(AlwaysShort()).malloc(0, CHAIN)

    def test_alignment_in_arena(self):
        alloc = ArenaAllocator(AlwaysShort(), num_arenas=1, arena_size=256)
        addrs = [alloc.malloc(10, CHAIN) for _ in range(4)]
        for addr in addrs:
            assert addr % ARENA_ALIGNMENT == 0
