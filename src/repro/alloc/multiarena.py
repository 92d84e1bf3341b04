"""Multi-class arena allocator — the future-work extension allocator.

Pairs with :class:`~repro.core.multiclass.MultiClassPredictor`: one arena
area per lifetime class, each sized to its class threshold the way the
paper sizes its single 64 KB area to the 32 KB cutoff ("twice the age of
the objects predicted as short-lived", §5.2), each divided into blocked
arenas for the same pollution-containment reason.

Objects predicted into class *i* bump-allocate in area *i*; everything
else — and every class-area overflow — falls through to the same general
first-fit heap the paper's allocator uses.  With a single class this is
behaviourally identical to :class:`~repro.alloc.arena.ArenaAllocator`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.alloc.arena import ARENA_ALIGNMENT, Arena
from repro.alloc.base import Allocator, AllocatorError, ChainKey
from repro.alloc.firstfit import FirstFitAllocator
from repro.core.multiclass import MultiClassPredictor
from repro.core.predictor import SiteMemo
from repro.core.sites import ChainTable

__all__ = ["MultiArenaAllocator", "AreaStats"]

#: Each class area is this multiple of its class threshold (the paper's
#: 64 KB = 2 x 32 KB sizing rule).
AREA_SCALE = 2
#: Arenas per class area (the paper's blocking factor).
ARENAS_PER_AREA = 16


def _aligned(size: int) -> int:
    return ((size + ARENA_ALIGNMENT - 1) // ARENA_ALIGNMENT) * ARENA_ALIGNMENT


class AreaStats:
    """Capture counters for one class's arena area."""

    __slots__ = ("allocs", "bytes", "overflows")

    def __init__(self) -> None:
        self.allocs = 0
        self.bytes = 0
        self.overflows = 0


class _Area:
    """One class's arena area: blocked arenas plus a current pointer."""

    def __init__(self, base: int, num_arenas: int, arena_size: int):
        self.base = base
        self.arena_size = arena_size
        self.arenas = [
            Arena(base + i * arena_size, arena_size) for i in range(num_arenas)
        ]
        self.limit = base + num_arenas * arena_size
        self._current = 0

    @property
    def size(self) -> int:
        """Total bytes reserved for this area."""
        return self.limit - self.base

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.limit

    def malloc(self, size: int, allocator: "MultiArenaAllocator") -> Optional[int]:
        """§5.1's algorithm: current arena, else scan for a dead one."""
        if _aligned(size) > self.arena_size:
            return None
        current = self.arenas[self._current]
        if current.fits(size):
            return current.bump(size)
        for index, arena in enumerate(self.arenas):
            allocator.ops.arenas_scanned += 1
            if arena.count == 0:
                arena.reset()
                allocator.ops.arena_resets += 1
                self._current = index
                return arena.bump(size)
        return None

    def free(self, addr: int) -> None:
        index = (addr - self.base) // self.arena_size
        self.arenas[index].release(addr)

    @property
    def live_bytes(self) -> int:
        return sum(arena.live_bytes for arena in self.arenas)


class MultiArenaAllocator(Allocator):
    """Class-laddered arena allocation over a first-fit general heap."""

    name = "multi-arena"

    def __init__(
        self,
        predictor: MultiClassPredictor,
        arenas_per_area: int = ARENAS_PER_AREA,
        area_scale: int = AREA_SCALE,
        base: int = 0,
    ):
        super().__init__()
        if arenas_per_area < 1:
            raise AllocatorError(
                f"need at least one arena per area, got {arenas_per_area}"
            )
        self.predictor = predictor
        self._classes = SiteMemo(predictor.class_of)
        self.areas: List[_Area] = []
        self.area_stats: List[AreaStats] = []
        cursor = base
        for threshold in predictor.thresholds:
            area_size = area_scale * threshold
            arena_size = max(ARENA_ALIGNMENT, area_size // arenas_per_area)
            area = _Area(cursor, arenas_per_area, arena_size)
            self.areas.append(area)
            self.area_stats.append(AreaStats())
            cursor = area.limit
        self._areas_limit = cursor
        self._general = FirstFitAllocator(base=cursor)

    @property
    def general(self) -> FirstFitAllocator:
        """The general-purpose heap behind the class areas."""
        return self._general

    @property
    def total_area_size(self) -> int:
        """Bytes reserved for all class areas together."""
        return sum(area.size for area in self.areas)

    def bind_chains(self, chains: ChainTable) -> None:
        self._classes = SiteMemo(self.predictor.class_of, chains)

    # ------------------------------------------------------------------
    # Allocation and deallocation
    # ------------------------------------------------------------------

    def malloc(self, size: int, chain: Optional[ChainKey] = None) -> int:
        if size <= 0:
            raise AllocatorError(f"allocation size must be positive, got {size}")
        self.ops.allocs += 1
        self.ops.bytes_requested += size
        placement = "unpredicted"
        if chain is not None:
            self.ops.predictions += 1
            klass = self._classes[chain, size]
            if klass is not None:
                if klass == 0:
                    self.ops.predicted_short += 1
                addr = self.areas[klass].malloc(size, self)
                stats = self.area_stats[klass]
                if addr is not None:
                    self.ops.arena_allocs += 1
                    stats.allocs += 1
                    stats.bytes += size
                    if self.probe is not None:
                        self.probe.on_alloc(addr, size, chain, "arena")
                    return addr
                stats.overflows += 1
                self.ops.arena_overflows += 1
                placement = "overflow"
            else:
                placement = "general"
        addr = self._general.malloc(size, chain)
        if self.probe is not None:
            self.probe.on_alloc(addr, size, chain, placement)
        return addr

    def free(self, addr: int) -> None:
        self.ops.frees += 1
        if addr < self._areas_limit:
            for area in self.areas:
                if area.contains(addr):
                    area.free(addr)
                    self.ops.arena_frees += 1
                    if self.probe is not None:
                        self.probe.on_free(addr)
                    return
            raise AllocatorError(f"free of unmapped area address {addr}")
        self._general.free(addr)
        self._general.ops.frees -= 1  # counted once, on this allocator
        if self.probe is not None:
            self.probe.on_free(addr)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    @property
    def max_heap_size(self) -> int:
        """General-heap high-water mark plus every class area."""
        return self.total_area_size + self._general.max_heap_size

    @property
    def live_bytes(self) -> int:
        return self._general.live_bytes + sum(
            area.live_bytes for area in self.areas
        )

    @property
    def arena_bytes(self) -> int:
        """Bytes served from any class area."""
        return sum(stats.bytes for stats in self.area_stats)

    @property
    def general_bytes(self) -> int:
        """Bytes requested of the general heap."""
        return self.ops.bytes_requested - self.arena_bytes

    def telemetry_snapshot(self) -> dict:
        """General-heap gauges plus per-class area occupancy/overflows."""
        snapshot = self._general.telemetry_snapshot()
        total_area = self.total_area_size
        occupied = 0
        live = 0
        areas = []
        for index, (area, stats) in enumerate(zip(self.areas, self.area_stats)):
            used = sum(arena.used for arena in area.arenas)
            area_live = area.live_bytes
            occupied += used
            live += area_live
            areas.append({
                "class": index,
                "occupancy": round(used / area.size, 6) if area.size else 0.0,
                "live_arenas": sum(1 for a in area.arenas if a.count),
                "live_bytes": area_live,
                "allocs": stats.allocs,
                "overflows": stats.overflows,
            })
        snapshot.update({
            "heap_size": total_area + snapshot["heap_size"],
            "max_heap_size": self.max_heap_size,
            "live_bytes": live + snapshot["live_bytes"],
            "arena_occupancy": (
                round(occupied / total_area, 6) if total_area else 0.0
            ),
            "arena_live_arenas": sum(a["live_arenas"] for a in areas),
            "arena_live_bytes": live,
            "arena_overflows": self.ops.arena_overflows,
            "arena_resets": self.ops.arena_resets,
            "areas": areas,
        })
        return snapshot

    def check_invariants(self) -> None:
        self._general.check_invariants()
