"""Lifetime-predicting arena allocator.

The paper's optimized allocator (§5.1), built on Hanson's fast
object-lifetime arenas:

* A fixed **arena area** — 64 KB by default, divided into 16 arenas of
  4 KB — sits apart from the general heap.  Each arena holds only a bump
  pointer (``alloc``) and a **live-object count**; arena objects carry *no*
  per-object header.
* At each allocation the site database (a trained
  :class:`~repro.core.predictor.LifetimePredictor`) is consulted through
  the memo its ``bind()`` returns, keyed on ``(chain id, size)`` once
  replay has bound the trace's chain table: one hash probe per
  allocation, as in the paper's runtime.
  Predicted-short-lived objects are bump-allocated into the current arena.
  When the current arena is full, every arena is scanned for one whose
  count has dropped to zero (all its objects died); such an arena is reset
  and reused.  If none exists — the arenas are *polluted* by mispredicted
  long-lived objects — the object falls through to the general heap.
* Freeing an arena object just decrements its arena's count (the size of
  its live-object map); the space is reclaimed wholesale when the count
  reaches zero.  Freeing anything else goes to the general allocator (a
  :class:`~repro.alloc.firstfit.FirstFitAllocator`, making first-fit "the
  degenerate case of an arena allocator that allocates no objects in
  arenas", §5.2).
* Objects larger than an arena's capacity always use the general heap
  (footnote 1 of the paper) — this is why GHOST's 6 KB short-lived objects
  escape the 4 KB arenas in Table 7.

Address-range dispatch distinguishes arena frees from general frees, just
as the paper's runtime does ("the address of the object gives this
information ... because arenas are contiguous and not part of the general
allocation heap").
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.alloc.base import Allocator, AllocatorError, ChainKey
from repro.alloc.firstfit import FirstFitAllocator
from repro.core.predictor import LifetimePredictor
from repro.core.sites import ChainTable

__all__ = [
    "Arena",
    "ArenaAllocator",
    "DEFAULT_ARENA_SIZE",
    "DEFAULT_NUM_ARENAS",
    "ARENA_ALIGNMENT",
]

#: The paper's configuration: a 64 KB arena area as 16 distinct 4 KB
#: arenas, "twice the age of the objects predicted as short-lived" (§5.2).
DEFAULT_ARENA_SIZE = 4 * 1024
DEFAULT_NUM_ARENAS = 16

#: Arena objects are pointer-aligned but headerless.
ARENA_ALIGNMENT = 8


class Arena:
    """One fixed-size arena: a bump pointer and a live-object count.

    The count is the size of the live-object map, so it can neither
    drift from the objects nor underflow.
    """

    __slots__ = ("base", "size", "alloc", "_live")

    def __init__(self, base: int, size: int):
        self.base = base
        self.size = size
        self.alloc = base  # next free byte
        self._live: Dict[int, int] = {}  # addr -> requested size

    @property
    def count(self) -> int:
        """Objects still live in this arena."""
        return len(self._live)

    @property
    def used(self) -> int:
        """Bytes consumed so far (including alignment padding)."""
        return self.alloc - self.base

    @property
    def free_space(self) -> int:
        """Bytes still available for bump allocation."""
        return self.base + self.size - self.alloc

    def fits(self, size: int) -> bool:
        """Whether a ``size``-byte object fits in the remaining space."""
        return _aligned(size) <= self.free_space

    def bump(self, size: int) -> int:
        """Allocate ``size`` bytes; caller must have checked :meth:`fits`."""
        addr = self.alloc
        self.alloc += _aligned(size)
        self._live[addr] = size
        return addr

    def release(self, addr: int) -> int:
        """Note the death of the object at ``addr``; returns its size."""
        size = self._live.pop(addr, None)
        if size is None:
            raise AllocatorError(f"free of unknown arena address {addr}")
        return size

    def reset(self) -> None:
        """Recycle the arena; only legal once every object has died."""
        if self._live:
            raise AllocatorError(
                f"arena at {self.base} reset with {self.count} live objects"
            )
        self.alloc = self.base
        self._live.clear()

    @property
    def live_bytes(self) -> int:
        """Requested bytes of objects still live in this arena."""
        return sum(self._live.values())


def _aligned(size: int) -> int:
    return ((size + ARENA_ALIGNMENT - 1) // ARENA_ALIGNMENT) * ARENA_ALIGNMENT


class ArenaAllocator(Allocator):
    """Two-strategy allocator: predicted-short-lived → arenas, rest → first-fit.

    With ``predictor=None`` every object goes to the general heap, giving
    the degenerate first-fit behaviour the paper uses as its baseline.
    """

    name = "arena"

    def __init__(
        self,
        predictor: Optional[LifetimePredictor] = None,
        num_arenas: int = DEFAULT_NUM_ARENAS,
        arena_size: int = DEFAULT_ARENA_SIZE,
        base: int = 0,
    ):
        super().__init__()
        if num_arenas < 1:
            raise AllocatorError(f"need at least one arena, got {num_arenas}")
        if arena_size < ARENA_ALIGNMENT:
            raise AllocatorError(f"arena size too small: {arena_size}")
        self.predictor = predictor
        # Bound per allocator, so the verdict memo lives exactly as long
        # as this replay; rebound on ids by bind_chains().
        self._verdicts = predictor.bind() if predictor is not None else None
        self.arena_size = arena_size
        self.arenas: List[Arena] = [
            Arena(base + i * arena_size, arena_size) for i in range(num_arenas)
        ]
        self._arena_base = base
        self._arena_limit = base + num_arenas * arena_size
        self._current = 0
        # Set on the reset path only: 1 + the highest arena index made
        # current, and whether a scan ever found every arena live.  A
        # replay that never exhausted its arenas counts the same with
        # any count >= arenas_used (DESIGN.md §17).
        self.arenas_used = 1
        self.arenas_exhausted = False
        self._general = FirstFitAllocator(base=self._arena_limit)
        # Table 7 accounting; the general heap's share is derived.
        self.arena_bytes = 0

    @property
    def general(self) -> FirstFitAllocator:
        """The general-purpose allocator handling non-arena objects."""
        return self._general

    @property
    def general_bytes(self) -> int:
        """Bytes requested of the general heap (Table 7's non-arena bytes)."""
        return self.ops.bytes_requested - self.arena_bytes

    @property
    def arena_area_size(self) -> int:
        """Total bytes reserved for arenas (64 KB in the paper's setup)."""
        return self._arena_limit - self._arena_base

    def bind_chains(self, chains: ChainTable) -> None:
        if self.predictor is not None:
            self._verdicts = self.predictor.bind(chains)

    # ------------------------------------------------------------------
    # Allocation and deallocation
    # ------------------------------------------------------------------
    #
    # Both operations are a single Python call on their common path: the
    # memo probe, the fit test and the bump (Arena.fits/bump/release) are
    # inlined, because replay runs them once per trace event.

    def malloc(self, size: int, chain: Optional[ChainKey] = None) -> int:
        if size <= 0:
            raise AllocatorError(f"allocation size must be positive, got {size}")
        ops = self.ops
        ops.allocs += 1
        ops.bytes_requested += size
        placement = "unpredicted"
        verdicts = self._verdicts
        if verdicts is not None and chain is not None:
            ops.predictions += 1
            if verdicts[chain, size]:
                ops.predicted_short += 1
                # §5.1: bump in the current arena; when it is full, reset
                # and use the first arena whose count fell to zero; when
                # every arena still holds a live object, overflow.
                need = (
                    (size + ARENA_ALIGNMENT - 1) // ARENA_ALIGNMENT
                ) * ARENA_ALIGNMENT
                arena = self.arenas[self._current]
                addr = arena.alloc
                if need > arena.base + arena.size - addr:
                    arena = None
                    if need <= self.arena_size:  # else no arena could hold it
                        for index, candidate in enumerate(self.arenas):
                            ops.arenas_scanned += 1
                            if not candidate._live:
                                candidate.reset()
                                ops.arena_resets += 1
                                self._current = index
                                if index >= self.arenas_used:
                                    self.arenas_used = index + 1
                                arena = candidate
                                addr = candidate.alloc
                                break
                        else:
                            self.arenas_exhausted = True
                if arena is not None:
                    arena.alloc = addr + need
                    arena._live[addr] = size
                    ops.arena_allocs += 1
                    self.arena_bytes += size
                    if self.probe is not None:
                        self.probe.on_alloc(addr, size, chain, "arena")
                    return addr
                ops.arena_overflows += 1
                placement = "overflow"
            else:
                placement = "general"
        addr = self._general.malloc(size, chain)
        if self.probe is not None:
            self.probe.on_alloc(addr, size, chain, placement)
        return addr

    def free(self, addr: int) -> None:
        self.ops.frees += 1
        if self._arena_base <= addr < self._arena_limit:
            arena = self.arenas[(addr - self._arena_base) // self.arena_size]
            if arena._live.pop(addr, None) is None:
                raise AllocatorError(f"free of unknown arena address {addr}")
            self.ops.arena_frees += 1
        else:
            self._general.free(addr)
            self._general.ops.frees -= 1  # counted once, on this allocator
        if self.probe is not None:
            self.probe.on_free(addr)

    # ------------------------------------------------------------------
    # Measurements
    # ------------------------------------------------------------------

    @property
    def max_heap_size(self) -> int:
        """General-heap high-water mark plus the whole arena area.

        Matches Table 8's accounting: "the arena heap sizes include the
        64-kilobyte arena area in the total".
        """
        return self.arena_area_size + self._general.max_heap_size

    @property
    def live_bytes(self) -> int:
        return self._general.live_bytes + sum(
            arena.live_bytes for arena in self.arenas
        )

    def telemetry_snapshot(self) -> dict:
        """Arena-area gauges layered over the general heap's snapshot.

        Fragmentation and free-list series describe the general heap;
        ``arena_occupancy`` is the bump-allocated fraction of the whole
        arena area, ``arena_live_arenas`` counts arenas holding at least
        one live object, and ``arena_overflows``/``arena_resets`` are the
        cumulative operation counters.
        """
        snapshot = self._general.telemetry_snapshot()
        area = self.arena_area_size
        occupied = sum(arena.used for arena in self.arenas)
        arena_live = sum(arena.live_bytes for arena in self.arenas)
        snapshot.update({
            "heap_size": area + snapshot["heap_size"],
            "max_heap_size": self.max_heap_size,
            "live_bytes": arena_live + snapshot["live_bytes"],
            "arena_occupancy": round(occupied / area, 6) if area else 0.0,
            "arena_live_arenas": sum(1 for a in self.arenas if a.count),
            "arena_live_bytes": arena_live,
            "arena_overflows": self.ops.arena_overflows,
            "arena_resets": self.ops.arena_resets,
        })
        return snapshot

    def check_invariants(self) -> None:
        """No arena bumps past its end; the general heap must audit."""
        for arena in self.arenas:
            if arena.alloc > arena.base + arena.size:
                raise AllocatorError(f"arena at {arena.base}: overflow")
        self._general.check_invariants()
