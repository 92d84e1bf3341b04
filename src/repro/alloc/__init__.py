"""Allocator simulators and the instruction-cost model.

Four allocators back the paper's comparisons:

* :class:`~repro.alloc.firstfit.FirstFitAllocator` — Knuth first-fit with
  boundary tags and a roving pointer that each search starts from; the
  rover moves only when its block leaves the free list, so this is not
  next-fit (the space baseline).
* :class:`~repro.alloc.bsd.BsdAllocator` — 4.3BSD power-of-two buckets
  (the CPU baseline).
* :class:`~repro.alloc.arena.ArenaAllocator` — the paper's contribution:
  Hanson-style arenas for predicted-short-lived objects over a first-fit
  general heap.

:mod:`repro.alloc.costs` converts each simulator's operation counts into
the instructions-per-operation numbers of Table 9.
"""

from repro.alloc.address_space import AddressSpace
from repro.alloc.arena import (
    DEFAULT_ARENA_SIZE,
    DEFAULT_NUM_ARENAS,
    Arena,
    ArenaAllocator,
)
from repro.alloc.base import Allocator, AllocatorError, OpCounts
from repro.alloc.bsd import BsdAllocator
from repro.alloc.cache import CacheConfig, SetAssociativeCache
from repro.alloc.costs import (
    DEFAULT_COST_MODEL,
    AllocatorCost,
    CostModel,
    arena_cost,
    bsd_cost,
    execution_instructions,
    firstfit_cost,
)
from repro.alloc.firstfit import FirstFitAllocator
from repro.alloc.multiarena import MultiArenaAllocator
from repro.alloc.spec import (
    ALLOCATOR_KINDS,
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
    SpecError,
    build_allocator,
)

__all__ = [
    "AddressSpace",
    "DEFAULT_ARENA_SIZE",
    "DEFAULT_NUM_ARENAS",
    "Arena",
    "ArenaAllocator",
    "Allocator",
    "AllocatorError",
    "OpCounts",
    "BsdAllocator",
    "CacheConfig",
    "SetAssociativeCache",
    "DEFAULT_COST_MODEL",
    "AllocatorCost",
    "CostModel",
    "arena_cost",
    "bsd_cost",
    "execution_instructions",
    "firstfit_cost",
    "FirstFitAllocator",
    "MultiArenaAllocator",
    "ALLOCATOR_KINDS",
    "BSD_SPEC",
    "FIRSTFIT_SPEC",
    "PAPER_DEFAULT_SPEC",
    "AllocatorSpec",
    "SpecError",
    "build_allocator",
]
