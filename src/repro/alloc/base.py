"""Allocator simulator interface and operation statistics.

Every allocator in :mod:`repro.alloc` is a *placement simulator*: it
accepts the trace's allocation requests, decides where each object would
live, and counts the work it performed.  Two kinds of results come out:

* **space** — maximum heap size (the break high-water mark, Table 8) and
  live/fragmentation accounting;
* **work** — operation counters (blocks scanned, coalesces, arena sweeps,
  predictions) that the cost model in :mod:`repro.alloc.costs` converts to
  the instructions-per-operation numbers of Table 9.

Addresses returned by ``malloc`` are simulated; callers must pass them back
to ``free`` unchanged.  Misuse (double free, unknown address) raises
:class:`AllocatorError` — the simulators validate their own bookkeeping so
the test suite can assert heap integrity after every scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.core.sites import CallChain, ChainTable

__all__ = ["Allocator", "AllocatorError", "ChainKey", "OpCounts"]

#: What ``malloc`` receives for an allocation's call chain: the chain
#: tuple, or its interned id once :meth:`Allocator.bind_chains` was called.
ChainKey = Union[CallChain, int]


class AllocatorError(Exception):
    """Raised on allocator misuse or internal invariant violation."""


@dataclass
class OpCounts:
    """Work counters shared by all allocator simulators.

    Not every field is meaningful for every allocator; each simulator
    documents which it maintains.  The cost models read these counters —
    they are the simulation analogue of the QP instruction profiles the
    paper took of real allocator implementations.
    """

    allocs: int = 0
    frees: int = 0
    bytes_requested: int = 0
    #: Free-list blocks examined across all allocations (first-fit search).
    blocks_scanned: int = 0
    #: Free blocks split to satisfy a smaller request.
    splits: int = 0
    #: Coalesce operations performed at free time (0, 1, or 2 per free).
    coalesces: int = 0
    #: Times the allocator had to grow the address space.
    sbrks: int = 0
    #: Arena allocator: objects bump-allocated in an arena.
    arena_allocs: int = 0
    #: Arena allocator: objects freed by count decrement.
    arena_frees: int = 0
    #: Arena allocator: arenas examined while hunting for an empty one.
    arenas_scanned: int = 0
    #: Arena allocator: arenas recycled after their count reached zero.
    arena_resets: int = 0
    #: Arena allocator: predicted-short-lived requests that fell through to
    #: the general heap (arena full or object too large).
    arena_overflows: int = 0
    #: Lifetime predictions attempted (one per allocation when predicting).
    predictions: int = 0
    #: Predictions that answered "short-lived".
    predicted_short: int = 0

    def snapshot(self) -> "OpCounts":
        """A copy of the current counters."""
        return OpCounts(**vars(self))


class Allocator:
    """Common interface of the allocator simulators.

    ``malloc`` takes the allocation's call chain so that predicting
    allocators can consult their site database; non-predicting allocators
    ignore it.  The chain is a tuple until :meth:`bind_chains` hands the
    allocator a :class:`~repro.core.sites.ChainTable`; from then on it is
    an interned id of that table, as in the paper's simulator, which
    consumed "an identifier corresponding to the complete call-chain and
    size" (§5.2).  Replay binds the trace header's table before its first
    event.

    **Probe interface.**  A telemetry recorder (see
    :mod:`repro.obs.telemetry`) may be attached with :meth:`attach_probe`;
    the simulator then reports every completed operation via
    ``probe.on_alloc(addr, size, chain, placement)`` (``chain`` as
    ``malloc`` received it) /
    ``probe.on_free(addr)`` and exposes its current gauges through
    :meth:`telemetry_snapshot`.  With no probe attached (the default) the
    only cost is one ``is None`` test per operation, so replays without
    telemetry are unaffected.
    """

    name: str = "abstract"

    def __init__(self) -> None:
        self.ops = OpCounts()
        self.probe = None  # telemetry recorder, or None (the fast path)

    def attach_probe(self, probe) -> None:
        """Attach (or with ``None`` detach) a telemetry recorder."""
        self.probe = probe

    def bind_chains(self, chains: ChainTable) -> None:
        """Take interned ids of ``chains`` as ``malloc``'s chain from now on.

        The baseline simulators never read a chain, so this is a no-op
        for them; predicting allocators rebind their prediction memo to
        key on ids.
        """

    def malloc(self, size: int, chain: Optional[ChainKey] = None) -> int:
        """Allocate ``size`` bytes; returns the simulated address."""
        raise NotImplementedError

    def free(self, addr: int) -> None:
        """Release the object at ``addr``."""
        raise NotImplementedError

    @property
    def max_heap_size(self) -> int:
        """Maximum total heap extent reached, in bytes."""
        raise NotImplementedError

    @property
    def live_bytes(self) -> int:
        """Bytes currently handed out to the program (payload, not headers)."""
        raise NotImplementedError

    def telemetry_snapshot(self) -> dict:
        """Current gauges for one telemetry sample.

        Subclasses extend this with their structure-specific series
        (fragmentation, free-list length, arena occupancy); the sampling
        cadence is low, so snapshots may do modest O(structure) work, but
        they must be pure reads — taking a snapshot never changes
        simulation behaviour.
        """
        return {
            "heap_size": self.max_heap_size,
            "max_heap_size": self.max_heap_size,
            "live_bytes": self.live_bytes,
        }

    def check_invariants(self) -> None:
        """Validate internal consistency; raises :class:`AllocatorError`.

        Default is a no-op; simulators with non-trivial bookkeeping
        override it, and the test suite calls it between scenario steps.
        """
