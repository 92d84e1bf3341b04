"""Call chains and allocation sites.

The paper's predictor keys on the *allocation site*: an abstraction of the
program's call stack at each object birth, together with the requested size
(§3.2).  This module implements that abstraction:

* a **call chain** is the ordered list of functions on the runtime stack at
  an event, outermost caller first, the function that directly invoked the
  allocator last;
* **recursive cycle pruning** collapses loops of recursive invocations the
  way gprof collapses cycles in the dynamic call graph, because recursion
  adds no predictive information;
* a **length-N sub-chain** is the last ``N`` callers of the (unpruned)
  chain — the paper's Table 6 studies prediction accuracy as a function of
  ``N`` and finds length 4 nearly as good as the full chain;
* an :class:`AllocationSite` is a (chain, size) pair.  Because the same
  chain requesting 8 bytes and 16 bytes behaves differently, size is part of
  the site.  For mapping sites between training and test runs the size is
  rounded up to a multiple of four bytes (§4), which this module also
  implements.

Chains are plain tuples of function-name strings.  The paper notes its
tools used function chains rather than return-address chains (so two calls
in the same function are not distinguished); ours match that choice.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "CallChain",
    "prune_recursive_cycles",
    "sub_chain",
    "round_size",
    "AllocationSite",
    "site_key",
    "ChainTable",
    "FULL_CHAIN",
]

CallChain = Tuple[str, ...]

#: Sentinel chain length meaning "use the complete, cycle-pruned chain"
#: (the paper's ``infinity`` row in Table 6).
FULL_CHAIN: Optional[int] = None


def prune_recursive_cycles(chain: Sequence[str]) -> CallChain:
    """Collapse recursive cycles in a call chain, gprof-style.

    Whenever a function reappears while it is still on the (pruned) chain,
    everything from its previous occurrence onward is folded into that one
    occurrence.  The result contains each function at most once, preserving
    first-occurrence order of the surviving frames:

    >>> prune_recursive_cycles(["main", "walk", "visit", "walk", "leaf"])
    ('main', 'walk', 'leaf')

    Mutual recursion collapses the same way: in ``a b a b c`` the second
    ``a`` folds back to the first, then ``b`` extends it again and is folded
    when re-entered, yielding ``('a', 'b', 'c')``.
    """
    pruned: List[str] = []
    positions: Dict[str, int] = {}
    for fn in chain:
        if fn in positions:
            # Fold the cycle: drop everything after the earlier occurrence.
            cut = positions[fn] + 1
            for dropped in pruned[cut:]:
                del positions[dropped]
            del pruned[cut:]
        else:
            positions[fn] = len(pruned)
            pruned.append(fn)
    return tuple(pruned)


def sub_chain(chain: Sequence[str], length: Optional[int]) -> CallChain:
    """The last ``length`` callers of ``chain``; the full chain if ``None``.

    ``length=1`` is the function that directly called the allocator.  When
    ``length`` is :data:`FULL_CHAIN` the chain is returned cycle-pruned —
    matching the paper, which prunes recursion only in the complete-chain
    case (Table 6 caption).
    """
    if length is FULL_CHAIN:
        return prune_recursive_cycles(chain)
    if length < 1:
        raise ValueError(f"sub-chain length must be >= 1, got {length}")
    return tuple(chain[-length:])


def round_size(size: int, multiple: int = 4) -> int:
    """Round ``size`` up to a multiple of ``multiple`` bytes.

    The paper found that rounding object sizes to a multiple of four made
    allocation sites from different runs map to each other more reliably,
    while coarser rounding destroyed too much size information (§4).
    """
    if size < 0:
        raise ValueError(f"size must be non-negative, got {size}")
    if multiple < 1:
        raise ValueError(f"rounding multiple must be >= 1, got {multiple}")
    return ((size + multiple - 1) // multiple) * multiple


@dataclass(frozen=True)
class AllocationSite:
    """A (call chain, object size) pair identifying where an object is born.

    ``chain`` is stored exactly as captured (unpruned); views of the site at
    different chain lengths or size roundings are derived via :meth:`key`.
    Two sites with the same chain but different sizes are distinct sites
    (§3.2: "the same call-chain allocating 8 bytes at one time and 16 bytes
    another corresponds to 2 distinct allocation sites").
    """

    chain: CallChain
    size: int

    def key(
        self,
        length: Optional[int] = FULL_CHAIN,
        size_rounding: int = 1,
    ) -> Tuple[CallChain, int]:
        """Hashable identity of this site at a given abstraction level.

        ``length`` selects the sub-chain (``FULL_CHAIN`` for the complete
        cycle-pruned chain); ``size_rounding`` rounds the size up to that
        multiple, with 1 meaning the exact size.
        """
        return (
            sub_chain(self.chain, length),
            round_size(self.size, size_rounding),
        )

    @property
    def direct_caller(self) -> str:
        """The function that directly invoked the allocator."""
        if not self.chain:
            raise ValueError("empty call chain")
        return self.chain[-1]


def site_key(
    chain: Sequence[str],
    size: int,
    length: Optional[int] = FULL_CHAIN,
    size_rounding: int = 1,
) -> Tuple[CallChain, int]:
    """Functional form of :meth:`AllocationSite.key` for raw chain data."""
    return (sub_chain(chain, length), round_size(size, size_rounding))


class ChainTable:
    """Interning table mapping call chains to small integer ids.

    Trace files store a chain id per allocation event rather than repeating
    the chain, mirroring how the paper's simulator consumed "an identifier
    corresponding to the complete call-chain and size" (§5.2).  Interning
    also guarantees chain-tuple sharing in memory when millions of events
    reference a few hundred chains.
    """

    def __init__(self) -> None:
        self._ids: Dict[CallChain, int] = {}
        self._chains: List[CallChain] = []

    def __len__(self) -> int:
        return len(self._chains)

    def __iter__(self) -> Iterable[CallChain]:
        return iter(self._chains)

    def intern(self, chain: Sequence[str]) -> int:
        """Return the id for ``chain``, assigning a fresh one if new."""
        key = tuple(chain)
        existing = self._ids.get(key)
        if existing is not None:
            return existing
        new_id = len(self._chains)
        self._ids[key] = new_id
        self._chains.append(key)
        return new_id

    def chain(self, chain_id: int) -> CallChain:
        """The chain registered under ``chain_id``.

        Raises :class:`IndexError` for ids never returned by :meth:`intern`.
        """
        if chain_id < 0:
            raise IndexError(f"chain id must be non-negative, got {chain_id}")
        return self._chains[chain_id]

    def id_of(self, chain: Sequence[str]) -> Optional[int]:
        """The id of ``chain`` if interned, else ``None``."""
        return self._ids.get(tuple(chain))

    def to_list(self) -> List[CallChain]:
        """All interned chains, indexable by id (a copy)."""
        return list(self._chains)

    @classmethod
    def from_list(cls, chains: Iterable[Sequence[str]]) -> "ChainTable":
        """Rebuild a table from a previously serialized chain list.

        Each chain keeps its position as its id.  A chain listed twice
        raises :class:`ValueError` naming both positions, since merging
        the two would shift the id of every later chain.  Each function
        name is interned with :func:`sys.intern`, so a table decoded
        from a file holds one string per name however many chains
        repeat it, and the site keys built from it share them.
        """
        table = cls()
        table._chains = [tuple(map(sys.intern, chain)) for chain in chains]
        table._ids = dict(zip(table._chains, range(len(table._chains))))
        if len(table._ids) != len(table._chains):
            for position, chain in enumerate(table._chains):
                if table._ids[chain] != position:
                    raise ValueError(
                        f"chain {list(chain)} is listed twice, at positions "
                        f"{position} and {table._ids[chain]}"
                    )
        return table
