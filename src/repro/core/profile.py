"""Per-site lifetime profiles.

The training half of the paper's pipeline (§4.1): replay a trace, group
objects by allocation site, and accumulate each site's lifetime
distribution as a quantile histogram.  The resulting :class:`SiteProfile`
is what the predictor-selection rules in :mod:`repro.core.predictor`
consume, and what the site database shipped with the optimized allocator is
generated from.

Sites are identified at a configurable abstraction level — call-chain
length (:data:`~repro.core.sites.FULL_CHAIN` or a length-N sub-chain) and
size rounding — because the paper studies exactly those two knobs
(Tables 4-6).  A profile knows the level it was built at and refuses to be
compared with a profile built at a different level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.core.quantile import P2Histogram
from repro.core.sites import FULL_CHAIN, CallChain, ChainTable, site_key
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.events import EventSource

__all__ = ["SiteStats", "SiteProfile", "build_profile", "SiteKey"]

SiteKey = Tuple[CallChain, int]


@dataclass
class SiteStats:
    """Accumulated lifetime statistics for one allocation site.

    ``max_lifetime`` is exact (it drives the paper's all-short-lived
    predictor rule); the quartile histogram is the P^2 approximation the
    paper collects.  Lifetimes follow the trace convention: objects never
    explicitly freed die at program exit (they are additionally counted in
    ``unfreed_objects``/``unfreed_bytes`` for reporting).
    """

    objects: int = 0
    bytes: int = 0
    touches: int = 0
    unfreed_objects: int = 0
    unfreed_bytes: int = 0
    min_lifetime: Optional[int] = None
    max_lifetime: Optional[int] = None
    histogram: P2Histogram = field(default_factory=lambda: P2Histogram(cells=4))

    def observe(
        self, size: int, lifetime: int, touches: int, freed: bool = True
    ) -> None:
        """Fold one object born at this site into the statistics."""
        self.objects += 1
        self.bytes += size
        self.touches += touches
        if not freed:
            self.unfreed_objects += 1
            self.unfreed_bytes += size
        if self.min_lifetime is None or lifetime < self.min_lifetime:
            self.min_lifetime = lifetime
        if self.max_lifetime is None or lifetime > self.max_lifetime:
            self.max_lifetime = lifetime
        self.histogram.add(lifetime)

    def all_short_lived(self, threshold: int) -> bool:
        """True when *every* object from this site died under ``threshold``.

        This is the paper's site-selection rule: "we only consider
        allocation sites in which all of the objects allocated lived less
        than 32 kilobytes" (§4.1).
        """
        return self.max_lifetime is not None and self.max_lifetime < threshold


class SiteProfile:
    """Lifetime statistics for every allocation site of one execution."""

    def __init__(
        self,
        program: str,
        dataset: str,
        chain_length: Optional[int],
        size_rounding: int,
    ):
        self.program = program
        self.dataset = dataset
        self.chain_length = chain_length
        self.size_rounding = size_rounding
        self._sites: Dict[SiteKey, SiteStats] = {}
        self.total_objects = 0
        self.total_bytes = 0

    @property
    def level(self) -> Tuple[Optional[int], int]:
        """The (chain length, size rounding) abstraction level."""
        return (self.chain_length, self.size_rounding)

    def __len__(self) -> int:
        return len(self._sites)

    def __contains__(self, key: SiteKey) -> bool:
        return key in self._sites

    def observe(
        self,
        key: SiteKey,
        size: int,
        lifetime: int,
        touches: int,
        freed: bool = True,
    ) -> None:
        """Fold one object into the profile under site ``key``."""
        stats = self._sites.get(key)
        if stats is None:
            stats = self._sites[key] = SiteStats()
        stats.observe(size, lifetime, touches, freed=freed)
        self.total_objects += 1
        self.total_bytes += size

    def stats(self, key: SiteKey) -> SiteStats:
        """Statistics for site ``key``; raises :class:`KeyError` if unseen."""
        return self._sites[key]

    def sites(self) -> Iterator[Tuple[SiteKey, SiteStats]]:
        """All (key, stats) pairs, unordered."""
        return iter(self._sites.items())

    def short_lived_sites(self, threshold: int) -> Dict[SiteKey, SiteStats]:
        """Sites whose objects were all short-lived under ``threshold``."""
        return {
            key: stats
            for key, stats in self._sites.items()
            if stats.all_short_lived(threshold)
        }

def build_profile(
    trace: "EventSource",
    chain_length: Optional[int] = FULL_CHAIN,
    size_rounding: int = 1,
) -> SiteProfile:
    """Group a trace's objects by allocation site and accumulate lifetimes.

    ``chain_length`` and ``size_rounding`` choose the site abstraction; the
    defaults give the paper's baseline (complete cycle-pruned chain, exact
    size).  The per-object "Actual Short-lived Bytes" denominator of the
    paper's tables is computed directly from the trace by
    :func:`repro.core.predictor.actual_short_lived_bytes`.

    Objects fold in allocation (object-id) order, which the
    order-dependent P^2 quartiles inside each site depend on.  So a
    source that is not already a :class:`~repro.runtime.events.Trace` is
    materialized with :func:`~repro.runtime.stream.protocol.build_trace`
    first, which also gives it that function's error contract.
    """
    from repro.runtime.events import Trace as _Trace
    from repro.runtime.stream.protocol import build_trace

    if not isinstance(trace, _Trace):
        trace = build_trace(trace)
    profile = SiteProfile(
        program=trace.program,
        dataset=trace.dataset,
        chain_length=chain_length,
        size_rounding=size_rounding,
    )
    key_of = _site_keys(trace.chains, chain_length, size_rounding)
    chain_ids = trace.raw_arrays()["chain_ids"]
    for obj_id in range(trace.total_objects):
        size = trace.size_of(obj_id)
        profile.observe(
            key_of(chain_ids[obj_id], size),
            size=size,
            lifetime=trace.lifetime_of(obj_id),
            touches=trace.touches_of(obj_id),
            freed=trace.freed(obj_id),
        )
    return profile


def _site_keys(
    chains: ChainTable, chain_length: Optional[int], size_rounding: int
) -> Callable[[int, int], SiteKey]:
    """``(chain id, size) → site key``, abstracted once per distinct pair."""
    chain_of = chains.chain
    memo: Dict[Tuple[int, int], SiteKey] = {}

    def key_of(chain_id: int, size: int) -> SiteKey:
        key = memo.get((chain_id, size))
        if key is None:
            key = memo[(chain_id, size)] = site_key(
                chain_of(chain_id), size,
                length=chain_length, size_rounding=size_rounding,
            )
        return key

    return key_of
