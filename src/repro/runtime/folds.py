"""Order-independent per-object lifetime folds and the pass that feeds them.

A :class:`LifetimeFold` consumes the same ``(chain_id, size, lifetime,
touches)`` tuples :func:`~repro.runtime.stream.protocol.
iter_object_lifetimes` yields.  Its ``add`` must be order-independent:
folding the same multiset of objects in any order gives the same state.
:func:`fold_object_lifetimes` relies on that, because an in-memory
trace folds in object-id order while a stream folds in free order.

:func:`fold_object_lifetimes` delivers each object through
:meth:`LifetimeFold.add_object` with its full ``(obj_id, chain_id, size,
birth, death, touches)`` record; the default implementation collapses
that to the classic ``add`` tuple, so lifetime-only folds are unchanged
while position-aware folds (the windowed time series of
:mod:`repro.obs.windows`) override ``add_object`` and key on the
byte-time positions directly — all three values are intrinsic to the
object, so order-independence is preserved.

The concrete folds mirror the pipeline's per-object accumulations:
:class:`EvaluateFold` is :func:`repro.core.predictor.evaluate`'s body
(integer sums plus key-set unions); :class:`SiteSelectFold` keeps only
each interned pair's maximum lifetime, which is all the paper's
all-short-lived selection rule reads at any abstraction level;
:class:`SizeOnlyFold` AND-folds per-size shortness; :class:`ShortBytesFold`
is the oracle byte sum.  The order-*dependent* accumulations (P^2
quantiles, live-byte high-water marks, allocator state) are deliberately
absent — those replay the event stream in order.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.core.predictor import (
    LifetimePredictor,
    PredictionEvaluation,
    SitePredictor,
    StaticEscapePredictor,
)
from repro.core.profile import SiteKey
from repro.core.sites import ChainTable, site_key
from repro.runtime.events import _NEVER_FREED, Trace
from repro.runtime.stream.protocol import (
    EventSource,
    StreamHeader,
    StreamSummary,
    TraceEventSource,
    iter_object_records,
)

__all__ = [
    "LifetimeFold",
    "EvaluateFold",
    "SiteSelectFold",
    "SizeOnlyFold",
    "ShortBytesFold",
    "fold_object_lifetimes",
]


class LifetimeFold:
    """Contract for per-object folds (order-independent ``add``)."""

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        """Fold one object (order-independent by contract)."""
        raise NotImplementedError

    def add_object(
        self,
        obj_id: int,
        chain_id: int,
        size: int,
        birth: int,
        death: int,
        touches: int,
    ) -> None:
        """Fold one object with its absolute position in the run.

        :func:`fold_object_lifetimes` always calls this richer form; the
        default collapses it to :meth:`add`, so folds that only need the
        lifetime stay one-method.  Position-aware folds (windowed time series) override
        it instead — ``obj_id`` is the dense allocation index, ``birth``
        and ``death`` are byte-times, and all three are intrinsic to the
        object, so overriding keeps ``add_object`` order-independent.
        """
        self.add(chain_id, size, death - birth, touches)


class EvaluateFold(LifetimeFold):
    """The accumulators of :func:`repro.core.predictor.evaluate`.

    Integer sums plus matched/test key-set unions.  Every object with
    the same ``(chain id, size)`` has the same keys and verdict, so the
    key sets grow only on the first object of each pair and later ones
    cost one memo lookup.
    """

    def __init__(self, predictor: LifetimePredictor, chains: ChainTable):
        self.predictor = predictor
        self.chains = chains
        self.total_bytes = 0
        self.actual_short = 0
        self.predicted_short = 0
        self.error_bytes = 0
        self.predicted_objects = 0
        self.predicted_refs = 0
        self.matched_keys: Set = set()
        self.test_keys: Set = set()
        self._hits: Dict[Tuple[int, int], bool] = {}

    def _score(self, chain_id: int, size: int) -> bool:
        """Record a new pair's test and matched keys; return its verdict."""
        predictor = self.predictor
        chain = self.chains.chain(chain_id)
        if isinstance(predictor, SitePredictor):
            key = predictor.key_for(chain, size)
            matched: Tuple = (key,) if key in predictor.sites else ()
        elif isinstance(predictor, StaticEscapePredictor):
            key = predictor.key_for(chain, size)
            matched = (
                predictor.matching_keys(chain, size)
                if predictor.predicts_short_lived(chain, size) else ()
            )
        else:
            key = size
            matched = (
                (size,) if predictor.predicts_short_lived(chain, size) else ()
            )
        self.test_keys.add(key)
        self.matched_keys.update(matched)
        hit = self._hits[(chain_id, size)] = bool(matched)
        return hit

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        self.total_bytes += size
        short = lifetime < self.predictor.threshold
        if short:
            self.actual_short += size
        hit = self._hits.get((chain_id, size))
        if hit is None:
            hit = self._score(chain_id, size)
        if hit:
            self.predicted_objects += 1
            self.predicted_refs += touches
            if short:
                self.predicted_short += size
            else:
                self.error_bytes += size

    def result(
        self,
        header: StreamHeader,
        summary: StreamSummary,
        count_matched_sites: bool = True,
    ) -> PredictionEvaluation:
        """The finished evaluation."""
        sites_used = (
            len(self.matched_keys) if count_matched_sites
            else self.predictor.site_count
        )
        return PredictionEvaluation(
            program=header.program,
            dataset=header.dataset,
            threshold=self.predictor.threshold,
            total_sites=len(self.test_keys),
            sites_used=sites_used,
            total_bytes=self.total_bytes,
            actual_short_bytes=self.actual_short,
            predicted_short_bytes=self.predicted_short,
            error_bytes=self.error_bytes,
            predicted_objects=self.predicted_objects,
            total_heap_refs=summary.heap_refs,
            predicted_heap_refs=self.predicted_refs,
        )


class SiteSelectFold(LifetimeFold):
    """Maximum lifetime per interned ``(chain id, size)`` pair.

    The all-short-lived rule reads nothing else ("all objects lived
    less than 32 kilobytes" is ``max_lifetime < threshold``), and max
    is order-independent — so a stream and an in-memory trace select
    the same frozenset, which is why the saved databases stay
    byte-identical (the writer sorts its site list).  The fold keys on
    the interned pair, so one pass serves every abstraction level and
    threshold: :meth:`site_max_lifetimes` abstracts each distinct pair
    to the requested level's site key when a selection reads it.
    """

    def __init__(self, chains: ChainTable):
        self.chains = chains
        self.max_lifetime: Dict[Tuple[int, int], int] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        key = (chain_id, size)
        current = self.max_lifetime.get(key)
        if current is None or lifetime > current:
            self.max_lifetime[key] = lifetime

    def site_max_lifetimes(
        self, chain_length: Optional[int], size_rounding: int
    ) -> Dict[SiteKey, int]:
        """Each site key's maximum lifetime at one abstraction level."""
        chain_of = self.chains.chain
        per_site: Dict[SiteKey, int] = {}
        for (chain_id, size), lifetime in self.max_lifetime.items():
            key = site_key(
                chain_of(chain_id), size,
                length=chain_length, size_rounding=size_rounding,
            )
            current = per_site.get(key)
            if current is None or lifetime > current:
                per_site[key] = lifetime
        return per_site

    def short_lived_sites(
        self,
        threshold: int,
        chain_length: Optional[int],
        size_rounding: int,
    ) -> FrozenSet[SiteKey]:
        """Site keys at one level whose every object died under
        ``threshold``."""
        return frozenset(
            key for key, lifetime in self.site_max_lifetimes(
                chain_length, size_rounding
            ).items()
            if lifetime < threshold
        )


class SizeOnlyFold(LifetimeFold):
    """Per-size all-short-lived AND fold (the Table 5 ablation)."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.per_size: Dict[int, bool] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        short = lifetime < self.threshold
        self.per_size[size] = self.per_size.get(size, True) and short

    def short_lived_sizes(self) -> FrozenSet[int]:
        """Sizes whose every object died under the threshold."""
        return frozenset(
            size for size, short in self.per_size.items() if short
        )


class ShortBytesFold(LifetimeFold):
    """Oracle sum: bytes of objects that truly died under threshold."""

    def __init__(self, threshold: int):
        self.threshold = threshold
        self.total = 0

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        if lifetime < self.threshold:
            self.total += size


def _fold_trace(trace: Trace, fold: LifetimeFold) -> None:
    """Fold an in-memory trace straight from its object arrays.

    Every object's record is already at hand, so there is no event
    stream to replay; folds are order-independent, so object-id order
    gives the state the stream order would.  Lifetime-only folds get
    ``add`` directly, skipping the positional record.
    """
    arrays = trace.raw_arrays()
    end_time = trace.end_time
    records = zip(arrays["chain_ids"], arrays["sizes"], arrays["births"],
                  arrays["deaths"], arrays["touches"])
    if type(fold).add_object is LifetimeFold.add_object:
        add = fold.add
        for chain_id, size, birth, death, touches in records:
            if death == _NEVER_FREED:
                death = end_time
            add(chain_id, size, death - birth, touches)
        return
    add_object = fold.add_object
    for obj_id, (chain_id, size, birth, death, touches) in enumerate(records):
        if death == _NEVER_FREED:
            death = end_time
        add_object(obj_id, chain_id, size, birth, death, touches)


def fold_object_lifetimes(
    source: EventSource, fold: LifetimeFold
) -> LifetimeFold:
    """Fold every object lifetime of ``source`` into ``fold``; return it.

    An in-memory source folds from its object arrays; any other source
    folds the records of one :func:`iter_object_records` pass, so a
    malformed stream raises that iterator's
    :class:`~repro.runtime.tracefile.TraceFormatError`.
    """
    if isinstance(source, TraceEventSource):
        _fold_trace(source.trace, fold)
    else:
        add_object = fold.add_object
        for record in iter_object_records(source):
            add_object(*record)
    return fold
