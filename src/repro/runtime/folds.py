"""Order-independent per-object lifetime folds and the pass that feeds them.

A :class:`LifetimeFold` consumes one ``(chain_id, size, lifetime,
touches)`` tuple per object.  Its ``add`` must be order-independent:
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

:class:`PairTable` is the per-site fold of the pipeline: each
interned ``(chain id, size)`` pair's object count, short count,
touches, lifetime sums and max lifetime at one threshold.  Evaluation,
site, multi-class and size-only selection, the oracle byte sum and the
per-site attribution read its rows, never the objects (DESIGN.md §16).
:class:`LifetimeRuns` is the one lifetime-distribution fold: the
objects and bytes of each distinct lifetime.  Table 3 and ``repro-alloc
quantiles`` read their quartiles off its sorted runs
(:func:`lifetime_quartiles`), and the survival curves bucket the same
runs.  The order-*dependent* accumulations (live-byte high-water marks,
allocator state) are deliberately absent — those replay the event
stream in order.  The P^2 quartiles depend on order too, so
:func:`lifetime_quartiles` feeds them the runs in lifetime order,
whichever order the objects were folded in.
"""

from __future__ import annotations

from itertools import repeat
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple, TypeVar

from repro.core.profile import SiteKey
from repro.core.quantile import P2Histogram
from repro.core.sites import site_key
from repro.runtime.events import (
    _NEVER_FREED,
    EventSource,
    StreamHeader,
    StreamSummary,
    Trace,
)
from repro.runtime.stream.protocol import iter_object_records

K = TypeVar("K")

__all__ = [
    "LifetimeFold",
    "LifetimeRuns",
    "PairTable",
    "fold_object_lifetimes",
    "lifetime_quartiles",
    "lifetime_runs",
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


#: Column indexes of a :class:`PairTable` row.
OBJECTS, SHORT, TOUCHES, LIFETIME, LONG_LIFETIME, MAX_LIFETIME = range(6)


class PairTable(LifetimeFold):
    """One execution's lifetime totals per interned ``(chain id, size)``.

    Each row of :attr:`rows` holds, over the pair's objects at
    :attr:`threshold`: the objects, the objects with lifetime under the
    threshold (short), the touches, the lifetime sum, the lifetime sum of
    the objects at or over the threshold, and the max lifetime (indexed
    by :data:`OBJECTS` ... :data:`MAX_LIFETIME`).  Every column is an
    integer sum or a max, so ``add`` is order-independent, and every
    consumer that scored objects one by one — evaluation, attribution,
    the oracle byte sum — is one of these sums times a factor fixed by
    the pair.  Selection reads only the max, which no threshold changes,
    so one table serves every abstraction level and threshold.  A table
    is O(distinct pairs), never O(objects).
    """

    def __init__(
        self, header: StreamHeader, summary: StreamSummary, threshold: int
    ):
        self.program = header.program
        self.dataset = header.dataset
        self.chains = header.chains
        self.heap_refs = summary.heap_refs
        self.threshold = threshold
        self.rows: Dict[Tuple[int, int], List[int]] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        row = self.rows.get((chain_id, size))
        if row is None:
            if lifetime < self.threshold:
                row = [1, 1, touches, lifetime, 0, lifetime]
            else:
                row = [1, 0, touches, lifetime, lifetime, lifetime]
            self.rows[chain_id, size] = row
            return
        row[OBJECTS] += 1
        row[TOUCHES] += touches
        row[LIFETIME] += lifetime
        if lifetime < self.threshold:
            row[SHORT] += 1
        else:
            row[LONG_LIFETIME] += lifetime
        if lifetime > row[MAX_LIFETIME]:
            row[MAX_LIFETIME] = lifetime

    def max_lifetimes(self, key_of: Callable[[int, int], K]) -> Dict[K, int]:
        """The maximum lifetime under each ``key_of(chain id, size)``."""
        per_key: Dict[K, int] = {}
        for (chain_id, size), row in self.rows.items():
            key = key_of(chain_id, size)
            lifetime = row[MAX_LIFETIME]
            current = per_key.get(key)
            if current is None or lifetime > current:
                per_key[key] = lifetime
        return per_key

    def site_max_lifetimes(
        self, chain_length: Optional[int], size_rounding: int
    ) -> Dict[SiteKey, int]:
        """Each site key's maximum lifetime at one abstraction level."""
        chain_of = self.chains.chain
        return self.max_lifetimes(
            lambda chain_id, size: site_key(
                chain_of(chain_id), size,
                length=chain_length, size_rounding=size_rounding,
            )
        )

    def short_lived_sites(
        self,
        threshold: int,
        chain_length: Optional[int],
        size_rounding: int,
    ) -> FrozenSet[SiteKey]:
        """Site keys at one level whose every object died under
        ``threshold`` ("all objects lived less than 32 kilobytes" is
        ``max_lifetime < threshold``)."""
        return frozenset(
            key for key, lifetime in self.site_max_lifetimes(
                chain_length, size_rounding
            ).items()
            if lifetime < threshold
        )

    def short_lived_sizes(self, threshold: int) -> FrozenSet[int]:
        """Sizes whose every object died under ``threshold``."""
        return frozenset(
            size for size, lifetime in self.max_lifetimes(
                lambda chain_id, size: size
            ).items()
            if lifetime < threshold
        )

    def short_bytes(self) -> int:
        """Bytes of the objects that died under the table's threshold."""
        return sum(
            size * row[SHORT] for (_, size), row in self.rows.items()
        )


class LifetimeRuns(LifetimeFold):
    """Objects and bytes per distinct lifetime: one execution's lifetime
    distribution, O(distinct lifetimes), never O(objects).

    :attr:`runs` maps each lifetime to ``[objects, bytes]``; both are
    integer sums, so ``add`` is order-independent.
    """

    def __init__(self):
        self.runs: Dict[int, List[int]] = {}

    def add(
        self, chain_id: int, size: int, lifetime: int, touches: int
    ) -> None:
        run = self.runs.get(lifetime)
        if run is None:
            self.runs[lifetime] = [1, size]
        else:
            run[0] += 1
            run[1] += size


def lifetime_runs(source: EventSource) -> List[Tuple[int, int, int]]:
    """``(lifetime, objects, bytes)`` per distinct lifetime of ``source``,
    shortest first, from one :func:`fold_object_lifetimes` pass into a
    :class:`LifetimeRuns`."""
    runs = fold_object_lifetimes(source, LifetimeRuns()).runs
    return sorted(
        (lifetime, objects, nbytes)
        for lifetime, (objects, nbytes) in runs.items()
    )


def lifetime_quartiles(
    runs: List[Tuple[int, int, int]],
) -> Tuple[Tuple[int, ...], Tuple[float, ...]]:
    """Table 3's byte-weighted and P^2 quartiles of :func:`lifetime_runs`.

    A byte quantile is the lifetime at which the running byte sum, in
    lifetime order, crosses its share of the bytes.  Every object of a
    run has the run's lifetime, so summing whole runs crosses at the
    lifetimes summing objects does.  The P^2 histogram (four cells, over
    objects) adds each run's lifetime once per object, shortest first,
    so a streamed source and a materialized one feed it the same
    sequence.  ``runs`` must not be empty.
    """
    total = sum(nbytes for _, _, nbytes in runs)
    targets = iter((0.0, 0.25, 0.50, 0.75, 1.0))
    target = next(targets)
    byte_qs: List[int] = []
    cumulative = 0
    for lifetime, _, nbytes in runs:
        cumulative += nbytes
        while target is not None and cumulative >= target * total:
            byte_qs.append(lifetime)
            target = next(targets, None)
    # ``target * total`` is a float; rounded up past a total above
    # 2**53, it may never be crossed, and the maximum fills in.
    byte_qs += [runs[-1][0]] * (5 - len(byte_qs))
    histogram = P2Histogram(cells=4)
    for lifetime, objects, _ in runs:
        histogram.extend(repeat(lifetime, objects))
    return tuple(byte_qs), tuple(histogram.quantiles())


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

    A :class:`Trace` folds from its object arrays; any other source
    folds the records of one :func:`iter_object_records` pass, so a
    malformed stream raises that iterator's
    :class:`~repro.runtime.tracefile.TraceFormatError`.
    """
    if isinstance(source, Trace):
        _fold_trace(source, fold)
    else:
        add_object = fold.add_object
        for record in iter_object_records(source):
            add_object(*record)
    return fold
