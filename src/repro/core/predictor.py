"""Lifetime predictors and their evaluation.

This is the paper's central contribution (§2, §4): given a training
execution, select the allocation sites whose objects were *all* short-lived
and predict, at allocation time, that new objects from those sites will be
short-lived too.

Three predictor families are provided, matching the paper's experiments:

:class:`SitePredictor`
    Keys on (call chain, size) at a configurable chain length and size
    rounding — the paper's main predictor (Tables 4 and 6).

:class:`SizeOnlyPredictor`
    Keys on object size alone — the ablation of Table 5, which shows size
    by itself predicts poorly.

:class:`~repro.core.cce.CCEPredictor` (in :mod:`repro.core.cce`)
    Keys on the XOR-encrypted call chain — the constant-overhead encoding
    of §5.1.

*Self prediction* trains and evaluates on the same trace; *true prediction*
trains on one input's trace and evaluates on another's (§4).  For true
prediction the paper rounds sizes to a multiple of four so sites map
between runs; :func:`train_site_predictor` defaults match that.

:func:`evaluate` scores any predictor against a trace, producing the
columns of Tables 4-6: percentage of total bytes correctly predicted
short-lived, percentage erroneously predicted (actually long-lived), sites
used, and the fraction of heap references going to predicted objects (the
New Ref column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Optional, Set, Tuple, Union

from repro.core.profile import SiteKey, SiteProfile
from repro.core.sites import (
    FULL_CHAIN,
    CallChain,
    ChainTable,
    prune_recursive_cycles,
    site_key,
)
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.runtime.events import EventSource
    from repro.runtime.folds import PairTable

__all__ = [
    "DEFAULT_THRESHOLD",
    "TRUE_PREDICTION_ROUNDING",
    "LifetimePredictor",
    "SiteLookup",
    "SiteMemo",
    "SitePredictor",
    "SizeOnlyPredictor",
    "StaticEscapePredictor",
    "pair_table",
    "train_site_predictor",
    "train_size_only_predictor",
    "actual_short_lived_bytes",
    "PredictionEvaluation",
    "evaluate",
    "evaluate_table",
]

#: The paper's definition of "short-lived": dead before 32 kilobytes of new
#: data are allocated (§4.1).
DEFAULT_THRESHOLD = 32 * 1024

#: Size rounding used to map allocation sites between training and test
#: runs (§4: "by rounding the object size to a multiple of four bytes ...
#: corresponding sites were more likely to map correctly").
TRUE_PREDICTION_ROUNDING = 4


class SiteLookup(dict):
    """``lookup(chain, size)`` behind a dict, asked again on every access.

    Index it with a ``(chain, size)`` key or call it.  With ``chains``,
    a key's chain is an interned id of that table, resolved to its chain
    tuple only when ``lookup`` is asked; without, it is the chain tuple.
    This class stores nothing, so every access asks ``lookup`` again.
    :class:`SiteMemo` is the storing form :meth:`LifetimePredictor.bind`
    returns.
    """

    __slots__ = ("lookup", "chains")

    def __init__(
        self,
        lookup: Callable[[CallChain, int], Any],
        chains: Optional[ChainTable] = None,
    ):
        super().__init__()
        self.lookup = lookup
        self.chains = chains

    def ask(self, chain: Union[CallChain, int], size: int) -> Any:
        """``lookup``'s answer for one key, never read from the dict."""
        if self.chains is not None:
            chain = self.chains.chain(chain)
        return self.lookup(chain, size)

    def __missing__(self, key: Tuple[Union[CallChain, int], int]) -> Any:
        return self.ask(*key)

    def __call__(self, chain: Union[CallChain, int], size: int) -> Any:
        return self[chain, size]


class SiteMemo(SiteLookup):
    """A :class:`SiteLookup` that asks once per distinct key.

    Each answer is stored under its key, so a repeat is one dict probe
    and no Python call: the allocators index the memo straight from
    their ``malloc``.  The memo lives exactly as long as its owner (one
    allocator, one fold, one replay) and pickles with it.
    """

    __slots__ = ()

    def __missing__(self, key: Tuple[Union[CallChain, int], int]) -> Any:
        value = self[key] = self.ask(*key)
        return value


class LifetimePredictor:
    """Interface shared by every predictor.

    A predictor answers one question at allocation time: will the object
    being born at ``(chain, size)`` be short-lived?  Implementations also
    expose ``site_count`` (how many database entries back the prediction —
    the Sites Used columns) and ``threshold`` (the short-lived cutoff they
    were trained for).

    The answer is a pure function of ``(chain, size)``, so replay asks
    through :meth:`bind`, which resolves each distinct pair once.
    """

    threshold: int

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        """Whether an object born at ``(chain, size)`` is predicted short-lived."""
        raise NotImplementedError

    def bind(self, chains: Optional[ChainTable] = None) -> SiteLookup:
        """A memoized :meth:`predicts_short_lived` for one replay or fold.

        With ``chains``, the memo keys on ``(chain id, size)`` and turns
        an id into its chain only on a miss; without, it keys on chain
        tuples.  The memo belongs to the caller, not to the predictor, so
        a predictor reused across many replays keeps no chains alive
        between them.  A predictor whose answer is not a function of
        ``(chain, size)`` overrides this to return a mapping that stores
        nothing (the oracle's answers each lookup with the next object's
        verdict).
        """
        return SiteMemo(self.predicts_short_lived, chains)

    @property
    def site_count(self) -> int:
        """Number of predictor database entries (Sites Used)."""
        raise NotImplementedError


class SitePredictor(LifetimePredictor):
    """Predicts short-lived objects from a database of allocation sites.

    The database is the set of site keys — (sub-chain, rounded size) — whose
    training objects all died under the threshold.  At allocation time the
    incoming chain and size are abstracted to the same level and looked up;
    this mirrors the hash-table lookup of the paper's runtime (§5.1).
    """

    def __init__(
        self,
        sites: FrozenSet[SiteKey],
        threshold: int,
        chain_length: Optional[int],
        size_rounding: int,
        program: str = "?",
    ):
        self.sites = sites
        self.threshold = threshold
        self.chain_length = chain_length
        self.size_rounding = size_rounding
        self.program = program

    @classmethod
    def from_table(
        cls,
        table: "PairTable",
        threshold: int,
        chain_length: Optional[int],
        size_rounding: int,
        program: str = "?",
    ) -> "SitePredictor":
        """Select the all-short-lived sites at one level from a
        :func:`pair_table` (at any threshold: selection reads only the
        max lifetimes)."""
        return cls(
            table.short_lived_sites(threshold, chain_length, size_rounding),
            threshold=threshold,
            chain_length=chain_length,
            size_rounding=size_rounding,
            program=program,
        )

    @property
    def site_count(self) -> int:
        return len(self.sites)

    @property
    def level(self) -> Tuple[Optional[int], int]:
        """The (chain length, size rounding) the database was built at."""
        return (self.chain_length, self.size_rounding)

    def key_for(self, chain: CallChain, size: int) -> SiteKey:
        """Abstract an allocation's (chain, size) to this predictor's level."""
        return site_key(
            chain, size, length=self.chain_length, size_rounding=self.size_rounding
        )

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        return self.key_for(chain, size) in self.sites

    def restricted_to(self, profile: SiteProfile) -> "SitePredictor":
        """The sub-database of sites that actually occur in ``profile``.

        Used to report the paper's true-prediction Sites Used column, which
        counts only the training sites that matched the test execution.
        """
        if profile.level != self.level:
            raise ValueError(
                f"profile level {profile.level} does not match "
                f"predictor level {self.level}"
            )
        matched = frozenset(key for key in self.sites if key in profile)
        return SitePredictor(
            matched,
            threshold=self.threshold,
            chain_length=self.chain_length,
            size_rounding=self.size_rounding,
            program=self.program,
        )


class SizeOnlyPredictor(LifetimePredictor):
    """Predicts short-lived objects from the requested size alone (Table 5)."""

    def __init__(self, sizes: FrozenSet[int], threshold: int, program: str = "?"):
        self.sizes = sizes
        self.threshold = threshold
        self.program = program

    @classmethod
    def from_table(
        cls, table: "PairTable", threshold: int, program: str = "?"
    ) -> "SizeOnlyPredictor":
        """Select the sizes whose every object in a :func:`pair_table`
        died under ``threshold``."""
        return cls(
            table.short_lived_sizes(threshold), threshold=threshold,
            program=program,
        )

    @property
    def site_count(self) -> int:
        return len(self.sizes)

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        return size in self.sizes


class StaticEscapePredictor(LifetimePredictor):
    """Predicts short-lived objects from a static escape classification.

    The database comes from :mod:`repro.static.escape` — no profiling
    run involved — and maps ``(cycle-pruned chain, size)`` keys to an
    escape class: ``"short"``, ``"escaping"``, or ``"unknown"``.  A size
    of ``None`` is the fold-failure wildcard matching every dynamic
    size.  An allocation is predicted short-lived only when at least one
    database entry matches it and *every* matching entry (exact size and
    wildcard alike) is classified ``"short"`` — ``"escaping"`` and
    ``"unknown"`` are both conservative "no" answers, so an unknown
    escape can never be predicted short.

    It lives in :mod:`repro.core` so the allocators and tables need no
    dependency on the static layer.
    """

    def __init__(
        self,
        classes: Dict[Tuple[Tuple[str, ...], Optional[int]], str],
        threshold: int = DEFAULT_THRESHOLD,
        program: str = "?",
    ):
        self.classes = dict(classes)
        self.threshold = threshold
        self.program = program
        self._by_chain: Dict[Tuple[str, ...], Dict[Optional[int], str]] = {}
        for (chain, size), cls in self.classes.items():
            self._by_chain.setdefault(chain, {})[size] = cls

    @property
    def site_count(self) -> int:
        """Number of sites classified short — the entries that predict."""
        return sum(1 for cls in self.classes.values() if cls == "short")

    def key_for(
        self, chain: CallChain, size: int
    ) -> Tuple[Tuple[str, ...], Optional[int]]:
        """Abstract an allocation to this database's key space."""
        return (prune_recursive_cycles(tuple(chain)), size)

    def matching_keys(
        self, chain: CallChain, size: int
    ) -> Tuple[Tuple[Tuple[str, ...], Optional[int]], ...]:
        """The database keys that match ``(chain, size)``, if any."""
        pruned = prune_recursive_cycles(tuple(chain))
        entry = self._by_chain.get(pruned)
        if not entry:
            return ()
        keys = []
        if size in entry:
            keys.append((pruned, size))
        if None in entry and size is not None:
            keys.append((pruned, None))
        return tuple(keys)

    def class_of(self, chain: CallChain, size: int) -> Optional[str]:
        """The effective class for an allocation: the worst matching entry.

        ``None`` when no entry matches (the site is outside the static
        space); otherwise ``"unknown"`` dominates ``"escaping"``
        dominates ``"short"``, mirroring :meth:`predicts_short_lived`.
        """
        matched = [self.classes[key] for key in self.matching_keys(chain, size)]
        if not matched:
            return None
        for cls in ("unknown", "escaping"):
            if cls in matched:
                return cls
        return "short"

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        return self.class_of(chain, size) == "short"


def pair_table(
    trace: "EventSource", threshold: int = DEFAULT_THRESHOLD
) -> "PairTable":
    """One execution's :class:`~repro.runtime.folds.PairTable` at
    ``threshold``, in one pass.

    The per-object half of every order-independent consumer: site and
    multi-class selection (:meth:`SitePredictor.from_table`,
    :meth:`~repro.core.multiclass.MultiClassPredictor.from_table`) at
    any level and threshold, size-only selection, :func:`evaluate_table`
    and the per-site attribution all read its rows.  Every column is a
    sum or a max, so a stream and an in-memory trace give identical
    tables.
    """
    # Imported lazily: repro.obs.telemetry imports this module for
    # DEFAULT_THRESHOLD, so a top-level obs import would be circular.
    from repro.obs.spans import TRACER
    from repro.runtime.folds import PairTable, fold_object_lifetimes

    header = trace.header
    with TRACER.span("profile.train_sites", cat="core",
                     program=header.program, dataset=header.dataset,
                     threshold=threshold):
        return fold_object_lifetimes(
            trace, PairTable(header, trace.summary, threshold)
        )


def train_site_predictor(
    trace: "EventSource",
    threshold: int = DEFAULT_THRESHOLD,
    chain_length: Optional[int] = FULL_CHAIN,
    size_rounding: int = TRUE_PREDICTION_ROUNDING,
) -> SitePredictor:
    """Train a :class:`SitePredictor` from one execution's trace.

    Selects every site, at the requested abstraction level, whose training
    objects were all freed in under ``threshold`` bytes of allocation — the
    paper's conservative all-short-lived rule, chosen because mispredicted
    long-lived objects pollute arenas (§4.1, §5.2).  Selection depends
    only on each site's maximum lifetime, so a streamed trace trains the
    identical database in O(live objects) memory.  This is
    :func:`pair_table` followed by :meth:`SitePredictor.from_table`;
    a :class:`~repro.analysis.experiments.TraceStore` keeps the first
    half per execution and repeats only the second.
    """
    table = pair_table(trace, threshold)
    return SitePredictor.from_table(
        table,
        threshold=threshold,
        chain_length=chain_length,
        size_rounding=size_rounding,
        program=table.program,
    )


def train_size_only_predictor(
    trace: "EventSource", threshold: int = DEFAULT_THRESHOLD
) -> SizeOnlyPredictor:
    """Train a :class:`SizeOnlyPredictor`: sizes whose objects all died young."""
    table = pair_table(trace, threshold)
    return SizeOnlyPredictor.from_table(
        table, threshold, program=table.program
    )


def actual_short_lived_bytes(trace: "EventSource", threshold: int) -> int:
    """Bytes of objects that truly died under ``threshold`` — the oracle.

    This is the per-object ground truth behind the Actual Short-lived Bytes
    column: the most any site-based predictor could correctly capture.
    """
    return pair_table(trace, threshold).short_bytes()


@dataclass(frozen=True)
class PredictionEvaluation:
    """Scoring of one predictor against one trace (columns of Tables 4-6)."""

    program: str
    dataset: str
    threshold: int
    total_sites: int
    sites_used: int
    total_bytes: int
    actual_short_bytes: int
    predicted_short_bytes: int  # correctly predicted short-lived
    error_bytes: int  # predicted short-lived but actually long-lived
    predicted_objects: int
    total_heap_refs: int
    predicted_heap_refs: int

    @property
    def actual_pct(self) -> float:
        """Actual short-lived bytes as a percentage of total bytes."""
        return _pct(self.actual_short_bytes, self.total_bytes)

    @property
    def predicted_pct(self) -> float:
        """Correctly predicted short-lived bytes, % of total bytes."""
        return _pct(self.predicted_short_bytes, self.total_bytes)

    @property
    def error_pct(self) -> float:
        """Bytes wrongly predicted short-lived, % of total bytes."""
        return _pct(self.error_bytes, self.total_bytes)

    @property
    def new_ref_pct(self) -> float:
        """Heap references to predicted objects, % of all heap references.

        The New Ref column of Table 6 — the fraction of heap references the
        segregated arenas would localize.
        """
        return _pct(self.predicted_heap_refs, self.total_heap_refs)

    @property
    def coverage_of_actual(self) -> float:
        """Correctly predicted bytes as a fraction of the oracle's bytes."""
        if self.actual_short_bytes == 0:
            return 0.0
        return self.predicted_short_bytes / self.actual_short_bytes


def evaluate(
    predictor: LifetimePredictor,
    trace: "EventSource",
    count_matched_sites: bool = True,
) -> PredictionEvaluation:
    """Score ``predictor`` on ``trace``.

    ``total_sites`` reports the number of distinct sites in the test trace
    at the predictor's own abstraction level (for a size-only predictor,
    the number of distinct sizes).  When ``count_matched_sites`` is true
    and the predictor is site-based, the Sites Used column counts only the
    database entries that matched some test allocation, matching how the
    paper reports true prediction.

    This is :func:`pair_table` at the predictor's threshold followed by
    :func:`evaluate_table`, so a streamed trace evaluates to exactly the
    numbers the materialized one does, in one event pass.
    """
    return evaluate_table(
        predictor, pair_table(trace, predictor.threshold),
        count_matched_sites,
    )


def evaluate_table(
    predictor: LifetimePredictor,
    table: "PairTable",
    count_matched_sites: bool = True,
) -> PredictionEvaluation:
    """Score ``predictor`` on one execution's :func:`pair_table`.

    The table must be at the predictor's threshold.  Every object of a
    pair has the same keys and verdict, so each row is scored once and
    its sums are weighted by the pair's size: the result equals scoring
    the objects one by one, in any order.
    """
    from repro.obs.spans import TRACER  # lazy: see pair_table

    if table.threshold != predictor.threshold:
        raise ValueError(
            f"a table at threshold {table.threshold} cannot score a "
            f"predictor at threshold {predictor.threshold}"
        )
    chain_of = table.chains.chain
    test_keys: Set = set()
    matched_keys: Set = set()
    total = actual = predicted = error = objects = refs = 0
    with TRACER.span("predict.evaluate", cat="core",
                     program=table.program, dataset=table.dataset):
        for (chain_id, size), row in table.rows.items():
            chain = chain_of(chain_id)
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
                    (size,) if predictor.predicts_short_lived(chain, size)
                    else ()
                )
            test_keys.add(key)
            count, short, touches = row[:3]
            total += size * count
            actual += size * short
            if matched:
                matched_keys.update(matched)
                objects += count
                refs += touches
                predicted += size * short
                error += size * (count - short)
    return PredictionEvaluation(
        program=table.program,
        dataset=table.dataset,
        threshold=predictor.threshold,
        total_sites=len(test_keys),
        sites_used=(
            len(matched_keys) if count_matched_sites
            else predictor.site_count
        ),
        total_bytes=total,
        actual_short_bytes=actual,
        predicted_short_bytes=predicted,
        error_bytes=error,
        predicted_objects=objects,
        total_heap_refs=table.heap_refs,
        predicted_heap_refs=refs,
    )


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator
