"""Experiment orchestration: cached traces and trained predictors.

Running a workload is the expensive step of every experiment, and most
tables need the same executions, so a :class:`TraceStore` runs each
(program, dataset) once per scale and caches the trace and any predictors
trained from it.  The benchmarks, CLI, and examples all share one store
per process.

Two layers back the store:

* an in-process dictionary (as before), and
* the persistent :class:`~repro.analysis.trace_cache.TraceCache`, enabled
  by default, so *other* processes — pytest workers, benchmark sessions,
  repeated CLI invocations — load a v3 trace file in milliseconds instead
  of re-running the workload.  Disable with ``use_cache=False`` or the
  ``REPRO_NO_CACHE`` environment variable.

:meth:`TraceStore.warm` fans the 5 programs × 2 datasets out across
worker processes (``jobs > 1``); workers publish traces through the disk
cache.  It is the store's only process pool: every replay and fold runs
serially in the calling process (DESIGN.md §11).

Following the paper's methodology note — "the performance results
presented apply to the largest of the input sets in all cases" — every
table evaluates on the ``test`` dataset; *self* prediction trains on that
same execution, *true* prediction trains on ``train``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.alloc.arena import DEFAULT_NUM_ARENAS
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.obs.attrib import (
    AttributionProfile,
    attribute_table,
    profile_for_spec,
)
from repro.obs.metrics import METRICS, Metrics
from repro.obs.spans import TRACER
from repro.analysis.simulate import (
    ReplayCounts,
    SimulationResult,
    arena_counts,
    arena_walk,
    bsd_walk,
    counts_for,
    general_replay,
    price,
    replay_spec,
    verdict_bytes,
)
from repro.analysis.trace_cache import TraceCache, cache_disabled_by_env
from repro.core.cce import CCEPredictor
from repro.core.multiclass import MultiClassPredictor
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    TRUE_PREDICTION_ROUNDING,
    LifetimePredictor,
    PredictionEvaluation,
    SitePredictor,
    evaluate_table,
    pair_table,
)
from repro.core.sites import FULL_CHAIN
from repro.runtime.events import EventSource, Trace
from repro.runtime.folds import PairTable
from repro.workloads.registry import PROGRAM_ORDER, run_workload

__all__ = ["TraceStore", "WarmResult", "EVAL_DATASET", "TRAIN_DATASET"]

#: The dataset every table evaluates on (the paper's "largest input").
EVAL_DATASET = "test"
#: The dataset true prediction trains on.
TRAIN_DATASET = "train"


@dataclass(frozen=True)
class WarmResult:
    """Outcome of warming one (program, dataset) execution.

    ``source`` is ``"memory"`` (already in this store), ``"disk"`` (loaded
    from the persistent cache), or ``"run"`` (the workload executed).
    """

    program: str
    dataset: str
    source: str
    seconds: float


def _warm_worker(
    program: str,
    dataset: str,
    scale: float,
    cache_dir: str,
    trace_spans: bool = False,
) -> Tuple[WarmResult, dict, List[Dict[str, Any]]]:
    """Child-process body of a parallel warm: trace via the disk cache.

    Returns the warm outcome, a :meth:`Metrics.to_dict` snapshot of
    everything the worker counted (cache hits, misses and stores) and,
    with ``trace_spans``, a :meth:`SpanTracer.state` snapshot of the
    spans serial :meth:`TraceStore.warm` would record for the same
    execution.  Process-pool workers get their own ``METRICS`` registry
    and tracer; the parent merges and absorbs the snapshots, or the
    worker's counts and spans would silently vanish from the session
    report.
    """
    mark = 0
    if trace_spans:
        TRACER.enable()
        mark = len(TRACER.spans)
    metrics = Metrics()
    cache = TraceCache(cache_dir, metrics=metrics)
    start = time.perf_counter()
    source = "disk"
    if cache.load(program, dataset, scale) is None:
        source = "run"
        with TRACER.span("workload.run", cat="workload", program=program,
                         dataset=dataset, scale=scale):
            trace = run_workload(program, dataset, scale=scale)
        cache.store(trace, scale)
    result = WarmResult(program, dataset, source, time.perf_counter() - start)
    spans = TRACER.state(mark) if trace_spans else []
    return result, metrics.to_dict(), spans


class TraceStore:
    """Caches workload traces and trained predictors for one scale.

    ``cache`` injects a ready :class:`TraceCache`; otherwise one is built
    over ``cache_dir`` (default ``$REPRO_CACHE_DIR`` or
    ``~/.cache/repro-alloc``) unless ``use_cache=False`` or
    ``REPRO_NO_CACHE`` is set.  Hit/miss/store counts go to
    ``metrics`` (the process-wide default when omitted).

    With ``streaming=True`` the store hands consumers
    :class:`~repro.runtime.stream.v3.TraceFileSource` streams that replay
    the cached v3 files slice by slice (see :meth:`source`) instead of
    retaining materialized traces, keeping the whole pipeline's footprint
    at O(live objects + one slice) per execution.  :meth:`trace` still
    materializes on demand for the few consumers that need random access
    (e.g. the oracle simulation).

    The store also computes each distinct derived result once (DESIGN.md
    §17): one replay or walk per allocator placement, shared by the
    arena counts it never outgrew, and one first-fit replay per set of
    objects the arena walks leave to the general heap (:meth:`simulate`);
    one pair table per execution and threshold (:meth:`pair_table`) that
    every predictor selects from and every evaluation and attribution
    prices; and one attribution per distinct prediction
    (:meth:`attribution`).
    These memos hold results only — counters, verdict bytes, pair
    tables, profiles — and live exactly as long as the store.
    """

    def __init__(
        self,
        scale: float = 1.0,
        *,
        cache: Optional[TraceCache] = None,
        cache_dir: Union[str, None] = None,
        use_cache: bool = True,
        metrics: Optional[Metrics] = None,
        streaming: bool = False,
        predictor_mode: str = "trained",
    ):
        if predictor_mode not in ("trained", "static"):
            raise ValueError(
                f"predictor_mode must be 'trained' or 'static', "
                f"got {predictor_mode!r}"
            )
        self.scale = scale
        self.streaming = streaming
        self.predictor_mode = predictor_mode
        self._metrics = metrics if metrics is not None else METRICS
        if cache is not None:
            self._cache: Optional[TraceCache] = cache
        elif use_cache and not cache_disabled_by_env():
            self._cache = TraceCache(cache_dir, metrics=self._metrics)
        else:
            self._cache = None
        self._traces: Dict[Tuple[str, str], Trace] = {}
        self._site_predictors: Dict[tuple, SitePredictor] = {}
        self._cce_predictors: Dict[tuple, CCEPredictor] = {}
        self._static_predictors: Dict[tuple, "StaticEscapePredictor"] = {}
        self._multiclass_predictors: Dict[tuple, MultiClassPredictor] = {}
        # Derived-result memos (DESIGN.md §17): results only, never an
        # allocator or a source.
        self._pair_tables: Dict[Tuple[str, str], Dict[int, PairTable]] = {}
        self._replays: Dict[tuple, List[ReplayCounts]] = {}
        self._verdicts: Dict[tuple, bytes] = {}
        self._general_heaps: Dict[tuple, ReplayCounts] = {}
        self._attributions: Dict[tuple, AttributionProfile] = {}

    @property
    def programs(self) -> list:
        """The five programs in the paper's table order."""
        return list(PROGRAM_ORDER)

    @property
    def cache(self) -> Optional[TraceCache]:
        """The persistent trace cache, or ``None`` when disabled."""
        return self._cache

    def trace(self, program: str, dataset: str = EVAL_DATASET) -> Trace:
        """The (cached) trace of one workload execution.

        Resolution order: this store's memory, the persistent disk cache,
        then a fresh workload run (which also populates the disk cache).
        """
        key = (program, dataset)
        if key not in self._traces:
            trace = None
            if self._cache is not None:
                trace = self._cache.load(program, dataset, self.scale)
            if trace is None:
                with TRACER.span("workload.run", cat="workload",
                                 program=program, dataset=dataset,
                                 scale=self.scale):
                    trace = run_workload(program, dataset, scale=self.scale)
                if self._cache is not None:
                    self._cache.store(trace, self.scale)
            self._traces[key] = trace
        return self._traces[key]

    def source(self, program: str, dataset: str = EVAL_DATASET) -> EventSource:
        """The event source of one workload execution.

        In the default (materialized) mode this is :meth:`trace`, a
        :class:`Trace` being the in-memory event source.  In streaming
        mode the resolution order mirrors :meth:`trace` but never
        materializes: a trace already in this store's memory is returned;
        otherwise the disk cache's v3 entry is opened as a chunked file
        stream; on a miss the workload runs once, publishes its trace to
        the cache, and the *file* is streamed back rather than the run's
        trace being retained.  Only with the cache disabled does
        streaming mode fall back to the in-memory run (without retaining
        it).
        """
        key = (program, dataset)
        if not self.streaming or key in self._traces:
            return self.trace(program, dataset)
        if self._cache is not None:
            source = self._cache.open_stream(program, dataset, self.scale)
            if source is not None:
                return source
        with TRACER.span("workload.run", cat="workload", program=program,
                         dataset=dataset, scale=self.scale):
            trace = run_workload(program, dataset, scale=self.scale)
        if self._cache is not None:
            self._cache.store(trace, self.scale)
            source = self._cache.open_stream(program, dataset, self.scale)
            if source is not None:
                return source
        return trace

    def predictor(
        self,
        program: str,
        train_dataset: str = TRAIN_DATASET,
        threshold: int = DEFAULT_THRESHOLD,
        chain_length: Optional[int] = FULL_CHAIN,
        size_rounding: int = TRUE_PREDICTION_ROUNDING,
    ) -> SitePredictor:
        """A (cached) site predictor trained on one execution.

        With ``predictor_mode="static"`` the profiling run is skipped
        entirely and the escape analysis's predictor is returned instead
        (``train_dataset``, ``chain_length`` and ``size_rounding`` do not
        apply — the static DB fixes its own key space).
        """
        if self.predictor_mode == "static":
            return self.static_predictor(program, threshold=threshold)
        key = (program, train_dataset, threshold, chain_length, size_rounding)
        if key not in self._site_predictors:
            table = self._training_table(program, train_dataset, threshold)
            with TRACER.span("predictor.train", cat="core",
                             program=program, dataset=train_dataset):
                self._site_predictors[key] = SitePredictor.from_table(
                    table, threshold, chain_length, size_rounding,
                    program=program,
                )
        return self._site_predictors[key]

    def pair_table(
        self,
        program: str,
        dataset: str = EVAL_DATASET,
        threshold: int = DEFAULT_THRESHOLD,
    ) -> PairTable:
        """One execution's :class:`~repro.runtime.folds.PairTable` at
        ``threshold``, folded once."""
        tables = self._pair_tables.setdefault((program, dataset), {})
        if threshold not in tables:
            tables[threshold] = pair_table(
                self.source(program, dataset), threshold
            )
        return tables[threshold]

    def _training_table(
        self, program: str, dataset: str, threshold: int
    ) -> PairTable:
        """A pair table to select predictors from: any stored table of
        the execution, since selection reads only the max lifetimes,
        which no threshold changes; else a new one at ``threshold``."""
        tables = self._pair_tables.get((program, dataset))
        if tables:
            return next(iter(tables.values()))
        return self.pair_table(program, dataset, threshold)

    def evaluate(
        self,
        program: str,
        predictor: LifetimePredictor,
        dataset: str = EVAL_DATASET,
    ) -> PredictionEvaluation:
        """``predictor`` scored on one execution's stored pair table at
        its threshold; equal to :func:`~repro.core.predictor.evaluate`."""
        return evaluate_table(
            predictor, self.pair_table(program, dataset, predictor.threshold)
        )

    def cce_predictor(
        self,
        program: str,
        train_dataset: str = TRAIN_DATASET,
        threshold: int = DEFAULT_THRESHOLD,
        size_rounding: int = TRUE_PREDICTION_ROUNDING,
    ) -> CCEPredictor:
        """A (cached) call-chain-encryption predictor, selected from the
        execution's stored pair table."""
        key = (program, train_dataset, threshold, size_rounding)
        if key not in self._cce_predictors:
            table = self._training_table(program, train_dataset, threshold)
            self._cce_predictors[key] = CCEPredictor.from_table(
                table, threshold, size_rounding, program=program,
            )
        return self._cce_predictors[key]

    def static_predictor(
        self, program: str, threshold: int = DEFAULT_THRESHOLD
    ) -> "StaticEscapePredictor":
        """The (cached) profile-free escape-analysis predictor.

        Requires no trace at all — the workload sources are analyzed
        directly, so this is available before any execution is cached.
        """
        key = (program, threshold)
        if key not in self._static_predictors:
            from repro.static.escape import build_escape_db

            with TRACER.span("predictor.static", cat="core",
                             program=program):
                self._static_predictors[key] = build_escape_db(
                    program, threshold=threshold
                ).to_predictor()
        return self._static_predictors[key]

    def self_predictor(self, program: str, **kwargs) -> SitePredictor:
        """A predictor trained on the evaluation execution itself."""
        return self.predictor(program, train_dataset=EVAL_DATASET, **kwargs)

    def predictor_for(self, program: str, spec):
        """Resolve the predictor an :class:`~repro.alloc.AllocatorSpec`
        asks for, ready to pass to
        :func:`~repro.alloc.spec.build_allocator`.

        The spec's ``predictor`` field names the resolution mode
        (``trained``/``self``/``static``/``cce``/``none``) and its
        prediction parameters (``threshold``, ``chain_length``,
        ``size_rounding``, ``class_thresholds``) pick the exact predictor
        — every path lands in this store's caches, so a search over many
        specs trains each distinct predictor once.
        """
        mode = spec.predictor
        if mode == "none" or spec.kind in ("firstfit", "bsd"):
            return None
        train_dataset = EVAL_DATASET if mode == "self" else TRAIN_DATASET
        if spec.kind == "multiarena":
            key = (program, train_dataset, spec.class_thresholds,
                   spec.chain_length, spec.size_rounding)
            if key not in self._multiclass_predictors:
                table = self._training_table(
                    program, train_dataset, spec.class_thresholds[0]
                )
                with TRACER.span("predictor.train", cat="core",
                                 program=program, dataset=train_dataset):
                    self._multiclass_predictors[key] = (
                        MultiClassPredictor.from_table(
                            table, spec.class_thresholds,
                            spec.chain_length, spec.size_rounding,
                            program=program,
                        )
                    )
            return self._multiclass_predictors[key]
        if mode == "static":
            return self.static_predictor(program, threshold=spec.threshold)
        if mode == "cce":
            return self.cce_predictor(
                program, threshold=spec.threshold,
                size_rounding=spec.size_rounding,
            )
        return self.predictor(
            program,
            train_dataset=train_dataset,
            threshold=spec.threshold,
            chain_length=spec.chain_length,
            size_rounding=spec.size_rounding,
        )

    def simulate(
        self,
        program: str,
        spec,
        dataset: str = EVAL_DATASET,
        model: CostModel = DEFAULT_COST_MODEL,
    ) -> SimulationResult:
        """``spec`` replayed on one execution, once per placement.

        Memoized per ``(program, dataset, spec.placement())`` with
        ``num_arenas`` aside, so specs that differ only in the costing
        ``strategy`` share a replay, and an arena spec is answered by
        any stored replay that never outgrew its arena count
        (:func:`~repro.analysis.simulate.counts_for`).  A new placement
        on an in-memory trace is answered by walks where it can
        (:meth:`_replay`).  Every call prices the counters under its own
        strategy and ``model`` with
        :func:`~repro.analysis.simulate.price`, the function
        :func:`~repro.analysis.simulate.simulate_spec` prices with, so
        the result equals a fresh ``simulate_spec`` field for field.
        Telemetry and timed replays call ``simulate_spec`` directly,
        because they must run.
        """
        placement = spec.placement()
        key = (program, dataset,
               replace(placement, num_arenas=DEFAULT_NUM_ARENAS))
        replays = self._replays.setdefault(key, [])
        for stored in replays:
            counts = counts_for(stored, placement)
            if counts is not None:
                break
        else:
            counts = self._replay(program, dataset, spec)
            replays.append(counts)
        return price(counts, spec, model)

    def _replay(self, program: str, dataset: str, spec) -> ReplayCounts:
        """``spec``'s counts when no stored replay of its placement holds
        them (DESIGN.md §17).

        On an in-memory trace, kind ``bsd`` is a counts-only walk
        (:func:`~repro.analysis.simulate.bsd_walk`), and an arena spec
        with a predictor is an arena walk composed with one first-fit
        replay of the objects the walk left to the general heap
        (:func:`~repro.analysis.simulate.arena_counts`).  The verdict
        bytes are kept per (execution, predictor), and the first-fit
        replay per (execution, verdict bytes, overflowed objects), which
        is everything it reads, so geometries and predictors that leave
        first-fit the same objects share it.  Every other spec, and
        every spec on a streamed source, is replayed in full.
        """
        source = self.source(program, dataset)
        predictor = self.predictor_for(program, spec)
        if isinstance(source, Trace):
            if spec.kind == "bsd":
                return bsd_walk(source)
            if spec.kind == "arena" and predictor is not None:
                key = (program, dataset, predictor)
                short = self._verdicts.get(key)
                if short is None:
                    short = self._verdicts[key] = verdict_bytes(
                        source, predictor
                    )
                walk = arena_walk(source, spec, short)
                key = (program, dataset, short, walk.overflowed)
                general = self._general_heaps.get(key)
                if general is None:
                    general = self._general_heaps[key] = general_replay(
                        source, short, walk.overflowed
                    )
                return arena_counts(source, spec, walk, general)
        return replay_spec(source, spec, predictor)

    def attribution(
        self,
        program: str,
        spec,
        dataset: str = EVAL_DATASET,
        model: CostModel = DEFAULT_COST_MODEL,
    ) -> AttributionProfile:
        """The per-site attribution ``spec`` prices on one execution.

        Prices the stored pair table at the spec's threshold with
        :func:`~repro.obs.attrib.attribute_table`, and memoizes on
        everything that reads — the profile, the resolved predictor, the
        threshold and the cost model — so specs that differ only in
        arena geometry or ``strategy`` share one pricing.  Equal to
        :func:`~repro.obs.attrib.attribute_sites` with ``spec``.
        Callers share the returned profile, so treat it as read-only.
        """
        predictor = self.predictor_for(program, spec)
        key = (program, dataset, profile_for_spec(spec), predictor,
               spec.threshold, model)
        profile = self._attributions.get(key)
        if profile is None:
            profile = self._attributions[key] = attribute_table(
                self.pair_table(program, dataset, spec.threshold),
                profile_for_spec(spec), predictor=predictor, model=model,
            )
        return profile

    # ------------------------------------------------------------------
    # Warming
    # ------------------------------------------------------------------

    def warm_pairs(self) -> List[Tuple[str, str]]:
        """Every (program, dataset) execution the tables need."""
        return [
            (program, dataset)
            for program in PROGRAM_ORDER
            for dataset in (TRAIN_DATASET, EVAL_DATASET)
        ]

    def warm(self, jobs: Optional[int] = None) -> List[WarmResult]:
        """Run every program's train and test executions now.

        With ``jobs > 1`` and the disk cache enabled, executions fan out
        across a :class:`~concurrent.futures.ProcessPoolExecutor`; workers
        publish traces through the cache (memory in this process stays
        lazy — the next :meth:`trace` call is a disk hit), and their
        metrics and spans join this process's, each worker's spans on a
        lane of their own.  Without a cache there is nowhere for workers
        to hand traces back, so the warm runs serially in-process — with
        an explicit stderr notice, so ``jobs > 1`` is never a silent
        no-op.  Returns one :class:`WarmResult` per execution.
        """
        pairs = self.warm_pairs()
        results: List[WarmResult] = []
        with TRACER.span("warm", cat="pipeline", scale=self.scale):
            if jobs and jobs > 1 and self._cache is not None:
                # Only a parallel warm loads the process-pool machinery.
                from concurrent.futures import (
                    ProcessPoolExecutor,
                    as_completed,
                )

                self._cache.directory.mkdir(parents=True, exist_ok=True)
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    futures = {
                        pool.submit(
                            _warm_worker,
                            program,
                            dataset,
                            self.scale,
                            str(self._cache.directory),
                            TRACER.enabled,
                        ): index
                        for index, (program, dataset) in enumerate(pairs)
                    }
                    for future in as_completed(futures):
                        result, worker_metrics, spans = future.result()
                        self._metrics.merge(worker_metrics)
                        TRACER.absorb(spans, tid=2 + futures[future] % jobs)
                        self._metrics.incr(f"warm.{result.source}")
                        results.append(result)
                order = {pair: i for i, pair in enumerate(pairs)}
                results.sort(key=lambda r: order[(r.program, r.dataset)])
            else:
                if jobs and jobs > 1:
                    print(
                        "warm: parallel warming needs the persistent trace "
                        "cache to share traces across workers; cache "
                        "disabled, warming serially in-process",
                        file=sys.stderr,
                    )
                for program, dataset in pairs:
                    start = time.perf_counter()
                    if (program, dataset) in self._traces:
                        source = "memory"
                    elif self._cache is not None and self._cache.has(
                        program, dataset, self.scale
                    ):
                        source = "disk"
                    else:
                        source = "run"
                    self.trace(program, dataset)
                    self._metrics.incr(f"warm.{source}")
                    results.append(
                        WarmResult(
                            program,
                            dataset,
                            source,
                            time.perf_counter() - start,
                        )
                    )
        return results
