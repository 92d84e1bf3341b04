"""The paper's tables, recomputed over the reproduction's workloads.

One function per data table (Tables 2-9; Table 1 is prose).  Each returns
a list of typed rows in the paper's program order;
:mod:`repro.analysis.report` renders them as text.

Every table evaluates on the ``test`` execution (the paper reports "the
largest of the input sets"); self prediction trains on that same
execution, true prediction on ``train``.  See EXPERIMENTS.md for the
side-by-side against the paper's numbers.

Tables 4-6 ask the store for their evaluations
(:meth:`~repro.analysis.experiments.TraceStore.evaluate`), which score
one stored pair table per execution, and Tables 7-9 for their replays
(:meth:`~repro.analysis.experiments.TraceStore.simulate`), so each
distinct allocator placement replays once however many tables read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.alloc.costs import execution_instructions
from repro.obs.spans import traced
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    SizeOnlyPredictor,
    actual_short_lived_bytes,
)
from repro.core.sites import FULL_CHAIN
from repro.runtime.events import EventSource
from repro.runtime.folds import lifetime_quartiles, lifetime_runs
from repro.runtime.stream.protocol import stream_live_stats
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis.experiments import EVAL_DATASET, TRAIN_DATASET, TraceStore

__all__ = [
    "Table1Row", "table1",
    "Table2Row", "table2",
    "Table3Row", "table3",
    "Table4Row", "table4",
    "Table5Row", "table5",
    "Table6Row", "table6", "TABLE6_LENGTHS",
    "Table7Row", "table7",
    "Table8Row", "table8",
    "Table9Row", "table9",
    "short_lived_fraction",
]


# ----------------------------------------------------------------------
# Table 1: the test programs and their inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One program's description and input provenance (paper Table 1)."""

    program: str
    description: str
    train_input: str
    test_input: str
    input_relation: str


@traced("table.table1", cat="table")
def table1(store: TraceStore) -> List[Table1Row]:
    """Descriptive information about the programs and their datasets."""
    from repro.workloads.registry import get_workload

    rows = []
    for program in store.programs:
        workload = get_workload(program)
        doc = (workload.__doc__ or "").strip().splitlines()[0]
        train = workload.dataset_spec(TRAIN_DATASET)
        test = workload.dataset_spec(EVAL_DATASET)
        rows.append(
            Table1Row(
                program=program,
                description=doc.rstrip("."),
                train_input=train.description,
                test_input=test.description,
                input_relation=test.relation or train.relation,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 2: program allocation behaviour
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table2Row:
    """One program's execution summary (paper Table 2)."""

    program: str
    instructions: int  # modelled, see costs.execution_instructions
    function_calls: int
    total_bytes: int
    total_objects: int
    max_bytes: int
    max_objects: int
    heap_ref_pct: float


@traced("table.table2", cat="table")
def table2(store: TraceStore) -> List[Table2Row]:
    """Execution behaviour of each program on the evaluation input."""
    rows = []
    for program in store.programs:
        source = store.source(program, EVAL_DATASET)
        summary = source.summary
        live = stream_live_stats(source)
        total_refs = summary.heap_refs + summary.non_heap_refs
        rows.append(
            Table2Row(
                program=program,
                instructions=execution_instructions(
                    summary.total_calls, total_refs
                ),
                function_calls=summary.total_calls,
                total_bytes=summary.end_time,
                total_objects=summary.total_objects,
                max_bytes=live.max_live_bytes,
                max_objects=live.max_live_objects,
                heap_ref_pct=(
                    100.0 * summary.heap_refs / total_refs
                    if total_refs else 0.0
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 3: lifetime quantile histograms
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table3Row:
    """Quartiles of one program's object-lifetime distribution.

    ``byte_quantiles`` weight each object by its size — the paper's
    reading, "each column gives the lifetime for which that percentage of
    bytes is alive".  ``p2_quantiles`` are the streaming P^2 approximation
    over objects, mirroring the approximation the paper's tooling used
    (its caption notes the GHOST 75% entry is a P^2 overestimate).
    """

    program: str
    byte_quantiles: Tuple[int, int, int, int, int]
    p2_quantiles: Tuple[float, float, float, float, float]


@traced("table.table3", cat="table")
def table3(store: TraceStore) -> List[Table3Row]:
    """Lifetime quartiles for each program."""
    rows = []
    for program in store.programs:
        byte_qs, p2_qs = lifetime_quartiles(
            lifetime_runs(store.source(program, EVAL_DATASET))
        )
        rows.append(
            Table3Row(
                program=program,
                byte_quantiles=byte_qs,
                p2_quantiles=p2_qs,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 4: self and true prediction effectiveness
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table4Row:
    """Prediction effectiveness for one program (paper Table 4)."""

    program: str
    total_sites: int
    actual_pct: float
    self_sites_used: int
    self_predicted_pct: float
    self_error_pct: float
    true_sites_used: int
    true_predicted_pct: float
    true_error_pct: float


@traced("table.table4", cat="table")
def table4(
    store: TraceStore, threshold: int = DEFAULT_THRESHOLD
) -> List[Table4Row]:
    """Fraction of bytes predicted short-lived, self and true."""
    rows = []
    for program in store.programs:
        self_eval = store.evaluate(
            program, store.self_predictor(program, threshold=threshold)
        )
        true_eval = store.evaluate(
            program, store.predictor(program, threshold=threshold)
        )
        rows.append(
            Table4Row(
                program=program,
                total_sites=self_eval.total_sites,
                actual_pct=self_eval.actual_pct,
                self_sites_used=self_eval.sites_used,
                self_predicted_pct=self_eval.predicted_pct,
                self_error_pct=self_eval.error_pct,
                true_sites_used=true_eval.sites_used,
                true_predicted_pct=true_eval.predicted_pct,
                true_error_pct=true_eval.error_pct,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 5: size-only prediction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table5Row:
    """Size-only prediction for one program (paper Table 5)."""

    program: str
    actual_pct: float
    predicted_pct: float
    sizes_used: int


@traced("table.table5", cat="table")
def table5(
    store: TraceStore, threshold: int = DEFAULT_THRESHOLD
) -> List[Table5Row]:
    """Prediction from object size alone (self prediction)."""
    rows = []
    for program in store.programs:
        predictor = SizeOnlyPredictor.from_table(
            store.pair_table(program, EVAL_DATASET, threshold), threshold,
            program=program,
        )
        result = store.evaluate(program, predictor)
        rows.append(
            Table5Row(
                program=program,
                actual_pct=result.actual_pct,
                predicted_pct=result.predicted_pct,
                sizes_used=result.sites_used,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 6: call-chain length
# ----------------------------------------------------------------------

#: The chain lengths of the paper's Table 6; ``None`` is the full chain.
TABLE6_LENGTHS: List[Optional[int]] = [1, 2, 3, 4, 5, 6, 7, FULL_CHAIN]


@dataclass(frozen=True)
class Table6Row:
    """Predicted % and New Ref % per chain length for one program."""

    program: str
    #: length (None = full chain) -> (predicted %, new-ref %)
    by_length: Dict[Optional[int], Tuple[float, float]]

    def knee(self) -> Optional[int]:
        """The length at which prediction jumps most (paper's parentheses)."""
        best_length = None
        best_jump = 0.0
        previous = 0.0
        for length in [1, 2, 3, 4, 5, 6, 7]:
            predicted = self.by_length[length][0]
            if predicted - previous > best_jump:
                best_jump = predicted - previous
                best_length = length
            previous = predicted
        return best_length


@traced("table.table6", cat="table")
def table6(
    store: TraceStore, threshold: int = DEFAULT_THRESHOLD
) -> List[Table6Row]:
    """Effect of call-chain length on self prediction."""
    rows = []
    for program in store.programs:
        by_length: Dict[Optional[int], Tuple[float, float]] = {}
        for length in TABLE6_LENGTHS:
            predictor = store.self_predictor(
                program, threshold=threshold, chain_length=length
            )
            result = store.evaluate(program, predictor)
            by_length[length] = (result.predicted_pct, result.new_ref_pct)
        rows.append(Table6Row(program=program, by_length=by_length))
    return rows


# ----------------------------------------------------------------------
# Table 7: arena capture under true prediction
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table7Row:
    """Arena vs general-heap allocation fractions (paper Table 7)."""

    program: str
    total_allocs: int
    arena_alloc_pct: float
    total_bytes: int
    arena_byte_pct: float

    @property
    def non_arena_alloc_pct(self) -> float:
        return 100.0 - self.arena_alloc_pct

    @property
    def non_arena_byte_pct(self) -> float:
        return 100.0 - self.arena_byte_pct


@traced("table.table7", cat="table")
def table7(store: TraceStore) -> List[Table7Row]:
    """Arena capture fractions, simulating true prediction."""
    rows = []
    for program in store.programs:
        result = store.simulate(program, PAPER_DEFAULT_SPEC)
        rows.append(
            Table7Row(
                program=program,
                total_allocs=result.total_allocs,
                arena_alloc_pct=result.arena_alloc_pct,
                total_bytes=result.total_bytes,
                arena_byte_pct=result.arena_byte_pct,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 8: maximum heap sizes
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table8Row:
    """Max heap: first-fit vs the arena allocator (paper Table 8)."""

    program: str
    firstfit_heap: int
    self_arena_heap: int
    true_arena_heap: int

    @property
    def self_ratio_pct(self) -> float:
        return 100.0 * self.self_arena_heap / self.firstfit_heap

    @property
    def true_ratio_pct(self) -> float:
        return 100.0 * self.true_arena_heap / self.firstfit_heap


@traced("table.table8", cat="table")
def table8(store: TraceStore) -> List[Table8Row]:
    """Maximum heap sizes under first-fit and arena allocation."""
    self_spec = AllocatorSpec(predictor="self")
    rows = []
    for program in store.programs:
        firstfit, self_arena, true_arena = (
            store.simulate(program, spec).max_heap_size
            for spec in (FIRSTFIT_SPEC, self_spec, PAPER_DEFAULT_SPEC)
        )
        rows.append(
            Table8Row(
                program=program,
                firstfit_heap=firstfit,
                self_arena_heap=self_arena,
                true_arena_heap=true_arena,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Table 9: CPU cost
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Table9Row:
    """Instructions per alloc/free for the four allocators (Table 9)."""

    program: str
    bsd: Tuple[float, float]
    firstfit: Tuple[float, float]
    arena_len4: Tuple[float, float]
    arena_cce: Tuple[float, float]

    @staticmethod
    def pair_total(pair: Tuple[float, float]) -> float:
        """The a+f column."""
        return pair[0] + pair[1]


@traced("table.table9", cat="table")
def table9(store: TraceStore) -> List[Table9Row]:
    """Average instruction costs, true prediction for the arena rows."""
    cce_spec = AllocatorSpec(strategy="cce")
    rows = []
    for program in store.programs:
        # The len-4 and CCE columns price one arena replay two ways.
        bsd, firstfit, len4, cce = (
            store.simulate(program, spec).cost
            for spec in (BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC,
                         cce_spec)
        )
        rows.append(
            Table9Row(
                program=program,
                bsd=(bsd.per_alloc, bsd.per_free),
                firstfit=(firstfit.per_alloc, firstfit.per_free),
                arena_len4=(len4.per_alloc, len4.per_free),
                arena_cce=(cce.per_alloc, cce.per_free),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Headline claim: >90% of bytes are short-lived
# ----------------------------------------------------------------------

def short_lived_fraction(source: EventSource, threshold: int) -> float:
    """Fraction of bytes that die within ``threshold`` (the §4.1 claim)."""
    total_bytes = source.summary.end_time  # == total bytes allocated
    if total_bytes == 0:
        return 0.0
    return actual_short_lived_bytes(source, threshold) / total_bytes
