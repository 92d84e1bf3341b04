"""The benchmark suite: timed, telemetry-instrumented allocator replays.

One benchmark per (program, allocator) pair over the evaluation dataset:
the trace is resolved once through the shared
:class:`~repro.analysis.TraceStore` (so cache state never leaks into the
timed region), then replayed ``repeats`` times with a fresh
:class:`~repro.obs.telemetry.Telemetry` recorder each time.  The minimum
wall time across repeats is the recorded timing — the standard defence
against scheduler noise — and the deterministic metrics (instruction
costs, capture rate, heap size, mispredictions) come from the final
replay, which is bit-identical to every other replay of the same trace.

The telemetry probe is attached on *every* repeat so timings are
internally consistent (its ~5% overhead is part of the measured quantity,
identically in every session).  Each benchmark runs under a
``bench.<name>`` span when tracing is enabled, so a session exports a
Perfetto-readable picture of exactly what it measured.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis.simulate import SimulationResult, simulate_spec
from repro.bench.provenance import collect_provenance
from repro.bench.record import BenchRecord, BenchSession
from repro.obs.metrics import Metrics, peak_rss_kb
from repro.obs.spans import TRACER
from repro.obs.telemetry import MISPREDICTION_KINDS, Telemetry

__all__ = ["BENCH_ALLOCATORS", "BENCH_SPECS", "DEFAULT_REPEATS",
           "run_suite", "run_session"]

#: The allocators the suite replays, in record order.
BENCH_ALLOCATORS = ("arena", "firstfit", "bsd")

#: Suite name -> the :class:`AllocatorSpec` it replays.
BENCH_SPECS: Dict[str, AllocatorSpec] = {
    "arena": PAPER_DEFAULT_SPEC,
    "firstfit": FIRSTFIT_SPEC,
    "bsd": BSD_SPEC,
}

#: Default min-of-k repeat count.
DEFAULT_REPEATS = 3

#: Evaluation dataset for every benchmark (the paper's "largest input").
_DATASET = "test"


def _resolve_predictor(store, program: str, spec: AllocatorSpec):
    """The spec's predictor through the store's resolution surface.

    A real :class:`TraceStore` resolves by spec
    (:meth:`~repro.analysis.experiments.TraceStore.predictor_for`); the
    minimal fakes in tests only expose ``predictor(program)``, which is
    exactly the default-spec answer.
    """
    if spec.predictor == "none":
        return None
    resolver = getattr(store, "predictor_for", None)
    if resolver is not None:
        return resolver(program, spec)
    return store.predictor(program)


def _replay_once(
    store, program: str, allocator: str, telemetry: Telemetry
) -> SimulationResult:
    trace = store.trace(program, _DATASET)
    spec = BENCH_SPECS.get(allocator)
    if spec is None:
        raise ValueError(f"unknown allocator {allocator!r}")
    return simulate_spec(
        trace, spec, _resolve_predictor(store, program, spec),
        telemetry=telemetry,
    )


def run_suite(
    store,
    programs: Optional[Sequence[str]] = None,
    allocators: Sequence[str] = BENCH_ALLOCATORS,
    repeats: int = DEFAULT_REPEATS,
    clock: Callable[[], float] = time.perf_counter,
) -> List[BenchRecord]:
    """Run every benchmark and return one record per (program, allocator).

    ``store`` needs the :class:`~repro.analysis.TraceStore` surface
    (``programs``, ``trace``, ``predictor``) — tests substitute a fake
    over synthetic traces.  Traces and predictors are resolved *before*
    the timed region so a cold cache can never masquerade as an allocator
    regression.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    programs = list(programs) if programs is not None else list(store.programs)
    records: List[BenchRecord] = []
    for program in programs:
        # Resolve the trace and predictor outside the timed replays.
        store.trace(program, _DATASET)
        if "arena" in allocators:
            _resolve_predictor(store, program, BENCH_SPECS["arena"])
        for allocator in allocators:
            name = f"replay/{program}/{allocator}"
            with TRACER.span(f"bench.{name}", cat="bench",
                             repeats=repeats):
                walls: List[float] = []
                result: Optional[SimulationResult] = None
                telemetry: Optional[Telemetry] = None
                for _ in range(repeats):
                    # A private Metrics sink keeps the per-repeat
                    # telemetry totals out of the process-wide registry.
                    telemetry = Telemetry(metrics=Metrics())
                    start = clock()
                    result = _replay_once(store, program, allocator,
                                          telemetry)
                    walls.append(clock() - start)
            totals = telemetry.totals()
            records.append(
                BenchRecord(
                    name=name,
                    program=program,
                    dataset=_DATASET,
                    allocator=allocator,
                    repeats=repeats,
                    wall_seconds=min(walls),
                    wall_seconds_mean=sum(walls) / len(walls),
                    allocs=result.ops.allocs,
                    frees=result.ops.frees,
                    instr_per_alloc=result.cost.per_alloc,
                    instr_per_free=result.cost.per_free,
                    max_heap_size=result.max_heap_size,
                    final_live_bytes=result.final_live_bytes,
                    arena_alloc_pct=result.arena_alloc_pct,
                    arena_byte_pct=result.arena_byte_pct,
                    mispredictions={
                        kind: totals[kind] for kind in MISPREDICTION_KINDS
                    },
                    peak_rss_kb=peak_rss_kb(),
                )
            )
    return records


def run_session(
    store,
    seq: int,
    programs: Optional[Sequence[str]] = None,
    allocators: Sequence[str] = BENCH_ALLOCATORS,
    repeats: int = DEFAULT_REPEATS,
    extra_provenance: Optional[Dict] = None,
) -> BenchSession:
    """Run the suite and wrap it as a provenance-stamped session."""
    with TRACER.span("bench.session", cat="bench", seq=seq):
        records = run_suite(
            store, programs=programs, allocators=allocators, repeats=repeats
        )
    return BenchSession(
        seq=seq,
        provenance=collect_provenance(
            scale=getattr(store, "scale", 1.0), extra=extra_provenance
        ),
        records=records,
    )
