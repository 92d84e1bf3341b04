"""The benchmark suite: telemetry-instrumented allocator replays.

One benchmark per (program, allocator) pair over the evaluation dataset:
the trace and predictor are resolved through the shared
:class:`~repro.analysis.TraceStore`, then the trace is replayed once
with a fresh :class:`~repro.obs.telemetry.Telemetry` recorder.  The
record holds the replay's simulated cost (instruction costs, capture
rate, heap size) and the recorder's misprediction totals, all
deterministic, so a replay of the same trace always writes the same
record.  Each benchmark runs under a ``bench.<name>`` span when tracing
is enabled, which is where its wall time shows.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis.simulate import SimulationResult, simulate_spec
from repro.bench.provenance import collect_provenance
from repro.bench.record import BenchRecord, BenchSession
from repro.obs.metrics import Metrics
from repro.obs.spans import TRACER
from repro.obs.telemetry import MISPREDICTION_KINDS, Telemetry

__all__ = ["BENCH_ALLOCATORS", "BENCH_SPECS", "run_suite", "run_session"]

#: The allocators the suite replays, in record order.
BENCH_ALLOCATORS = ("arena", "firstfit", "bsd")

#: Suite name -> the :class:`AllocatorSpec` it replays.
BENCH_SPECS: Dict[str, AllocatorSpec] = {
    "arena": PAPER_DEFAULT_SPEC,
    "firstfit": FIRSTFIT_SPEC,
    "bsd": BSD_SPEC,
}

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
) -> List[BenchRecord]:
    """Run every benchmark and return one record per (program, allocator).

    ``store`` needs the :class:`~repro.analysis.TraceStore` surface
    (``programs``, ``trace``, ``predictor``) — tests substitute a fake
    over synthetic traces.
    """
    programs = list(programs) if programs is not None else list(store.programs)
    records: List[BenchRecord] = []
    for program in programs:
        for allocator in allocators:
            name = f"replay/{program}/{allocator}"
            with TRACER.span(f"bench.{name}", cat="bench"):
                # A private Metrics sink keeps the replay's telemetry
                # totals out of the process-wide registry.
                telemetry = Telemetry(metrics=Metrics())
                result = _replay_once(store, program, allocator, telemetry)
            totals = telemetry.totals()
            records.append(
                BenchRecord(
                    name=name,
                    program=program,
                    dataset=_DATASET,
                    allocator=allocator,
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
                )
            )
    return records


def run_session(
    store,
    seq: int,
    programs: Optional[Sequence[str]] = None,
    allocators: Sequence[str] = BENCH_ALLOCATORS,
    extra_provenance: Optional[Dict] = None,
) -> BenchSession:
    """Run the suite and wrap it as a provenance-stamped session."""
    with TRACER.span("bench.session", cat="bench", seq=seq):
        records = run_suite(store, programs=programs, allocators=allocators)
    return BenchSession(
        seq=seq,
        provenance=collect_provenance(
            scale=getattr(store, "scale", 1.0), extra=extra_provenance
        ),
        records=records,
    )
