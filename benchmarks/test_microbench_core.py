"""Micro-benchmarks of the core primitives.

Unlike the table benchmarks (one-shot experiment regenerations), these
time the hot primitives with full pytest-benchmark statistics: the P^2
update, predictor lookup, and the allocator fast paths whose instruction
costs Table 9 models.  They catch performance regressions in the
simulator itself and document the real (Python) cost behind each modelled
operation.
"""

from __future__ import annotations

import random

from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    build_allocator,
)
from repro.analysis.simulate import replay
from repro.core.predictor import train_site_predictor
from repro.core.quantile import P2Histogram
from repro.core.sites import prune_recursive_cycles, site_key
from repro.obs import Metrics, NullTelemetry, Telemetry

from conftest import write_result  # noqa: F401  (shared fixture import path)
from tests.conftest import make_churn_trace


def test_p2_histogram_add(benchmark):
    rng = random.Random(1)
    data = [rng.expovariate(0.001) for _ in range(2000)]

    def run():
        hist = P2Histogram(cells=4)
        for x in data:
            hist.add(x)
        return hist.quantiles()

    quantiles = benchmark(run)
    assert quantiles == sorted(quantiles)


def test_site_key_full_chain(benchmark):
    chain = ("main", "run", "exec_stmt", "eval", "eval_concat",
             "make_str", "node_alloc", "xalloc")

    result = benchmark(lambda: site_key(chain, 37, None, 4))
    assert result[1] == 40


def test_recursion_pruning(benchmark):
    chain = ("main", "walk", "visit", "walk", "visit", "walk", "leaf") * 3

    pruned = benchmark(lambda: prune_recursive_cycles(chain))
    assert len(pruned) == len(set(pruned))


def test_predictor_lookup(benchmark):
    trace = make_churn_trace(objects=400)
    predictor = train_site_predictor(trace, threshold=4096)
    chain = ("main", "work", "helper")

    hit = benchmark(lambda: predictor.predicts_short_lived(chain, 16))
    assert hit


def test_firstfit_malloc_free_cycle(benchmark):
    allocator = build_allocator(FIRSTFIT_SPEC)
    # Warm the heap so the cycle reuses a hole (steady state).
    warm = allocator.malloc(64)
    allocator.free(warm)

    def cycle():
        addr = allocator.malloc(64)
        allocator.free(addr)

    benchmark(cycle)
    allocator.check_invariants()


def test_bsd_malloc_free_cycle(benchmark):
    allocator = build_allocator(BSD_SPEC)
    warm = allocator.malloc(64)
    allocator.free(warm)

    def cycle():
        addr = allocator.malloc(64)
        allocator.free(addr)

    benchmark(cycle)
    allocator.check_invariants()


def test_arena_bump_free_cycle(benchmark):
    trace = make_churn_trace(objects=400)
    allocator = build_allocator(
        PAPER_DEFAULT_SPEC, train_site_predictor(trace, threshold=4096)
    )
    chain = ("main", "work", "helper")

    def cycle():
        addr = allocator.malloc(16, chain)
        allocator.free(addr)

    benchmark(cycle)
    allocator.check_invariants()


# ----------------------------------------------------------------------
# Replay overhead: the telemetry probe must be near-free when disabled.
# Compare these three to bound the instrumentation cost — the acceptance
# bar is <5% between the uninstrumented replay and the probe-attached
# no-op recorder.
# ----------------------------------------------------------------------


def test_replay_uninstrumented(benchmark):
    trace = make_churn_trace(objects=400)
    predictor = train_site_predictor(trace, threshold=4096)

    def run():
        replay(trace, build_allocator(PAPER_DEFAULT_SPEC, predictor))

    benchmark(run)


def test_replay_null_probe(benchmark):
    trace = make_churn_trace(objects=400)
    predictor = train_site_predictor(trace, threshold=4096)

    def run():
        replay(trace, build_allocator(PAPER_DEFAULT_SPEC, predictor),
               telemetry=NullTelemetry())

    benchmark(run)


def test_replay_full_telemetry(benchmark):
    trace = make_churn_trace(objects=400)
    predictor = train_site_predictor(trace, threshold=4096)

    def run():
        telemetry = Telemetry(interval=64, metrics=Metrics())
        replay(trace, build_allocator(PAPER_DEFAULT_SPEC, predictor),
               telemetry=telemetry)
        return telemetry

    telemetry = benchmark(run)
    assert telemetry.samples
