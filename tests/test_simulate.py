"""Tests for trace-driven allocator simulation."""

from __future__ import annotations

import pytest

from repro.alloc.arena import ArenaAllocator
from repro.alloc.bsd import BsdAllocator
from repro.alloc.firstfit import FirstFitAllocator
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis.simulate import replay, simulate_spec
from repro.core.predictor import evaluate, train_site_predictor
from tests.conftest import make_churn_trace


@pytest.fixture
def trace():
    return make_churn_trace(objects=300)


class TestReplay:
    def test_final_live_matches_trace(self, trace):
        for allocator in (FirstFitAllocator(), BsdAllocator()):
            replay(trace, allocator, check_invariants=True)
            unfreed = sum(
                trace.size_of(i) for i in range(trace.total_objects)
                if not trace.freed(i)
            )
            assert allocator.live_bytes == unfreed

    def test_alloc_free_counts(self, trace):
        allocator = FirstFitAllocator()
        replay(trace, allocator)
        frees = sum(1 for i in range(trace.total_objects) if trace.freed(i))
        assert allocator.ops.allocs == trace.total_objects
        assert allocator.ops.frees == frees

    def test_arena_replay_with_invariants(self, trace):
        predictor = train_site_predictor(trace, threshold=4096)
        allocator = ArenaAllocator(predictor)
        replay(trace, allocator, check_invariants=True)
        assert allocator.ops.allocs == trace.total_objects

    def test_workload_replay(self, gawk_tiny):
        allocator = FirstFitAllocator()
        replay(gawk_tiny, allocator, check_invariants=True)
        assert allocator.max_heap_size > 0


class TestSimulationResults:
    def test_firstfit_result(self, trace):
        result = simulate_spec(trace, FIRSTFIT_SPEC)
        assert result.allocator == "first-fit"
        assert result.program == trace.program
        assert result.max_heap_size > 0
        assert result.total_allocs == trace.total_objects
        assert result.total_bytes == trace.total_bytes
        assert result.cost.per_alloc > 0

    def test_bsd_result(self, trace):
        result = simulate_spec(trace, BSD_SPEC)
        assert result.cost.per_free == pytest.approx(17, abs=1)

    def test_arena_capture_matches_prediction(self, trace):
        predictor = train_site_predictor(trace, threshold=4096)
        expected = evaluate(predictor, trace)
        result = simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor)
        # Everything predicted short-lived fits the 4 KB arenas here, so
        # capture equals prediction (bytes may differ via arena overflow
        # in general, but not for this small trace).
        predicted_bytes = expected.predicted_short_bytes + expected.error_bytes
        assert result.arena_bytes == predicted_bytes

    def test_arena_strategy_changes_cost_not_placement(self, trace):
        predictor = train_site_predictor(trace, threshold=4096)
        len4 = simulate_spec(trace, AllocatorSpec(strategy="len4"), predictor)
        cce = simulate_spec(trace, AllocatorSpec(strategy="cce"), predictor)
        assert len4.arena_bytes == cce.arena_bytes
        assert len4.max_heap_size == cce.max_heap_size
        assert len4.cost.per_alloc != cce.cost.per_alloc

    def test_arena_includes_area_in_heap(self, trace):
        predictor = train_site_predictor(trace, threshold=4096)
        result = simulate_spec(
            trace, AllocatorSpec(num_arenas=16, arena_size=4096), predictor
        )
        assert result.max_heap_size >= 16 * 4096
        assert result.arena_area_size == 16 * 4096

    def test_percent_properties(self, trace):
        predictor = train_site_predictor(trace, threshold=4096)
        result = simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor)
        assert 0 <= result.arena_alloc_pct <= 100
        assert 0 <= result.arena_byte_pct <= 100

    def test_no_predictor_means_no_arena_traffic(self, trace):
        result = simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor=None)
        assert result.arena_allocs == 0
        assert result.general_bytes == trace.total_bytes
