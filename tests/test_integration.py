"""Cross-module integration tests.

Exercise the full paper pipeline — workload -> trace -> profile ->
predictor -> trace-driven simulation — over every workload's tiny
dataset, with allocator invariant auditing switched on.
"""

from __future__ import annotations

import pytest

from repro.alloc.arena import ArenaAllocator
from repro.alloc.bsd import BsdAllocator
from repro.alloc.firstfit import FirstFitAllocator
from repro.alloc.spec import PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.analysis.simulate import replay, simulate_spec
from repro.core.cce import train_cce_predictor
from repro.core.predictor import evaluate, train_site_predictor
from repro.core.profile import build_profile
from repro.core.sites import FULL_CHAIN
from repro.runtime.stream.protocol import EV_ALLOC, EV_FREE


class TestTraceIntegrity:
    def test_event_pairing(self, any_tiny_trace):
        trace = any_tiny_trace
        live = set()
        for ev in trace.events():
            if ev[0] == EV_ALLOC:
                assert ev[1] not in live
                live.add(ev[1])
            elif ev[0] == EV_FREE:
                assert ev[1] in live
                live.remove(ev[1])
        survivors = {
            i for i in range(trace.total_objects) if not trace.freed(i)
        }
        assert live == survivors

    def test_births_monotone(self, any_tiny_trace):
        trace = any_tiny_trace
        clock = 0
        for ev in trace.events():
            if ev[0] == EV_ALLOC:
                _, _, _, size, birth = ev
                assert birth == clock
                clock += size
        assert clock == trace.total_bytes

    def test_lifetimes_positive(self, any_tiny_trace):
        trace = any_tiny_trace
        for obj_id in range(trace.total_objects):
            assert trace.lifetime_of(obj_id) >= trace.size_of(obj_id)

    def test_chains_rooted_at_main(self, any_tiny_trace):
        trace = any_tiny_trace
        for chain in trace.chains:
            assert chain[0] == "main"
            assert len(chain) >= 2  # at least one real frame

    def test_touch_totals_match(self, any_tiny_trace):
        trace = any_tiny_trace
        assert sum(
            trace.touches_of(i) for i in range(trace.total_objects)
        ) <= trace.heap_refs


class TestFullPipeline:
    def test_profile_train_simulate(self, any_tiny_trace):
        trace = any_tiny_trace
        profile = build_profile(trace, chain_length=FULL_CHAIN,
                                size_rounding=4)
        assert profile.total_objects == trace.total_objects

        predictor = train_site_predictor(trace, threshold=8192)
        result = evaluate(predictor, trace)
        assert result.error_pct == 0.0

        sim = simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor)
        assert sim.total_allocs == trace.total_objects
        # Arena capture cannot exceed what the predictor selects.
        assert sim.ops.arena_allocs <= result.predicted_objects

    def test_all_allocators_agree_on_live_bytes(self, any_tiny_trace):
        trace = any_tiny_trace
        survivors = sum(
            trace.size_of(i) for i in range(trace.total_objects)
            if not trace.freed(i)
        )
        predictor = train_site_predictor(trace, threshold=8192)
        allocators = [
            FirstFitAllocator(),
            BsdAllocator(),
            ArenaAllocator(predictor),
        ]
        for allocator in allocators:
            replay(trace, allocator, check_invariants=True)
            assert allocator.live_bytes == survivors

    def test_cce_predictor_end_to_end(self, any_tiny_trace):
        trace = any_tiny_trace
        predictor = train_cce_predictor(trace, threshold=8192)
        result = evaluate(predictor, trace)
        assert 0 <= result.predicted_pct <= 100
        sim = simulate_spec(trace, AllocatorSpec(strategy="cce"), predictor)
        assert sim.cost.per_alloc > 0


class TestCrossWorkloadShape:
    def test_every_workload_allocates_through_layers(self, any_tiny_trace):
        # Length-1 chains must be much less informative than full chains:
        # the paper's layered-design observation.
        trace = any_tiny_trace
        full = build_profile(trace, chain_length=FULL_CHAIN, size_rounding=4)
        flat = build_profile(trace, chain_length=1, size_rounding=4)
        assert len(flat) <= len(full)

    def test_deterministic_traces(self):
        from repro.workloads.registry import run_workload

        first = run_workload("gawk", "tiny")
        second = run_workload("gawk", "tiny")
        assert first.total_objects == second.total_objects
        assert first.total_bytes == second.total_bytes
        assert list(first.events()) == list(second.events())
