"""Unit tests for the oracle simulation and trace-inspection reports."""

from __future__ import annotations

import pytest

from repro.analysis.inspect import lifetime_report, sites_report
from repro.analysis.oracle import simulate_arena_oracle
from repro.alloc.spec import PAPER_DEFAULT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.core.predictor import train_site_predictor
from repro.runtime.heap import TracedHeap
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
)
from tests.conftest import make_churn_trace


class TestOracle:
    def test_oracle_is_a_ceiling(self, churn_trace):
        predicted = simulate_spec(
            churn_trace, PAPER_DEFAULT_SPEC,
            train_site_predictor(churn_trace, threshold=4096),
        )
        oracle = simulate_arena_oracle(churn_trace, threshold=4096)
        assert oracle.arena_bytes >= predicted.arena_bytes

    def test_oracle_places_all_short_lived(self, churn_trace):
        oracle = simulate_arena_oracle(churn_trace, threshold=4096)
        # Everything short-lived fits the arenas in this small trace, so
        # the oracle captures every short-lived object exactly.
        short_objects = sum(
            1 for i in range(churn_trace.total_objects)
            if churn_trace.lifetime_of(i) < 4096
        )
        assert oracle.arena_allocs == short_objects

    def test_oracle_rejects_long_lived(self, churn_trace):
        oracle = simulate_arena_oracle(churn_trace, threshold=4096)
        # The keeper object is long-lived: it must be in the general heap.
        assert oracle.general_bytes >= 2048

    def test_oracle_respects_arena_machinery(self, churn_trace):
        # With one tiny arena, even the oracle overflows.
        oracle = simulate_arena_oracle(
            churn_trace, threshold=4096, num_arenas=1, arena_size=64
        )
        assert oracle.ops.arena_overflows > 0

    def test_result_metadata(self, churn_trace):
        oracle = simulate_arena_oracle(churn_trace)
        assert oracle.allocator == "arena (oracle)"
        assert oracle.program == churn_trace.program
        assert oracle.cost.per_alloc > 0


class TestInspectReports:
    def test_lifetime_report_fields(self, churn_trace):
        text = lifetime_report(churn_trace, threshold=4096)
        assert "synthetic/synthetic" in text
        assert "byte-weighted" in text
        assert "short-lived at 4096 bytes" in text

    def test_lifetime_report_empty_trace(self):
        trace = TracedHeap("empty").finish()
        assert "empty trace" in lifetime_report(trace)

    def test_sites_report_lists_top_sites(self, churn_trace):
        text = sites_report(churn_trace, top=3, threshold=4096)
        assert "top 3 by volume" in text
        assert "keeper" in text or "helper" in text
        assert "uniformly short-lived" in text

    def test_sites_report_verdicts(self, churn_trace):
        text = sites_report(churn_trace, top=20, threshold=4096)
        assert "short-lived" in text
        assert "mixed/long" in text  # the keeper site

    def test_sites_report_handles_small_top(self, churn_trace):
        text = sites_report(churn_trace, top=1, threshold=4096)
        assert len([l for l in text.splitlines() if "B)" in l]) == 1


class TestTouchEventRoundTrip:
    def test_full_events_preserved_through_file(self, tmp_path):
        from repro.runtime.tracefile import load_trace, save_trace

        heap = TracedHeap("touchy", record_touches=True)
        with heap.frame("work"):
            obj = heap.malloc(64)
            heap.touch(obj, 3)
            heap.touch(obj, 2)
            heap.free(obj)
        trace = heap.finish()
        assert trace.has_touch_events
        path = tmp_path / "touchy.rtr3"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert list(loaded.events()) == list(trace.events())
        assert loaded.has_touch_events

    def test_events_skips_touches(self):
        heap = TracedHeap("touchy", record_touches=True)
        obj = heap.malloc(8)
        heap.touch(obj, 5)
        heap.free(obj)
        trace = heap.finish()
        events = list(trace.events())
        assert [ev[:2] for ev in events if ev[0] != EV_TOUCH] == [
            (EV_ALLOC, 0), (EV_FREE, 0),
        ]
        assert events == [
            (EV_ALLOC, 0, 0, 8, 0), (EV_TOUCH, 0, 5), (EV_FREE, 0, 8, 5),
        ]

    def test_no_touch_events_by_default(self, churn_trace):
        assert not churn_trace.has_touch_events
        kinds = {ev[0] for ev in churn_trace.events()}
        assert EV_TOUCH not in kinds

    def test_live_stats_unaffected_by_touches(self):
        with_touches = TracedHeap("a", record_touches=True)
        without = TracedHeap("b", record_touches=False)
        for heap in (with_touches, without):
            obj = heap.malloc(100)
            heap.touch(obj, 7)
            heap.free(obj)
        stats_a = with_touches.finish().live_stats()
        stats_b = without.finish().live_stats()
        assert stats_a == stats_b
