"""Unit tests for the trace data model."""

from __future__ import annotations

import pytest

from repro.core.sites import ChainTable
from repro.runtime.events import TraceBuilder
from repro.runtime.stream.protocol import EV_ALLOC, EV_FREE, EV_TOUCH


def build_simple_trace():
    """Three objects: two freed, one surviving to program exit."""
    builder = TraceBuilder(program="p", dataset="d")
    a = builder.add_alloc(("main", "f"), size=16, birth=0)
    b = builder.add_alloc(("main", "g"), size=32, birth=16)
    builder.add_free(a, death=48, touches=3)
    c = builder.add_alloc(("main", "f"), size=8, birth=48)
    builder.add_free(b, death=56, touches=1)
    builder.total_calls = 7
    builder.heap_refs = 4
    builder.non_heap_refs = 12
    return builder.build(), (a, b, c)


class TestTraceBuilder:
    def test_ids_dense_from_zero(self):
        trace, (a, b, c) = build_simple_trace()
        assert (a, b, c) == (0, 1, 2)
        assert trace.total_objects == 3

    def test_double_free_rejected(self):
        builder = TraceBuilder(program="p", dataset="d")
        obj = builder.add_alloc(("m",), size=8, birth=0)
        builder.add_free(obj, death=8, touches=0)
        with pytest.raises(ValueError):
            builder.add_free(obj, death=8, touches=0)

    @pytest.mark.parametrize("case, target, message", [
        ("never-allocated", 5, "free of object 5, which is not live"),
        ("negative", -1, "free of object -1, which is not live"),
        ("after-free", 0, "object 0 freed twice"),
    ])
    def test_free_of_an_object_that_is_not_live_rejected(self, case, target,
                                                         message):
        # A negative id would index the deaths from the end: after two
        # allocs, a free of -1 would mark object 1 freed.
        builder = TraceBuilder(program="p", dataset="d")
        builder.add_alloc(("m",), size=8, birth=0)
        builder.add_alloc(("m",), size=16, birth=8)
        if case == "after-free":
            builder.add_free(0, death=24, touches=0)
        with pytest.raises(ValueError) as info:
            builder.add_free(target, death=32, touches=0)
        assert str(info.value) == message
        trace = builder.build()
        assert list(trace.events()) == [
            (EV_ALLOC, 0, 0, 8, 0), (EV_ALLOC, 1, 0, 16, 8),
        ] + ([(EV_FREE, 0, 24, 0)] if case == "after-free" else [])
        assert [trace.freed(obj) for obj in (0, 1)] == [
            case == "after-free", False,
        ]

    @pytest.mark.parametrize("case", ["never-allocated", "negative",
                                      "after-free"])
    def test_touch_of_an_object_that_is_not_live_rejected(self, case):
        # The array replays and live stats never read touch codes, so the
        # builder refuses what every v3 consumer would reject.
        builder = TraceBuilder(program="p", dataset="d", record_touches=True)
        obj = builder.add_alloc(("m",), size=8, birth=0)
        builder.add_touch_event(obj, 2)
        if case == "after-free":
            builder.add_free(obj, death=8, touches=2)
        target = {"never-allocated": 7, "negative": -1, "after-free": obj}
        with pytest.raises(ValueError) as info:
            builder.add_touch_event(target[case], 1)
        assert str(info.value) == (
            f"touch of object {target[case]}, which is not live"
        )
        assert list(builder.build().events()) == [
            (EV_ALLOC, 0, 0, 8, 0), (EV_TOUCH, 0, 2),
        ] + ([(EV_FREE, 0, 8, 2)] if case == "after-free" else [])

    def test_set_touches_for_survivors(self):
        builder = TraceBuilder(program="p", dataset="d")
        obj = builder.add_alloc(("m",), size=8, birth=0)
        builder.set_touches(obj, 9)
        trace = builder.build()
        assert trace.touches_of(obj) == 9


class TestTrace:
    def test_totals(self):
        trace, _ = build_simple_trace()
        assert trace.total_bytes == 56
        assert trace.end_time == 56

    def test_lifetimes_of_freed_objects(self):
        trace, (a, b, _) = build_simple_trace()
        assert trace.lifetime_of(a) == 48
        assert trace.lifetime_of(b) == 40

    def test_survivor_dies_at_exit(self):
        trace, (_, _, c) = build_simple_trace()
        assert not trace.freed(c)
        assert trace.lifetime_of(c) == trace.end_time - 48

    def test_chain_and_site(self):
        trace, (a, b, _) = build_simple_trace()
        assert trace.chain_of(a) == ("main", "f")
        assert trace.chain_of(b) == ("main", "g")
        assert trace.size_of(b) == 32

    def test_event_sequence_in_program_order(self):
        trace, (a, b, c) = build_simple_trace()
        assert list(trace.events()) == [
            (EV_ALLOC, a, 0, 16, 0), (EV_ALLOC, b, 1, 32, 16),
            (EV_FREE, a, 48, 3), (EV_ALLOC, c, 0, 8, 48), (EV_FREE, b, 56, 1),
        ]
        assert trace.event_count == 5

    def test_live_stats(self):
        trace, _ = build_simple_trace()
        stats = trace.live_stats()
        assert stats.max_live_bytes == 48  # a (16) + b (32)
        assert stats.max_live_objects == 2

    def test_live_stats_cached(self):
        trace, _ = build_simple_trace()
        assert trace.live_stats() is trace.live_stats()

    def test_heap_ref_fraction(self):
        trace, _ = build_simple_trace()
        assert trace.total_refs == 16
        assert trace.heap_ref_fraction == 4 / 16

    def test_heap_ref_fraction_empty(self):
        trace = TraceBuilder(program="p", dataset="d").build()
        assert trace.heap_ref_fraction == 0.0

    def test_chains_interned(self):
        trace, (a, _, c) = build_simple_trace()
        assert isinstance(trace.chains, ChainTable)
        # Two allocations from ("main", "f") share one chain id.
        arrays = trace.raw_arrays()
        assert arrays["chain_ids"][a] == arrays["chain_ids"][c]
