"""Tests for the oracle simulation and the trace-inspection reports.

The oracle is one verdict byte per object through the arena walk
(DESIGN.md §17).  Its reference is the mechanism it replaced: a
predictor whose ``bind()`` answers the ``i``-th lookup with object
``i``'s true verdict, which an arena replay asks once per allocation in
id order.  Over generated streams with a drawn threshold and small arena
geometries, on the five programs, and on hand-packed malformed traces,
the two agree in every ``SimulationResult`` field and every error
message.

Table 3, ``lifetime_report`` and ``survival_curve`` read one fold of
lifetime runs.  Their references are the per-object algorithms the fold
replaced: every (lifetime, size) pair sorted, and a survival bucket per
object.  Over generated streams, materialized and from a v3 file, the
reports equal them.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right
from types import SimpleNamespace

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.alloc.arena import ArenaAllocator
from repro.alloc.spec import PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.analysis.inspect import lifetime_report, sites_report
from repro.analysis.oracle import simulate_arena_oracle
from repro.analysis.simulate import arena_walk, price, replay_spec, simulate_spec
from repro.analysis.survival import DEFAULT_AGES, survival_curve
from repro.analysis.tables import table3
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    LifetimePredictor,
    actual_short_lived_bytes,
    train_site_predictor,
)
from repro.core.quantile import P2Histogram
from repro.obs.spans import TRACER
from repro.runtime.heap import TracedHeap
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    build_trace,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from repro.runtime.tracefile import TraceFormatError, load_trace
from repro.workloads.registry import PROGRAM_ORDER, run_workload
from tests.conftest import ListSource
from tests.test_prediction_memo import BAD_STREAMS, _packed_trace
from tests.test_replay_core import streams
from tests.test_shared_replays import BAD_PACKED, PATHS, small_geometries


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

    def test_one_walk_and_one_first_fit_replay(self, churn_trace,
                                               monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the oracle built an ArenaAllocator")

        monkeypatch.setattr(ArenaAllocator, "__init__", refuse)
        TRACER.reset()
        TRACER.enable()
        try:
            simulate_arena_oracle(churn_trace, threshold=4096)
            walks = TRACER.find("simulate.arena_walk")
            replays = TRACER.find("simulate.replay")
        finally:
            TRACER.disable()
            TRACER.reset()
        assert len(walks) == 1
        assert [span.args["allocator"] for span in replays] == ["first-fit"]


# ----------------------------------------------------------------------
# The oracle against the per-object predictor it replaced
# ----------------------------------------------------------------------

def _true_lifetimes(trace):
    """Each object's lifetime, read off the trace's own events: from its
    alloc's birth to its free's death, or to the end of the trace."""
    births = [0] * trace.total_objects
    deaths = [trace.total_bytes] * trace.total_objects
    for ev in trace.events():
        if ev[0] == EV_ALLOC:
            births[ev[1]] = ev[4]
        elif ev[0] == EV_FREE:
            deaths[ev[1]] = ev[2]
    return [death - birth for birth, death in zip(births, deaths)]


class _NextVerdict(dict):
    """Answers every lookup with the next verdict, and stores nothing."""

    def __init__(self, verdicts):
        super().__init__()
        self._next = iter(verdicts).__next__

    def __missing__(self, key):
        return self._next()


class _PerObjectOracle(LifetimePredictor):
    """The oracle as a predictor: each ``bind()`` answers its ``i``-th
    lookup with object ``i``'s true verdict."""

    site_count = 0

    def __init__(self, verdicts, threshold):
        self.verdicts = verdicts
        self.threshold = threshold

    def bind(self, chains=None):
        return _NextVerdict(self.verdicts)


def _reference_oracle(trace, threshold, spec):
    """A full arena replay of :class:`_PerObjectOracle`, priced and
    labelled as the oracle is."""
    spec = dataclasses.replace(spec, threshold=threshold)
    verdicts = [life < threshold for life in _true_lifetimes(trace)]
    counts = replay_spec(trace, spec, _PerObjectOracle(verdicts, threshold))
    return dataclasses.replace(price(counts, spec),
                               allocator="arena (oracle)")


def _oracle(trace, threshold, spec):
    return simulate_arena_oracle(trace, threshold=threshold,
                                 num_arenas=spec.num_arenas,
                                 arena_size=spec.arena_size)


@st.composite
def oracle_cases(draw):
    """A stream, a threshold that is often some object's lifetime, and
    three geometries of 1-8 arenas of 64-1,024 bytes."""
    source, _, specs = draw(small_geometries())
    lifetimes = _true_lifetimes(source)
    threshold = draw(st.sampled_from(lifetimes or [1])
                     | st.integers(1, 64 * 1024))
    return source, threshold, specs


#: The malformed hand-packed traces: an unknown free, chain ids of 99
#: and -1, a double free, a free before its alloc and a size of 0.
MALFORMED = dict(BAD_PACKED, **{
    "negative-chain": BAD_STREAMS["negative-chain"][0],
})

#: (threshold, geometry) pairs for the five programs.
PLACEMENTS = (
    (DEFAULT_THRESHOLD, PAPER_DEFAULT_SPEC),
    (4096, AllocatorSpec(num_arenas=8, arena_size=2048)),
    (16 * 1024, AllocatorSpec(num_arenas=1, arena_size=256)),
)


@pytest.fixture(scope="module")
def program_traces():
    return {program: run_workload(program, "test", scale=0.02)
            for program in PROGRAM_ORDER}


class TestOracleMatchesPerObjectReplay:
    @settings(max_examples=150, deadline=None)
    @given(case=oracle_cases())
    def test_generated_streams(self, case):
        source, threshold, specs = case
        for spec in specs:
            assert (dataclasses.asdict(_oracle(source, threshold, spec))
                    == dataclasses.asdict(
                        _reference_oracle(source, threshold, spec)))

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_drawn_cases_reach(self, path):
        reaches = PATHS[path]

        def found(case):
            source, threshold, specs = case
            short = bytes(life < threshold
                          for life in _true_lifetimes(source))
            return any(reaches(source, spec, arena_walk(source, spec, short))
                       for spec in specs)

        find(oracle_cases(), found, random=random.Random(path),
             settings=settings(database=None, max_examples=500,
                               phases=[Phase.generate]))

    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_programs(self, program_traces, program):
        trace = program_traces[program]
        for threshold, spec in PLACEMENTS:
            assert (dataclasses.asdict(_oracle(trace, threshold, spec))
                    == dataclasses.asdict(
                        _reference_oracle(trace, threshold, spec))), (
                threshold, spec.describe())

    @pytest.mark.parametrize("threshold", [1, 1 << 20])
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_traces(self, case, threshold):
        trace = _packed_trace(MALFORMED[case])
        with pytest.raises(TraceFormatError) as reference:
            _reference_oracle(trace, threshold, PAPER_DEFAULT_SPEC)
        assert str(reference.value).startswith("bad/test: event ")
        with pytest.raises(TraceFormatError) as oracle:
            _oracle(trace, threshold, PAPER_DEFAULT_SPEC)
        assert str(oracle.value) == str(reference.value)


# ----------------------------------------------------------------------
# The lifetime reports against the per-object loops they replaced
# ----------------------------------------------------------------------

def _object_pairs(events):
    """``(lifetime, size)`` per object of a well-formed stream's events."""
    end = sum(ev[3] for ev in events if ev[0] == EV_ALLOC)
    births, sizes, deaths = {}, {}, {}
    for ev in events:
        if ev[0] == EV_ALLOC:
            births[ev[1]] = ev[4]
            sizes[ev[1]] = ev[3]
        elif ev[0] == EV_FREE:
            deaths[ev[1]] = ev[2]
    return [(deaths.get(obj_id, end) - birth, sizes[obj_id])
            for obj_id, birth in births.items()]


def _reference_quartiles(pairs):
    """Every pair sorted; a byte-weighted crossing per object, and P^2
    over every object's lifetime."""
    pairs = sorted(pairs)
    total = sum(size for _, size in pairs)
    byte_qs = []
    targets = iter([0.0, 0.25, 0.50, 0.75, 1.0])
    target = next(targets)
    cumulative = 0
    for lifetime, size in pairs:
        cumulative += size
        while cumulative >= target * total:
            byte_qs.append(lifetime)
            nxt = next(targets, None)
            if nxt is None:
                target = float("inf")
                break
            target = nxt
    while len(byte_qs) < 5:
        byte_qs.append(pairs[-1][0])
    histogram = P2Histogram(cells=4)
    histogram.extend(lifetime for lifetime, _ in pairs)
    return tuple(byte_qs[:5]), tuple(histogram.quantiles())


def _reference_report(trace, pairs, threshold):
    """``lifetime_report`` from :func:`_reference_quartiles`."""
    if not pairs:
        return f"{trace.program}/{trace.dataset}: empty trace"
    byte_qs, p2_qs = _reference_quartiles(pairs)
    total = sum(size for _, size in pairs)
    short = actual_short_lived_bytes(trace, threshold)
    return "\n".join([
        f"{trace.program}/{trace.dataset}: {len(pairs)} objects, "
        f"{total} bytes",
        "lifetime quartiles (byte-weighted): "
        + "  ".join(f"{q:,}" for q in byte_qs),
        "lifetime quartiles (P2, per object): "
        + "  ".join(f"{q:,.0f}" for q in p2_qs),
        f"short-lived at {threshold} bytes: {100 * short / total:.1f}% "
        "of all bytes",
    ])


def _reference_survival(pairs, ages):
    """``(total bytes, surviving)`` from one age bucket per object."""
    buckets = [0] * (len(ages) + 1)
    for lifetime, size in pairs:
        buckets[bisect_right(ages, lifetime)] += size
    total = sum(size for _, size in pairs)
    surviving, dead = [], 0
    for bucket in buckets[:-1]:
        dead += bucket
        surviving.append((total - dead) / total if total else 0.0)
    return total, tuple(surviving)


def _check_reports(events, chains, ages, directory):
    """Table 3's row, ``survival_curve`` and ``lifetime_report`` of one
    stream, materialized and from a v3 file, against the references."""
    pairs = _object_pairs(events)
    source = ListSource(events, chains=chains)
    path = directory / "gen.rtr3"
    write_trace_v3(source, path, chunk_events=7)
    trace = build_trace(source)
    for each in (trace, TraceFileSource(path)):
        label = type(each).__name__
        if pairs:
            store = SimpleNamespace(
                programs=["gen"], source=lambda program, dataset, each=each:
                each,
            )
            [row] = table3(store)
            assert (row.byte_quantiles, row.p2_quantiles) == (
                _reference_quartiles(pairs)
            ), label
        curve = survival_curve(each, ages)
        assert (curve.total_bytes, curve.surviving) == (
            _reference_survival(pairs, ages)
        ), label
    for each in (trace, load_trace(path)):
        assert lifetime_report(each, DEFAULT_THRESHOLD) == (
            _reference_report(each, pairs, DEFAULT_THRESHOLD)
        )


#: Four 16-byte objects with lifetimes 16, 32, 48 and 64: each quarter of
#: the bytes is crossed exactly at a run boundary.
EXACT_QUARTERS = [
    (EV_ALLOC, 0, 0, 16, 0), (EV_ALLOC, 1, 0, 16, 16),
    (EV_ALLOC, 2, 0, 16, 32), (EV_ALLOC, 3, 0, 16, 48),
    (EV_FREE, 3, 64, 0), (EV_FREE, 2, 64, 0),
    (EV_FREE, 1, 64, 0), (EV_FREE, 0, 64, 0),
]


class TestLifetimeReportsMatchPerObjectLoops:
    @settings(max_examples=100, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_generated_streams(self, tmp_path_factory, stream, data):
        events, chains = stream
        lifetimes = [lifetime for lifetime, _ in _object_pairs(events)]
        # Ages that some lifetimes equal, so a lifetime on a bucket edge
        # is always drawn for.
        ages = sorted(set(DEFAULT_AGES) | set(data.draw(
            st.lists(st.sampled_from(lifetimes or [1]), max_size=4))))
        _check_reports(events, chains, ages,
                       tmp_path_factory.mktemp("reports"))

    def test_quartiles_cross_at_run_boundaries(self, tmp_path):
        _check_reports(EXACT_QUARTERS, [("main", "f")],
                       [16, 32, 48, 64], tmp_path)
        [row] = table3(SimpleNamespace(
            programs=["gen"],
            source=lambda program, dataset: build_trace(
                ListSource(EXACT_QUARTERS)),
        ))
        assert row.byte_quantiles == (16, 16, 32, 48, 64)


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
