"""Tests for the streaming event IR, the v3 trace format, and parity.

Three layers: the event protocol (wrap / rebuild / per-object folds), the
chunked v3 file format (round trips, atomicity, corruption), and the
headline refactor guarantee — every consumer produces identical results
whether fed a materialized :class:`Trace` or a streamed v3 file.
"""

from __future__ import annotations

import pytest

from repro.alloc.spec import BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC
from repro.analysis.locality import compare_locality, measure_locality
from repro.analysis.simulate import simulate_spec
from repro.analysis.survival import survival_curve
from repro.analysis.trace_cache import TraceCache
from repro.core.cce import train_cce_predictor
from repro.core.predictor import (
    actual_short_lived_bytes,
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.core.profile import build_profile
from repro.obs.metrics import Metrics
from repro.runtime.heap import TracedHeap
from repro.runtime.stream import (
    EventSource,
    StreamSummary,
    TraceEventSource,
    TraceFileSource,
    as_event_source,
    build_trace,
    iter_object_lifetimes,
    write_trace_v3,
)
from repro.runtime.tracefile import (
    TraceFormatError,
    convert_trace,
    load_trace,
    open_trace_stream,
    save_trace,
)
from tests.conftest import make_churn_trace

THRESHOLD = 4096  # separates churn from keeper in make_churn_trace


def make_touch_trace(objects: int = 120):
    """A churn trace recorded with touch events (locality-measurable)."""
    heap = TracedHeap("touchy", dataset="synthetic", record_touches=True)
    live = []
    with heap.frame("work"):
        for index in range(objects):
            with heap.frame("helper"):
                obj = heap.malloc(16 + 8 * (index % 5))
            heap.touch(obj, 1 + index % 3)
            live.append(obj)
            if len(live) > 4:
                victim = live.pop(0)
                heap.touch(victim, 2)
                heap.free(victim)
        for obj in live:
            heap.free(obj)
    return heap.finish()


def assert_traces_equal(a, b):
    assert b.program == a.program
    assert b.dataset == a.dataset
    assert b.total_objects == a.total_objects
    assert b.total_bytes == a.total_bytes
    assert b.total_calls == a.total_calls
    assert b.heap_refs == a.heap_refs
    assert b.non_heap_refs == a.non_heap_refs
    assert list(b.full_events()) == list(a.full_events())
    for obj_id in range(a.total_objects):
        assert b.record(obj_id) == a.record(obj_id)
        assert b.chain_of(obj_id) == a.chain_of(obj_id)


def object_folds(trace):
    """The trace's per-object rows the way iter_object_lifetimes sees them."""
    return sorted(
        (
            trace.chain_of(obj_id),
            trace.size_of(obj_id),
            trace.lifetime_of(obj_id),
            trace.touches_of(obj_id),
        )
        for obj_id in range(trace.total_objects)
    )


class TestProtocol:
    def test_header_mirrors_the_trace(self):
        trace = make_churn_trace(objects=40)
        source = TraceEventSource(trace)
        assert source.header.program == trace.program
        assert source.header.dataset == trace.dataset
        assert source.header.chains is trace.chains
        assert source.header.has_touch_events == trace.has_touch_events

    def test_summary_mirrors_the_trace(self):
        trace = make_churn_trace(objects=40)
        summary = TraceEventSource(trace).summary
        assert summary.total_calls == trace.total_calls
        assert summary.heap_refs == trace.heap_refs
        assert summary.non_heap_refs == trace.non_heap_refs
        assert summary.end_time == trace.end_time
        assert summary.total_objects == trace.total_objects
        assert summary.event_count == trace.event_count

    def test_events_returns_a_fresh_iterator_each_call(self):
        source = TraceEventSource(make_churn_trace(objects=30))
        first = list(source.events())
        assert list(source.events()) == first
        assert len(first) == source.summary.event_count

    def test_wrap_then_rebuild_round_trips(self):
        trace = make_churn_trace(objects=50)
        assert_traces_equal(trace, build_trace(TraceEventSource(trace)))

    def test_touch_events_round_trip(self):
        trace = make_touch_trace()
        assert trace.has_touch_events
        assert_traces_equal(trace, build_trace(TraceEventSource(trace)))

    def test_as_event_source_passes_sources_through(self):
        source = TraceEventSource(make_churn_trace(objects=10))
        assert as_event_source(source) is source
        assert isinstance(as_event_source(source.trace), TraceEventSource)

    def test_as_event_source_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_event_source([1, 2, 3])

    def test_iter_object_lifetimes_covers_every_object(self):
        trace = make_churn_trace(objects=60)
        source = TraceEventSource(trace)
        chain = source.header.chains.chain
        streamed = sorted(
            (chain(chain_id), size, lifetime, touches)
            for chain_id, size, lifetime, touches
            in iter_object_lifetimes(source)
        )
        assert streamed == object_folds(trace)

    def test_unfreed_objects_use_the_exit_convention(self):
        heap = TracedHeap("leaky", dataset="synthetic")
        with heap.frame("work"):
            kept = heap.malloc(64)
            heap.touch(kept, 3)
            heap.free(heap.malloc(16))
            heap.malloc(32)
        trace = heap.finish()
        source = TraceEventSource(trace)
        streamed = sorted(row for row in iter_object_lifetimes(source))
        chain = source.header.chains.chain
        assert [
            (chain(c), s, l, t) for c, s, l, t in streamed
        ] == object_folds(trace)
        # The heap flushes touch totals only at free, so never-freed
        # objects carry zero and the summary's carrier tuple stays empty.
        assert trace.touches_of(0) == 0
        assert source.summary.unfreed_touches == ()
        # Unfreed lifetimes run to program exit.
        exit_rows = [row for row in streamed if row[1] in (64, 32)]
        end_time = source.summary.end_time
        assert all(lifetime <= end_time for _, _, lifetime, _ in exit_rows)
        assert any(
            lifetime == end_time for _, _, lifetime, _ in exit_rows
        )  # the first alloc (birth 0) dies exactly at exit

    def test_unfreed_touches_survive_a_summary_round_trip(self):
        trace = make_churn_trace(objects=30)
        source = TraceEventSource(trace)
        keeper = next(obj_id for obj_id in range(trace.total_objects)
                      if not trace.freed(obj_id))
        doctored = StreamSummary(
            total_calls=source.summary.total_calls,
            heap_refs=source.summary.heap_refs,
            non_heap_refs=source.summary.non_heap_refs,
            end_time=source.summary.end_time,
            total_objects=source.summary.total_objects,
            event_count=source.summary.event_count,
            unfreed_touches=((keeper, 7),),
        )

        class Doctored(EventSource):
            header = source.header
            summary = doctored

            def events(self):
                return source.events()

        rebuilt = build_trace(Doctored())
        assert rebuilt.touches_of(keeper) == 7


class TestV3File:
    def test_round_trip(self, tmp_path):
        trace = make_churn_trace(objects=50)
        path = tmp_path / "trace.rtr3"
        save_trace(trace, path)
        assert_traces_equal(trace, load_trace(path))

    def test_round_trip_with_touch_events(self, tmp_path):
        trace = make_touch_trace()
        path = tmp_path / "touchy.rtr3"
        save_trace(trace, path)
        assert_traces_equal(trace, load_trace(path))

    def test_multi_chunk_round_trip(self, tmp_path):
        trace = make_churn_trace(objects=100)
        path = tmp_path / "chunked.rtr3"
        write_trace_v3(TraceEventSource(trace), path, chunk_events=64)
        source = TraceFileSource(path)
        assert len(source.chunk_index) > 1
        assert_traces_equal(trace, build_trace(source))

    def test_open_trace_stream_on_v3_streams_the_file(self, tmp_path):
        trace = make_churn_trace(objects=40)
        path = tmp_path / "trace.rtr3"
        save_trace(trace, path)
        source = open_trace_stream(path)
        assert isinstance(source, TraceFileSource)
        assert source.header.program == trace.program
        assert source.summary.event_count == trace.event_count
        # Fresh iterator per call, same events each time.
        assert list(source.events()) == list(source.events())
        assert list(source.events()) == list(TraceEventSource(trace).events())

    def test_open_trace_stream_on_v2_falls_back_to_memory(self, tmp_path):
        trace = make_churn_trace(objects=40)
        path = tmp_path / "trace.json.gz"
        save_trace(trace, path)
        source = open_trace_stream(path)
        assert isinstance(source, EventSource)
        assert_traces_equal(trace, build_trace(source))

    def test_same_trace_writes_identical_bytes(self, tmp_path):
        trace = make_churn_trace(objects=30)
        a, b = tmp_path / "a.rtr3", tmp_path / "b.rtr3"
        save_trace(trace, a)
        save_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_no_temp_files_left_behind(self, tmp_path):
        save_trace(make_churn_trace(objects=30), tmp_path / "trace.rtr3")
        assert [p.name for p in tmp_path.iterdir()] == ["trace.rtr3"]

    def test_interrupted_write_preserves_existing_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "trace.rtr3"
        original = make_churn_trace(objects=30)
        save_trace(original, path)

        def exploding_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(
            "repro.runtime.tracefile.os.replace", exploding_replace
        )
        with pytest.raises(OSError):
            save_trace(make_churn_trace(objects=60), path)
        monkeypatch.undo()

        assert [p.name for p in tmp_path.iterdir()] == ["trace.rtr3"]
        assert load_trace(path).total_objects == original.total_objects

    def test_truncated_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "trace.rtr3"
        save_trace(make_churn_trace(objects=60), path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(TraceFormatError):
            TraceFileSource(path)

    def test_corrupt_mid_stream_chunk_is_a_format_error(self, tmp_path):
        path = tmp_path / "trace.rtr3"
        trace = make_churn_trace(objects=200)
        write_trace_v3(TraceEventSource(trace), path, chunk_events=64)
        raw = bytearray(path.read_bytes())
        # Flip one byte in the middle of the event-frame region: the
        # trailer and footer stay valid, so the damage only surfaces
        # while streaming events.
        source = TraceFileSource(path)
        offset = (source.chunk_index[len(source.chunk_index) // 2][0]
                  + 16)
        raw[offset] ^= 0xFF
        path.write_bytes(bytes(raw))
        damaged = TraceFileSource(path)
        with pytest.raises(TraceFormatError):
            list(damaged.events())

    def test_garbage_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "junk.rtr3"
        path.write_bytes(b"RPRTRC3\n" + b"\x00" * 64)
        with pytest.raises(TraceFormatError):
            TraceFileSource(path)


class TestConverter:
    def test_v2_to_v3(self, tmp_path):
        trace = make_churn_trace(objects=50)
        v2 = tmp_path / "trace.json.gz"
        v3 = tmp_path / "trace.rtr3"
        save_trace(trace, v2)
        assert convert_trace(v2, v3) == 3
        assert_traces_equal(trace, load_trace(v3))

    def test_v3_to_v2_matches_a_direct_v2_save(self, tmp_path):
        trace = make_churn_trace(objects=50)
        v3 = tmp_path / "trace.rtr3"
        back = tmp_path / "back.json.gz"
        direct = tmp_path / "direct.json.gz"
        save_trace(trace, v3)
        assert convert_trace(v3, back) == 2
        save_trace(trace, direct)
        assert back.read_bytes() == direct.read_bytes()

    def test_conversion_is_lossless_both_ways(self, tmp_path):
        trace = make_touch_trace()
        v2 = tmp_path / "t.json.gz"
        v3 = tmp_path / "t.rtr3"
        v2_again = tmp_path / "t2.json.gz"
        save_trace(trace, v2)
        convert_trace(v2, v3)
        convert_trace(v3, v2_again)
        assert v2.read_bytes() == v2_again.read_bytes()

    def test_explicit_version_overrides_the_suffix(self, tmp_path):
        trace = make_churn_trace(objects=20)
        v2 = tmp_path / "trace.json.gz"
        odd = tmp_path / "streamed.dat"
        save_trace(trace, v2)
        assert convert_trace(v2, odd, version=3) == 3
        assert isinstance(open_trace_stream(odd), TraceFileSource)


@pytest.fixture()
def streamed(tmp_path):
    """(trace, file-backed source) for one churn trace."""
    trace = make_churn_trace(objects=150)
    path = tmp_path / "churn.rtr3"
    save_trace(trace, path)
    return trace, TraceFileSource(path)


class TestStreamingParity:
    """Streamed v3 files and materialized traces must agree exactly."""

    def test_simulations_match(self, streamed):
        trace, source = streamed
        for spec in (FIRSTFIT_SPEC, BSD_SPEC):
            assert simulate_spec(source, spec) == simulate_spec(trace, spec)
        predictor = train_site_predictor(trace, threshold=THRESHOLD)
        assert simulate_spec(
            source, PAPER_DEFAULT_SPEC, predictor
        ) == simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor)

    def test_survival_curve_matches(self, streamed):
        trace, source = streamed
        assert survival_curve(source) == survival_curve(trace)

    def test_profiles_match_on_order_independent_stats(self, streamed):
        trace, source = streamed
        materialized = build_profile(trace)
        stream = build_profile(source)
        assert stream.program == materialized.program
        assert stream.total_objects == materialized.total_objects
        assert stream.total_bytes == materialized.total_bytes
        mat_sites = dict(materialized.sites())
        str_sites = dict(stream.sites())
        assert set(str_sites) == set(mat_sites)
        for key, stats in mat_sites.items():
            other = str_sites[key]
            assert (other.objects, other.bytes, other.touches) == (
                stats.objects, stats.bytes, stats.touches
            )
            assert other.min_lifetime == stats.min_lifetime
            assert other.max_lifetime == stats.max_lifetime
            assert other.unfreed_objects == stats.unfreed_objects
            assert other.unfreed_bytes == stats.unfreed_bytes

    def test_site_predictors_match(self, streamed):
        trace, source = streamed
        from_trace = train_site_predictor(trace, threshold=THRESHOLD)
        from_stream = train_site_predictor(source, threshold=THRESHOLD)
        assert from_stream.sites == from_trace.sites
        assert from_stream.program == from_trace.program
        assert evaluate(from_trace, source) == evaluate(from_trace, trace)

    def test_size_only_predictors_match(self, streamed):
        trace, source = streamed
        from_trace = train_size_only_predictor(trace, threshold=THRESHOLD)
        from_stream = train_size_only_predictor(source, threshold=THRESHOLD)
        assert from_stream.sizes == from_trace.sizes
        assert evaluate(from_trace, source) == evaluate(from_trace, trace)

    def test_cce_predictors_match(self, streamed):
        trace, source = streamed
        assert (
            train_cce_predictor(source, threshold=THRESHOLD).keys
            == train_cce_predictor(trace, threshold=THRESHOLD).keys
        )

    def test_actual_short_lived_bytes_matches(self, streamed):
        trace, source = streamed
        assert actual_short_lived_bytes(
            source, THRESHOLD
        ) == actual_short_lived_bytes(trace, THRESHOLD)

    def test_locality_matches(self, tmp_path):
        trace = make_touch_trace()
        path = tmp_path / "touchy.rtr3"
        save_trace(trace, path)
        source = TraceFileSource(path)
        predictor = train_site_predictor(trace, threshold=THRESHOLD)
        assert compare_locality(source, predictor) == compare_locality(
            trace, predictor
        )

    def test_locality_guard_still_fires_for_streams(self, streamed):
        trace, source = streamed
        assert not trace.has_touch_events
        from repro.alloc.firstfit import FirstFitAllocator

        with pytest.raises(ValueError, match="touch"):
            measure_locality(source, FirstFitAllocator())


class TestCacheStreaming:
    def test_open_stream_miss_returns_none(self, tmp_path):
        cache = TraceCache(tmp_path / "cache", metrics=Metrics())
        assert cache.open_stream("synthetic", "synthetic", 1.0) is None
        assert cache.metrics.counter("trace_cache.miss") == 1

    def test_open_stream_hits_the_stored_entry(self, tmp_path):
        cache = TraceCache(tmp_path / "cache", metrics=Metrics())
        trace = make_churn_trace(objects=40)
        cache.store(trace, 1.0)
        source = cache.open_stream("synthetic", "synthetic", 1.0)
        assert isinstance(source, TraceFileSource)
        assert cache.metrics.counter("trace_cache.hit") == 1
        assert_traces_equal(trace, build_trace(source))

    def test_open_stream_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = TraceCache(tmp_path / "cache", metrics=Metrics())
        path = cache.store(make_churn_trace(objects=40), 1.0)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        assert cache.open_stream("synthetic", "synthetic", 1.0) is None
        assert cache.metrics.counter("trace_cache.corrupt") == 1
        assert not path.exists()

    def test_clear_removes_both_suffixes(self, tmp_path):
        cache = TraceCache(tmp_path / "cache", metrics=Metrics())
        cache.store(make_churn_trace(objects=20), 1.0)
        legacy = cache.directory / "old-v2-entry.json.gz"
        legacy.write_bytes(b"legacy")
        assert cache.clear() == 2
        assert not legacy.exists()
