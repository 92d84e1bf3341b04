"""Tests for the streaming event IR, the v3 trace format, and parity.

Three layers: the event protocol (wrap / rebuild / per-object folds), the
chunked v3 file format (round trips, atomicity, corruption), and the
headline refactor guarantee — every consumer produces identical results
whether fed a materialized :class:`Trace` or a streamed v3 file.
"""

from __future__ import annotations

import gzip
import json
import struct
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.runtime.events import TraceBuilder
from repro.runtime.heap import TracedHeap
from repro.runtime.stream import (
    EV_ALLOC,
    EV_FREE,
    EventSource,
    StreamHeader,
    StreamSummary,
    TraceFileSource,
    build_trace,
    write_trace_v3,
)
from repro.runtime.stream import v3
from repro.runtime.stream.protocol import iter_object_lifetimes
from repro.runtime.tracefile import (
    V3_MAGIC,
    TraceFormatError,
    convert_trace,
    load_trace,
    open_trace_stream,
    save_trace,
)
from tests.conftest import (
    V2_FIXTURE,
    V2_FIXTURE_OBJECTS,
    ListSource,
    assert_traces_equal,
    make_churn_trace,
    make_touch_trace,
)
from tests.test_replay_core import streams

THRESHOLD = 4096  # separates churn from keeper in make_churn_trace


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
        source = trace
        assert source.header.program == trace.program
        assert source.header.dataset == trace.dataset
        assert source.header.chains is trace.chains
        assert source.header.has_touch_events == trace.has_touch_events

    def test_summary_mirrors_the_trace(self):
        trace = make_churn_trace(objects=40)
        summary = trace.summary
        assert summary.total_calls == trace.total_calls
        assert summary.heap_refs == trace.heap_refs
        assert summary.non_heap_refs == trace.non_heap_refs
        assert summary.end_time == trace.end_time
        assert summary.total_objects == trace.total_objects
        assert summary.event_count == trace.event_count

    def test_unfreed_touches_walk_once_per_trace(self):
        # Every source over one trace shares the trace's cached walk.
        builder = TraceBuilder("kept", "synthetic")
        builder.set_touches(builder.add_alloc(("main", "work"), 32, 0), 3)
        trace = builder.build()
        first = trace.summary.unfreed_touches
        assert first == ((0, 3),)
        assert trace.summary.unfreed_touches is first

    def test_events_returns_a_fresh_iterator_each_call(self):
        source = make_churn_trace(objects=30)
        first = list(source.events())
        assert list(source.events()) == first
        assert len(first) == source.summary.event_count

    def test_wrap_then_rebuild_round_trips(self):
        trace = make_churn_trace(objects=50)
        assert_traces_equal(trace, build_trace(trace))

    def test_touch_events_round_trip(self):
        trace = make_touch_trace()
        assert trace.has_touch_events
        assert_traces_equal(trace, build_trace(trace))

    def test_iter_object_lifetimes_covers_every_object(self):
        trace = make_churn_trace(objects=60)
        source = trace
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
        source = trace
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
        source = trace
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
        write_trace_v3(trace, path, chunk_events=64)
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
        assert list(source.events()) == list(trace.events())

    def test_open_trace_stream_on_v2_names_convert(self):
        for read in (open_trace_stream, load_trace):
            with pytest.raises(TraceFormatError) as info:
                read(V2_FIXTURE)
            assert str(info.value).startswith(f"{V2_FIXTURE}: ")
            assert "repro-alloc convert" in str(info.value)

    def test_header_listing_a_chain_twice_is_a_format_error(self, tmp_path):
        # Merged, the header [a, a, c] would resolve chain id 1 to c and
        # reject the event naming chain id 2.
        class Listed(list):
            def to_list(self):
                return list(self)

        class RepeatedChain(EventSource):
            header = StreamHeader(
                "bad", "test", Listed([("main", "a"), ("main", "a"),
                                       ("main", "c")]), False,
            )
            summary = StreamSummary(0, 0, 0, end_time=16, total_objects=1,
                                    event_count=1)

            def events(self):
                return iter([(EV_ALLOC, 0, 2, 16, 0)])

        path = tmp_path / "repeat.rtr3"
        write_trace_v3(RepeatedChain(), path)
        with pytest.raises(TraceFormatError) as info:
            TraceFileSource(path)
        assert str(info.value) == (
            f"{path}: malformed v3 header/footer: chain ['main', 'a'] is "
            f"listed twice, at positions 0 and 1"
        )

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
        write_trace_v3(trace, path, chunk_events=64)
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

    def test_every_frame_is_a_fixed_header_gzip_member(self, tmp_path):
        # The header is pinned, not a digest: the deflate bytes after it
        # depend on the zlib build, the header on nothing.
        path = tmp_path / "chunked.rtr3"
        write_trace_v3(make_touch_trace(), path, chunk_events=64)
        raw = path.read_bytes()
        assert raw.startswith(V3_MAGIC)
        offset, end = len(V3_MAGIC), len(raw) - 24  # the trailer
        kinds = []
        while offset < end:
            kind, length = struct.unpack_from("<cI", raw, offset)
            payload = raw[offset + 5:offset + 5 + length]
            assert payload[:10] == bytes.fromhex("1f8b0800000000000203")
            gzip.decompress(payload)
            kinds.append(kind)
            offset += 5 + length
        assert offset == end
        assert kinds[0] == b"H" and kinds[-1] == b"F"
        assert kinds[1:-1] == [b"E"] * len(TraceFileSource(path).chunk_index)
        assert len(kinds) > 3


def _frames(path):
    """``(kind, payload)`` of every frame of the v3 file at ``path``."""
    raw = path.read_bytes()
    offset, end = len(V3_MAGIC), len(raw) - 24  # the trailer
    frames = []
    while offset < end:
        kind, length = struct.unpack_from("<cI", raw, offset)
        frames.append((kind, raw[offset + 5:offset + 5 + length]))
        offset += 5 + length
    return frames


def _whole_document_events(path):
    """The file's events, each E frame decoded as one JSON document."""
    return [
        tuple(ev)
        for kind, payload in _frames(path) if kind == b"E"
        for ev in json.loads(gzip.decompress(payload))["events"]
    ]


def _with_event_text(path, text: bytes) -> None:
    """Rewrite the one-E-frame file at ``path`` so its E frame holds
    ``text``."""
    _with_event_payload(path, gzip.compress(text, mtime=0))


def _with_event_payload(path, event_payload: bytes) -> None:
    """Rewrite the one-E-frame file at ``path``: its E frame's payload
    is ``event_payload``, and the trailer points at the moved footer."""
    out = [V3_MAGIC]
    for kind, payload in _frames(path):
        if kind == b"E":
            payload = event_payload
        if kind == b"F":
            footer_offset = sum(map(len, out))
        out.append(struct.pack("<cI", kind, len(payload)) + payload)
    out.append(struct.pack("<8sQ8s", b"RPRTRIDX", footer_offset, V3_MAGIC))
    path.write_bytes(b"".join(out))


def _slices_of(count):
    """Writer and reader slices of ``count`` events, not 4,096."""
    return mock.patch.object(v3, "_SLICE_EVENTS", count)


#: One alloc and its free, the stream :func:`_with_event_text` rewrites.
_PAIR = [(EV_ALLOC, 0, 0, 16, 0), (EV_FREE, 0, 16, 0)]


def _twenty_chain_trace(events: int):
    """A trace of ``events`` events over 20 chains, 50 objects live."""
    builder = TraceBuilder("slices", "test")
    chains = [("main", f"f{i % 5}", f"site{i}") for i in range(20)]
    live, clock = [], 0
    for index in range(events // 2):
        size = 16 + index * 37 % 4000
        live.append(builder.add_alloc(chains[index % 20], size, clock))
        clock += size
        if len(live) > 50:
            builder.add_free(live.pop(0), clock, index % 7)
    for obj in live:
        builder.add_free(obj, clock, 1)
    return builder.build()


class TestSlices:
    @settings(max_examples=100, deadline=None)
    @given(stream=streams(), chunk_events=st.integers(1, 64),
           slice_events=st.integers(1, 8))
    def test_sliced_reader_matches_a_whole_document_decode(
        self, tmp_path_factory, stream, chunk_events, slice_events
    ):
        events, chains = stream
        source = ListSource(events, chains=chains)
        directory = tmp_path_factory.mktemp("slices")
        whole, sliced = directory / "whole.rtr3", directory / "sliced.rtr3"
        write_trace_v3(source, whole, chunk_events=chunk_events)
        with _slices_of(slice_events):
            write_trace_v3(source, sliced, chunk_events=chunk_events)
            read = list(TraceFileSource(whole).events())
        # Deflate's output does not depend on how its input is split.
        assert sliced.read_bytes() == whole.read_bytes()
        assert read == _whole_document_events(whole) == events

    def test_one_frame_writes_and_reads_in_a_few_megabytes(self, tmp_path):
        # A whole decoded 58,000-event frame took about 13 MB each way.
        trace = _twenty_chain_trace(58000)
        path = tmp_path / "one-frame.rtr3"
        tracemalloc.start()
        try:
            write_trace_v3(trace, path)
            _, write_peak = tracemalloc.get_traced_memory()
            source = TraceFileSource(path)
            tracemalloc.reset_peak()
            read = sum(1 for _ in source.events())
            _, read_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert source.chunk_index == ((source.chunk_index[0][0], 58000),)
        assert read == 58000
        assert write_peak < 5e6 and read_peak < 5e6, (write_peak, read_peak)

    @pytest.mark.parametrize("slice_events", [1, 4096])
    @pytest.mark.parametrize("spacing", ["everywhere", "inside-events"])
    def test_frame_written_with_spaces_reads_the_same_events(
        self, tmp_path, spacing, slice_events
    ):
        # Spaced everywhere, the frame is not in the writer's layout and
        # is parsed whole.  Spaced only inside events, it is cut at
        # ``],[`` and its slices fail the integer test, so each event of
        # them is checked on its own.
        events = [(EV_ALLOC, 0, 0, 16, 0), (EV_ALLOC, 1, 0, 24, 16),
                  (EV_FREE, 0, 40, 3), (EV_FREE, 1, 40, 0)]
        path = tmp_path / "spaced.rtr3"
        write_trace_v3(ListSource(events), path)
        if spacing == "everywhere":
            text = json.dumps({"events": events})
        else:
            text = '{"events":[%s]}' % ",".join(map(json.dumps, events))
        _with_event_text(path, text.encode())
        with _slices_of(slice_events):
            assert list(TraceFileSource(path).events()) == events

    @pytest.mark.parametrize("slice_events", [1, 4096])
    @pytest.mark.parametrize("spacing", ["compact", "spaced"])
    def test_a_field_that_is_not_an_integer_raises_on_either_path(
        self, tmp_path, spacing, slice_events
    ):
        # With one-event slices the bad event starts the third slice.
        path = tmp_path / "listed.rtr3"
        write_trace_v3(ListSource(_PAIR), path)
        bad = [*map(list, _PAIR), [EV_ALLOC, 1, [0], 16, 16]]
        separators = (",", ":") if spacing == "compact" else None
        _with_event_text(
            path, json.dumps({"events": bad}, separators=separators).encode()
        )
        with _slices_of(slice_events), pytest.raises(TraceFormatError) as info:
            list(TraceFileSource(path).events())
        assert str(info.value) == (
            f"{path}: event 2: object 1 has chain id [0]; chain ids are "
            f"integers"
        )

    @pytest.mark.parametrize("event", [[EV_ALLOC, 0, 0, 16], [7, 0, 0], [],
                                       [EV_FREE], 5])
    def test_an_event_of_no_kinds_shape_is_malformed(self, tmp_path, event):
        path = tmp_path / "shape.rtr3"
        write_trace_v3(ListSource(_PAIR), path)
        text = {"events": [list(_PAIR[0]), event]}
        _with_event_text(
            path, json.dumps(text, separators=(",", ":")).encode()
        )
        with pytest.raises(TraceFormatError) as info:
            list(TraceFileSource(path).events())
        assert str(info.value) == (
            f"{path}: event 1: malformed event "
            f"{json.dumps(event, separators=(',', ':'))}"
        )

    @pytest.mark.parametrize("tail", [b"\x00", b"second member"])
    def test_a_frame_payload_is_one_whole_gzip_member(self, tmp_path, tail):
        path = tmp_path / "tail.rtr3"
        write_trace_v3(ListSource(_PAIR), path)
        (_, payload), = [f for f in _frames(path) if f[0] == b"E"]
        if tail != b"\x00":
            tail = gzip.compress(tail)
        _with_event_payload(path, payload + tail)
        with pytest.raises(TraceFormatError) as info:
            list(TraceFileSource(path).events())
        assert str(info.value) == (
            f"{path}: corrupt frame payload: not one whole gzip member"
        )

    @pytest.mark.parametrize("slice_events", [1, 4096])
    @pytest.mark.parametrize("field", [[[0], [0]], "xxxxxxxxxxxxx],[xx"])
    def test_a_cut_inside_a_nested_list_or_string_raises(
        self, tmp_path, field, slice_events
    ):
        # With one-event slices the first cut lands on the ``],[``
        # inside the field, and the slice fails to parse; uncut, the
        # field fails the integer test.
        path = tmp_path / "nested.rtr3"
        write_trace_v3(ListSource(_PAIR), path)
        bad = [[EV_ALLOC, 0, field, 16, 0], list(_PAIR[1])]
        _with_event_text(
            path, json.dumps({"events": bad}, separators=(",", ":")).encode()
        )
        with _slices_of(slice_events), pytest.raises(TraceFormatError) as info:
            list(TraceFileSource(path).events())
        message = str(info.value)
        assert message.startswith(f"{path}: event 0")
        assert ("not valid JSON" in message) == (slice_events == 1)


class TestConverter:
    def test_v2_to_v3(self, tmp_path):
        v3 = tmp_path / "trace.rtr3"
        convert_trace(V2_FIXTURE, v3)
        assert_traces_equal(
            make_touch_trace(objects=V2_FIXTURE_OBJECTS), load_trace(v3)
        )

    def test_v2_upgrade_matches_a_direct_v3_save(self, tmp_path):
        upgraded = tmp_path / "upgraded.rtr3"
        direct = tmp_path / "direct.rtr3"
        convert_trace(V2_FIXTURE, upgraded)
        save_trace(make_touch_trace(objects=V2_FIXTURE_OBJECTS), direct)
        assert upgraded.read_bytes() == direct.read_bytes()

    def test_v3_to_v3_rewrites_identical_bytes(self, tmp_path):
        v3 = tmp_path / "t.rtr3"
        again = tmp_path / "t2.rtr3"
        save_trace(make_touch_trace(), v3)
        convert_trace(v3, again)
        assert again.read_bytes() == v3.read_bytes()

    def test_any_destination_name_writes_v3(self, tmp_path):
        odd = tmp_path / "streamed.json.gz"
        convert_trace(V2_FIXTURE, odd)
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
            # A stream is materialized first, so even the fold-order
            # dependent P^2 quartiles agree.
            assert other.histogram.quantiles() == stats.histogram.quantiles()

    def test_profile_quartiles_match_on_a_workload_trace(
        self, tmp_path, espresso_tiny
    ):
        # espresso frees some sites' objects out of allocation order, so
        # a profile folded in free order would move their P^2 quartiles.
        path = tmp_path / "espresso.rtr3"
        save_trace(espresso_tiny, path)
        streamed = dict(build_profile(TraceFileSource(path)).sites())
        for key, stats in build_profile(espresso_tiny).sites():
            assert streamed[key].histogram.quantiles() == (
                stats.histogram.quantiles()
            )

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
