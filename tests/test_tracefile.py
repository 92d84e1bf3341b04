"""Unit tests for trace serialization."""

from __future__ import annotations

import gzip
import json
import shutil

import pytest

from repro.runtime.tracefile import (
    V3_MAGIC,
    TraceFormatError,
    convert_trace,
    load_trace,
    save_trace,
)
from tests.conftest import V2_FIXTURE, assert_traces_equal, make_churn_trace


class TestRoundTrip:
    def test_plain_json(self, tmp_path):
        # Any name writes v3, including the v2 document's old suffixes.
        trace = make_churn_trace(objects=50)
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert path.read_bytes().startswith(V3_MAGIC)
        assert_traces_equal(trace, load_trace(path))

    def test_gzip(self, tmp_path):
        trace = make_churn_trace(objects=50)
        path = tmp_path / "trace.json.gz"
        save_trace(trace, path)
        assert path.read_bytes().startswith(V3_MAGIC)
        assert_traces_equal(trace, load_trace(path))

    def test_workload_trace_round_trip(self, tmp_path, gawk_tiny):
        path = tmp_path / "gawk.rtr3"
        save_trace(gawk_tiny, path)
        loaded = load_trace(path)
        assert loaded.total_objects == gawk_tiny.total_objects
        assert loaded.live_stats() == gawk_tiny.live_stats()


class TestAtomicWrite:
    """``convert`` publishes through the same atomic write as ``save``."""

    def test_no_temp_files_left_behind(self, tmp_path):
        convert_trace(V2_FIXTURE, tmp_path / "trace.rtr3")
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
            convert_trace(V2_FIXTURE, path)
        monkeypatch.undo()

        # The old complete file is untouched and no temp litter remains.
        assert [p.name for p in tmp_path.iterdir()] == ["trace.rtr3"]
        loaded = load_trace(path)
        assert loaded.total_objects == original.total_objects

    def test_same_trace_writes_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.rtr3", tmp_path / "b.rtr3"
        convert_trace(V2_FIXTURE, a)
        convert_trace(V2_FIXTURE, b)
        assert a.read_bytes() == b.read_bytes()


class TestErrors:
    """The v2 reader behind ``convert`` rejects malformed documents."""

    @staticmethod
    def assert_rejected(path):
        out = path.parent / "out.rtr3"
        with pytest.raises(TraceFormatError):
            convert_trace(path, out)
        assert not out.exists()

    def test_truncated_gzip_is_format_error(self, tmp_path):
        path = tmp_path / "trace.json.gz"
        shutil.copyfile(V2_FIXTURE, path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self.assert_rejected(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"this is not json")
        self.assert_rejected(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        self.assert_rejected(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "vers.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 999}))
        self.assert_rejected(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "partial.json"
        path.write_text(json.dumps({"format": "repro-trace", "version": 2}))
        self.assert_rejected(path)

    def test_non_dict_document(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        self.assert_rejected(path)

    @pytest.mark.parametrize("field, index, value, problem", [
        ("sizes", 3, 0, "object 3 has size 0"),
        ("sizes", 3, -8, "object 3 has size -8"),
        ("chain_ids", 3, 1, "object 3 names chain id 1"),
        # A free of object 24, one past the fixture's last object.
        ("events", None, (24 << 2) | 1, "disagree on the object count"),
    ], ids=["size-0", "negative-size", "uninterned-chain",
            "never-allocated-free"])
    def test_malformed_stream(self, tmp_path, field, index, value, problem):
        # The document parses, but its stream breaks build_trace's
        # contract: convert must name the v2 file and write nothing.
        doc = json.loads(gzip.decompress(V2_FIXTURE.read_bytes()))
        if index is None:
            doc[field].append(value)
        else:
            doc[field][index] = value
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.rtr3"
        with pytest.raises(TraceFormatError, match=problem) as info:
            convert_trace(path, out)
        assert str(info.value).startswith(f"{path}: ")
        assert not out.exists()

    def test_repeated_chain(self, tmp_path):
        # Merging the repeat would give every later chain the id of the
        # one before it; convert must refuse the document instead.
        doc = json.loads(gzip.decompress(V2_FIXTURE.read_bytes()))
        last = len(doc["chains"])
        doc["chains"].append(doc["chains"][0])
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.rtr3"
        with pytest.raises(TraceFormatError) as info:
            convert_trace(path, out)
        assert str(info.value).startswith(f"{path}: malformed trace file: ")
        assert str(info.value).endswith(
            f"is listed twice, at positions 0 and {last}"
        )
        assert not out.exists()


class TestPropertyRoundTrip:
    """Hypothesis: arbitrary alloc/free/touch programs survive the file."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["alloc", "free", "touch"]),
            st.integers(min_value=1, max_value=500),
        ),
        min_size=1, max_size=60,
    ))
    def test_random_programs(self, tmp_path_factory, script):
        from repro.runtime.heap import TracedHeap

        heap = TracedHeap("prop", record_touches=True)
        live = []
        with heap.frame("work"):
            for action, number in script:
                if action == "alloc":
                    live.append(heap.malloc(number))
                elif action == "free" and live:
                    heap.free(live.pop(number % len(live)))
                elif action == "touch" and live:
                    heap.touch(live[number % len(live)], 1 + number % 5)
        trace = heap.finish()
        path = tmp_path_factory.mktemp("rt") / "trace.rtr3"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert_traces_equal(trace, loaded)
        assert loaded.total_bytes == trace.total_bytes
        assert loaded.live_stats() == trace.live_stats()
        for obj_id in range(trace.total_objects):
            assert loaded.lifetime_of(obj_id) == trace.lifetime_of(obj_id)
