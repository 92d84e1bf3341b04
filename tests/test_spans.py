"""Tests for pipeline span tracing and its exporters.

The tracer is driven with a fake clock throughout, so every timestamp,
duration, and exported byte is deterministic and asserted exactly.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.report import render_folded
from repro.obs.spans import (
    TRACER,
    SpanTracer,
    chrome_trace,
    traced,
    write_chrome_trace,
)


class FakeClock:
    """A clock advancing a fixed number of microseconds per reading."""

    def __init__(self, step_us: int = 100):
        self.now = 0.0
        self.step = step_us / 1_000_000

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def tracer():
    return SpanTracer(enabled=True, clock=FakeClock())


@pytest.fixture
def global_tracer():
    """The process-wide TRACER, enabled and restored afterwards."""
    TRACER.reset()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


class TestDisabledTracer:
    def test_disabled_span_records_nothing(self):
        tracer = SpanTracer()
        with tracer.span("anything", cat="x", arg=1):
            pass
        assert tracer.spans == []

    def test_disabled_spans_share_one_null_object(self):
        tracer = SpanTracer()
        assert tracer.span("a") is tracer.span("b")

    def test_disabled_span_never_reads_the_clock(self):
        def exploding_clock():
            raise AssertionError("clock read while disabled")

        tracer = SpanTracer(clock=exploding_clock)
        with tracer.span("quiet"):
            pass

    def test_enable_disable_roundtrip(self, tracer):
        with tracer.span("on"):
            pass
        tracer.disable()
        with tracer.span("off"):
            pass
        assert [s.name for s in tracer.spans] == ["on"]


class TestRecording:
    def test_span_timing_from_fake_clock(self, tracer):
        with tracer.span("work"):
            pass
        (span,) = tracer.spans
        assert span.ts_us == 0
        assert span.dur_us == 100
        assert span.end_us == 100

    def test_nesting_depth_and_path(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans  # exit order: inner closes first
        assert outer.depth == 0 and outer.path == ("outer",)
        assert inner.depth == 1 and inner.path == ("outer", "inner")
        # Child contained in parent — the property Chrome nesting rides on.
        assert outer.ts_us <= inner.ts_us
        assert inner.end_us <= outer.end_us

    def test_sorted_spans_are_in_enter_order(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.sorted_spans()] == ["outer", "inner"]

    def test_siblings_share_parent_path(self, tracer):
        with tracer.span("parent"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["a"].path == ("parent", "a")
        assert by_name["b"].path == ("parent", "b")
        assert by_name["a"].end_us <= by_name["b"].ts_us

    def test_span_records_args(self, tracer):
        with tracer.span("load", cat="cache", program="gawk", hit=True):
            pass
        (span,) = tracer.spans
        assert span.cat == "cache"
        assert span.args == {"program": "gawk", "hit": True}

    def test_exception_still_closes_span(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("boom"):
                    raise RuntimeError("bang")
        assert [s.name for s in tracer.sorted_spans()] == ["outer", "boom"]

    def test_find_returns_matching_spans_in_order(self, tracer):
        for _ in range(2):
            with tracer.span("repeat"):
                pass
        with tracer.span("other"):
            pass
        assert [s.name for s in tracer.find("repeat")] == ["repeat", "repeat"]

    def test_reset_drops_spans_and_origin(self, tracer):
        with tracer.span("before"):
            pass
        tracer.reset()
        assert tracer.spans == []
        with tracer.span("after"):
            pass
        assert tracer.spans[0].ts_us == 0  # origin restarted

    def test_traced_decorator_uses_global_tracer(self, global_tracer):
        @traced("decorated.fn", cat="test")
        def add(a, b):
            return a + b

        assert add(2, 3) == 5
        (span,) = global_tracer.find("decorated.fn")
        assert span.cat == "test"

    def test_traced_decorator_free_when_disabled(self):
        TRACER.reset()

        @traced()
        def fn():
            return 42

        assert fn() == 42
        assert TRACER.spans == []


class TestChromeExport:
    def test_document_shape(self, tracer):
        with tracer.span("outer", cat="pipeline"):
            with tracer.span("inner", cat="core", program="gawk"):
                pass
        doc = chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"
        meta, outer, inner = doc["traceEvents"]
        assert meta["ph"] == "M" and meta["name"] == "process_name"
        assert outer["ph"] == "X" and outer["name"] == "outer"
        assert inner["args"] == {"program": "gawk"}
        # Containment on the shared pid/tid carries the nesting.
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert {e["pid"] for e in doc["traceEvents"]} == {1}
        assert {e["tid"] for e in doc["traceEvents"]} == {1}

    def test_export_is_valid_json_and_deterministic(self, tmp_path):
        def record(path):
            tracer = SpanTracer(enabled=True, clock=FakeClock())
            with tracer.span("outer", zebra=1, alpha=2):
                with tracer.span("inner"):
                    pass
            return write_chrome_trace(tracer, path)

        first = record(tmp_path / "a.json").read_bytes()
        second = record(tmp_path / "b.json").read_bytes()
        assert first == second
        doc = json.loads(first)
        assert [e["name"] for e in doc["traceEvents"]] == [
            "process_name", "outer", "inner",
        ]

    def test_write_creates_parent_directories(self, tmp_path, tracer):
        with tracer.span("s"):
            pass
        path = write_chrome_trace(tracer, tmp_path / "deep" / "spans.json")
        assert path.is_file()


class TestFoldedExport:
    def test_self_time_subtracts_children(self, tracer):
        # FakeClock advances 100us per reading: outer spans readings
        # 1..4 (total 300us), inner readings 2..3 (100us), so outer's
        # self time is 200us.
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = render_folded(tracer)
        assert text.splitlines() == ["outer 200", "outer;inner 100"]

    def test_repeated_paths_accumulate(self, tracer):
        for _ in range(3):
            with tracer.span("leaf"):
                pass
        assert render_folded(tracer) == "leaf 300"

    def test_empty_tracer_renders_empty(self):
        assert render_folded(SpanTracer()) == ""


class TestPipelineInstrumentation:
    """The real pipeline emits the documented span names."""

    def test_simulate_pipeline_spans(self, global_tracer, tmp_path):
        from repro.analysis.experiments import TraceStore

        store = TraceStore(
            scale=0.02, cache_dir=tmp_path / "cache", use_cache=True
        )
        store.trace("gawk", "test")
        store.predictor("gawk")
        names = {s.name for s in global_tracer.spans}
        assert "workload.run" in names
        assert "trace_cache.store" in names
        assert "profile.train_sites" in names
        assert "predictor.train" in names
        run = global_tracer.find("workload.run")[0]
        assert run.args["program"] == "gawk"

    def test_cache_hit_emits_load_span(self, global_tracer, tmp_path):
        from repro.analysis.experiments import TraceStore

        kwargs = dict(scale=0.02, cache_dir=tmp_path / "cache",
                      use_cache=True)
        TraceStore(**kwargs).trace("gawk", "test")
        global_tracer.reset()
        TraceStore(**kwargs).trace("gawk", "test")
        assert global_tracer.find("trace_cache.load")
        assert not global_tracer.find("workload.run")

    def test_simulate_replay_span_carries_allocator(self, global_tracer,
                                                    churn_trace):
        from repro.alloc.spec import FIRSTFIT_SPEC
        from repro.analysis.simulate import simulate_spec

        simulate_spec(churn_trace, FIRSTFIT_SPEC)
        (span,) = global_tracer.find("simulate.replay")
        assert span.cat == "simulate"
        assert span.args["allocator"] == "first-fit"


class TestCliSpansFlags:
    def test_stdout_identical_with_and_without_tracing(self, tmp_path,
                                                       capsys):
        trace_path = tmp_path / "t.json.gz"
        assert main([
            "trace", "gawk", "tiny", "-o", str(trace_path),
        ]) == 0
        capsys.readouterr()

        assert main(["quantiles", str(trace_path)]) == 0
        plain = capsys.readouterr()

        assert main([
            "--spans-out", str(tmp_path / "spans.json"),
            "--spans-folded", str(tmp_path / "spans.folded"),
            "quantiles", str(trace_path),
        ]) == 0
        traced_run = capsys.readouterr()

        assert traced_run.out == plain.out  # stdout byte-identical
        assert "spans:" in traced_run.err
        assert "spans:" not in plain.err

    def test_spans_out_writes_root_cli_span(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json.gz"
        assert main(["trace", "gawk", "tiny", "-o", str(trace_path)]) == 0
        spans_path = tmp_path / "spans.json"
        assert main([
            "--spans-out", str(spans_path), "quantiles", str(trace_path),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(spans_path.read_text())
        names = [e["name"] for e in doc["traceEvents"]]
        assert "cli.quantiles" in names

    def test_folded_output_written(self, tmp_path, capsys):
        trace_path = tmp_path / "t.json.gz"
        assert main(["trace", "gawk", "tiny", "-o", str(trace_path)]) == 0
        folded = tmp_path / "spans.folded"
        assert main([
            "--spans-folded", str(folded), "quantiles", str(trace_path),
        ]) == 0
        capsys.readouterr()
        lines = folded.read_text().splitlines()
        assert any(line.startswith("cli.quantiles ") for line in lines)
