"""Tests for the benchmark session hooks in benchmarks/conftest.py.

The conftest is loaded under a private module name so its hooks can be
exercised directly, without running a benchmark session.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import re

import pytest

from repro.bench import BENCH_SCHEMA_VERSION
from repro.obs.metrics import METRICS

CONFTEST_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "benchmarks" / "conftest.py"
)


@pytest.fixture()
def bench_conftest():
    spec = importlib.util.spec_from_file_location(
        "_bench_conftest_under_test", CONFTEST_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class DummyReporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line):
        self.lines.append(line)


class TestScaleValidation:
    def test_default_scale_is_one(self, bench_conftest, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_conftest.bench_scale() == 1.0

    def test_valid_scale_parsed(self, bench_conftest, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.05")
        assert bench_conftest.bench_scale() == 0.05

    @pytest.mark.parametrize("junk", ["abc", "", "0.5x"])
    def test_junk_scale_is_a_usage_error(self, bench_conftest,
                                         monkeypatch, junk):
        monkeypatch.setenv("REPRO_BENCH_SCALE", junk)
        with pytest.raises(pytest.UsageError,
                           match="REPRO_BENCH_SCALE must be a number"):
            bench_conftest.bench_scale()

    @pytest.mark.parametrize("bad", ["0", "-1", "nan", "inf"])
    def test_non_positive_scale_is_a_usage_error(self, bench_conftest,
                                                 monkeypatch, bad):
        monkeypatch.setenv("REPRO_BENCH_SCALE", bad)
        with pytest.raises(pytest.UsageError,
                           match="REPRO_BENCH_SCALE must be a finite"):
            bench_conftest.bench_scale()

    def test_configure_fails_fast_on_junk(self, bench_conftest,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "junk")
        with pytest.raises(pytest.UsageError):
            bench_conftest.pytest_configure(config=None)


class TestMetricsDump:
    def test_payload_has_provenance_and_registry(self, bench_conftest,
                                                 monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.25")
        path = tmp_path / "metrics.json"
        bench_conftest.write_metrics_json(path)
        payload = json.loads(path.read_text())
        prov = payload["provenance"]
        assert prov["scale"] == 0.25
        assert prov["schema_version"] == BENCH_SCHEMA_VERSION
        assert "git_sha" in prov and "python" in prov
        assert set(payload) == {"provenance", "counters", "gauges"}

    def test_terminal_summary_writes_metrics_json(self, bench_conftest,
                                                  monkeypatch, tmp_path):
        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
        monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
        monkeypatch.delenv("REPRO_SPANS_OUT", raising=False)
        # The registry is process-wide; make sure it is non-empty so the
        # dump branch runs regardless of test order.
        METRICS.incr("bench_conftest.test")
        METRICS.incr("trace_cache.hit")
        reporter = DummyReporter()
        bench_conftest.pytest_terminal_summary(reporter)
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert "provenance" in payload
        assert payload["counters"]["bench_conftest.test"] >= 1
        assert any("pipeline metrics" in line for line in reporter.lines)
        # The cache summary counts; stage time lives in the spans.
        assert any(
            re.fullmatch(r"trace cache: \d+ hits, \d+ misses", line)
            for line in reporter.lines
        )

    def test_bench_record_written_from_session_store(self, bench_conftest,
                                                     monkeypatch, tmp_path):
        from tests.test_bench import FakeStore

        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(bench_conftest, "_SESSION_STORE", FakeStore())
        monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        reporter = DummyReporter()
        bench_conftest.pytest_terminal_summary(reporter)
        bench_path = tmp_path / "bench" / "BENCH_0001.json"
        assert bench_path.is_file(), reporter.lines
        doc = json.loads(bench_path.read_text())
        assert len(doc["records"]) == 3  # synthetic x three allocators
        assert any("bench record" in line for line in reporter.lines)

    def test_record_failure_reported_not_raised(self, bench_conftest,
                                                monkeypatch, tmp_path):
        class ExplodingStore:
            programs = ("synthetic",)
            scale = 1.0

            def trace(self, program, dataset):
                raise RuntimeError("store broke")

            def predictor(self, program):
                raise RuntimeError("store broke")

        monkeypatch.setattr(bench_conftest, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(bench_conftest, "_SESSION_STORE",
                            ExplodingStore())
        monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "bench"))
        reporter = DummyReporter()
        bench_conftest.pytest_terminal_summary(reporter)  # must not raise
        assert any("bench record failed" in line for line in reporter.lines)
