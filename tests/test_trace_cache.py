"""Tests for the persistent trace cache, metrics, and parallel warm."""

from __future__ import annotations

import json
import threading
from collections import Counter

import pytest

from repro.analysis.experiments import TraceStore
from repro.cli import main
from repro.obs.metrics import Metrics
from repro.obs.spans import TRACER
from repro.analysis import trace_cache as trace_cache_mod
from repro.analysis.trace_cache import TraceCache, default_cache_dir
from repro.runtime import tracefile
from tests.conftest import make_churn_trace

PROGRAM = "synthetic"
DATASET = "synthetic"
SCALE = 1.0


@pytest.fixture
def cache(tmp_path):
    return TraceCache(tmp_path / "cache", metrics=Metrics())


class TestKeying:
    def test_entry_name_carries_all_key_parts(self, cache):
        path = cache.entry_path("gawk", "train", 0.5)
        assert path.name.startswith("gawk-train-scale0.5-")
        assert f"-v{tracefile.FORMAT_VERSION}-" in path.name
        assert path.name.endswith(".rtr3")

    def test_scale_changes_the_key(self, cache):
        assert cache.entry_path("gawk", "train", 1.0) != cache.entry_path(
            "gawk", "train", 0.5
        )

    def test_format_version_changes_the_key(self, cache, monkeypatch):
        before = cache.entry_path("gawk", "train", 1.0)
        monkeypatch.setattr(tracefile, "FORMAT_VERSION", 999)
        assert cache.entry_path("gawk", "train", 1.0) != before

    def test_source_hash_changes_the_key(self, cache, monkeypatch):
        before = cache.entry_path("gawk", "train", 1.0)
        monkeypatch.setattr(
            trace_cache_mod, "workloads_source_hash", lambda: "deadbeef0000"
        )
        assert cache.entry_path("gawk", "train", 1.0) != before

    def test_source_hash_is_stable_within_a_process(self):
        assert (
            trace_cache_mod.workloads_source_hash()
            == trace_cache_mod.workloads_source_hash()
        )

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        assert cache.load(PROGRAM, DATASET, SCALE) is None
        assert cache.metrics.counter("trace_cache.miss") == 1

        trace = make_churn_trace(objects=40)
        cache.store(trace, SCALE)
        loaded = cache.load(PROGRAM, DATASET, SCALE)
        assert loaded is not None
        assert cache.metrics.counter("trace_cache.hit") == 1
        assert list(loaded.events()) == list(trace.events())
        assert loaded.total_bytes == trace.total_bytes

    def test_corrupt_entry_is_a_miss_and_removed(self, cache):
        trace = make_churn_trace(objects=40)
        path = cache.store(trace, SCALE)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])

        assert cache.load(PROGRAM, DATASET, SCALE) is None
        assert cache.metrics.counter("trace_cache.corrupt") == 1
        assert not path.exists()

        # The normal recovery: re-store and the entry works again.
        cache.store(trace, SCALE)
        assert cache.load(PROGRAM, DATASET, SCALE) is not None

    def test_garbage_entry_is_a_miss(self, cache):
        path = cache.entry_path(PROGRAM, DATASET, SCALE)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not gzip at all")
        assert cache.load(PROGRAM, DATASET, SCALE) is None

    def test_clear_removes_entries(self, cache):
        cache.store(make_churn_trace(objects=40), SCALE)
        assert cache.clear() == 1
        assert not cache.has(PROGRAM, DATASET, SCALE)

    def test_concurrent_writers_leave_a_loadable_entry(self, cache):
        trace = make_churn_trace(objects=60)
        errors = []

        def write():
            try:
                for _ in range(5):
                    cache.store(trace, SCALE)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        loaded = cache.load(PROGRAM, DATASET, SCALE)
        assert loaded is not None
        assert list(loaded.events()) == list(trace.events())


class TestTraceStoreIntegration:
    def test_second_store_loads_from_disk(self, tmp_path):
        metrics_a = Metrics()
        store_a = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), metrics=metrics_a
        )
        trace_a = store_a.trace("gawk", "tiny")
        # A miss, then the workload's trace is stored: one run.
        assert metrics_a.counter("trace_cache.miss") == 1
        assert metrics_a.counter("trace_cache.store") == 1

        metrics_b = Metrics()
        store_b = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), metrics=metrics_b
        )
        trace_b = store_b.trace("gawk", "tiny")
        assert metrics_b.counter("trace_cache.hit") == 1
        assert metrics_b.counter("trace_cache.store") == 0
        assert list(trace_b.events()) == list(trace_a.events())
        assert trace_b.live_stats() == trace_a.live_stats()

    def test_memory_layer_still_memoizes(self, tmp_path):
        store = TraceStore(scale=0.05, cache_dir=str(tmp_path))
        assert store.trace("gawk", "tiny") is store.trace("gawk", "tiny")

    def test_use_cache_false_disables_disk(self, tmp_path):
        store = TraceStore(
            scale=0.05, cache_dir=str(tmp_path), use_cache=False
        )
        assert store.cache is None
        store.trace("gawk", "tiny")
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_env_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        store = TraceStore(scale=0.05, cache_dir=str(tmp_path))
        assert store.cache is None


class TestWarm:
    def test_serial_warm_then_full_disk_hit(self, tmp_path):
        store = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        results = store.warm()
        assert len(results) == 10
        assert {r.source for r in results} == {"run"}

        fresh = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        again = fresh.warm()
        assert {r.source for r in again} == {"disk"}

    def test_parallel_warm_populates_cache(self, tmp_path):
        store = TraceStore(scale=0.02, cache_dir=str(tmp_path))
        before = len(TRACER.spans)
        results = store.warm(jobs=2)
        # With tracing off, workers ship no spans back.
        assert not TRACER.enabled and len(TRACER.spans) == before
        assert len(results) == 10
        assert {r.source for r in results} == {"run"}
        assert [(r.program, r.dataset) for r in results] == store.warm_pairs()
        for program, dataset in store.warm_pairs():
            assert store.cache.has(program, dataset, 0.02)

    def test_parallel_warm_merges_worker_metrics(self, tmp_path):
        # Regression: process-pool workers used to record their cache
        # counts into their own registry and throw it away on exit, so a
        # parallel warm reported no cache activity.
        metrics = Metrics()
        store = TraceStore(
            scale=0.02, cache_dir=str(tmp_path), metrics=metrics
        )
        store.warm(jobs=2)
        assert metrics.counter("trace_cache.miss") == 10
        assert metrics.counter("trace_cache.store") == 10
        assert metrics.counter("warm.run") == 10

        again = Metrics()
        fresh = TraceStore(
            scale=0.02, cache_dir=str(tmp_path), metrics=again
        )
        fresh.warm(jobs=2)
        assert again.counter("trace_cache.store") == 0
        assert again.counter("trace_cache.hit") == 10
        assert again.counter("warm.disk") == 10

    def test_parallel_warm_without_cache_falls_back_to_serial(self):
        no_cache = TraceStore(scale=0.02, use_cache=False)
        results = no_cache.warm(jobs=4)
        assert {r.source for r in results} == {"run"}
        # Traces landed in memory despite jobs>1 (serial fallback).
        assert no_cache.trace("cfrac", "train") is no_cache.trace(
            "cfrac", "train"
        )


class TestWarmCli:
    def test_warm_no_cache_jobs_warns(self, capsys):
        assert main([
            "warm", "--no-cache", "--jobs", "2", "--scale", "0.02",
        ]) == 0
        err = capsys.readouterr().err
        assert "warming serially" in err

    def test_bad_jobs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["warm", "--jobs", "0"])
        assert exc.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_parallel_warm_records_serial_spans(self, tmp_path, capsys):
        # Regression: pool workers traced nothing, so a parallel warm's
        # span export held only the cli.warm and warm spans.
        def spans(name, *jobs):
            out = tmp_path / f"{name}.json"
            folded = tmp_path / f"{name}.folded"
            assert main([
                "--spans-out", str(out), "--spans-folded", str(folded),
                "warm", "--scale", "0.02",
                "--cache-dir", str(tmp_path / name), *jobs,
            ]) == 0
            events = [
                event for event in json.loads(out.read_text())["traceEvents"]
                if event["ph"] == "X"
            ]
            names = Counter(event["name"] for event in events)
            lanes = {
                event["tid"] for event in events
                if event["name"] == "workload.run"
            }
            paths = {
                line.rsplit(" ", 1)[0]
                for line in folded.read_text().splitlines()
            }
            return names, lanes, paths

        serial_names, serial_lanes, serial_paths = spans("serial")
        parallel_names, parallel_lanes, parallel_paths = spans(
            "parallel", "--jobs", "2"
        )
        capsys.readouterr()
        assert serial_names["workload.run"] == 10
        assert parallel_names == serial_names
        assert parallel_paths == serial_paths
        # Worker spans land on lanes of their own beside the parent's.
        assert serial_lanes == {1}
        assert parallel_lanes and min(parallel_lanes) >= 2


class TestMetrics:
    def test_stage_and_counters(self):
        # Stage time is the span tracer's; the registry only counts.
        metrics = Metrics()
        for name in ("stage", "add_time", "timing", "timings"):
            assert not hasattr(metrics, name)
        metrics.incr("c", 2)
        metrics.incr("c")
        assert metrics.counter("c") == 3

    def test_report_mentions_everything(self):
        metrics = Metrics()
        metrics.incr("trace_cache.hit", 7)
        metrics.set_max("peak_rss_kb", 1234)
        text = metrics.report("title:")
        assert "title:" in text
        assert "trace_cache.hit" in text
        assert "7" in text
        assert "peak_rss_kb" in text and "1234" in text

    def test_reset(self):
        metrics = Metrics()
        metrics.incr("x")
        metrics.reset()
        assert metrics.counter("x") == 0
        assert "(no measurements recorded)" in metrics.report()

    def test_to_dict_round_trips_through_json(self):
        import json

        metrics = Metrics()
        metrics.incr("hits", 3)
        metrics.set_max("peak_rss_kb", 10)
        snapshot = json.loads(metrics.to_json())
        assert snapshot == metrics.to_dict()
        assert snapshot == {
            "counters": {"hits": 3, "peak_rss_kb": 10},
            "gauges": ["peak_rss_kb"],
        }

    def test_merge_adds_counters(self):
        parent = Metrics()
        parent.incr("hits", 1)
        parent.set_max("peak_rss_kb", 50)
        child = Metrics()
        child.incr("hits", 2)
        child.incr("misses")
        child.set_max("peak_rss_kb", 40)

        parent.merge(child)
        assert parent.counter("hits") == 3
        assert parent.counter("misses") == 1
        # Gauges are concurrent highs: they merge by maximum.
        assert parent.counter("peak_rss_kb") == 50

    def test_merge_accepts_to_dict_snapshots(self):
        child = Metrics()
        child.incr("events", 5)
        parent = Metrics()
        parent.merge(child.to_dict())
        assert parent.counter("events") == 5
