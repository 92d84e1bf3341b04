"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestTraceCommand:
    def test_trace_writes_file(self, tmp_path, capsys):
        out = tmp_path / "t.json.gz"
        assert main(["trace", "gawk", "tiny", "-o", str(out)]) == 0
        assert out.exists()
        assert "gawk/tiny" in capsys.readouterr().out

    def test_unknown_program_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "nope", "tiny", "-o", str(tmp_path / "x")])

    def test_unknown_dataset_error(self, tmp_path, capsys):
        # WorkloadError propagates as a clean failure, not a traceback.
        with pytest.raises(Exception):
            main(["trace", "gawk", "bogus", "-o", str(tmp_path / "x")])


class TestPipeline:
    @pytest.fixture
    def trace_file(self, tmp_path):
        out = tmp_path / "gawk.json.gz"
        main(["trace", "gawk", "tiny", "-o", str(out)])
        return out

    def test_profile_predict_simulate(self, tmp_path, trace_file, capsys):
        sites = tmp_path / "gawk.sites"
        assert main([
            "profile", str(trace_file), "-o", str(sites),
            "--threshold", "8192",
        ]) == 0
        assert "short-lived sites" in capsys.readouterr().out

        assert main(["predict", str(sites), str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "predicted:" in out
        assert "actual short-lived:" in out

        assert main([
            "simulate", str(trace_file), "--sites", str(sites),
        ]) == 0
        out = capsys.readouterr().out
        assert "arena" in out
        assert "max heap size:" in out

    def test_simulate_baselines(self, trace_file, capsys):
        for allocator in ("firstfit", "bsd"):
            assert main([
                "simulate", str(trace_file), "--allocator", allocator,
            ]) == 0
            assert "instr/alloc" in capsys.readouterr().out

    def test_simulate_arena_needs_sites(self, trace_file, capsys):
        assert main(["simulate", str(trace_file)]) == 1
        assert "error" in capsys.readouterr().err

    def test_profile_missing_file(self, tmp_path, capsys):
        assert main([
            "profile", str(tmp_path / "absent.json"), "-o",
            str(tmp_path / "s"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_chain_length_option(self, tmp_path, trace_file, capsys):
        sites = tmp_path / "len2.sites"
        assert main([
            "profile", str(trace_file), "-o", str(sites),
            "--chain-length", "2", "--threshold", "8192",
        ]) == 0


class TestCorruptTrace:
    def test_truncated_gzip_is_a_clean_error(self, tmp_path, capsys):
        # Regression: a truncated gzip used to escape as a raw traceback.
        out = tmp_path / "t.json.gz"
        assert main(["trace", "gawk", "tiny", "-o", str(out)]) == 0
        out.write_bytes(out.read_bytes()[: out.stat().st_size // 2])
        capsys.readouterr()
        assert main(["quantiles", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "truncated or corrupt" in err

    def test_corrupt_json_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["sites", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestWarmCommand:
    def test_cold_then_hot(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["warm", "--scale", "0.02", "--cache-dir", cache_dir]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "warmed 10 executions" in out
        assert "10 run" in out

        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "10 disk" in out
        assert "0 run" in out

    def test_verbose_prints_metrics(self, tmp_path, capsys):
        assert main([
            "warm", "--scale", "0.02",
            "--cache-dir", str(tmp_path / "cache"), "-v",
        ]) == 0
        out = capsys.readouterr().out
        assert "pipeline metrics:" in out
        # Ten misses, each run and stored; stage times live in the spans.
        assert "trace_cache.store" in out
        assert "warm.run" in out
        assert "workload.run" not in out

    def test_no_cache_runs_everything(self, capsys):
        assert main(["warm", "--scale", "0.02", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "10 run" in out
        assert "(no cache)" in out

    def test_metrics_json_written(self, tmp_path, capsys):
        # METRICS is process-wide and other tests in this process also
        # warm stores, so assert on the delta, not absolute counts.
        from repro.obs.metrics import METRICS

        before_stores = METRICS.counter("trace_cache.store")
        before_warm = METRICS.counter("warm.run")
        path = tmp_path / "out" / "metrics.json"
        assert main([
            "warm", "--scale", "0.02",
            "--cache-dir", str(tmp_path / "cache"),
            "--metrics-json", str(path),
        ]) == 0
        capsys.readouterr()
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"counters", "gauges"}
        assert (
            snapshot["counters"]["trace_cache.store"] == before_stores + 10
        )
        assert snapshot["counters"]["warm.run"] == before_warm + 10


class TestTelemetryCommands:
    def test_timeline_writes_series(self, tmp_path, capsys):
        out_dir = tmp_path / "telemetry"
        assert main([
            "timeline", "--program", "gawk", "--allocator", "arena",
            "--scale", "0.05", "--cache-dir", str(tmp_path / "cache"),
            "--interval", "256", "--out-dir", str(out_dir),
        ]) == 0
        out = capsys.readouterr().out
        assert "timeline: gawk/test" in out
        assert "heap size" in out
        assert "capture rate" in out

        samples = out_dir / "gawk-test-arena.samples.jsonl"
        rows = [json.loads(line) for line in
                samples.read_text().splitlines()]
        assert rows, "timeline must record at least one sample"
        final = rows[-1]
        for key in ("heap_size", "external_frag", "internal_frag",
                    "free_blocks", "capture_rate", "search_depth"):
            assert key in final
        summary = json.loads(
            (out_dir / "gawk-test-arena.summary.json").read_text()
        )
        assert summary["sample_count"] == len(rows)
        assert (out_dir / "gawk-test-arena.csv").exists()

    def test_timeline_baseline_allocator(self, tmp_path, capsys):
        assert main([
            "timeline", "--program", "gawk", "--allocator", "firstfit",
            "--scale", "0.05", "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "telemetry"),
        ]) == 0
        assert "firstfit" not in capsys.readouterr().err

    def test_stats_lists_misprediction_sites(self, tmp_path, capsys):
        assert main([
            "stats", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--top", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "stats: gawk/test" in out
        assert "mispredictions:" in out
        assert "placement:" in out

    def test_stats_json_summary(self, tmp_path, capsys):
        assert main([
            "stats", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--json",
        ]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["program"] == "gawk"
        assert summary["totals"]["allocs"] > 0
        assert "top_misprediction_sites" in summary

    def test_simulate_stdout_unchanged_by_telemetry(self, tmp_path, capsys):
        trace = tmp_path / "gawk.json.gz"
        sites = tmp_path / "gawk.sites"
        main(["trace", "gawk", "tiny", "-o", str(trace)])
        main(["profile", str(trace), "-o", str(sites)])
        capsys.readouterr()

        assert main(["simulate", str(trace), "--sites", str(sites)]) == 0
        bare = capsys.readouterr()
        assert main([
            "simulate", str(trace), "--sites", str(sites),
            "--telemetry-out", str(tmp_path / "telemetry"),
        ]) == 0
        probed = capsys.readouterr()
        assert probed.out == bare.out
        assert "telemetry:" in probed.err
        assert (tmp_path / "telemetry").is_dir()
        assert any((tmp_path / "telemetry").iterdir())

    def test_timeline_requires_program(self, capsys):
        with pytest.raises(SystemExit):
            main(["timeline"])


class TestTableCommand:
    def test_single_table(self, capsys):
        assert main(["table", "5", "--scale", "0.05", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out
        assert "gawk" in out

    def test_unknown_table_rejected(self, capsys):
        assert main(["table", "42"]) == 1
        assert "no table" in capsys.readouterr().err

    def test_output_identical_with_and_without_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["table", "5", "--scale", "0.05",
                     "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr().out
        assert main(["table", "5", "--scale", "0.05",
                     "--cache-dir", cache_dir]) == 0
        cached = capsys.readouterr().out
        assert main(["table", "5", "--scale", "0.05", "--no-cache"]) == 0
        uncached = capsys.readouterr().out
        assert cold == cached == uncached


class TestInspectionCommands:
    @pytest.fixture
    def trace_file(self, tmp_path):
        out = tmp_path / "perl.json.gz"
        main(["trace", "perl", "tiny", "-o", str(out)])
        return out

    def test_quantiles(self, trace_file, capsys):
        assert main(["quantiles", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "lifetime quartiles" in out
        assert "short-lived at 32768 bytes" in out

    def test_quantiles_custom_threshold(self, trace_file, capsys):
        assert main(["quantiles", str(trace_file), "--threshold", "1024"]) == 0
        assert "short-lived at 1024 bytes" in capsys.readouterr().out

    def test_sites(self, trace_file, capsys):
        assert main(["sites", str(trace_file), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "top 3 by volume" in out
        assert "uniformly short-lived" in out
        assert "xalloc" in out


class TestDiffCommand:
    def test_diff_renders_attribution(self, tmp_path, capsys):
        train = tmp_path / "train.json.gz"
        test = tmp_path / "test.json.gz"
        main(["trace", "perl", "train", "-o", str(train), "--scale", "0.05"])
        main(["trace", "perl", "test", "-o", str(test), "--scale", "0.05"])
        capsys.readouterr()
        assert main(["diff", str(train), str(test), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "predictable" in out
        assert "new sites" in out
        assert "perl/train" in out and "perl/test" in out

    def test_diff_missing_file(self, tmp_path, capsys):
        assert main([
            "diff", str(tmp_path / "a.gz"), str(tmp_path / "b.gz"),
        ]) == 1
        assert "error" in capsys.readouterr().err


class TestStreamingCli:
    @pytest.fixture
    def v3_trace(self, tmp_path):
        out = tmp_path / "gawk.rtr3"
        main(["trace", "gawk", "tiny", "-o", str(out)])
        return out

    def test_trace_rtr3_suffix_selects_v3(self, v3_trace):
        from repro.runtime.stream import TraceFileSource
        from repro.runtime.tracefile import open_trace_stream

        assert isinstance(open_trace_stream(v3_trace), TraceFileSource)

    def test_convert_upgrades_v2_to_v3(self, tmp_path, capsys):
        v2 = tmp_path / "gawk.json.gz"
        v3 = tmp_path / "gawk.rtr3"
        main(["trace", "gawk", "tiny", "-o", str(v2)])
        capsys.readouterr()
        assert main(["convert", str(v2), str(v3)]) == 0
        assert "format v3" in capsys.readouterr().out

        from repro.runtime.tracefile import load_trace

        assert load_trace(v3).total_objects == load_trace(v2).total_objects

    def test_convert_missing_source_is_a_clean_error(self, tmp_path, capsys):
        assert main([
            "convert", str(tmp_path / "nope.rtr3"), str(tmp_path / "out"),
        ]) == 1
        assert "error" in capsys.readouterr().err

    def test_simulate_stream_output_matches_materialized(
        self, v3_trace, capsys
    ):
        assert main([
            "simulate", str(v3_trace), "--allocator", "firstfit",
        ]) == 0
        materialized = capsys.readouterr()
        assert main([
            "simulate", str(v3_trace), "--allocator", "firstfit", "--stream",
        ]) == 0
        streamed = capsys.readouterr()
        assert streamed.out == materialized.out
        assert "peak rss:" in streamed.err
        assert "peak rss:" not in materialized.err


class TestJobsOption:
    """Replay and folds are serial; only ``warm`` runs worker processes."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "t.rtr3"],
        ["stats", "--program", "gawk"],
        ["profile-sites", "--program", "gawk"],
        ["windows", "--program", "gawk"],
        ["escape-eval"],
        ["search", "run", "--program", "cfrac"],
        ["bench", "run"],
        ["table", "1"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_only_warm_takes_jobs(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err
