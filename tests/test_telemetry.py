"""Tests for the heap telemetry recorder, exporters, and renderers.

The three properties the observability layer guarantees:

* **zero interference** — a replay with a recorder attached produces the
  same :class:`~repro.analysis.simulate.SimulationResult` as one without;
* **determinism** — the same trace at the same sample interval exports
  byte-identical artifacts;
* **honest accounting** — the three misprediction kinds fire exactly when
  their definitions say they should.
"""

from __future__ import annotations

import json

import pytest

from repro.alloc.arena import ArenaAllocator
from repro.alloc.firstfit import FirstFitAllocator
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis.simulate import replay, simulate_spec
from repro.core.predictor import LifetimePredictor, train_site_predictor
from repro.obs import (
    MISPREDICTION_KINDS,
    Metrics,
    NullTelemetry,
    Telemetry,
    export_timeline,
    render_stats,
    render_timeline,
    sparkline,
    telemetry_summary,
)
from tests.conftest import make_churn_trace


class _AlwaysShort(LifetimePredictor):
    """Predicts every object short-lived (maximum arena pressure)."""

    site_count = 0

    def __init__(self, threshold: int = 4096):
        self.threshold = threshold

    def predicts_short_lived(self, chain, size) -> bool:
        return True


class _NeverShort(LifetimePredictor):
    """Predicts nothing short-lived (everything goes to the general heap)."""

    site_count = 0

    def __init__(self, threshold: int = 4096):
        self.threshold = threshold

    def predicts_short_lived(self, chain, size) -> bool:
        return False


def _telemetry(**kwargs) -> Telemetry:
    """A recorder wired to a private registry (keeps METRICS clean)."""
    kwargs.setdefault("metrics", Metrics())
    return Telemetry(**kwargs)


class TestZeroInterference:
    def test_arena_results_identical(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        bare = simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, predictor)
        probed = simulate_spec(
            churn_trace, PAPER_DEFAULT_SPEC, predictor,
            telemetry=_telemetry(interval=64),
        )
        assert bare == probed

    def test_baseline_results_identical(self, churn_trace):
        for spec in (FIRSTFIT_SPEC, BSD_SPEC):
            assert simulate_spec(churn_trace, spec) == simulate_spec(
                churn_trace, spec, telemetry=_telemetry(interval=64)
            )

    def test_probe_detached_after_finish(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        allocator = ArenaAllocator(predictor)
        telemetry = _telemetry()
        replay(churn_trace, allocator, telemetry=telemetry)
        assert allocator.probe is None

    def test_null_telemetry_records_nothing(self, churn_trace):
        allocator = FirstFitAllocator()
        replay(churn_trace, allocator, telemetry=NullTelemetry())
        assert allocator.probe is None


class TestSampling:
    def test_interval_respected_plus_final_sample(self, churn_trace):
        telemetry = _telemetry(interval=100)
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        total = telemetry.totals()["allocs"]
        events = [row["event"] for row in telemetry.samples]
        expected = list(range(100, total + 1, 100))
        if not expected or expected[-1] != total:
            expected.append(total)
        assert events == expected

    def test_huge_interval_still_yields_final_sample(self, churn_trace):
        telemetry = _telemetry(interval=10**9)
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        assert len(telemetry.samples) == 1
        assert telemetry.samples[0]["event"] == telemetry.totals()["allocs"]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            Telemetry(interval=0)

    def test_byte_time_is_monotone(self, churn_trace):
        telemetry = _telemetry(interval=50)
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        clocks = telemetry.series("byte_time")
        assert clocks == sorted(clocks)
        assert clocks[-1] == churn_trace.total_bytes

    def test_firstfit_gauges_present_and_sane(self, churn_trace):
        telemetry = _telemetry(interval=64)
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        for row in telemetry.samples:
            assert row["heap_size"] >= row["live_bytes"] >= 0
            assert 0.0 <= row["external_frag"] <= 1.0
            assert 0.0 <= row["internal_frag"] <= 1.0
            assert row["free_blocks"] >= 0
        assert telemetry.allocator_name == "first-fit"

    def test_arena_gauges_present(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        telemetry = _telemetry(interval=64)
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, predictor,
                      telemetry=telemetry)
        final = telemetry.samples[-1]
        assert 0.0 <= final["arena_occupancy"] <= 1.0
        assert 0.0 <= final["capture_rate"] <= 1.0
        assert final["capture_rate"] > 0.5  # churn is overwhelmingly short

    def test_metrics_mirror(self, churn_trace):
        metrics = Metrics()
        telemetry = Telemetry(interval=64, metrics=metrics)
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        assert metrics.counter("telemetry.samples") == len(telemetry.samples)


class TestMispredictions:
    def test_late_free_charged_to_long_lived_site(self, churn_trace):
        # Threshold 512: most churn (lifetime ~ a hundred bytes) stays
        # short, but the few churn objects whose window spans the 2 KB
        # keeper allocation live past the threshold — predicted short yet
        # freed late, the arena-polluting case.  (The keeper itself is
        # never freed, so no death event can charge it.)
        telemetry = _telemetry()
        simulate_spec(
            churn_trace, PAPER_DEFAULT_SPEC, _AlwaysShort(threshold=512),
            telemetry=telemetry,
        )
        totals = telemetry.totals()
        assert totals["late_free"] >= 1
        late_sites = [
            chain for chain, site in telemetry.sites.items()
            if site.late_free
        ]
        assert any("helper" in chain for chain in late_sites)

    def test_missed_short_when_predictor_declines(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, _NeverShort(),
                      telemetry=telemetry)
        totals = telemetry.totals()
        assert totals["arena_allocs"] == 0
        assert totals["missed_short"] > 0
        assert totals["late_free"] == 0
        assert totals["overflow"] == 0

    def test_overflow_when_arenas_are_tiny(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(
            churn_trace, AllocatorSpec(num_arenas=1, arena_size=64),
            _AlwaysShort(), telemetry=telemetry,
        )
        assert telemetry.totals()["overflow"] > 0

    def test_baselines_never_mispredict(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(churn_trace, FIRSTFIT_SPEC, telemetry=telemetry)
        totals = telemetry.totals()
        for kind in MISPREDICTION_KINDS:
            assert totals[kind] == 0
        assert totals["unpredicted_allocs"] == totals["allocs"]

    def test_top_sites_ranked_deterministically(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, _NeverShort(),
                      telemetry=telemetry)
        ranked = telemetry.top_sites(top=10)
        counts = [site.mispredictions for _, site in ranked]
        assert counts == sorted(counts, reverse=True)
        assert all(site.mispredictions > 0 for _, site in ranked)


class TestExportDeterminism:
    def _export_once(self, trace, out_dir):
        predictor = train_site_predictor(trace, threshold=4096)
        telemetry = _telemetry(interval=64)
        simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor,
                      telemetry=telemetry)
        return export_timeline(telemetry, out_dir)

    def test_same_trace_same_interval_byte_identical(self, tmp_path):
        trace = make_churn_trace(objects=300)
        first = self._export_once(trace, tmp_path / "a")
        second = self._export_once(trace, tmp_path / "b")
        assert set(first) == {"samples", "csv", "summary"}
        for kind in ("samples", "csv"):
            assert first[kind].read_bytes() == second[kind].read_bytes()
        # The summary carries environment gauges (peak RSS moves
        # monotonically between two in-process exports), so compare it
        # parsed with the gauges stripped.
        docs = []
        for paths in (first, second):
            doc = json.loads(paths["summary"].read_text())
            assert doc.pop("gauges", None) is not None
            docs.append(doc)
        assert docs[0] == docs[1]

    def test_jsonl_rows_parse_and_match_samples(self, tmp_path, churn_trace):
        paths = self._export_once(churn_trace, tmp_path)
        rows = [
            json.loads(line)
            for line in paths["samples"].read_text().splitlines()
        ]
        assert len(rows) > 1
        assert all("heap_size" in row and "event" in row for row in rows)

    def test_summary_contents(self, tmp_path, churn_trace):
        paths = self._export_once(churn_trace, tmp_path)
        summary = json.loads(paths["summary"].read_text())
        assert summary["program"] == "synthetic"
        assert summary["allocator"] == "arena"
        assert summary["sample_count"] > 0
        assert summary["final_sample"]["event"] == summary["totals"]["allocs"]

    def test_csv_header_matches_row_width(self, tmp_path, churn_trace):
        paths = self._export_once(churn_trace, tmp_path)
        lines = paths["csv"].read_text().splitlines()
        width = len(lines[0].split(","))
        assert all(len(line.split(",")) == width for line in lines[1:])


class TestRendering:
    def test_sparkline_shape(self):
        assert sparkline([]) == ""
        assert len(sparkline(list(range(100)), width=40)) == 40
        flat = sparkline([5, 5, 5])
        assert len(set(flat)) == 1

    def test_render_timeline_mentions_series(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        telemetry = _telemetry(interval=64)
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, predictor,
                      telemetry=telemetry)
        text = render_timeline(telemetry)
        assert "heap size" in text
        assert "capture rate" in text
        assert "synthetic" in text

    def test_render_stats_lists_sites(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, _NeverShort(),
                      telemetry=telemetry)
        text = render_stats(telemetry, top=5)
        assert "mispredictions" in text
        assert "missed-short" in text
        assert "helper" in text or "keeper" in text

    def test_summary_is_json_serializable(self, churn_trace):
        telemetry = _telemetry()
        simulate_spec(churn_trace, PAPER_DEFAULT_SPEC, _NeverShort(),
                      telemetry=telemetry)
        json.dumps(telemetry_summary(telemetry))
