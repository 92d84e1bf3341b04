"""Windowed time series, drift scoring, and the HTML run report.

Covers ISSUE 8: the window partition math on both axes, the
:class:`WindowFold` against a brute-force per-window oracle, the
order-independent add contract (so streams and in-memory traces
agree), drift
classification and its gating knobs, the drift kind in the session-diff
verdict contract, byte-determinism of every export, RFC 4180 round-trips
for adversarial chain names (the CSV escaping audit), the report
renderer's self-containment, and the new CLI surfaces (``windows``,
``report``, ``timeline --json`` and its zero-samples failure path).
"""

from __future__ import annotations

import copy
import csv
import json
import random

import pytest

from repro.alloc.bsd import bucket_for
from repro.cli import main
from repro.core.predictor import train_site_predictor
from repro.core.sites import ChainTable
from repro.obs.attrib import AttributionProfile, SiteAttribution, write_attrib_csv
from repro.obs.diff import detect_kind, diff_documents
from repro.obs.drift import drift_report, render_drift, write_drift_json
from repro.obs.export import write_csv
from repro.obs.html import render_report, write_report
from repro.obs.windows import (
    WindowFold,
    WindowProfile,
    WindowSpec,
    export_windows,
    render_windows,
    window_profile,
    window_spec_for,
    write_windows_csv,
    write_windows_json,
)
from repro.runtime.stream.protocol import (
    iter_object_records,
)
from tests.conftest import make_churn_trace

THRESHOLD = 4096


@pytest.fixture(scope="module")
def trace():
    return make_churn_trace(objects=300)


@pytest.fixture(scope="module")
def records(trace):
    return list(iter_object_records(trace))


@pytest.fixture(scope="module")
def profile(trace):
    return window_profile(trace, windows=8, threshold=THRESHOLD)


class TestWindowSpec:
    def test_bytes_axis_equal_spans(self, trace):
        spec = window_spec_for(trace, windows=4)
        end = trace.end_time
        assert spec.starts == (0, end // 4, (2 * end) // 4, (3 * end) // 4)
        assert spec.span(3) == ((3 * end) // 4, end)

    def test_index_brackets_and_clamps(self):
        spec = WindowSpec("bytes", 4, 400, (0, 100, 200, 300))
        assert spec.index(0) == 0
        assert spec.index(99) == 0
        assert spec.index(100) == 1
        assert spec.index(399) == 3
        # end_time and anything past it land in the last window.
        assert spec.index(400) == 3
        assert spec.index(10_000) == 3

    def test_events_axis_boundaries_are_quantile_births(self, trace):
        source = trace
        spec = window_spec_for(source, windows=4, by="events")
        total = trace.total_objects
        births = [rec[3] for rec in sorted(
            iter_object_records(source), key=lambda rec: rec[0]
        )]
        expected = tuple(
            births[(i * total) // 4] if i else 0 for i in range(4)
        )
        assert spec.starts == expected
        # Each window then holds its quarter of the allocation events.
        counts = [0, 0, 0, 0]
        for birth in births:
            counts[spec.index(birth)] += 1
        assert counts == [
            (i + 1) * total // 4 - i * total // 4 for i in range(4)
        ]

    def test_rejects_bad_axis_and_count(self, trace):
        source = trace
        with pytest.raises(ValueError, match="axis"):
            window_spec_for(source, windows=4, by="wall-clock")
        with pytest.raises(ValueError, match=">= 1"):
            window_spec_for(source, windows=0)

    def test_single_window_degenerates_to_totals(self, trace):
        prof = window_profile(trace, windows=1, threshold=THRESHOLD)
        row = prof.rows[0]
        assert row["allocs"] == trace.total_objects
        assert row["alloc_bytes"] == trace.total_bytes
        assert row["frees"] == trace.total_objects
        assert row["live_bytes_end"] == 0


def _oracle(records, spec, threshold):
    """Per-window tallies recomputed naively, no fold machinery."""
    count = spec.count
    out = {
        name: [0] * count
        for name in ("allocs", "alloc_bytes", "frees", "free_bytes",
                     "frag_bytes", "short_allocs", "short_alloc_bytes",
                     "live_bytes_end", "live_objects_end", "occupancy")
    }
    for _obj_id, _chain_id, size, birth, death, _touches in records:
        birth_w = spec.index(birth)
        death_w = spec.index(death)
        out["allocs"][birth_w] += 1
        out["alloc_bytes"][birth_w] += size
        out["frag_bytes"][birth_w] += (1 << bucket_for(size)) - size
        if death - birth < threshold:
            out["short_allocs"][birth_w] += 1
            out["short_alloc_bytes"][birth_w] += size
        out["frees"][death_w] += 1
        out["free_bytes"][death_w] += size
        for window in range(count):
            start, end = spec.span(window)
            overlap = min(death, end) - max(birth, start)
            if overlap > 0:
                out["occupancy"][window] += size * overlap
            if birth <= end < death:
                out["live_bytes_end"][window] += size
                out["live_objects_end"][window] += 1
    return out


class TestWindowFold:
    def test_matches_bruteforce_oracle(self, trace, records, profile):
        oracle = _oracle(records, profile.spec, THRESHOLD)
        fold = profile.fold
        assert fold.allocs == oracle["allocs"]
        assert fold.alloc_bytes == oracle["alloc_bytes"]
        assert fold.frees == oracle["frees"]
        assert fold.free_bytes == oracle["free_bytes"]
        assert fold.frag_bytes == oracle["frag_bytes"]
        assert fold.short_allocs == oracle["short_allocs"]
        assert fold.short_alloc_bytes == oracle["short_alloc_bytes"]
        assert fold.live_bytes_end == oracle["live_bytes_end"]
        assert fold.live_objects_end == oracle["live_objects_end"]
        assert fold.occupancy == oracle["occupancy"]

    def test_conserves_trace_totals(self, trace, profile):
        totals = profile.totals()
        assert totals["allocs"] == trace.total_objects
        assert totals["alloc_bytes"] == trace.total_bytes
        assert totals["frees"] == trace.total_objects

    def test_site_windows_partition_the_objects(self, trace, profile):
        per_site = profile.site_windows()
        total = sum(
            record.objects
            for windows in per_site.values()
            for record in windows.values()
        )
        assert total == trace.total_objects

    def test_add_object_is_order_independent(self, trace, records):
        source = trace
        spec = window_spec_for(source, windows=8)
        chains = source.header.chains

        def fold_of(recs):
            fold = WindowFold(spec, chains, threshold=THRESHOLD)
            for rec in recs:
                fold.add_object(*rec)
            state = {
                name: value for name, value in vars(fold).items()
                if isinstance(value, list)
            }
            state["sites"] = {
                cid: {w: r.to_dict() for w, r in site.items()}
                for cid, site in fold.sites.items()
            }
            return state

        shuffled = list(records)
        random.Random(7).shuffle(shuffled)
        assert shuffled != list(records)
        whole = fold_of(records)
        assert "death_hist" in whole and "occupancy" in whole
        assert fold_of(shuffled) == whole
        assert fold_of(reversed(records)) == whole

    def test_predictor_scoring_splits_predicted_and_missed(self, trace):
        predictor = train_site_predictor(trace, threshold=THRESHOLD)
        prof = window_profile(
            trace, windows=4, predictor=predictor, threshold=THRESHOLD
        )
        totals = prof.totals()
        # The churn site trains short, so predictions cover the churn
        # objects; the keeper is long-lived and unpredicted.
        assert totals["predicted_allocs"] > 0
        assert totals["predicted_allocs"] + totals["missed_short"] >= (
            totals["short_allocs"]
        )

    def test_quantiles_bracket_the_lifetimes(self, profile):
        for row in profile.rows:
            if row["frees"] == 0:
                continue
            assert 0 <= row["lifetime_p50"] <= row["lifetime_p90"]
            assert row["lifetime_p90"] <= row["lifetime_p99"]


class TestWindowExports:
    def test_json_is_byte_deterministic(self, profile, tmp_path):
        a = tmp_path / "a.windows.json"
        b = tmp_path / "b.windows.json"
        write_windows_json(profile, a)
        write_windows_json(profile, b)
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["kind"] == "windows"
        assert len(doc["rows"]) == profile.spec.count

    def test_csv_round_trips_the_rows(self, profile, tmp_path):
        path = write_windows_csv(profile, tmp_path / "w.windows.csv")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == profile.spec.count
        for parsed, row in zip(rows, profile.rows):
            assert int(parsed["allocs"]) == row["allocs"]
            assert float(parsed["short_fraction"]) == row["short_fraction"]

    def test_export_writes_both_artifacts(self, profile, tmp_path):
        paths = export_windows(profile, tmp_path)
        assert sorted(paths) == ["csv", "json"]
        for path in paths.values():
            assert path.exists()

    def test_render_lists_every_window(self, profile):
        text = render_windows(profile)
        assert "8 windows by bytes" in text
        assert text.count("\n") >= profile.spec.count


def _drifting_profile(min_per_window=10):
    """A hand-built profile: site 0 flips short->long mid-run."""
    spec = WindowSpec("bytes", 4, 4000, (0, 1000, 2000, 3000))
    chains = ChainTable.from_list([("main", "phased"), ("main", "steady")])
    fold = WindowFold(spec, chains, threshold=100)
    obj_id = 0
    for window in range(4):
        base = window * 1000
        for i in range(min_per_window):
            # Site 0: short-lived in windows 0-1, long-lived in 2-3.
            lifetime = 10 if window < 2 else 900
            fold.add_object(obj_id, 0, 8, base + i, base + i + lifetime, 0)
            obj_id += 1
            # Site 1: always short-lived.
            fold.add_object(obj_id, 1, 8, base + i, base + i + 10, 0)
            obj_id += 1
    return WindowProfile(
        program="synthetic", dataset="synthetic", spec=spec,
        threshold=100, predictor_sites=0, fold=fold,
    )


class TestDrift:
    def test_flags_the_flipping_site_only(self):
        report = drift_report(_drifting_profile(), min_objects=4)
        by_chain = {tuple(s["chain"]): s for s in report["sites"]}
        phased = by_chain[("main", "phased")]
        steady = by_chain[("main", "steady")]
        assert phased["drifting"] is True
        assert phased["classification"] == "short"
        assert phased["drift_windows"] == 2
        assert phased["drift_objects"] == 20
        assert phased["drift_score"] == 0.5
        assert [w["index"] for w in phased["windows"]] == [2, 3]
        assert steady["drifting"] is False
        assert steady["drift_windows"] == 0
        assert report["totals"] == {
            "sites_scored": 2, "drifting_sites": 1,
            "drift_windows": 2, "drift_objects": 20,
        }

    def test_min_windows_gates_the_verdict(self):
        report = drift_report(
            _drifting_profile(), min_windows=3, min_objects=4
        )
        assert report["totals"]["drifting_sites"] == 0
        # All sites still present so diff keys stay stable.
        assert report["totals"]["sites_scored"] == 2

    def test_min_objects_ignores_thin_windows(self):
        report = drift_report(_drifting_profile(10), min_objects=11)
        assert report["totals"]["drifting_sites"] == 0

    def test_clean_run_reports_no_drift(self, profile):
        report = drift_report(profile)
        assert report["totals"]["drifting_sites"] == 0
        assert "no drifting sites" in render_drift(report)

    def test_render_ranks_drifters(self):
        report = drift_report(_drifting_profile(), min_objects=4)
        text = render_drift(report)
        assert "1 drifting" in text
        assert "phased" in text

    def test_json_export_is_deterministic(self, tmp_path):
        report = drift_report(_drifting_profile(), min_objects=4)
        a = write_drift_json(report, tmp_path / "a.drift.json")
        b = write_drift_json(report, tmp_path / "b.drift.json")
        assert a.read_bytes() == b.read_bytes()


class TestDriftDiff:
    @pytest.fixture
    def baseline(self):
        return drift_report(_drifting_profile(), min_objects=4)

    def test_detect_kind(self, baseline):
        assert detect_kind(baseline) == "drift"

    def test_identical_reports_pass(self, baseline):
        result = diff_documents(baseline, copy.deepcopy(baseline))
        assert result.kind == "drift"
        assert not result.regressed

    def test_growing_drift_regresses(self, baseline):
        worse = copy.deepcopy(baseline)
        worse["totals"]["drift_objects"] += 10
        for site in worse["sites"]:
            if site["drifting"]:
                site["drift_windows"] += 1
                site["drift_score"] = round(site["drift_score"] + 0.2, 6)
        result = diff_documents(baseline, worse)
        assert result.regressed
        metrics = {d.metric for d in result.by_verdict("regressed")}
        assert "drift_windows" in metrics
        assert "drift_score" in metrics

    def test_shrinking_drift_improves(self, baseline):
        better = copy.deepcopy(baseline)
        better["totals"]["drift_objects"] -= 10
        result = diff_documents(baseline, better)
        assert not result.regressed
        assert result.by_verdict("improved")

    def test_vanished_site_regresses(self, baseline):
        smaller = copy.deepcopy(baseline)
        smaller["sites"] = smaller["sites"][:-1]
        result = diff_documents(baseline, smaller)
        assert result.regressed
        assert result.only_old


ADVERSARIAL_CHAINS = [
    ("main", 'comma,in,"frame"'),
    ("new\nline", "tab\tframe"),
    ("semi;colon", "plain"),
]


class TestCsvEscaping:
    def test_attrib_chain_cells_round_trip(self, tmp_path):
        sites = {
            chain: SiteAttribution(objects=i + 1, bytes=8 * (i + 1))
            for i, chain in enumerate(ADVERSARIAL_CHAINS)
        }
        prof = AttributionProfile(
            program="p", dataset="d", profile="bsd", threshold=1,
            sites=sites,
        )
        path = write_attrib_csv(prof, tmp_path / "adv.attrib.csv")
        with open(path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(ADVERSARIAL_CHAINS)
        parsed = {row["chain"] for row in rows}
        assert parsed == {";".join(chain) for chain in ADVERSARIAL_CHAINS}
        by_chain = {row["chain"]: row for row in rows}
        for chain, site in sites.items():
            assert int(by_chain[";".join(chain)]["objects"]) == site.objects

    def test_sample_csv_quotes_adversarial_values(self, tmp_path):
        rows = [
            {"a": 'x,"y"', "b": 1},
            {"a": "line\nbreak", "b": 2.5},
        ]
        path = write_csv(rows, tmp_path / "samples.csv")
        with open(path, newline="") as handle:
            parsed = list(csv.DictReader(handle))
        assert parsed[0]["a"] == 'x,"y"'
        assert parsed[1]["a"] == "line\nbreak"
        assert float(parsed[1]["b"]) == 2.5


class TestHtmlReport:
    @pytest.fixture(scope="class")
    def docs(self):
        prof = _drifting_profile()
        return prof.to_dict(), drift_report(prof, min_objects=4)

    def test_render_is_deterministic(self, docs):
        windows_doc, drift_doc = docs
        kwargs = dict(drift_doc=drift_doc, generated_at="2026-01-01T00:00Z")
        assert render_report(windows_doc, **kwargs) == render_report(
            windows_doc, **kwargs
        )

    def test_no_external_assets(self, docs):
        windows_doc, drift_doc = docs
        html = render_report(windows_doc, drift_doc=drift_doc)
        for banned in ("http://", "https://", "src=", "url(", "@import",
                       "<script", "<link"):
            assert banned not in html

    def test_sections_render(self, docs, tmp_path):
        windows_doc, drift_doc = docs
        path = write_report(
            tmp_path / "report.html", windows_doc, drift_doc=drift_doc,
            attribution_doc={
                "profile": "arena", "site_count": 1,
                "top_sites": [{
                    "chain": ["main", "phased"], "total_instr": 10,
                    "bytes": 80, "frag_byte_time": 0, "mispredictions": 0,
                }],
            },
            generated_at="2026-01-01T00:00Z",
        )
        html = path.read_text()
        for anchor in ('id="timeline"', 'id="drift"', 'id="attribution"'):
            assert anchor in html
        assert "phased" in html
        assert "generated at 2026-01-01T00:00Z" in html
        # The drifting site's table row is present, not just the anchor.
        assert "<svg" in html

    def test_escapes_hostile_chain_names(self, docs):
        windows_doc, drift_doc = copy.deepcopy(docs)
        drift_doc["sites"][0]["chain"] = ["<script>alert(1)</script>"]
        drift_doc["sites"][0]["drifting"] = True
        drift_doc["sites"][0].setdefault("windows", [])
        html = render_report(windows_doc, drift_doc=drift_doc)
        assert "<script>" not in html


class TestWindowsCli:
    def test_windows_json_document(self, tmp_path, capsys):
        assert main([
            "windows", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--windows", "4", "--json",
            "--out-dir", str(tmp_path / "out"),
        ]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["windows"]["kind"] == "windows"
        assert doc["drift"]["kind"] == "drift"
        assert len(doc["windows"]["rows"]) == 4
        assert "windows json:" in captured.err
        out_dir = tmp_path / "out"
        assert (out_dir / "gawk-test-w4b.windows.json").exists()
        assert (out_dir / "gawk-test-w4b.windows.csv").exists()
        assert (out_dir / "gawk-test-w4b.drift.json").exists()

    def test_report_html_is_self_contained(self, tmp_path, capsys):
        out = tmp_path / "report.html"
        argv = [
            "report", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--html", str(out), "--timestamp", "2026-01-01T00:00Z",
            "--bench-dir", str(tmp_path / "bench"),
        ]
        assert main(argv) == 0
        html = out.read_text()
        for anchor in ('id="timeline"', 'id="drift"', 'id="attribution"',
                       'id="telemetry"'):
            assert anchor in html
        for banned in ("http://", "https://", "src=", "<script", "<link"):
            assert banned not in html
        # Same stamp, same bytes.
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_timeline_json_moves_notices_to_stderr(self, tmp_path, capsys):
        assert main([
            "timeline", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"), "--json",
            "--interval", "256", "--out-dir", str(tmp_path / "telemetry"),
        ]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["kind"] == "timeline"
        assert doc["sample_count"] == len(doc["samples"])
        assert doc["samples"], "expected machine-readable sample rows"
        assert json.dumps(doc, sort_keys=True) == json.dumps(doc)
        assert "summary" in captured.err

    def test_timeline_windows_appends_series(self, tmp_path, capsys):
        assert main([
            "timeline", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--windows", "4", "--out-dir", str(tmp_path / "telemetry"),
        ]) == 0
        out = capsys.readouterr().out
        assert "timeline: gawk/test" in out
        assert "4 windows by bytes" in out

    def test_timeline_zero_samples_fails_cleanly(
        self, tmp_path, capsys, monkeypatch
    ):
        # The replay recording no samples is a hard error (exit 1 with a
        # diagnostic), not an empty export.
        monkeypatch.setattr(
            "repro.cli.observe.simulate_spec", lambda *args, **kwargs: None
        )
        assert main([
            "timeline", "--program", "gawk", "--scale", "0.05",
            "--cache-dir", str(tmp_path / "cache"),
            "--out-dir", str(tmp_path / "telemetry"),
        ]) == 1
        err = capsys.readouterr().err
        assert "zero samples" in err
