"""Per-site attribution and differential session diffing.

Covers ISSUE 7: cost conservation against the trace totals, the exact
per-profile pricing arithmetic, arena misprediction classification, the
order-independent add contract (so streams and in-memory traces agree),
byte-determinism of the exports, the collapsed-stack format, and the diff layer's verdict
contract across all three session kinds (attribution, telemetry, bench)
including the CLI exit codes.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from repro.alloc.bsd import bucket_for
from repro.alloc.costs import DEFAULT_COST_MODEL
from repro.cli import main
from repro.core.predictor import train_site_predictor
from repro.obs.attrib import (
    attribute_sites,
    attribute_table,
    export_attribution,
    render_attrib,
    write_attrib_json,
)
from repro.obs.diff import (
    DiffResult,
    detect_kind,
    diff_documents,
    diff_paths,
    render_diff_report,
)
from repro.runtime.folds import PairTable
from repro.runtime.stream.protocol import (
    iter_object_lifetimes,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from tests.conftest import make_churn_trace

THRESHOLD = 4096


class _AllShort:
    """A predictor that calls everything short-lived (forces late_free)."""

    threshold = THRESHOLD
    program = "synthetic"

    def predicts_short_lived(self, chain, size) -> bool:
        return True


@pytest.fixture(scope="module")
def trace():
    return make_churn_trace(objects=200)


@pytest.fixture(scope="module")
def predictor(trace):
    return train_site_predictor(trace, threshold=THRESHOLD)


@pytest.fixture(scope="module")
def lifetimes(trace):
    return list(iter_object_lifetimes(trace))


class TestAttributionFold:
    def test_conserves_trace_totals(self, trace):
        profile = attribute_sites(trace, profile="bsd")
        totals = profile.totals()
        assert totals.objects == trace.total_objects
        assert totals.bytes == trace.total_bytes
        assert sum(s.objects for s in profile.sites.values()) == totals.objects

    def test_bsd_pricing_is_exact(self, trace, lifetimes):
        profile = attribute_sites(trace, profile="bsd")
        totals = profile.totals()
        model = DEFAULT_COST_MODEL
        # Every object is charged exactly one alloc/free pair — objects
        # never freed die at program exit by the trace convention.
        assert totals.alloc_instr == totals.objects * model.bsd_alloc_base
        assert totals.free_instr == totals.objects * model.bsd_free
        expected_frag = sum(
            (1 << bucket_for(size)) - size for _, size, _, _ in lifetimes
        )
        assert totals.frag_bytes == expected_frag

    def test_occupancy_is_size_times_lifetime(self, trace, lifetimes):
        profile = attribute_sites(trace, profile="firstfit")
        expected = sum(size * life for _, size, life, _ in lifetimes)
        assert profile.totals().occupancy_byte_time == expected

    def test_firstfit_padding_is_alignment_plus_header(self, trace):
        profile = attribute_sites(trace, profile="firstfit")
        # All churn sizes (16/24/32/40) and the keeper (2048) are already
        # 8-aligned, so every block pays exactly the 8-byte header.
        totals = profile.totals()
        assert totals.frag_bytes == totals.objects * 8

    def test_arena_true_predictor_captures_churn(self, trace, predictor):
        profile = attribute_sites(trace, profile="arena",
                                  predictor=predictor)
        totals = profile.totals()
        # The churn sites are predicted short and really are short; the
        # keeper site is not predicted.  No mispredictions either way.
        assert totals.predicted_objects == totals.objects - 1
        assert totals.late_free == 0
        assert totals.missed_short == 0
        keeper = profile.sites[("main", "work", "keeper")]
        assert keeper.predicted_objects == 0
        model = DEFAULT_COST_MODEL
        assert keeper.alloc_instr == model.predict + model.ff_alloc_base

    def test_arena_late_free_charges_pollution_integral(
        self, trace, lifetimes
    ):
        profile = attribute_sites(trace, profile="arena",
                                  predictor=_AllShort())
        keeper = profile.sites[("main", "work", "keeper")]
        assert keeper.late_free == 1
        (keeper_life,) = [
            life for _, size, life, _ in lifetimes if size == 2048
        ]
        assert keeper.late_free_byte_time == 2048 * (keeper_life - THRESHOLD)
        # Predicted objects bump-allocate: no fragmentation contribution.
        assert profile.totals().frag_bytes == 0

    def test_arena_unpredicted_short_is_missed(self, trace):
        # No predictor at all: everything lands on the general heap, so
        # every short-lived object is capture left on the table.
        profile = attribute_sites(trace, profile="arena", predictor=None,
                                  threshold=THRESHOLD)
        totals = profile.totals()
        assert totals.predicted_objects == 0
        assert totals.missed_short == totals.short_objects
        assert totals.missed_short_bytes == totals.short_bytes

    def test_unknown_profile_rejected(self, trace):
        with pytest.raises(ValueError, match="unknown attribution profile"):
            attribute_sites(trace, profile="slab")

    def test_add_is_order_independent(self, trace, lifetimes, predictor):
        # Attribution prices a pair table, whose add is order-independent:
        # the rows, and every profile priced from them, match in any order.
        source = trace

        def fold_of(items):
            table = PairTable(source.header, source.summary, THRESHOLD)
            for chain_id, size, life, touches in items:
                table.add(chain_id, size, life, touches)
            profiles = [
                attribute_table(table, profile, predictor=predictor)
                for profile in ("bsd", "firstfit", "arena")
            ]
            return table.rows, [profile.to_dict() for profile in profiles]

        shuffled = list(lifetimes)
        random.Random(7).shuffle(shuffled)
        assert shuffled != list(lifetimes)
        assert fold_of(shuffled) == fold_of(lifetimes)
        assert fold_of(reversed(lifetimes)) == fold_of(lifetimes)


class TestReplayModeParity:
    def test_materialized_stream_identical(self, trace, tmp_path):
        path = tmp_path / "churn.rtr3"
        write_trace_v3(trace, path, chunk_events=16)
        docs = [
            json.dumps(
                attribute_sites(source, profile="bsd").to_dict(),
                sort_keys=True,
            )
            for source in (trace, TraceFileSource(path))
        ]
        assert docs[0] == docs[1]


class TestExports:
    def test_json_export_is_byte_deterministic(self, trace, tmp_path):
        profile = attribute_sites(trace, profile="bsd")
        first = write_attrib_json(profile, tmp_path / "a.json").read_bytes()
        second = write_attrib_json(profile, tmp_path / "b.json").read_bytes()
        assert first == second
        doc = json.loads(first)
        assert doc["kind"] == "attribution"
        assert doc["totals"]["objects"] == trace.total_objects

    def test_export_bundle_writes_three_artifacts(self, trace, tmp_path):
        profile = attribute_sites(trace, profile="firstfit")
        paths = export_attribution(profile, tmp_path)
        assert sorted(paths) == ["collapsed", "csv", "json"]
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0
        header = paths["csv"].read_text().splitlines()[0]
        assert header.startswith("chain,objects,bytes,")

    def test_collapsed_stacks_format(self, trace, predictor):
        profile = attribute_sites(trace, profile="arena",
                                  predictor=predictor)
        lines = profile.collapsed_stacks().splitlines()
        assert lines == sorted(lines)
        weights = {}
        for line in lines:
            stack, _, weight = line.rpartition(" ")
            weights[tuple(stack.split(";"))] = int(weight)
        assert weights[("main", "work", "keeper")] == (
            profile.sites[("main", "work", "keeper")].total_instr
        )

    def test_collapsed_unknown_weight_rejected(self, trace):
        profile = attribute_sites(trace, profile="bsd")
        with pytest.raises(ValueError, match="unknown attribution weight"):
            profile.collapsed_stacks("wall_seconds")

    def test_render_mentions_totals_and_sites(self, trace):
        profile = attribute_sites(trace, profile="bsd")
        text = render_attrib(profile, top=3)
        assert "site attribution: synthetic/synthetic" in text
        # The churn fixture has exactly two sites, so top=3 clamps.
        assert "top 2 sites by attributed instructions" in text
        assert "main>work>keeper" in text


def _telemetry_doc():
    return {
        "program": "synthetic",
        "dataset": "test",
        "allocator": "arena",
        "threshold": 32768,
        "interval": 1024,
        "totals": {
            "allocs": 1000, "frees": 990, "bytes": 50000, "sites": 4,
            "late_free": 4, "overflow": 1, "missed_short": 2,
            "arena_allocs": 800, "arena_bytes": 40000,
        },
        "top_misprediction_sites": [
            {"chain": ["work", "helper"], "allocs": 500, "bytes": 9000,
             "arena_allocs": 480, "late_free": 4, "overflow": 0,
             "missed_short": 0},
        ],
        "gauges": {"peak_rss_kb": 50000},
    }


def _bench_doc():
    return {
        "schema_version": 3,
        "seq": 1,
        "provenance": {"scale": 0.05},
        "records": [
            {"name": "gawk-arena", "program": "gawk", "dataset": "test",
             "allocator": "arena", "allocs": 6136, "frees": 6136,
             "instr_per_alloc": 36.7, "instr_per_free": 10.0,
             "max_heap_size": 90000, "final_live_bytes": 0,
             "arena_alloc_pct": 95.0, "arena_byte_pct": 92.0,
             "mispredictions": {"late_free": 3, "overflow": 1,
                                "missed_short": 2}},
        ],
    }


class TestDiff:
    def test_kind_detection(self, trace):
        attrib = attribute_sites(trace, profile="bsd").to_dict()
        assert detect_kind(attrib) == "attribution"
        assert detect_kind(_telemetry_doc()) == "telemetry"
        assert detect_kind(_bench_doc()) == "bench"
        with pytest.raises(ValueError, match="unrecognized session"):
            detect_kind({"what": "ever"})

    def test_kind_mismatch_is_an_error(self, trace):
        attrib = attribute_sites(trace, profile="bsd").to_dict()
        with pytest.raises(ValueError, match="cannot diff"):
            diff_documents(attrib, _bench_doc())

    def test_identical_attribution_is_clean(self, trace):
        doc = attribute_sites(trace, profile="bsd").to_dict()
        result = diff_documents(doc, copy.deepcopy(doc))
        assert isinstance(result, DiffResult)
        assert not result.regressed
        assert result.deltas == []
        assert "OK" in render_diff_report(result)

    def test_attribution_cost_increase_regresses(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        new["sites"][0]["total_instr"] = int(
            new["sites"][0]["total_instr"] * 1.5
        )
        result = diff_documents(old, new)
        assert result.regressed
        (delta,) = result.by_verdict("regressed")
        assert delta.metric == "total_instr"
        assert delta.key.startswith("site:")
        assert "FAIL" in render_diff_report(result)

    def test_attribution_cost_decrease_improves(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        new["totals"]["frag_bytes"] = new["totals"]["frag_bytes"] // 2
        result = diff_documents(old, new)
        assert not result.regressed
        assert [d.metric for d in result.by_verdict("improved")] == [
            "frag_bytes"
        ]

    def test_small_moves_are_unchanged(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        base = new["totals"]["total_instr"]
        new["totals"]["total_instr"] = int(base * 1.005)
        result = diff_documents(old, new, rel_threshold=0.01)
        assert not result.regressed
        assert [d.verdict for d in result.deltas] == ["unchanged"]
        # The same move regresses once the threshold tightens below it.
        assert diff_documents(old, new, rel_threshold=0.001).regressed

    def test_workload_metrics_are_informational(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        new["totals"]["occupancy_byte_time"] *= 3
        result = diff_documents(old, new)
        assert not result.regressed
        assert [d.verdict for d in result.deltas] == ["info"]

    def test_missing_site_regresses(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        del new["sites"][0]
        result = diff_documents(old, new)
        assert result.regressed
        assert len(result.only_old) == 1

    def test_telemetry_verdicts(self):
        old, new = _telemetry_doc(), _telemetry_doc()
        new["totals"]["late_free"] = 10        # lower is good -> regressed
        new["totals"]["arena_allocs"] = 900    # higher is good -> improved
        new["gauges"]["peak_rss_kb"] = 99999   # gauge -> informational
        result = diff_documents(old, new)
        assert result.kind == "telemetry"
        assert result.regressed
        assert {d.metric for d in result.by_verdict("regressed")} == {
            "late_free"
        }
        assert {d.metric for d in result.by_verdict("improved")} == {
            "arena_allocs"
        }
        assert {d.metric for d in result.by_verdict("info")} == {
            "peak_rss_kb"
        }

    def test_bench_verdicts(self):
        old, new = _bench_doc(), _bench_doc()
        rec = new["records"][0]
        rec["allocs"] += 1                     # equal direction -> regressed
        rec["instr_per_alloc"] = 30.0          # lower is good -> improved
        rec["final_live_bytes"] = 4096         # informational
        result = diff_documents(old, new)
        assert result.kind == "bench"
        assert result.regressed
        assert {d.metric for d in result.by_verdict("regressed")} == {
            "allocs"
        }
        assert "instr_per_alloc" in {
            d.metric for d in result.by_verdict("improved")
        }
        assert "final_live_bytes" in {
            d.metric for d in result.by_verdict("info")
        }

    def test_bench_misprediction_total_is_derived(self):
        old, new = _bench_doc(), _bench_doc()
        new["records"][0]["mispredictions"]["late_free"] = 30
        result = diff_documents(old, new)
        assert result.regressed
        assert {d.metric for d in result.by_verdict("regressed")} == {
            "mispredictions_total"
        }

    @pytest.mark.parametrize("side", ["old", "new"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_values_refused(self, side, value):
        docs = {"old": _telemetry_doc(), "new": _telemetry_doc()}
        docs[side]["totals"]["late_free"] = value
        with pytest.raises(
            ValueError,
            match=f"{side} session has a non-finite value at totals: "
                  f"late_free = {value}",
        ):
            diff_documents(docs["old"], docs["new"])

    def test_bench_identity_mismatch_refused(self):
        old, new = _bench_doc(), _bench_doc()
        new["provenance"]["scale"] = 1.0
        with pytest.raises(ValueError, match="scale mismatch: old session "
                                             "ran at scale 0.05, new at 1.0"):
            diff_documents(old, new)

    def test_to_dict_is_deterministic(self, trace):
        old = attribute_sites(trace, profile="bsd").to_dict()
        new = copy.deepcopy(old)
        new["sites"][0]["frag_bytes"] += 100
        first = json.dumps(diff_documents(old, new).to_dict(),
                           sort_keys=True)
        second = json.dumps(diff_documents(old, new).to_dict(),
                            sort_keys=True)
        assert first == second


class TestCliDiffSessions:
    @pytest.fixture()
    def session_pair(self, trace, tmp_path):
        profile = attribute_sites(trace, profile="bsd")
        old = write_attrib_json(profile, tmp_path / "old.json")
        doc = profile.to_dict()
        doc["sites"][0]["total_instr"] = int(
            doc["sites"][0]["total_instr"] * 1.5
        )
        regressed = tmp_path / "regressed.json"
        regressed.write_text(json.dumps(doc, indent=2, sort_keys=True))
        return old, regressed

    def test_identical_pair_exits_zero(self, session_pair, capsys):
        old, _ = session_pair
        assert main(["diff-sessions", str(old), str(old)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regressed_pair_exits_nonzero(self, session_pair, capsys):
        old, regressed = session_pair
        assert main(["diff-sessions", str(old), str(regressed)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out and "FAIL" in out

    def test_json_output(self, session_pair, capsys):
        old, regressed = session_pair
        assert main([
            "diff-sessions", str(old), str(regressed), "--json",
        ]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["regressed"] is True
        assert doc["counts"]["regressed"] >= 1

    def test_kind_mismatch_exits_one_with_error(
        self, session_pair, tmp_path, capsys
    ):
        old, _ = session_pair
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(_bench_doc()))
        assert main(["diff-sessions", str(old), str(bench)]) == 1
        assert "cannot diff" in capsys.readouterr().err

    def test_diff_paths_matches_cli(self, session_pair):
        old, regressed = session_pair
        assert diff_paths(old, regressed).regressed
        assert not diff_paths(old, old).regressed
