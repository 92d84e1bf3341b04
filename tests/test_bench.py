"""Tests for the benchmark trajectory: suite, records, store, and the
``bench compare`` preset of the session comparator.

Suite runs use a fake store over the synthetic churn trace (threshold
4096 separates churn from the keeper), so they are fast and — the
property the comparator leans on — exactly reproducible.
"""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import pytest

from repro.bench import (
    BENCH_SCHEMA_VERSION,
    BenchRecord,
    BenchSession,
    BenchStore,
    run_session,
    run_suite,
)
from repro.bench.provenance import collect_provenance
from repro.cli import main
from repro.cli._options import tolerance
from repro.obs.diff import bench_gate, render_diff_report
from repro.core.predictor import train_site_predictor
from repro.obs.telemetry import MISPREDICTION_KINDS
from tests.conftest import make_churn_trace

THRESHOLD = 4096


class FakeStore:
    """The TraceStore surface over one synthetic trace."""

    programs = ("synthetic",)
    scale = 1.0

    def __init__(self):
        self._trace = make_churn_trace()
        self._predictor = train_site_predictor(
            self._trace, threshold=THRESHOLD
        )

    def trace(self, program, dataset):
        return self._trace

    def predictor(self, program):
        return self._predictor


@pytest.fixture(scope="module")
def fake_store():
    return FakeStore()


@pytest.fixture(scope="module")
def session_pair(fake_store):
    """Two suite runs over the same traces — same commit, minutes apart."""
    return (
        run_session(fake_store, seq=1),
        run_session(fake_store, seq=2),
    )


def clone_session(session, seq=None, **record_overrides):
    """A deep copy with optional per-record field overrides."""
    copy = BenchSession.from_dict(session.to_dict())
    if seq is not None:
        copy.seq = seq
    if record_overrides:
        copy.records = [
            dataclasses.replace(rec, **record_overrides)
            for rec in copy.records
        ]
    return copy


class TestSuite:
    def test_one_record_per_program_allocator(self, session_pair):
        session = session_pair[0]
        names = [rec.name for rec in session.records]
        assert names == [
            "replay/synthetic/arena",
            "replay/synthetic/firstfit",
            "replay/synthetic/bsd",
        ]

    def test_records_deterministic_modulo_timings(self, session_pair):
        # Records hold no timings, so two runs write equal records.
        first, second = session_pair
        assert [rec.to_dict() for rec in first.records] == [
            rec.to_dict() for rec in second.records
        ]

    def test_record_carries_simulation_metrics(self, session_pair):
        arena = session_pair[0].record("replay/synthetic/arena")
        assert arena.allocs == 401  # 400 churn objects + the keeper
        assert arena.frees == 400  # keeper survives to exit
        assert arena.instr_per_alloc > 0
        assert arena.max_heap_size > 0
        assert arena.arena_alloc_pct > 90  # churn sites all predicted short
        assert set(arena.mispredictions) == set(MISPREDICTION_KINDS)

    def test_non_arena_records_have_zero_capture(self, session_pair):
        firstfit = session_pair[0].record("replay/synthetic/firstfit")
        assert firstfit.arena_alloc_pct == 0.0
        assert firstfit.arena_byte_pct == 0.0

    def test_unknown_allocator_rejected(self, fake_store):
        with pytest.raises(ValueError, match="vax"):
            run_suite(fake_store, allocators=("vax",))

    def test_session_provenance(self, session_pair):
        session = session_pair[0]
        assert session.schema_version == BENCH_SCHEMA_VERSION
        for key in ("git_sha", "scale", "python", "schema_version",
                    "created_at"):
            assert key in session.provenance
        assert session.scale == 1.0


class TestRecordSerialization:
    def test_roundtrip(self, session_pair):
        session = session_pair[0]
        rebuilt = BenchSession.from_dict(
            json.loads(json.dumps(session.to_dict()))
        )
        assert rebuilt.to_dict() == session.to_dict()

    def test_record_holds_only_simulated_cost(self, session_pair):
        rec = session_pair[0].records[0]
        assert set(rec.to_dict()) == {
            "name", "program", "dataset", "allocator", "allocs", "frees",
            "instr_per_alloc", "instr_per_free", "max_heap_size",
            "final_live_bytes", "arena_alloc_pct", "arena_byte_pct",
            "mispredictions",
        }

    def test_total_instr(self):
        rec = _make_record("x")
        assert rec.total_instr == 100 * 50.0 + 90 * 20.0
        session = _make_session(1, [rec, _make_record("y", frees=0)])
        assert session.total_instr == 6800.0 + 5000.0

    def test_mispredictions_total(self):
        rec = _make_record("x", mispredictions={"late_free": 2, "overflow": 1})
        assert rec.mispredictions_total == 3


class TestBenchStore:
    def test_write_load_roundtrip(self, tmp_path, session_pair):
        store = BenchStore(tmp_path)
        path = store.write(session_pair[0])
        assert path.name == "BENCH_0001.json"
        assert store.load(1).to_dict() == session_pair[0].to_dict()

    def test_next_seq_advances(self, tmp_path, session_pair):
        store = BenchStore(tmp_path)
        assert store.next_seq() == 1
        store.write(session_pair[0])
        assert store.next_seq() == 2

    def test_history_sorted_by_seq(self, tmp_path, session_pair):
        store = BenchStore(tmp_path)
        store.write(clone_session(session_pair[0], seq=2))
        store.write(clone_session(session_pair[0], seq=1))
        assert [s.seq for s in store.history()] == [1, 2]

    def test_resolve_latest_and_prev(self, tmp_path, session_pair):
        store = BenchStore(tmp_path)
        store.write(clone_session(session_pair[0], seq=1))
        store.write(clone_session(session_pair[0], seq=2))
        assert store.resolve("latest").name == "BENCH_0002.json"
        assert store.resolve("prev").name == "BENCH_0001.json"

    def test_resolve_missing_prev_names_directory(self, tmp_path):
        store = BenchStore(tmp_path)
        with pytest.raises(FileNotFoundError, match=str(tmp_path)):
            store.resolve("prev")

    def test_resolve_path_passthrough(self, tmp_path):
        store = BenchStore(tmp_path)
        target = tmp_path / "elsewhere" / "BENCH_0009.json"
        assert store.resolve(str(target)) == target

    def test_env_var_sets_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "traj"))
        assert BenchStore().directory == tmp_path / "traj"

    def test_written_file_is_deterministic_json(self, tmp_path,
                                                session_pair):
        store = BenchStore(tmp_path)
        path = store.write(session_pair[0])
        first = path.read_bytes()
        store.write(session_pair[0])
        assert path.read_bytes() == first


def _make_record(name, **overrides):
    base = dict(
        name=name, program="p", dataset="test", allocator="arena",
        allocs=100, frees=90, instr_per_alloc=50.0, instr_per_free=20.0,
        max_heap_size=65536, final_live_bytes=1024,
        arena_alloc_pct=80.0, arena_byte_pct=75.0,
        mispredictions={"late_free": 1, "overflow": 0, "missed_short": 2},
    )
    base.update(overrides)
    return BenchRecord(**base)


def _make_session(seq, records, scale=1.0, schema_version=None):
    session = BenchSession(
        seq=seq,
        provenance=collect_provenance(scale=scale),
        records=records,
    )
    if schema_version is not None:
        session.schema_version = schema_version
        session.provenance["schema_version"] = schema_version
    return session


def gate(old, new):
    """``bench compare``'s preset over two in-memory sessions."""
    return bench_gate(old.to_dict(), new.to_dict())


class TestCompare:
    """The ``bench compare`` policy, run through the one diff engine."""

    def test_identical_sessions_ok(self):
        old = _make_session(1, [_make_record("a")])
        new = _make_session(2, [_make_record("a")])
        result = gate(old, new)
        assert not result.regressed
        assert result.keys_compared == 1
        assert "OK — no regressions" in render_diff_report(result)

    def test_heap_growth_is_zero_tolerance(self):
        old = _make_session(1, [_make_record("a", max_heap_size=65536)])
        new = _make_session(2, [_make_record("a", max_heap_size=65537)])
        result = gate(old, new)
        (delta,) = result.by_verdict("regressed")
        assert delta.metric == "max_heap_size"
        assert "threshold ±0%" in render_diff_report(result)

    def test_capture_rate_drop_fails(self):
        old = _make_session(1, [_make_record("a", arena_byte_pct=75.0)])
        new = _make_session(2, [_make_record("a", arena_byte_pct=74.0)])
        result = gate(old, new)
        assert [d.metric for d in result.by_verdict("regressed")] == [
            "arena_byte_pct"
        ]

    def test_improvements_do_not_fail(self):
        old = _make_session(1, [_make_record("a")])
        new = _make_session(2, [_make_record(
            "a", instr_per_alloc=40.0, arena_byte_pct=80.0,
            mispredictions={"late_free": 0, "overflow": 0, "missed_short": 0},
        )])
        result = gate(old, new)
        assert not result.regressed
        assert {d.metric for d in result.by_verdict("improved")} == {
            "instr_per_alloc", "arena_byte_pct", "mispredictions_total",
        }

    def test_event_count_change_fails_either_direction(self):
        old = _make_session(1, [_make_record("a", allocs=100)])
        for new_allocs in (99, 101):
            new = _make_session(2, [_make_record("a", allocs=new_allocs)])
            result = gate(old, new)
            assert [d.metric for d in result.by_verdict("regressed")] == [
                "allocs"
            ]

    def test_missing_benchmark_fails(self):
        old = _make_session(1, [_make_record("a"), _make_record("b")])
        new = _make_session(2, [_make_record("a")])
        result = gate(old, new)
        assert result.regressed
        assert result.only_old == ["b"]
        assert "MISSING b" in render_diff_report(result)

    def test_added_benchmark_reported_not_gated(self):
        old = _make_session(1, [_make_record("a")])
        new = _make_session(2, [_make_record("a"), _make_record("c")])
        result = gate(old, new)
        assert not result.regressed
        assert result.only_new == ["c"]

    def test_scale_mismatch_refused(self):
        old = _make_session(1, [_make_record("a")], scale=1.0)
        new = _make_session(2, [_make_record("a")], scale=0.05)
        with pytest.raises(ValueError, match="scale mismatch"):
            gate(old, new)

    def test_schema_mismatch_refused(self):
        old = _make_session(1, [_make_record("a")], schema_version=0)
        new = _make_session(2, [_make_record("a")])
        with pytest.raises(ValueError, match="schema version mismatch"):
            gate(old, new)

    def test_self_compare_of_real_sessions_is_clean(self, session_pair):
        result = gate(*session_pair)
        assert not result.regressed
        assert result.keys_compared == 3
        assert "sessions are metric-identical" in render_diff_report(result)

    def test_non_bench_documents_refused(self):
        doc = {"kind": "drift", "totals": {}, "sites": []}
        with pytest.raises(ValueError, match="gates bench sessions"):
            bench_gate(doc, doc)


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
BASELINE_0001 = BENCHMARKS / "baseline" / "BENCH_0001.json"


def _verdict(out):
    """The regression count a diff report's verdict line states."""
    match = re.search(r"^result: FAIL — (\d+) regression", out, re.M)
    if match:
        return int(match.group(1))
    assert "result: OK — no regressions" in out
    return 0


_COMMANDS = {
    "bench compare": ["bench", "compare"],
    "diff-sessions": ["diff-sessions"],
}


class TestCommittedPairs:
    """Exit codes and regression counts on the committed session pairs."""

    # (old, new): {command: (exit code, regressions)}
    TABLE = {
        ("escape/BENCH_0001", "escape/BENCH_0002"): {
            "bench compare": (1, 21),
            "diff-sessions": (1, 21),
        },
        ("baseline/BENCH_0001", "baseline/BENCH_0001"): {
            "bench compare": (0, 0),
            "diff-sessions": (0, 0),
        },
        ("baseline/BENCH_0001", "baseline/regressed"): {
            "bench compare": (1, 1),
            "diff-sessions": (1, 1),
        },
    }

    # Fixed case ids, in the order the cases are generated below: a case
    # keeps its test name when a pair or a command joins or leaves the table.
    CASE_IDS = [
        "pair0-bench compare", "pair2-diff-sessions",
        "pair3-bench compare", "pair5-diff-sessions",
        "pair6-bench compare", "pair8-diff-sessions",
    ]

    @pytest.mark.parametrize("pair,command", [
        (pair, command) for pair in TABLE for command in _COMMANDS
    ], ids=CASE_IDS)
    def test_verdict_table(self, pair, command, capsys):
        old, new = (str(BENCHMARKS / f"{name}.json") for name in pair)
        code = main(_COMMANDS[command] + [old, new])
        out = capsys.readouterr().out
        assert (code, _verdict(out)) == self.TABLE[pair][command]

    def test_seeded_regression_names_the_record(self, capsys):
        assert main([
            "bench", "compare",
            str(BASELINE_0001),
            str(BENCHMARKS / "baseline" / "regressed.json"),
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED replay/gawk/arena: max_heap_size" in out


def _record(doc, name):
    return next(rec for rec in doc["records"] if rec["name"] == name)


class TestRefusals:
    """Pairs no threshold can judge exit 1 with an error, from both
    commands, instead of reporting a verdict."""

    @pytest.fixture()
    def tampered(self, tmp_path):
        def write(mutate):
            doc = json.loads(BASELINE_0001.read_text())
            mutate(doc)
            path = tmp_path / "tampered.json"
            path.write_text(json.dumps(doc))
            return str(path)
        return write

    @pytest.mark.parametrize("command", ["bench compare", "diff-sessions"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_metric_refused(self, tampered, command, value,
                                       capsys):
        def mutate(doc):
            _record(doc, "replay/gawk/arena")["instr_per_alloc"] = value
        argv = _COMMANDS[command] + [str(BASELINE_0001), tampered(mutate)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "result:" not in captured.out
        assert (
            "error: new session has a non-finite value at "
            f"replay/gawk/arena: instr_per_alloc = {value}"
        ) in captured.err

    @pytest.mark.parametrize("command", ["bench compare", "diff-sessions"])
    @pytest.mark.parametrize("message,mutate", [
        ("scale mismatch",
         lambda doc: doc["provenance"].update(scale=1.0)),
        ("schema version mismatch",
         lambda doc: doc.update(schema_version=0)),
    ])
    def test_identity_mismatch_refused(self, tampered, command, message,
                                       mutate, capsys):
        argv = _COMMANDS[command] + [str(BASELINE_0001), tampered(mutate)]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err


class TestToleranceOption:
    @pytest.mark.parametrize("value", ["-0.5", "nan", "inf", "x"])
    # Fixed ids, as in TestCommittedPairs.
    @pytest.mark.parametrize("argv", [
        ["diff-sessions", "a.json", "b.json", "--rel-threshold"],
        ["stats", "--program", "gawk", "--rel-threshold"],
    ], ids=["argv1", "argv2"])
    def test_bad_values_are_usage_errors(self, argv, value, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + [value])
        assert excinfo.value.code == 2
        assert "must be a finite number >= 0" in capsys.readouterr().err

    def test_accepts_finite_non_negative(self):
        assert tolerance("0") == 0.0
        assert tolerance("0.25") == 0.25


class TestBenchCli:
    @pytest.fixture()
    def bench_env(self, tmp_path):
        return {
            "bench_dir": tmp_path / "bench",
            "run_args": [
                "bench", "run", "--programs", "gawk",
                "--scale", "0.02",
                "--cache-dir", str(tmp_path / "cache"),
                "--bench-dir", str(tmp_path / "bench"),
            ],
        }

    def test_run_twice_then_compare_ok(self, bench_env, capsys):
        assert main(bench_env["run_args"]) == 0
        assert main(bench_env["run_args"]) == 0
        out = capsys.readouterr().out
        assert "bench session 0001" in out
        assert "bench session 0002" in out
        assert main([
            "bench", "compare", "--bench-dir", str(bench_env["bench_dir"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "sessions are metric-identical" in out
        assert "OK — no regressions" in out
        first, second = (
            json.loads((bench_env["bench_dir"] / name).read_text())
            for name in ("BENCH_0001.json", "BENCH_0002.json")
        )
        assert first["records"] == second["records"]

    @pytest.mark.parametrize("argv", [
        ["bench", "run", "--repeats", "3"],
        ["bench", "compare", "--wall-tol", "0.5"],
        ["bench", "compare", "--no-wall"],
    ])
    def test_wall_clock_options_are_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_tampered_record_fails_compare_naming_benchmark(
            self, bench_env, capsys):
        assert main(bench_env["run_args"]) == 0
        assert main(bench_env["run_args"]) == 0
        capsys.readouterr()
        latest = bench_env["bench_dir"] / "BENCH_0002.json"
        doc = json.loads(latest.read_text())
        for rec in doc["records"]:
            if rec["name"] == "replay/gawk/arena":
                rec["max_heap_size"] += 4096
        latest.write_text(json.dumps(doc))
        assert main([
            "bench", "compare", "--bench-dir", str(bench_env["bench_dir"]),
        ]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED replay/gawk/arena: max_heap_size" in out
        assert "FAIL" in out

    def test_compare_without_sessions_reports_cleanly(self, tmp_path,
                                                      capsys):
        assert main([
            "bench", "compare", "--bench-dir", str(tmp_path / "empty"),
        ]) == 1
        assert "error:" in capsys.readouterr().err

    def test_history_lists_sessions(self, bench_env, capsys):
        assert main(bench_env["run_args"]) == 0
        capsys.readouterr()
        assert main([
            "bench", "history", "--bench-dir", str(bench_env["bench_dir"]),
        ]) == 0
        out = capsys.readouterr().out
        assert "0001" in out and "scale" in out
        assert "total instr" in out and "wall" not in out

    def test_history_json(self, bench_env, capsys):
        assert main(bench_env["run_args"]) == 0
        capsys.readouterr()
        assert main([
            "bench", "history", "--json",
            "--bench-dir", str(bench_env["bench_dir"]),
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["seq"] for entry in doc] == [1]
        entry = doc[0]
        assert entry["scale"] == 0.02
        assert entry["benchmarks"] > 0
        session = BenchStore(bench_env["bench_dir"]).load(1)
        assert entry["total_instr"] == round(session.total_instr) > 0
        assert set(entry) == {
            "seq", "git_sha", "scale", "benchmarks", "total_instr",
            "created_at",
        }

    def test_html_report_charts_total_instructions(self, bench_env,
                                                   tmp_path, capsys):
        assert main(bench_env["run_args"]) == 0
        assert main(bench_env["run_args"]) == 0
        sessions = BenchStore(bench_env["bench_dir"]).history()
        pages = []
        for name in ("first.html", "second.html"):
            path = tmp_path / name
            assert main([
                "report", "--program", "gawk", "--scale", "0.02",
                "--cache-dir", str(tmp_path / "cache"),
                "--html", str(path), "--timestamp", "2026-01-01T00:00Z",
                "--bench-dir", str(bench_env["bench_dir"]),
            ]) == 0
            pages.append(path.read_bytes())
        capsys.readouterr()
        assert pages[0] == pages[1]
        html = pages[0].decode("utf-8")
        section = html[html.index('id="bench"'):]
        assert "2 sessions" in section
        for session in sessions:
            assert session.total_instr > 0
            assert f"<td>{round(session.total_instr):,}</td>" in section
        assert "wall" not in html

    def test_history_json_empty(self, tmp_path, capsys):
        assert main([
            "bench", "history", "--json",
            "--bench-dir", str(tmp_path / "none"),
        ]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_bad_env_scale_reports_variable(self, tmp_path, capsys,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "junk")
        assert main([
            "bench", "run", "--programs", "gawk",
            "--cache-dir", str(tmp_path / "cache"),
            "--bench-dir", str(tmp_path / "bench"),
        ]) == 1
        assert "REPRO_BENCH_SCALE" in capsys.readouterr().err
