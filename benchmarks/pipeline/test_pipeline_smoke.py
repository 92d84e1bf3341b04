"""Smoke test of the pipeline benchmark in ``--quick`` mode.

Each case runs ``run.py`` once (tiny scale, one timed iteration, well
under a minute).  Run with
``PYTHONPATH=src python -m pytest benchmarks/pipeline``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", *args],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )


def _last_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_metric_printed_with_unit_for_every_workload(tmp_path):
    out = tmp_path / "results.json"
    proc = _run("--out", str(out))
    assert proc.returncode == 0, proc.stderr
    names = [w["name"] for w in SPEC["workloads"]]
    results = json.loads(out.read_text())
    assert set(results["workloads"]) == set(names)
    assert {"git_sha", "nproc", "python", "seed", "scales"} <= set(
        results["provenance"])
    declared = SPEC["end_to_end"] + [{"name": "fail_ratio", "unit": "ratio"}]
    for workload in names:
        block = proc.stdout.split(f"== {workload}:")[1].split("\n== ")[0]
        for metric in declared:
            line = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+" \
                   rf"{re.escape(metric['unit'])}\s+q1 \S+\s+q3 \S+\s+n \d+"
            assert re.search(line, block, re.M), (workload, metric)
            record = results["workloads"][workload]["metrics"][metric["name"]]
            assert {"value", "q1", "q3", "n", "unit", "direction",
                    "bound"} <= set(record)
    last = _last_line(proc)
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert set(last["metrics"]) == {
        f"{w}/{m['name']}" for w in names for m in SPEC["end_to_end"]}


def test_tampered_digest_fails_the_run(tmp_path):
    expected = json.loads((HERE / "expected.json").read_text())
    expected["quick"]["replay"]["cfrac/arena"] = "0" * 64
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(expected))
    out = tmp_path / "results.json"
    proc = _run("--workload", "replay", "--expected", str(tampered),
                "--out", str(out))
    assert proc.returncode == 1
    metrics = json.loads(out.read_text())["workloads"]["replay"]["metrics"]
    assert metrics["fail_ratio"]["value"] > 0
    assert not _last_line(proc)["correct"]


def test_trace_writes_spans_nested_in_their_parents():
    proc = _run("--workload", "synthetic", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    assert set(_last_line(proc)["metrics"]) == {
        m["name"] for m in SPEC["per_layer"]}
    trace_dir = ROOT / ".bench_build" / "pipeline" / "trace" / "synthetic"
    events = json.loads((trace_dir / "spans.json").read_text())["traceEvents"]
    by_id = {event["args"]["id"]: event for event in events}
    children = [e for e in events if e["args"]["parent"] is not None]
    assert children
    for child in children:
        parent = by_id[child["args"]["parent"]]
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
        assert child["args"]["iteration"] == parent["args"]["iteration"]
    layers = json.loads((trace_dir / "layers.json").read_text())
    assert layers["self_times"]["iteration"]["calls"] == 2
