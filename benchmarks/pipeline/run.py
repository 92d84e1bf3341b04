"""Pipeline benchmark: five workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 benchmarks/pipeline/run.py [--workload W ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--out results.json]

Each workload runs in fresh single-threaded child processes
(``child.py``), one at a time.  Every child sets up, runs one untimed
warm-up iteration, then timed iterations until its share of
``--seconds`` is used; three children give three set-up samples.  The
load is closed-loop with one client.  Every output is checked against
the sha256 digests in ``expected.json``; a mismatch or an exception is
a failed operation, and any failure makes the command exit 1.

With ``--trace 1`` the run reports per-layer metrics instead: one
untraced and one traced child share the budget, the traced child then
makes isolated passes over each layer, and the spans land in
``.bench_build/pipeline/trace/<workload>/`` as Chrome trace-event JSON
(``spans.json``) plus per-layer self times (``layers.json``).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs are built inside the
checkout under ``.bench_build/pipeline``: the five programs' traces are
cached there across runs; ``--seed`` drives only the synthetic workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "pipeline"

#: Set-up samples (children) per untraced run.
CHILDREN = 3
#: Seconds one ``child.calibration_pass`` takes on the reference
#: machine.  Gated timings are scaled to that speed: other tenants of a
#: shared host slow whole runs by up to half, and the calibration loop,
#: which runs no program code, slows with them.
CALIBRATION_REF_S = 0.010
#: Reported but not gated: a correct run's fail_ratio is 0, and the
#: unscaled wall times move with the host's load.
LOCAL = {
    "fail_ratio": {"unit": "ratio", "better": "lower", "bound": 0},
    "wall_ns_per_event": {"unit": "ns", "better": "lower"},
    "wall_setup_s": {"unit": "s", "better": "lower"},
}


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _record(values: List[float], declared: dict) -> dict:
    q1, q3 = _quartiles(values)
    return {
        "value": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "unit": declared["unit"],
        "direction": declared["better"], "bound": declared.get("bound"),
    }


def _wall_ns(child: dict, events: int) -> List[float]:
    return [seconds * 1e9 / events for seconds in child["iteration_s"]]


def _speed(child: dict) -> float:
    """Factor scaling a child's wall times to the reference machine.

    The median of the calibration passes around the child's timed
    iterations; one 10 ms pass is too noisy to scale a single iteration.
    """
    return CALIBRATION_REF_S / statistics.median(child["calibration_s"])


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Stable string hashing, so set/dict layouts repeat run to run.
    env["PYTHONHASHSEED"] = "0"
    # The search session's provenance asks git for a commit; keep it
    # from looking above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _run_child(config: dict, timeout: float) -> dict:
    config = dict(config, spawned=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(config)],
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"error": f"child exited {proc.returncode} without a result"}


def _check(observed: Dict[str, List[str]], expected: Dict[str, str],
           required: bool) -> int:
    """Failed operations: digests that differ from the committed one.

    Where no digest is committed (a synthetic seed nobody recorded)
    every repetition of an operation must match its first run.
    """
    failed = 0
    for op, digests in observed.items():
        reference = expected.get(op)
        if reference is None:
            if required:
                failed += len(digests)
                continue
            reference = digests[0]
        failed += sum(d != reference for d in digests)
    failed += sum(1 for op in expected if op not in observed)
    return failed


def measure(name: str, args, declared: dict, expected: dict,
            run_dir: Path) -> dict:
    """Prepare one workload's inputs, run its children, aggregate."""
    import suite
    import synth

    workload = suite.WORKLOADS[name]
    scale = workload.quick_scale if args.quick else workload.scale
    objects = synth.QUICK_OBJECTS if args.quick else synth.DEFAULT_OBJECTS
    if name == "synthetic":
        cache_dir = run_dir / "synthetic"
        synth.write(args.seed, cache_dir, objects)
    else:
        from repro.analysis.trace_cache import TraceCache
        from repro.workloads.registry import run_workload

        cache_dir = WORK / "traces"
        cache = TraceCache(cache_dir)
        for program, dataset in workload.needs:
            if not cache.has(program, dataset, scale):
                cache.store(run_workload(program, dataset, scale), scale)

    traced_flags = [False, True] if args.trace else [False] * (
        1 if args.quick else CHILDREN)
    budget = 0.0 if args.quick else args.seconds / len(traced_flags)
    children = []
    for index, traced in enumerate(traced_flags):
        result = _run_child({
            "workload": name, "scale": scale, "seed": args.seed,
            "cache_dir": str(cache_dir), "budget_s": budget,
            "scratch": str(run_dir / f"{name}-{index}"),
            "traced": traced, "trace_dir": str(WORK / "trace" / name),
            "synthetic_objects": objects,
        }, timeout=60 + 3 * budget)
        result["traced"] = traced
        children.append(result)
        if "error" in result:
            print(f"{name}: child {index} failed:\n{result['error']}",
                  file=sys.stderr)
            break

    good = [c for c in children if "error" not in c]
    observed: Dict[str, List[str]] = {}
    for child in good:
        for iteration in child["digests"]:
            for op, digest in iteration.items():
                observed.setdefault(op, []).append(digest)
    mode = "quick" if args.quick else "full"
    committed = expected.setdefault(mode, {}).setdefault(name, {})
    if name == "synthetic":
        committed = committed.setdefault(str(args.seed), {})
    if args.record and len(good) == len(children):
        committed.clear()
        committed.update({op: ds[0] for op, ds in observed.items()})
    attempted = sum(len(ds) for ds in observed.values())
    failed = _check(observed, committed, required=name != "synthetic")
    attempted += len(children) - len(good)
    failed += len(children) - len(good)

    out = {"scale": scale, "attempted": max(attempted, 1),
           "failed": failed, "metrics": {}}
    metrics = out["metrics"]
    metrics["fail_ratio"] = _record([failed / max(attempted, 1)],
                                    LOCAL["fail_ratio"])
    untraced = [c for c in good if not c["traced"]]
    if not untraced:
        return out
    events = untraced[0]["events"]
    wall_ns = [x for c in untraced for x in _wall_ns(c, events)]
    ns = [x * _speed(c) for c in untraced for x in _wall_ns(c, events)]
    metrics["ns_per_event"] = _record(ns, declared["ns_per_event"])
    metrics["wall_ns_per_event"] = _record(wall_ns,
                                           LOCAL["wall_ns_per_event"])
    metrics["setup_s"] = _record([c["setup_s"] * _speed(c) for c in good],
                                 declared["setup_s"])
    metrics["wall_setup_s"] = _record([c["setup_s"] for c in good],
                                      LOCAL["wall_setup_s"])
    metrics["peak_rss_mb"] = _record(
        [c["peak_rss_kb"] / 1024 for c in untraced], declared["peak_rss_mb"])
    metrics["cache_bytes_per_event"] = _record(
        [untraced[0]["input_bytes"] / events],
        declared["cache_bytes_per_event"])
    traced = [c for c in good if c["traced"]]
    if traced:
        layer_values = dict(traced[0]["layers"])
        traced_ns = [x * _speed(traced[0])
                     for x in _wall_ns(traced[0], events)]
        layer_values["trace.overhead_ns_per_event"] = (
            statistics.median(traced_ns) - statistics.median(ns))
        for key, value in sorted(layer_values.items()):
            metrics[key] = _record([value], declared.get(
                key, {"unit": "s", "better": "lower"}))
    return out


def _print_workload(name: str, result: dict, args) -> None:
    print(f"== {name}: scale {result['scale']:g}, seed {args.seed}, "
          f"{result['attempted']} operations, {result['failed']} failed")
    for key, m in result["metrics"].items():
        bound = "" if m["bound"] is None else f", bound {m['bound']:.0%}"
        print(f"   {key:<36} {m['value']:>14.6g} {m['unit']:<6} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n {m['n']}  "
              f"({m['direction']} is better{bound})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Pipeline benchmark of the lifetime-prediction "
                    "reproduction.")
    parser.add_argument("--workload", action="append", default=None,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the synthetic workload's inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny scale, one child, one timed iteration")
    parser.add_argument("--out", type=Path, default=None,
                        help="write results.json here")
    parser.add_argument("--expected", type=Path,
                        default=HERE / "expected.json",
                        help="committed output digests")
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests in --expected")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no src/repro package or no "
              f"BENCHMARK.json to benchmark", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import suite

    names = args.workload or list(suite.WORKLOADS)
    unknown = [n for n in names if n not in suite.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"have {list(suite.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    expected = json.loads(args.expected.read_text())

    # On SIGTERM, unwind like Ctrl-C: subprocess.run kills and reaps the
    # running child, and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args, declared, expected, run_dir)
            _print_workload(name, results[name], args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if args.record:
        args.expected.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if args.out:
        args.out.write_text(json.dumps({
            "provenance": {
                "git_sha": _git_sha(), "nproc": os.cpu_count(),
                "python": platform.python_version(), "seed": args.seed,
                "seconds": args.seconds, "quick": args.quick,
                "trace": args.trace,
                "scales": {n: r["scale"] for n, r in results.items()},
            },
            "workloads": results,
        }, indent=1, sort_keys=True) + "\n")

    gated = spec["per_layer"] if args.trace else spec["end_to_end"]
    summary = {}
    for name, result in results.items():
        for m in gated:
            found = result["metrics"].get(m["name"])
            if found is not None:
                key = m["name"] if len(results) == 1 else f"{name}/{m['name']}"
                summary[key] = {"value": found["value"], "unit": found["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
