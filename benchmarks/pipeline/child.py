"""One measured child process: set up, warm up, run timed iterations.

``run.py`` starts this script once per set-up sample, one at a time, with
a JSON config as its only argument, and reads one JSON result from the
last line of its standard output.  The child is single-threaded and
starts no processes of its own.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from repro.analysis.trace_cache import TraceCache
from repro.obs.metrics import Metrics
from repro.runtime.tracefile import open_trace_stream

import layers
import suite


def _peak_rss_kb() -> int:
    """This process's resident-set high-water mark in kilobytes.

    ``ru_maxrss`` keeps the parent's peak across ``fork`` and ``exec``,
    so the kernel's per-address-space ``VmHWM`` is read where it exists.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def calibration_pass() -> float:
    """Seconds for one fixed pure-Python loop of dict, list and tuple churn.

    The loop resembles a replay's work but runs no ``repro`` code, so no
    change to the program moves it; only the machine's speed does.
    """
    start = time.perf_counter()
    free, live = [], {}
    for i in range(20000):
        if i % 3 == 2:
            free.append(live.pop(next(iter(live))))
        node = free.pop() if free else [i, (i, i + 1)]
        node[0] = i
        live[i] = node
    return time.perf_counter() - start


def _digests(outputs) -> dict:
    out = {}
    for op, value in outputs.items():
        try:
            out[op] = suite.digest(value)
        except (ValueError, OSError) as exc:
            out[op] = f"error: {exc}"
    return out


def run(config: dict) -> dict:
    workload = suite.WORKLOADS[config["workload"]]
    scratch = Path(config["scratch"])
    scratch.mkdir(parents=True, exist_ok=True)
    spans = layers.Spans() if config["traced"] else None
    metrics = Metrics()
    ctx = suite.Context(
        cache=TraceCache(config["cache_dir"], metrics=metrics),
        scale=config["scale"],
        scratch=scratch,
        metrics=metrics,
    )
    if spans is not None:
        ctx.span = spans.span

    state = workload.setup(ctx)
    if spans is not None:
        spans.iteration = "warmup"
    with ctx.span("iteration"):
        warmup = workload.iterate(ctx, state)
    # From the parent's spawn, so interpreter start and imports count.
    setup_s = time.monotonic() - config["spawned"]
    digests = [_digests(warmup)]

    # Calibration passes bracket every timed iteration (see run.py).
    seconds = []
    calibration = []
    budget_start = time.perf_counter()
    while True:
        gc.collect()
        calibration.extend(calibration_pass() for _ in range(3))
        if spans is not None:
            spans.iteration = len(seconds)
        start = time.perf_counter()
        with ctx.span("iteration"):
            outputs = workload.iterate(ctx, state)
        seconds.append(time.perf_counter() - start)
        digests.append(_digests(outputs))
        if time.perf_counter() - budget_start >= config["budget_s"]:
            break
    gc.collect()
    calibration.extend(calibration_pass() for _ in range(3))

    paths = workload.input_paths(ctx, warmup)
    result = {
        "setup_s": setup_s,
        "iteration_s": seconds,
        "calibration_s": calibration,
        "digests": digests,
        "events": sum(open_trace_stream(p).summary.event_count
                      for p in paths),
        "input_bytes": sum(p.stat().st_size for p in paths),
        "peak_rss_kb": _peak_rss_kb(),
    }
    if spans is not None:
        # Hits and misses of the warm-up and timed iterations only.
        hits = metrics.counter("trace_cache.hit")
        lookups = hits + metrics.counter("trace_cache.miss")
        found = {"trace_cache.hit_ratio": hits / lookups}
        found.update(layers.workload_layers(workload, spans))
        spans.iteration = "probe"
        with spans.span("probe"):
            found.update(layers.probe_layers(
                workload, ctx, warmup, spans, config["seed"],
                config["synthetic_objects"]))
        spans.write(Path(config["trace_dir"]), found)
        result["layers"] = found
    return result


if __name__ == "__main__":
    try:
        result = run(json.loads(sys.argv[1]))
    except Exception:  # reported to the parent, which counts a failure
        result = {"error": traceback.format_exc()}
    print(json.dumps(result))
    sys.exit(1 if "error" in result else 0)
