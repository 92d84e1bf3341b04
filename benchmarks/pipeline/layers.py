"""The traced run: the benchmark's own spans and isolated layer passes.

Spans are recorded only around calls the benchmark itself makes into a
layer; nothing inside the ``repro`` package is instrumented.  Layers
that only run inside one of those calls (event decode, site prediction,
allocator operations inside ``simulate_spec``) are measured by isolated
passes over the same input traces, each under its own ``probe.*`` span.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.alloc.spec import build_allocator
from repro.analysis.simulate import simulate_spec
from repro.analysis.trace_cache import TraceCache
from repro.core.predictor import evaluate, train_site_predictor
from repro.core.quantile import P2Histogram
from repro.obs.attrib import attribute_sites
from repro.runtime.stream.protocol import EV_ALLOC, EV_FREE, iter_object_lifetimes
from repro.runtime.tracefile import save_trace
from repro.search.space import DEFAULT_SPACE
from repro.workloads.registry import run_workload

import synth
from suite import SPECS, Context, Workload


class Spans:
    """Nested wall-time spans: name, start, end, parent, iteration id."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._stack: List[int] = []
        self.iteration: Any = None
        self._origin = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, **args):
        index = len(self.records)
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
            "args": args,
            "start_ns": time.perf_counter_ns() - self._origin,
            "end_ns": None,
        }
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = time.perf_counter_ns() - self._origin

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (``ph: "X"``), loadable in Perfetto."""
        events = [
            {
                "ph": "X", "pid": 1, "tid": 1, "name": r["name"],
                "ts": r["start_ns"] / 1000,
                "dur": (r["end_ns"] - r["start_ns"]) / 1000,
                "args": dict(r["args"], id=i, parent=r["parent"],
                             iteration=r["iteration"]),
            }
            for i, r in enumerate(self.records)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds, self seconds (minus children)."""
        child_ns = [0] * len(self.records)
        for r in self.records:
            if r["parent"] is not None:
                child_ns[r["parent"]] += r["end_ns"] - r["start_ns"]
        out: Dict[str, Dict[str, float]] = {}
        for r, children in zip(self.records, child_ns):
            total = r["end_ns"] - r["start_ns"]
            entry = out.setdefault(r["name"],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += total / 1e9
            entry["self_s"] += (total - children) / 1e9
        return dict(sorted(out.items()))

    def durations(self, name: str) -> List[float]:
        """Seconds of every timed-iteration span called ``name``."""
        return [
            (r["end_ns"] - r["start_ns"]) / 1e9 for r in self.records
            if r["name"] == name and isinstance(r["iteration"], int)
        ]

    def write(self, directory: Path, layers: Dict[str, Any]) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "spans.json").write_text(json.dumps(self.chrome_trace()))
        (directory / "layers.json").write_text(json.dumps(
            {"self_times": self.self_times(), "metrics": layers},
            indent=1, sort_keys=True))


def probe_layers(workload: Workload, ctx: Context, outputs: Dict[str, Any],
                 spans: Spans, synthetic_seed: Optional[int],
                 synthetic_objects: int) -> Dict[str, float]:
    """One isolated pass per layer over the workload's input programs."""
    cache: TraceCache = workload.layer_cache(ctx, outputs)
    scale = ctx.scale
    timed: Dict[str, List[int]] = {}  # metric -> [nanoseconds, units]
    counts = {"allocs": 0, "keys": 0, "arena_allocs": 0, "predicted": 0,
              "encoded_bytes": 0, "encoded_events": 0}

    @contextmanager
    def probe(metric: str, units: int):
        """Time one pass as a ``probe.<metric>`` span over ``units`` work."""
        with spans.span(f"probe.{metric}", program=program) as record:
            yield
        entry = timed.setdefault(metric, [0, 0])
        entry[0] += record["end_ns"] - record["start_ns"]
        entry[1] += units

    for program in workload.programs:
        train = cache.open_stream(program, "train", scale)
        test = cache.open_stream(program, "test", scale)
        events = test.summary.event_count
        if program == "synthetic":
            # The generator produces the train and test executions at once.
            with probe("workloads.run_ns_per_event",
                       events + train.summary.event_count):
                synth.generate(synthetic_seed, synthetic_objects)
        else:
            with probe("workloads.run_ns_per_event", events):
                run_workload(program, "test", scale=scale)
        with probe("stream.decode_ns_per_event", events):
            for _ in test.events():
                pass
        with probe("trace_cache.load_ns_per_event", events):
            trace = cache.load(program, "test", scale)
        path = ctx.scratch / f"probe-{program}.rtr3"
        with probe("stream.encode_ns_per_event", events):
            save_trace(trace, path)
        counts["encoded_bytes"] += path.stat().st_size
        counts["encoded_events"] += events
        path.unlink()
        with probe("core.train_ns_per_event", train.summary.event_count):
            predictor = train_site_predictor(train)
        with probe("core.evaluate_ns_per_event", events):
            evaluate(predictor, test)

        # Pre-decoded operations, so the passes below time one layer each.
        chain_of = test.header.chains.chain
        ops = []
        for ev in test.events():
            if ev[0] == EV_ALLOC:
                ops.append((EV_ALLOC, ev[1], ev[3], chain_of(ev[2])))
            elif ev[0] == EV_FREE:
                ops.append((EV_FREE, ev[1], 0, None))
        allocs = [(chain, size) for tag, _, size, chain in ops
                  if tag == EV_ALLOC]
        counts["allocs"] += len(allocs)
        counts["keys"] += len({predictor.key_for(c, s) for c, s in allocs})
        with probe("core.predict_ns_per_alloc", len(allocs)):
            for chain, size in allocs:
                predictor.predicts_short_lived(chain, size)
        lifetimes = [life for _, _, life, _ in iter_object_lifetimes(test)]
        with probe("core.quantile_ns_per_object", len(lifetimes)):
            histogram = P2Histogram(4)
            for life in lifetimes:
                histogram.add(life)

        for label, spec in SPECS:
            arena_predictor = predictor if label == "arena" else None
            allocator = build_allocator(spec, arena_predictor)
            addresses = {}
            with probe(f"alloc.{label}.ns_per_op", len(ops)):
                for tag, obj_id, size, chain in ops:
                    if tag == EV_FREE:
                        allocator.free(addresses.pop(obj_id))
                    else:
                        addresses[obj_id] = allocator.malloc(size, chain)
            if arena_predictor is not None:
                counts["arena_allocs"] += allocator.ops.arena_allocs
                counts["predicted"] += allocator.ops.predicted_short
            with probe(f"analysis.simulate.{label}.ns_per_event", events):
                simulate_spec(test, spec, arena_predictor)
        with probe("obs.attrib_ns_per_event", events):
            attribute_sites(test, predictor=predictor, spec=SPECS[0][1])

    metrics = {name: ns / units for name, (ns, units) in timed.items()}
    metrics["stream.bytes_per_event"] = (
        counts["encoded_bytes"] / counts["encoded_events"])
    metrics["core.keys_per_alloc"] = counts["keys"] / counts["allocs"]
    metrics["alloc.arena.capture_ratio"] = (
        counts["arena_allocs"] / counts["predicted"])
    return metrics


def workload_layers(workload: Workload, spans: Spans) -> Dict[str, float]:
    """Layer metrics only one workload reaches, from its timed spans."""
    out = {}
    if workload.name == "tables":
        for number in range(1, 10):
            out[f"analysis.table{number}_s"] = statistics.median(
                spans.durations(f"analysis.table{number}"))
    if workload.name == "search":
        # The baseline plus one evaluation per grid spec.
        candidates = 1 + len(list(DEFAULT_SPACE.specs()))
        out["search.candidate_s"] = statistics.median(
            d / candidates for d in spans.durations("search.run_search"))
    return out
