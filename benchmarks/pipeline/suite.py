"""The five pipeline workloads: inputs, set-up, one iteration, digests.

Every workload is a closed loop with one client: an iteration starts
when the previous one finishes.  An iteration only calls public entry
points of the ``repro`` package, and returns its outputs keyed by
operation name (one table, one program/allocator replay, one search
session, one published trace).  :func:`digest` turns each output into
the sha256 that ``expected.json`` pins, outside the timed region.

Scales differ by workload so that one iteration takes about 0.5-2.5 s
on a 2-core VM: cfrac and espresso have a floor below scale 0.15, so
shrinking the scale further stops shrinking the tables and search
iterations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

from repro.alloc.spec import BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC
from repro.analysis import TraceStore
from repro.analysis import report, tables
from repro.analysis.simulate import SimulationResult, simulate_spec
from repro.analysis.trace_cache import TraceCache
from repro.core.predictor import train_site_predictor
from repro.obs.metrics import Metrics
from repro.runtime.stream.protocol import StreamSummary
from repro.search.results import SearchSession
from repro.search.service import run_search
from repro.search.space import DEFAULT_SPACE
from repro.workloads.registry import PROGRAM_ORDER, run_workload

import synth

#: The three allocators every replay runs, keyed by metric label.
SPECS = (
    ("arena", PAPER_DEFAULT_SPEC),
    ("firstfit", FIRSTFIT_SPEC),
    ("bsd", BSD_SPEC),
)

DATASETS = ("train", "test")
ALL_PAIRS = [(p, ds) for p in PROGRAM_ORDER for ds in DATASETS]
TEST_PAIRS = [(p, "test") for p in PROGRAM_ORDER]
SEARCH_PROGRAM = "espresso"


@dataclass
class Context:
    """What a workload's set-up and iterations run against."""

    #: Trace cache holding the workload's inputs (empty for ``cold``).
    cache: TraceCache
    scale: float
    #: Directory for files the iteration writes (``cold``); per child.
    scratch: Path
    #: Counts cache hits and misses of every cache the workload uses.
    metrics: Metrics
    #: ``span(name, **args)`` context factory; a no-op when untraced.
    span: Callable = lambda name, **args: nullcontext()


@dataclass(frozen=True)
class Replay:
    """One replay's result plus the footer of the trace it replayed."""

    result: SimulationResult
    summary: StreamSummary


@dataclass(frozen=True)
class Workload:
    name: str
    #: Workload scale at full size and in ``--quick`` mode.
    scale: float
    quick_scale: float
    #: (program, dataset) entries the parent puts in the warm cache;
    #: empty when the iteration writes its own (``cold``).
    needs: List[Tuple[str, str]]
    #: (program, dataset) traces whose events ``ns_per_event`` divides by.
    inputs: List[Tuple[str, str]]
    setup: Callable[[Context], Any]
    iterate: Callable[[Context, Any], Dict[str, Any]]

    @property
    def programs(self) -> List[str]:
        """Input programs in the paper's order."""
        return list(dict.fromkeys(program for program, _ in self.inputs))

    def input_paths(self, ctx: Context,
                    outputs: Dict[str, Any]) -> List[Path]:
        """The v3 files behind :attr:`inputs` (for ``cold``, its outputs)."""
        if not self.needs:
            return [outputs[f"{p}-{ds}"] for p, ds in self.inputs]
        return [ctx.cache.entry_path(p, ds, ctx.scale) for p, ds in self.inputs]

    def layer_cache(self, ctx: Context, outputs: Dict[str, Any]) -> TraceCache:
        """A cache holding train and test of every input program."""
        if not self.needs:
            return TraceCache(self.input_paths(ctx, outputs)[0].parent,
                              metrics=Metrics())
        return ctx.cache


def _no_setup(ctx: Context) -> None:
    return None


# ----------------------------------------------------------------------
# tables: the paper-reproduction path
# ----------------------------------------------------------------------

def _tables_iteration(ctx: Context, state) -> Dict[str, Any]:
    store = TraceStore(scale=ctx.scale, cache=ctx.cache)
    out = {}
    for number in range(1, 10):
        compute = getattr(tables, f"table{number}")
        render = getattr(report, f"render_table{number}")
        with ctx.span(f"analysis.table{number}"):
            out[f"table{number}"] = render(compute(store))
    return out


# ----------------------------------------------------------------------
# replay and synthetic: streamed replays against three allocators
# ----------------------------------------------------------------------

def _train(ctx: Context, program: str):
    source = ctx.cache.open_stream(program, "train", ctx.scale)
    with ctx.span("core.train", program=program):
        return train_site_predictor(source)


def _replays(ctx: Context, predictors: Dict[str, Any]) -> Dict[str, Any]:
    out = {}
    for program, predictor in predictors.items():
        for label, spec in SPECS:
            with ctx.span(f"analysis.simulate.{label}", program=program):
                source = ctx.cache.open_stream(program, "test", ctx.scale)
                result = simulate_spec(
                    source, spec, predictor if label == "arena" else None
                )
            out[f"{program}/{label}"] = Replay(result, source.summary)
    return out


def _replay_setup(ctx: Context) -> Dict[str, Any]:
    return {program: _train(ctx, program) for program in PROGRAM_ORDER}


def _synthetic_iteration(ctx: Context, state) -> Dict[str, Any]:
    return _replays(ctx, {"synthetic": _train(ctx, "synthetic")})


# ----------------------------------------------------------------------
# search: the design-space grid on one program
# ----------------------------------------------------------------------

def _search_iteration(ctx: Context, state) -> Dict[str, Any]:
    store = TraceStore(scale=ctx.scale, cache=ctx.cache)
    with ctx.span("search.run_search", program=SEARCH_PROGRAM):
        session = run_search(store, SEARCH_PROGRAM, DEFAULT_SPACE)
    return {SEARCH_PROGRAM: session}


# ----------------------------------------------------------------------
# cold: run every program and publish its trace to an empty cache
# ----------------------------------------------------------------------

def _cold_iteration(ctx: Context, state) -> Dict[str, Any]:
    cache = TraceCache(tempfile.mkdtemp(dir=ctx.scratch), metrics=ctx.metrics)
    out = {}
    for program, dataset in ALL_PAIRS:
        with ctx.span("workloads.run", program=program, dataset=dataset):
            trace = run_workload(program, dataset, scale=ctx.scale)
        with ctx.span("trace_cache.store", program=program, dataset=dataset):
            path = cache.store(trace, ctx.scale)
        with ctx.span("trace_cache.open_stream", program=program,
                      dataset=dataset):
            cache.open_stream(program, dataset, ctx.scale)
        out[f"{program}-{dataset}"] = path
    return out


SYNTHETIC_PAIRS = [("synthetic", ds) for ds in DATASETS]
SEARCH_PAIRS = [(SEARCH_PROGRAM, ds) for ds in DATASETS]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("tables", scale=0.02, quick_scale=0.01, needs=ALL_PAIRS,
                 inputs=ALL_PAIRS, setup=_no_setup,
                 iterate=_tables_iteration),
        Workload("replay", scale=0.1, quick_scale=0.01, needs=ALL_PAIRS,
                 inputs=TEST_PAIRS, setup=_replay_setup, iterate=_replays),
        Workload("search", scale=0.1, quick_scale=0.01, needs=SEARCH_PAIRS,
                 inputs=SEARCH_PAIRS, setup=_no_setup,
                 iterate=_search_iteration),
        Workload("cold", scale=0.05, quick_scale=0.01, needs=[],
                 inputs=ALL_PAIRS, setup=_no_setup, iterate=_cold_iteration),
        Workload("synthetic", scale=synth.SCALE, quick_scale=synth.SCALE,
                 needs=SYNTHETIC_PAIRS, inputs=SYNTHETIC_PAIRS,
                 setup=_no_setup, iterate=_synthetic_iteration),
    )
}


# ----------------------------------------------------------------------
# Output digests
# ----------------------------------------------------------------------

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str).encode()


def digest(value) -> str:
    """sha256 of one operation's output.

    A replay must also have replayed every object of its trace; one that
    did not raises :class:`ValueError`, which counts as a failed
    operation.
    """
    if isinstance(value, str):
        return _sha(value.encode())
    if isinstance(value, Path):
        return _sha(value.read_bytes())
    if isinstance(value, SearchSession):
        doc = value.to_dict()
        doc.pop("provenance")
        return _sha(_canonical(doc))
    if isinstance(value, Replay):
        ops = value.result.ops
        if (ops.allocs != value.summary.total_objects
                or ops.bytes_requested != value.summary.end_time):
            raise ValueError(
                f"replay saw {ops.allocs} allocations / "
                f"{ops.bytes_requested} bytes, trace holds "
                f"{value.summary.total_objects} / {value.summary.end_time}"
            )
        return _sha(_canonical(dataclasses.asdict(value.result)))
    raise TypeError(f"no digest for {type(value).__name__}")
