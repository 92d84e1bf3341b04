"""Trace-driven allocator simulation.

The paper's §5.2 methodology: "we fed a trace of the program's allocation
events and a list of short-lived sites into a simulator of the prediction
algorithm.  The output of the simulator gives operation counts,
information about the fraction of objects and bytes allocated in arenas,
heap size, and fragmentation measurements."  This module is that
simulator driver: it replays a trace's alloc/free event sequence against
any of the allocator simulators and packages the measurements the tables
need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.base import Allocator, OpCounts
from repro.alloc.costs import (
    DEFAULT_COST_MODEL,
    AllocatorCost,
    CostModel,
    arena_cost,
    bsd_cost,
    firstfit_cost,
)
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    AllocatorSpec,
    build_allocator,
)
from repro.core.predictor import LifetimePredictor
from repro.obs.spans import TRACER
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    EventSource,
    as_event_source,
)
from repro.runtime.tracefile import TraceFormatError

if TYPE_CHECKING:
    from repro.obs.telemetry import Telemetry

__all__ = [
    "SimulationResult",
    "replay",
    "simulate_spec",
    "simulate_firstfit",
    "simulate_bsd",
    "simulate_arena",
]


@dataclass(frozen=True)
class SimulationResult:
    """Measurements from replaying one trace against one allocator."""

    allocator: str
    program: str
    dataset: str
    max_heap_size: int
    final_live_bytes: int
    ops: OpCounts
    cost: AllocatorCost
    #: Arena-allocator extras (None for the baselines).
    general_ops: Optional[OpCounts] = None
    arena_allocs: int = 0
    arena_bytes: int = 0
    general_allocs: int = 0
    general_bytes: int = 0
    arena_area_size: int = 0

    @property
    def total_allocs(self) -> int:
        """Allocations replayed."""
        return self.ops.allocs

    @property
    def total_bytes(self) -> int:
        """Bytes requested across the replay."""
        return self.ops.bytes_requested

    @property
    def arena_alloc_pct(self) -> float:
        """Percent of allocations served from arenas (Table 7)."""
        return _pct(self.arena_allocs, self.total_allocs)

    @property
    def arena_byte_pct(self) -> float:
        """Percent of bytes served from arenas (Table 7)."""
        return _pct(self.arena_bytes, self.total_bytes)


def replay(trace: Union[Trace, EventSource], allocator: Allocator,
           check_invariants: bool = False,
           telemetry: Optional["Telemetry"] = None) -> None:
    """Drive ``allocator`` with a trace's event sequence.

    ``trace`` is an in-memory :class:`Trace` or any
    :class:`~repro.runtime.stream.protocol.EventSource` (e.g. a v3 trace
    file opened with :func:`~repro.runtime.tracefile.open_trace_stream`);
    replay memory is the source's — for a streamed file, the live
    address map plus one chunk.  Alloc events carry their own size and
    chain id, so the loop never consults an object table.

    With ``check_invariants`` the allocator is audited after every 4096
    events — slow, used by the integration tests.

    A stream that frees an object that is not live, or allocates under a
    chain id its header never interned, raises
    :class:`~repro.runtime.tracefile.TraceFormatError` naming the file,
    the event offset, and the object id.

    ``telemetry`` attaches a :class:`~repro.obs.telemetry.Telemetry`
    recorder for the duration of the replay: the allocator reports every
    operation through its probe and the recorder samples the heap gauges
    every ``telemetry.interval`` allocations.  The replay loop itself is
    untouched — with ``telemetry=None`` (the default) this function is
    byte-for-byte the uninstrumented hot path.
    """
    source = as_event_source(trace)
    header = source.header
    if telemetry is not None:
        telemetry.attach(
            allocator, program=header.program, dataset=header.dataset
        )
    with TRACER.span("simulate.replay", cat="simulate",
                     allocator=allocator.name, program=header.program,
                     dataset=header.dataset):
        chain_of = header.chains.chain
        addresses = {}
        step = 0
        offset, ev = -1, ()
        try:
            for offset, ev in enumerate(source.events()):
                tag = ev[0]
                if tag == EV_TOUCH:  # touch events carry no allocator work
                    continue
                if tag == EV_FREE:
                    allocator.free(addresses.pop(ev[1]))
                else:
                    addresses[ev[1]] = allocator.malloc(
                        ev[3], chain_of(ev[2])
                    )
                step += 1
                if check_invariants and step % 4096 == 0:
                    allocator.check_invariants()
        except (KeyError, IndexError) as exc:
            error = _stream_error(source, offset, ev, exc)
            if error is None:
                raise
            raise error from exc
        if check_invariants:
            allocator.check_invariants()
    if telemetry is not None:
        telemetry.finish()


def _stream_error(
    source: EventSource, offset: int, ev: tuple, exc: Exception
) -> Optional[TraceFormatError]:
    """The format error behind a lookup failure at event ``offset``.

    ``None`` when ``exc`` did not come from the event itself (a free of
    an object that is not live, an alloc naming a chain the header never
    interned), so the caller re-raises it untouched.
    """
    if not ev:
        return None
    header = source.header
    where = getattr(source, "path", None) or (
        f"{header.program}/{header.dataset}"
    )
    if ev[0] == EV_FREE and isinstance(exc, KeyError) and exc.args == (ev[1],):
        return TraceFormatError(
            f"{where}: event {offset}: free of object {ev[1]}, "
            f"which is not live"
        )
    if ev[0] == EV_ALLOC and isinstance(exc, IndexError) and not (
        0 <= ev[2] < len(header.chains)
    ):
        return TraceFormatError(
            f"{where}: event {offset}: object {ev[1]} names chain id "
            f"{ev[2]}, but the header interns {len(header.chains)} chains"
        )
    return None


def _result_name(spec: AllocatorSpec) -> str:
    """The result's allocator label (kept stable for every renderer)."""
    if spec.kind == "firstfit":
        return "first-fit"
    if spec.kind == "bsd":
        return "bsd"
    if spec.kind == "multiarena":
        return f"multi-arena ({spec.strategy})"
    return f"arena ({spec.strategy})"


def simulate_spec(
    trace: Union[Trace, EventSource],
    spec: AllocatorSpec,
    predictor: Optional[LifetimePredictor] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    telemetry: Optional["Telemetry"] = None,
) -> SimulationResult:
    """Replay a trace against the allocator an :class:`AllocatorSpec`
    describes.

    This is the single construction path: the allocator comes out of
    :func:`~repro.alloc.spec.build_allocator`, so every consumer —
    tables, bench, stats, the design-space search — replays exactly the
    configuration the spec hashes to.  ``predictor`` is the resolved
    predictor object for the arena kinds (see
    :meth:`~repro.analysis.experiments.TraceStore.predictor_for`).
    """
    source = as_event_source(trace)
    allocator = build_allocator(spec, predictor)
    replay(source, allocator, telemetry=telemetry)
    name = _result_name(spec)
    common = dict(
        allocator=name,
        program=source.header.program,
        dataset=source.header.dataset,
        max_heap_size=allocator.max_heap_size,
        final_live_bytes=allocator.live_bytes,
        ops=allocator.ops.snapshot(),
    )
    if spec.kind == "firstfit":
        return SimulationResult(
            cost=firstfit_cost(allocator.ops, model), **common
        )
    if spec.kind == "bsd":
        return SimulationResult(cost=bsd_cost(allocator.ops, model), **common)
    cost = arena_cost(
        allocator.ops,
        allocator.general.ops,
        strategy=spec.strategy,
        total_calls=source.summary.total_calls,
        model=model,
    )
    area_size = (
        allocator.total_area_size if spec.kind == "multiarena"
        else allocator.arena_area_size
    )
    return SimulationResult(
        cost=cost,
        general_ops=allocator.general.ops.snapshot(),
        arena_allocs=allocator.ops.arena_allocs,
        arena_bytes=allocator.arena_bytes,
        general_allocs=allocator.ops.allocs - allocator.ops.arena_allocs,
        general_bytes=allocator.general_bytes,
        arena_area_size=area_size,
        **common,
    )


def simulate_firstfit(
    trace: Union[Trace, EventSource], model: CostModel = DEFAULT_COST_MODEL,
    telemetry: Optional["Telemetry"] = None,
) -> SimulationResult:
    """Replay a trace against the Knuth first-fit baseline."""
    return simulate_spec(trace, FIRSTFIT_SPEC, model=model,
                         telemetry=telemetry)


def simulate_bsd(
    trace: Union[Trace, EventSource], model: CostModel = DEFAULT_COST_MODEL,
    telemetry: Optional["Telemetry"] = None,
) -> SimulationResult:
    """Replay a trace against the BSD power-of-two baseline."""
    return simulate_spec(trace, BSD_SPEC, model=model, telemetry=telemetry)


def simulate_arena(
    trace: Union[Trace, EventSource],
    predictor: LifetimePredictor,
    num_arenas: int = DEFAULT_NUM_ARENAS,
    arena_size: int = DEFAULT_ARENA_SIZE,
    strategy: str = "len4",
    model: CostModel = DEFAULT_COST_MODEL,
    telemetry: Optional["Telemetry"] = None,
) -> SimulationResult:
    """Replay a trace against the lifetime-predicting arena allocator.

    ``strategy`` picks the chain-identification cost model (``"len4"`` or
    ``"cce"``); it does not change placement, matching the paper, where
    both Table 9 arena columns describe the same allocation behaviour.
    """
    spec = AllocatorSpec(
        num_arenas=num_arenas, arena_size=arena_size, strategy=strategy,
        threshold=getattr(predictor, "threshold", None) or 32 * 1024,
    )
    return simulate_spec(trace, spec, predictor=predictor, model=model,
                         telemetry=telemetry)


def _pct(numerator: int, denominator: int) -> float:
    if denominator == 0:
        return 0.0
    return 100.0 * numerator / denominator
