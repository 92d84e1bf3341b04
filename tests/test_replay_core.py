"""Differential tests of the replay core: ids and packed arrays vs tuples.

Replay drives the allocators on ``(chain id, size)``, straight from an
in-memory trace's packed arrays or from a v3 stream's event tuples.  The
reference here is the plain loop every allocator supported before: a
fresh allocator, built by the same spec, fed each allocation's chain
*tuple*.  Over generated well-formed streams — sizes 1-8,192, frees in
random order, some objects never freed, touch events, 1-40 chains — the
materialized and streamed replays must both match that loop counter for
counter, and with telemetry attached, sample for sample.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.bsd import BSD_HEADER_SIZE, MIN_BUCKET, bucket_for
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    AllocatorSpec,
    build_allocator,
)
from repro.analysis.simulate import ReplayCounts, replay_spec
from repro.core.multiclass import MultiClassPredictor
from repro.core.predictor import SitePredictor
from repro.core.sites import FULL_CHAIN, site_key
from repro.obs.metrics import Metrics
from repro.obs.telemetry import Telemetry
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    EV_TOUCH,
    build_trace,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from tests.conftest import ListSource

#: A small ladder, so the class areas are small enough to overflow.
LADDER = (1024, 8192)


@st.composite
def streams(draw):
    """``(events, chains)`` of one well-formed stream."""
    rng = draw(st.randoms(use_true_random=False))
    chain_count = draw(st.integers(1, 40))
    chains = [
        ("main",) + tuple(f"f{rng.randrange(6)}" for _ in range(1 + i % 4))
        + (f"site{i}",)
        for i in range(chain_count)
    ]
    objects = draw(st.integers(0, 150))
    touches = draw(st.booleans())
    events = []
    live = []
    clock = 0
    next_id = 0
    while next_id < objects or (live and rng.random() < 0.5):
        roll = rng.random()
        if next_id < objects and (not live or roll < 0.55):
            size = rng.choice([rng.randint(1, 64), rng.randint(1, 8192)])
            events.append((EV_ALLOC, next_id, rng.randrange(chain_count),
                           size, clock))
            live.append((next_id, clock))
            clock += size
            next_id += 1
        elif live and (roll < 0.9 or not touches):
            obj_id, _ = live.pop(rng.randrange(len(live)))
            events.append((EV_FREE, obj_id, clock, rng.randrange(4)))
        elif live:
            obj_id, _ = rng.choice(live)
            events.append((EV_TOUCH, obj_id, 1 + rng.randrange(3)))
    return events, chains


def _allocs(data, events, chains):
    """The stream's (chain, size) pairs, shuffled by a drawn generator."""
    rng = data.draw(st.randoms(use_true_random=False))
    allocs = [(chains[ev[2]], ev[3]) for ev in events if ev[0] == EV_ALLOC]
    rng.shuffle(allocs)
    return rng, allocs


def _site_predictor(data, events, chains) -> SitePredictor:
    """Predicts a random share, from none to all, of the stream's sites."""
    rng, allocs = _allocs(data, events, chains)
    rounding = rng.choice([1, 4])
    chosen = allocs[:int(rng.random() * (len(allocs) + 1))]
    sites = frozenset(
        site_key(chain, size, FULL_CHAIN, rounding) for chain, size in chosen
    )
    return SitePredictor(sites, threshold=32 * 1024,
                         chain_length=FULL_CHAIN, size_rounding=rounding)


def _multiclass_predictor(data, events, chains) -> MultiClassPredictor:
    rng, allocs = _allocs(data, events, chains)
    classes = {}
    for chain, size in allocs:
        klass = rng.choice([0, 1, None])
        if klass is not None:
            classes[site_key(chain, size, FULL_CHAIN, 4)] = klass
    return MultiClassPredictor(classes, LADDER, FULL_CHAIN, 4)


def _reference(events, chains, spec, predictor, telemetry=None):
    """The tuple-fed loop: no chain table, one chain tuple per malloc."""
    allocator = build_allocator(spec, predictor)
    if telemetry is not None:
        telemetry.attach(allocator, program="bad", dataset="test")
    addresses = {}
    for ev in events:
        if ev[0] == EV_ALLOC:
            addresses[ev[1]] = allocator.malloc(ev[3], chains[ev[2]])
        elif ev[0] == EV_FREE:
            allocator.free(addresses.pop(ev[1]))
    if telemetry is not None:
        telemetry.finish()
    common = dict(
        program="bad", dataset="test",
        max_heap_size=allocator.max_heap_size,
        final_live_bytes=allocator.live_bytes,
        ops=allocator.ops,
    )
    if spec.kind in ("firstfit", "bsd"):
        return ReplayCounts(**common)
    if spec.kind == "multiarena":
        area = dict(arena_area_size=allocator.total_area_size)
    else:
        area = dict(
            arena_area_size=allocator.arena_area_size,
            arenas_used=allocator.arenas_used,
            arenas_exhausted=allocator.arenas_exhausted,
        )
    return ReplayCounts(
        general_ops=allocator.general.ops,
        arena_bytes=allocator.arena_bytes,
        general_bytes=allocator.general_bytes,
        total_calls=0,
        **area,
        **common,
    )


def _recorder() -> Telemetry:
    return Telemetry(interval=7, metrics=Metrics())


def _observed(telemetry: Telemetry):
    return telemetry.samples, telemetry.sites, telemetry.totals()


class TestReplayMatchesTupleLoop:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), chunk_events=st.integers(1, 64), data=st.data())
    def test_every_allocator_both_modes(self, tmp_path_factory, stream,
                                        chunk_events, data):
        events, chains = stream
        source = ListSource(events, chains=chains)
        path = tmp_path_factory.mktemp("replay") / "gen.rtr3"
        write_trace_v3(source, path, chunk_events=chunk_events)
        materialized = build_trace(source)
        arena = AllocatorSpec(
            num_arenas=data.draw(st.integers(1, 4)),
            arena_size=data.draw(st.sampled_from([64, 256, 1024])),
        )
        cases = [
            (FIRSTFIT_SPEC, None),
            (BSD_SPEC, None),
            (arena, _site_predictor(data, events, chains)),
            (AllocatorSpec(kind="multiarena", class_thresholds=LADDER),
             _multiclass_predictor(data, events, chains)),
        ]
        for spec, predictor in cases:
            expected = _reference(events, chains, spec, predictor)
            for trace in (materialized, TraceFileSource(path)):
                assert replay_spec(trace, spec, predictor) == expected, (
                    spec.kind, type(trace).__name__
                )

    @settings(max_examples=60, deadline=None)
    @given(stream=streams(), chunk_events=st.integers(1, 64), data=st.data())
    def test_telemetry_samples_match(self, tmp_path_factory, stream,
                                     chunk_events, data):
        events, chains = stream
        source = ListSource(events, chains=chains)
        path = tmp_path_factory.mktemp("telemetry") / "gen.rtr3"
        write_trace_v3(source, path, chunk_events=chunk_events)
        arena = AllocatorSpec(num_arenas=2, arena_size=256)
        cases = [
            (FIRSTFIT_SPEC, None),
            (BSD_SPEC, None),
            (arena, _site_predictor(data, events, chains)),
        ]
        for spec, predictor in cases:
            reference = _recorder()
            _reference(events, chains, spec, predictor, reference)
            for trace in (build_trace(source), TraceFileSource(path)):
                telemetry = _recorder()
                replay_spec(trace, spec, predictor, telemetry=telemetry)
                assert _observed(telemetry) == _observed(reference), (
                    spec.kind, type(trace).__name__
                )

    def test_arena_reset_and_overflow_paths(self):
        # Two 256-byte arenas of 48-byte objects, every 20th one never
        # freed: the second arena empties and is reset until a survivor
        # pins it too, and from then on predicted objects overflow.
        events = []
        clock = 0
        for obj_id in range(64):
            events.append((EV_ALLOC, obj_id, 0, 48, clock))
            clock += 48
            if obj_id % 20:
                events.append((EV_FREE, obj_id, clock, 0))
        chains = [("main", "hot")]
        predictor = SitePredictor(
            frozenset({site_key(chains[0], 48, FULL_CHAIN, 4)}), 32768,
            FULL_CHAIN, 4,
        )
        spec = AllocatorSpec(num_arenas=2, arena_size=256)
        counts = replay_spec(build_trace(ListSource(events, chains=chains)),
                             spec, predictor)
        assert counts.ops.arena_resets > 0
        assert counts.ops.arena_overflows > 0
        assert counts == _reference(events, chains, spec, predictor)


def test_bucket_for_matches_doubling_loop():
    # The doubling loop bucket_for replaced, advanced incrementally:
    # the bucket never shrinks as the size grows.
    bucket = MIN_BUCKET
    for size in range(1, (1 << 20) + 1):
        while (1 << bucket) < size + BSD_HEADER_SIZE:
            bucket += 1
        assert bucket_for(size) == bucket, size
