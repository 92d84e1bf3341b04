"""One arena replay serves every arena count the trace never outgrows.

``TraceStore.simulate`` answers an arena spec from any stored replay of
the same placement, ``num_arenas`` aside, that reached no more arenas
than the spec has and never found all of its own live
(:func:`~repro.analysis.simulate.counts_for`).  Differentially, over
the generated streams of ``test_replay_core`` and one real program:
visiting arena counts 1-64 in ascending, descending and shuffled order,
every answer equals a fresh ``simulate_spec`` field for field.  The
geometries include arenas small enough for every arena to be found
live, and objects larger than an arena.

A predictor's first replay that overflowed nothing also serves its
other arena sizes (:func:`~repro.analysis.simulate.arena_pass`, a walk
over the arenas' live counts): over the same streams, with two arena
geometries, the store's answer for the second equals a fresh replay,
and the pass falls back to a full replay exactly when a fresh replay of
the second geometry overflows.  Three more geometries per stream, of
1-8 small arenas that reset and overflow, pin the walk's counts to a
fresh replay's field for field, and one pass over an espresso-sized
trace holds O(live predicted-short objects) memory.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.spec import AllocatorSpec
from repro.analysis.experiments import EVAL_DATASET, TraceStore
from repro.analysis.simulate import (
    arena_pass,
    price,
    replay_spec,
    simulate_spec,
)
from repro.core.predictor import SitePredictor
from repro.core.sites import FULL_CHAIN, site_key
from repro.obs.spans import TRACER
from repro.runtime.events import TraceBuilder
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    build_trace,
)
from repro.runtime.tracefile import TraceFormatError
from tests.conftest import ListSource
from tests.test_prediction_memo import _packed_trace
from tests.test_replay_core import _allocs, _site_predictor, streams

COUNTS = range(1, 65)
ORDERS = ("ascending", "descending", "shuffled")


def _ordered(order: str, rng: random.Random) -> list:
    counts = list(COUNTS)
    if order == "descending":
        counts.reverse()
    elif order == "shuffled":
        rng.shuffle(counts)
    return counts


class GeneratedStore(TraceStore):
    """A store over one generated stream and one given predictor.

    ``simulate`` asks for the source only when it replays, so
    ``replays`` counts the replays the store ran.
    """

    def __init__(self, source, predictor):
        super().__init__(use_cache=False)
        self._generated = source
        self._given = predictor
        self.replays = 0

    def source(self, program, dataset=EVAL_DATASET):
        self.replays += 1
        return self._generated

    def predictor_for(self, program, spec):
        return self._given


def _fresh(source, predictor, geometry):
    """Per arena count: the fresh result, and whether its replay found
    every arena live."""
    results, exhausted = {}, set()
    for count in COUNTS:
        spec = AllocatorSpec(num_arenas=count, **geometry)
        results[count] = dataclasses.asdict(
            simulate_spec(source, spec, predictor)
        )
        if replay_spec(source, spec, predictor).arenas_exhausted:
            exhausted.add(count)
    return results, exhausted


def _check_orders(source, predictor, geometry, rng):
    fresh, exhausted = _fresh(source, predictor, geometry)
    for order in ORDERS:
        store = GeneratedStore(source, predictor)
        previous = None
        for count in _ordered(order, rng):
            replays = store.replays
            memo = store.simulate(
                "bad", AllocatorSpec(num_arenas=count, **geometry)
            )
            assert dataclasses.asdict(memo) == fresh[count], (order, count)
            if order == "ascending" and previous in exhausted:
                # Every stored replay found all its arenas live.
                assert store.replays == replays + 1, count
            previous = count
    return exhausted


def _churn():
    """200 48-byte objects, every 20th never freed, and a predictor that
    calls them all short-lived."""
    events = []
    clock = 0
    for obj_id in range(200):
        events.append((EV_ALLOC, obj_id, 0, 48, clock))
        clock += 48
        if obj_id % 20:
            events.append((EV_FREE, obj_id, clock, 0))
    chains = [("main", "hot")]
    predictor = SitePredictor(
        frozenset({site_key(chains[0], 48, FULL_CHAIN, 4)}), 32768,
        FULL_CHAIN, 4,
    )
    return build_trace(ListSource(events, chains=chains)), predictor


class TestSharedArenaReplays:
    @settings(max_examples=40, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_generated_streams(self, stream, data):
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        geometry = dict(
            arena_size=data.draw(st.sampled_from([64, 256, 1024])),
        )
        rng = data.draw(st.randoms(use_true_random=False))
        _check_orders(source, _site_predictor(data, events, chains),
                      geometry, rng)

    def test_exhausted_replay_is_not_reused(self):
        # Every 20th object survives and pins the 256-byte arena it
        # lands in: ten survivors find up to ten arenas all live.
        source, predictor = _churn()
        exhausted = _check_orders(source, predictor, dict(arena_size=256),
                                  random.Random(5))
        assert exhausted == set(range(1, 11))


def _small_site_predictor(data, events, chains) -> SitePredictor:
    """Predicts a random share of the stream's sites whose objects are at
    most a drawn size, so small arenas often overflow nothing."""
    largest = data.draw(st.sampled_from([64, 1024, 8192]))
    rng, allocs = _allocs(data, events, chains)
    small = [(chain, size) for chain, size in allocs if size <= largest]
    chosen = small[:int(rng.random() * (len(small) + 1))]
    sites = frozenset(
        site_key(chain, size, FULL_CHAIN, 4) for chain, size in chosen
    )
    return SitePredictor(sites, threshold=32 * 1024,
                         chain_length=FULL_CHAIN, size_rounding=4)


class TestGeneralHeapPerPredictor:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_second_geometry(self, stream, data):
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        predictor = _small_site_predictor(data, events, chains)
        sizes = data.draw(st.lists(st.sampled_from([64, 256, 1024, 8192]),
                                   min_size=2, max_size=2, unique=True))
        first, second = (
            AllocatorSpec(num_arenas=data.draw(st.integers(1, 8)),
                          arena_size=size)
            for size in sizes
        )
        general = replay_spec(source, first, predictor)
        fresh = replay_spec(source, second, predictor)
        if not general.ops.arena_overflows:
            answer = arena_pass(general, source, second, predictor)
            assert (answer is None) == (fresh.ops.arena_overflows > 0)
            assert answer in (None, fresh)
        TRACER.reset()
        TRACER.enable()
        try:
            store = GeneratedStore(source, predictor)
            assert store.simulate("bad", first) == price(general, first)
            assert store.simulate("bad", second) == price(fresh, second)
            full = len(TRACER.find("simulate.replay"))
        finally:
            TRACER.disable()
            TRACER.reset()
        # The second geometry replays in full exactly when the first
        # left no general half or the second overflows.
        assert full == 1 + bool(general.ops.arena_overflows
                                or fresh.ops.arena_overflows)

    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_three_small_geometries(self, stream, data):
        # 64 arenas of 8 KB hold every object, so the general half is
        # almost always kept.  1-8 arenas of 64-1,024 bytes reset in
        # some examples and find every arena live in others.
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        predictor = _small_site_predictor(data, events, chains)
        first = AllocatorSpec(num_arenas=64, arena_size=8192)
        general = replay_spec(source, first, predictor)
        store = GeneratedStore(source, predictor)
        assert store.simulate("bad", first) == price(general, first)
        for _ in range(3):
            spec = AllocatorSpec(num_arenas=data.draw(st.integers(1, 8)),
                                 arena_size=data.draw(st.integers(64, 1024)))
            fresh = replay_spec(source, spec, predictor)
            if not general.ops.arena_overflows:
                answer = arena_pass(general, source, spec, predictor)
                assert (answer is None) == (fresh.ops.arena_overflows > 0)
                if answer is not None:
                    assert (dataclasses.asdict(answer)
                            == dataclasses.asdict(fresh))
            assert store.simulate("bad", spec) == price(fresh, spec)

    def test_one_pass_holds_live_objects_only(self):
        # An espresso-sized trace: 18,000 objects of 96 (chain, size)
        # pairs, as espresso has at scale 0.1.  The odd objects are
        # predicted short and at most 33 of them live at once; the rest
        # live up to 2,000 allocations.  One pass peaked at 24 KiB, most
        # of it the verdict bytes; a verdict or a code listed per event
        # would take 270 KiB and more.
        builder = TraceBuilder(program="big", dataset="test")
        chains = [("main", f"site{i}") for i in range(8)]
        sizes = (5, 12, 16, 24, 31, 40, 48, 57, 64, 72, 88, 96)
        rng = random.Random(29)
        short, long, clock = [], [], 0
        for obj_id in range(18000):
            size = rng.choice(sizes)
            builder.add_alloc(chains[obj_id % 8], size, clock)
            clock += size
            (short if obj_id % 2 else long).append(obj_id)
            for pool, most, odds in ((short, 32, 0.3), (long, 2000, 0)):
                if len(pool) > most or (pool and rng.random() < odds):
                    builder.add_free(pool.pop(rng.randrange(len(pool))),
                                     clock, 0)
        source = builder.build()
        predictor = SitePredictor(
            frozenset(site_key(chain, size, FULL_CHAIN, 4)
                      for chain in chains[1::2] for size in sizes),
            32768, FULL_CHAIN, 4,
        )
        general = replay_spec(source, AllocatorSpec(), predictor)
        spec = AllocatorSpec(num_arenas=16, arena_size=1024)
        tracemalloc.start()
        try:
            answer = arena_pass(general, source, spec, predictor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert answer == replay_spec(source, spec, predictor)
        assert answer.ops.arena_resets > 400
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("events, offset", [
        ([(EV_ALLOC, 0, 0, 48, 0), (EV_FREE, 0, 48, 0),
          (EV_FREE, 0, 48, 0)], 2),
        ([(EV_FREE, 0, 0, 0), (EV_ALLOC, 0, 0, 48, 0)], 0),
    ])
    def test_free_of_an_object_never_placed(self, events, offset):
        # Hand-packed codes, which no loader checked: a double free and
        # a free before the alloc of a predicted-short object.
        predictor = SitePredictor(
            frozenset({site_key(("main", "f"), 48, FULL_CHAIN, 4)}), 32768,
            FULL_CHAIN, 4,
        )
        well_formed = [(EV_ALLOC, 0, 0, 48, 0), (EV_FREE, 0, 48, 0)]
        general = replay_spec(_packed_trace(well_formed), AllocatorSpec(),
                              predictor)
        with pytest.raises(TraceFormatError,
                           match=f"bad/test: event {offset}: free of "
                                 f"object 0"):
            arena_pass(general, _packed_trace(events), AllocatorSpec(),
                       predictor)

    def test_resets_and_both_fallbacks(self, spans):
        # The ten survivors pin ten arenas.  16 x 256 overflows nothing
        # and keeps the general half; 16 x 512 resets arenas without
        # overflowing; 8 x 512 finds all its arenas live, so its pass
        # falls back; no 32-byte arena holds a 48-byte object, so
        # 16 x 32 falls back before any pass.
        source, predictor = _churn()
        store = GeneratedStore(source, predictor)
        replays = {}
        for count, size in ((16, 256), (16, 512), (8, 512), (16, 32)):
            spec = AllocatorSpec(num_arenas=count, arena_size=size)
            fresh = replay_spec(source, spec, predictor)
            overflows = (count, size) in ((8, 512), (16, 32))
            assert bool(fresh.ops.arena_overflows) == overflows
            assert bool(fresh.ops.arena_resets) == (size != 32)
            before = len(spans.find("simulate.replay"))
            assert store.simulate("bad", spec) == price(fresh, spec)
            replays[count, size] = len(spans.find("simulate.replay")) - before
        assert replays == {(16, 256): 1, (16, 512): 0, (8, 512): 1,
                           (16, 32): 1}
        assert len(spans.find("simulate.arena_pass")) == 2


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shared-replays") / "cache"


@pytest.fixture
def spans():
    TRACER.reset()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


@pytest.mark.parametrize("mode", ("materialized", "streaming"))
@pytest.mark.parametrize("arena_size, ascending_replays", [(256, 8),
                                                           (4096, 3)])
def test_real_program(cache_dir, spans, mode, arena_size,
                      ascending_replays):
    # gawk at scale 0.02 finds all its 256-byte arenas live with up to 7
    # of them, and all its 4 KB arenas with up to 2, so the ascending
    # visit replays each of those counts and the next one.
    program = "gawk"
    fresh_store = TraceStore(scale=0.02, cache_dir=cache_dir)
    fresh = {}
    for count in COUNTS:
        spec = AllocatorSpec(num_arenas=count, arena_size=arena_size)
        fresh[count] = dataclasses.asdict(simulate_spec(
            fresh_store.source(program), spec,
            fresh_store.predictor_for(program, spec),
        ))
    rng = random.Random(arena_size)
    for order in ORDERS:
        store = TraceStore(scale=0.02, cache_dir=cache_dir,
                           streaming=mode == "streaming")
        before = len(spans.find("simulate.replay"))
        for count in _ordered(order, rng):
            spec = AllocatorSpec(num_arenas=count, arena_size=arena_size)
            memo = store.simulate(program, spec)
            assert dataclasses.asdict(memo) == fresh[count], (order, count)
        if order == "ascending":
            replays = len(spans.find("simulate.replay")) - before
            assert replays == ascending_replays
