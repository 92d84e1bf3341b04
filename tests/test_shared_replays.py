"""One arena replay serves every arena count the trace never outgrows,
and a materialized store answers arena and BSD placements with walks.

``TraceStore.simulate`` answers an arena spec from any stored replay of
the same placement, ``num_arenas`` aside, that reached no more arenas
than the spec has and never found all of its own live
(:func:`~repro.analysis.simulate.counts_for`).  Differentially, over
the generated streams of ``test_replay_core`` and one real program:
visiting arena counts 1-64 in ascending, descending and shuffled order,
every answer equals a fresh ``simulate_spec`` field for field.  The
geometries include arenas small enough for every arena to be found
live, and objects larger than an arena.

On an in-memory trace the store computes an arena placement with a
predictor as an arena walk over the predicted-short objects' live
counts (:func:`~repro.analysis.simulate.arena_walk`) composed with one
first-fit replay of the objects the walk leaves to the general heap
(:func:`~repro.analysis.simulate.general_replay`), and kind ``bsd`` as
a walk over each bucket's peak live count
(:func:`~repro.analysis.simulate.bsd_walk`).  Over the same streams,
with a random predictor and 1-8 arenas of 64-1,024 bytes, drawn so that
some examples reset arenas, some find every arena live, some overflow
an object larger than any arena and some leave arena objects never
freed, the composition equals a fresh ``replay_spec`` in every
``ReplayCounts`` field; so does the BSD walk.  Geometries and
predictors that leave first-fit the same objects share one replay; one
walk over an espresso-sized trace holds O(live predicted-short objects)
memory; and hand-packed malformed traces raise through the store
exactly what ``replay_spec`` raises.
"""

from __future__ import annotations

import dataclasses
import random
import tracemalloc

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from repro.alloc.spec import BSD_SPEC, AllocatorSpec
from repro.analysis.experiments import EVAL_DATASET, TraceStore
from repro.analysis.simulate import (
    ReplayCounts,
    arena_counts,
    arena_walk,
    bsd_walk,
    general_replay,
    price,
    replay_spec,
    simulate_spec,
    verdict_bytes,
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
from tests.test_replay_core import _site_predictor, streams

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

    ``simulate`` asks for the source only when no stored replay answers
    a spec, so ``replays`` counts the placements the store computed,
    each one replay or walk.
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


def _small_site_predictor(draw, events, chains) -> SitePredictor:
    """Predicts a random share of the stream's sites whose objects are at
    most a drawn size, so small arenas often overflow nothing."""
    largest = draw(st.sampled_from([64, 1024, 8192]))
    rng = draw(st.randoms(use_true_random=False))
    small = [(chains[ev[2]], ev[3]) for ev in events
             if ev[0] == EV_ALLOC and ev[3] <= largest]
    rng.shuffle(small)
    chosen = small[:int(rng.random() * (len(small) + 1))]
    sites = frozenset(
        site_key(chain, size, FULL_CHAIN, 4) for chain, size in chosen
    )
    return SitePredictor(sites, threshold=32 * 1024,
                         chain_length=FULL_CHAIN, size_rounding=4)


@st.composite
def small_geometries(draw):
    """A stream, a random predictor, and three geometries of 1-8 arenas
    of 64-1,024 bytes: small enough to reset, to find every arena live,
    and to be smaller than an object."""
    events, chains = draw(streams())
    source = build_trace(ListSource(events, chains=chains))
    predictor = _small_site_predictor(draw, events, chains)
    specs = [
        AllocatorSpec(num_arenas=draw(st.integers(1, 8)),
                      arena_size=draw(st.integers(64, 1024)))
        for _ in range(3)
    ]
    return source, predictor, specs


def _composed(source, spec, short) -> ReplayCounts:
    """The store's answer for an arena spec, assembled by hand."""
    walk = arena_walk(source, spec, short)
    general = general_replay(source, short, walk.overflowed)
    return arena_counts(source, spec, walk, general)


def _walks(source, predictor, specs) -> list:
    """Each spec's arena walk under ``predictor``."""
    short = verdict_bytes(source, predictor)
    return [arena_walk(source, spec, short) for spec in specs]


#: What a drawn case must be able to reach: a reset, a scan that finds
#: every arena live, an overflow of an object larger than an arena, and
#: an arena object never freed.
PATHS = {
    "reset": lambda source, spec, walk: walk.arena_resets > 0,
    "exhausted": lambda source, spec, walk: walk.arenas_exhausted,
    "too-large": lambda source, spec, walk: any(
        source.size_of(obj_id) > spec.arena_size
        for obj_id in walk.overflowed
    ),
    "never-freed": lambda source, spec, walk: walk.arena_live_bytes > 0,
}


class TestGeneralHeapPerPredictor:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_second_geometry(self, stream, data):
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        predictor = _small_site_predictor(data.draw, events, chains)
        sizes = data.draw(st.lists(st.sampled_from([64, 256, 1024, 8192]),
                                   min_size=2, max_size=2, unique=True))
        specs = [
            AllocatorSpec(num_arenas=data.draw(st.integers(1, 8)),
                          arena_size=size)
            for size in sizes
        ]
        fresh = [replay_spec(source, spec, predictor) for spec in specs]
        overflowed = {walk.overflowed
                      for walk in _walks(source, predictor, specs)}
        TRACER.reset()
        TRACER.enable()
        try:
            store = GeneratedStore(source, predictor)
            for spec, counts in zip(specs, fresh):
                assert store.simulate("bad", spec) == price(counts, spec)
            walks = len(TRACER.find("simulate.arena_walk"))
            replays = len(TRACER.find("simulate.replay"))
        finally:
            TRACER.disable()
            TRACER.reset()
        # One walk per geometry, and one first-fit replay per set of
        # objects the walks leave to the general heap: one when neither
        # geometry overflows.
        assert walks == 2
        assert replays == len(overflowed)
        if not any(counts.ops.arena_overflows for counts in fresh):
            assert replays == 1

    @settings(max_examples=150, deadline=None)
    @given(case=small_geometries())
    def test_three_small_geometries(self, case):
        source, predictor, specs = case
        short = verdict_bytes(source, predictor)
        store = GeneratedStore(source, predictor)
        for spec in specs:
            fresh = replay_spec(source, spec, predictor)
            assert (dataclasses.asdict(_composed(source, spec, short))
                    == dataclasses.asdict(fresh))
            assert store.simulate("bad", spec) == price(fresh, spec)

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_small_geometries_reach(self, path):
        reaches = PATHS[path]

        def found(case):
            source, predictor, specs = case
            return any(
                reaches(source, spec, walk) for spec, walk in
                zip(specs, _walks(source, predictor, specs))
            )

        find(small_geometries(), found, random=random.Random(path),
             settings=settings(database=None, max_examples=500,
                               phases=[Phase.generate]))

    @settings(max_examples=50, deadline=None)
    @given(stream=streams(), data=st.data())
    def test_equal_verdicts_share_one_first_fit_replay(self, stream, data):
        # Two predictor objects with the same sites and different
        # thresholds give every object the same verdict.
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        first = _small_site_predictor(data.draw, events, chains)
        second = SitePredictor(first.sites, threshold=16 * 1024,
                               chain_length=FULL_CHAIN, size_rounding=4)
        by_threshold = {first.threshold: first, second.threshold: second}
        specs = [AllocatorSpec(threshold=threshold)
                 for threshold in by_threshold]
        TRACER.reset()
        TRACER.enable()
        try:
            store = GeneratedStore(source, None)
            store.predictor_for = lambda program, spec: (
                by_threshold[spec.threshold]
            )
            for spec in specs:
                fresh = replay_spec(source, spec,
                                    by_threshold[spec.threshold])
                assert store.simulate("bad", spec) == price(fresh, spec)
            walks = len(TRACER.find("simulate.arena_walk"))
            general = [span for span in TRACER.find("simulate.replay")
                       if span.args["allocator"] == "first-fit"]
        finally:
            TRACER.disable()
            TRACER.reset()
        assert walks == 2
        assert len(general) == 1

    def test_one_pass_holds_live_objects_only(self):
        # An espresso-sized trace: 18,000 objects of 96 (chain, size)
        # pairs, as espresso has at scale 0.1.  The odd objects are
        # predicted short and at most 33 of them live at once; the rest
        # live up to 2,000 allocations.  One walk peaked at 6 KiB; a
        # verdict or a code listed per event would take 270 KiB and
        # more.
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
        verdicts = verdict_bytes(source, predictor)
        spec = AllocatorSpec(num_arenas=16, arena_size=1024)
        tracemalloc.start()
        try:
            walk = arena_walk(source, spec, verdicts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        general = general_replay(source, verdicts, walk.overflowed)
        assert (arena_counts(source, spec, walk, general)
                == replay_spec(source, spec, predictor))
        assert walk.arena_resets > 400
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
        trace = _packed_trace(events)
        with pytest.raises(TraceFormatError,
                           match=f"bad/test: event {offset}: free of "
                                 f"object 0"):
            arena_walk(trace, AllocatorSpec(),
                       verdict_bytes(trace, predictor))

    def test_resets_and_both_fallbacks(self, spans):
        # The ten survivors pin ten arenas.  16 x 256 overflows nothing;
        # 16 x 512 resets arenas without overflowing, so it leaves
        # first-fit the same objects; 8 x 512 finds all its arenas live
        # and falls back to the general heap; no 32-byte arena holds a
        # 48-byte object, so 16 x 32 falls back without a scan.
        source, predictor = _churn()
        store = GeneratedStore(source, predictor)
        replays = {}
        for count, size in ((16, 256), (16, 512), (8, 512), (16, 32)):
            spec = AllocatorSpec(num_arenas=count, arena_size=size)
            fresh = replay_spec(source, spec, predictor)
            overflows = (count, size) in ((8, 512), (16, 32))
            assert bool(fresh.ops.arena_overflows) == overflows
            assert fresh.arenas_exhausted == ((count, size) == (8, 512))
            assert bool(fresh.ops.arena_resets) == (size != 32)
            before = len(spans.find("simulate.replay"))
            assert store.simulate("bad", spec) == price(fresh, spec)
            replays[count, size] = len(spans.find("simulate.replay")) - before
        assert replays == {(16, 256): 1, (16, 512): 0, (8, 512): 1,
                           (16, 32): 1}
        assert len(spans.find("simulate.arena_walk")) == 4


class TestBsdWalk:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams())
    def test_generated_streams(self, stream):
        events, chains = stream
        source = build_trace(ListSource(events, chains=chains))
        fresh = replay_spec(source, BSD_SPEC)
        assert dataclasses.asdict(bsd_walk(source)) == (
            dataclasses.asdict(fresh)
        )
        store = GeneratedStore(source, None)
        assert store.simulate("bad", BSD_SPEC) == price(fresh, BSD_SPEC)

    def test_refills_follow_each_buckets_peak(self, spans):
        # 300 live 20-byte objects fill 32-byte blocks, 128 to a page:
        # three refills.  Freeing them all and allocating 300 again
        # refills nothing.  Each 5,000-byte object takes an 8 KB block
        # of its own, a chunk per refill: two live at once, two refills.
        events, clock, next_id = [], 0, 0
        for size, live in ((20, 300), (20, 300), (5000, 2)):
            ids = range(next_id, next_id + live)
            for obj_id in ids:
                events.append((EV_ALLOC, obj_id, 0, size, clock))
                clock += size
            for obj_id in ids:
                events.append((EV_FREE, obj_id, clock, 0))
            next_id += live
        source = build_trace(ListSource(events))
        counts = bsd_walk(source)
        assert counts == replay_spec(source, BSD_SPEC)
        assert counts.ops.sbrks == 3 + 2
        assert counts.max_heap_size == 3 * 4096 + 2 * 8192
        assert counts.final_live_bytes == 0
        assert len(spans.find("simulate.bsd_walk")) == 1


#: Hand-packed traces that no loader checked, each malformed once.
BAD_PACKED = {
    "double-free": [(EV_ALLOC, 0, 0, 48, 0), (EV_FREE, 0, 48, 0),
                    (EV_FREE, 0, 48, 0)],
    "free-before-alloc": [(EV_FREE, 0, 0, 0), (EV_ALLOC, 0, 0, 48, 0)],
    "never-allocated": [(EV_ALLOC, 0, 0, 48, 0), (EV_FREE, 7, 48, 0)],
    "chain-out-of-range": [(EV_ALLOC, 0, 0, 48, 0),
                           (EV_ALLOC, 1, 99, 48, 48)],
    "size-zero": [(EV_ALLOC, 0, 0, 48, 0), (EV_ALLOC, 1, 0, 0, 48)],
}


class TestStoreErrorContract:
    @pytest.mark.parametrize("placement", ["bsd", "arena-short",
                                           "arena-long"])
    @pytest.mark.parametrize("case", sorted(BAD_PACKED))
    def test_walks_raise_what_replay_spec_raises(self, case, placement):
        # A predictor that calls every object short sends each check to
        # the arena walk; one that calls every object long, to the
        # first-fit replay.
        spec, predictor = BSD_SPEC, None
        if placement != "bsd":
            sizes = (48, 16) if placement == "arena-short" else ()
            spec = AllocatorSpec()
            predictor = SitePredictor(
                frozenset(site_key(("main", "f"), size, FULL_CHAIN, 4)
                          for size in sizes),
                32768, FULL_CHAIN, 4,
            )
        trace = _packed_trace(BAD_PACKED[case])
        with pytest.raises(TraceFormatError) as fresh:
            replay_spec(trace, spec, predictor)
        assert str(fresh.value).startswith("bad/test: event ")
        store = GeneratedStore(trace, predictor)
        with pytest.raises(TraceFormatError) as memo:
            store.simulate("bad", spec)
        assert str(memo.value) == str(fresh.value)


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
@pytest.mark.parametrize("arena_size, ascending_placements", [(256, 8),
                                                              (4096, 3)])
def test_real_program(cache_dir, spans, mode, arena_size,
                      ascending_placements):
    # gawk at scale 0.02 finds all its 256-byte arenas live with up to 7
    # of them, and all its 4 KB arenas with up to 2, so the ascending
    # visit computes each of those counts and the next one.  A streamed
    # store replays each in full; a materialized one walks each, and
    # replays first-fit once per walk, since every count that finds its
    # arenas live overflows different objects.
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
        walks = len(spans.find("simulate.arena_walk"))
        for count in _ordered(order, rng):
            spec = AllocatorSpec(num_arenas=count, arena_size=arena_size)
            memo = store.simulate(program, spec)
            assert dataclasses.asdict(memo) == fresh[count], (order, count)
        if order == "ascending":
            replays = len(spans.find("simulate.replay")) - before
            walks = len(spans.find("simulate.arena_walk")) - walks
            assert replays == ascending_placements
            assert walks == (ascending_placements
                             if mode == "materialized" else 0)
