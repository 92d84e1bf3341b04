"""Differential tests for the replay-scoped prediction memos.

Every predictor answers from ``(chain, size)`` alone, so replay, training,
evaluation and the observability folds resolve each interned pair once.
These tests pin that the memoized paths answer exactly what the direct
ones do:

* ``bind()`` against ``predicts_short_lived`` over generated chains with
  recursion cycles, for every predictor family and abstraction level;
* the fold-based trainer against the profile-based selection rule,
  materialized and streamed, on the five workloads, down to the saved
  database bytes;
* memoized evaluation and arena replay against direct reference loops,
  and an allocator fed chain tuples against the replay that feeds ids;
* the oracle's results on the tiny traces, pinned since before the
  memos existed (``tests/test_oracle_inspect.py`` checks the oracle
  differentially);
* the replay loop's error contract for streams naming unknown ids.
"""

from __future__ import annotations

import dataclasses
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.multiarena import MultiArenaAllocator
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    build_allocator,
)
from repro.analysis.oracle import simulate_arena_oracle
from repro.analysis.simulate import replay, replay_spec, simulate_spec
from repro.cli import main
from repro.core.cce import CCEPredictor, encrypt_chain, train_cce_predictor
from repro.core.database import save_predictor
from repro.core.multiclass import MultiClassPredictor, train_multiclass_predictor
from repro.core.predictor import (
    LifetimePredictor,
    SiteMemo,
    SitePredictor,
    SizeOnlyPredictor,
    StaticEscapePredictor,
    evaluate,
    train_site_predictor,
)
from repro.core.profile import build_profile
from repro.core.sites import FULL_CHAIN, ChainTable, prune_recursive_cycles, round_size, site_key
from repro.runtime.events import Trace
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    iter_object_lifetimes,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from repro.runtime.tracefile import TraceFormatError
from repro.workloads.registry import PROGRAM_ORDER, WORKLOADS, run_workload
from tests.conftest import ListSource

LENGTHS = [1, 2, 3, 4, 5, 6, 7, FULL_CHAIN]
ROUNDINGS = [1, 4, 8]

# A five-letter alphabet makes repeated frames, and so recursion cycles,
# the common case rather than the exception.
chains = st.lists(
    st.sampled_from(["main", "a", "b", "c", "d"]), min_size=1, max_size=12
).map(tuple)
sizes = st.integers(min_value=1, max_value=64)
queries = st.lists(st.tuples(chains, sizes), min_size=1, max_size=40)


def _assert_bind_agrees(predictor: LifetimePredictor, pairs) -> None:
    bound = predictor.bind()
    # Twice over: the second pass answers from the memo.
    for chain, size in pairs + pairs:
        assert bound(chain, size) == predictor.predicts_short_lived(chain, size)


class TestBindMatchesDirect:
    @settings(max_examples=60, deadline=None)
    @given(queries, st.data())
    def test_site_predictor_every_level(self, pairs, data):
        selected = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        for length in LENGTHS:
            for rounding in ROUNDINGS:
                sites = frozenset(
                    site_key(chain, size, length=length, size_rounding=rounding)
                    for chain, size in selected
                )
                predictor = SitePredictor(sites, 32768, length, rounding)
                _assert_bind_agrees(predictor, pairs)

    @settings(max_examples=60, deadline=None)
    @given(queries, st.data())
    def test_cce_predictor(self, pairs, data):
        selected = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        for bits in (4, 16):
            keys = frozenset(
                (encrypt_chain(chain, bits), round_size(size, 4))
                for chain, size in selected
            )
            _assert_bind_agrees(CCEPredictor(keys, 32768, 4, bits=bits), pairs)

    @settings(max_examples=60, deadline=None)
    @given(queries, st.data())
    def test_multiclass_predictor(self, pairs, data):
        classes = data.draw(st.lists(st.sampled_from([0, 1, 2]),
                                     min_size=len(pairs), max_size=len(pairs)))
        for length in (2, FULL_CHAIN):
            site_classes = {
                site_key(chain, size, length=length, size_rounding=4): klass
                for (chain, size), klass in zip(pairs, classes) if klass < 2
            }
            predictor = MultiClassPredictor(
                site_classes, (4096, 65536), length, 4
            )
            _assert_bind_agrees(predictor, pairs)
            class_of = SiteMemo(predictor.class_of)
            for chain, size in pairs + pairs:
                assert class_of(chain, size) == predictor.class_of(chain, size)

    @settings(max_examples=60, deadline=None)
    @given(queries, st.data())
    def test_static_escape_predictor(self, pairs, data):
        labels = st.sampled_from(["short", "escaping", "unknown"])
        classes = {}
        for chain, size in pairs:
            exact = data.draw(st.sampled_from([size, None]))
            classes[(prune_recursive_cycles(chain), exact)] = data.draw(labels)
        _assert_bind_agrees(StaticEscapePredictor(classes), pairs)

    @settings(max_examples=30, deadline=None)
    @given(queries, st.data())
    def test_chain_verdicts_by_id(self, pairs, data):
        table = ChainTable()
        ids = [(table.intern(chain), size) for chain, size in pairs]
        selected = data.draw(st.lists(st.sampled_from(pairs), max_size=10))
        predictor = SitePredictor(
            frozenset(site_key(c, s, size_rounding=4) for c, s in selected),
            32768, FULL_CHAIN, 4,
        )
        verdicts = predictor.bind(table)
        for (chain_id, size), (chain, _) in zip(ids + ids, pairs + pairs):
            assert verdicts(chain_id, size) == predictor.predicts_short_lived(
                chain, size
            )

    def test_memo_is_per_binding(self):
        predictor = SizeOnlyPredictor(frozenset({8}), 32768)
        first, second = predictor.bind(), predictor.bind()
        assert first is not second
        assert first(("main",), 8) and not first(("main",), 16)
        assert vars(predictor) == {
            "sizes": frozenset({8}), "threshold": 32768, "program": "?",
        }


# ----------------------------------------------------------------------
# Training: the fold trainer selects what the profile rule selected
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def train_traces():
    return {p: run_workload(p, "train", scale=0.05) for p in PROGRAM_ORDER}


@pytest.fixture(scope="module")
def train_files(train_traces, tmp_path_factory):
    directory = tmp_path_factory.mktemp("memo-train")
    paths = {}
    for program, trace in train_traces.items():
        paths[program] = directory / f"{program}.rtr3"
        write_trace_v3(trace, paths[program], chunk_events=512)
    return paths


def _profile_rule(trace, threshold, length, rounding):
    profile = build_profile(trace, chain_length=length, size_rounding=rounding)
    return frozenset(profile.short_lived_sites(threshold))


class TestTrainingMatchesProfileRule:
    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    @pytest.mark.parametrize("length,rounding",
                             [(FULL_CHAIN, 4), (2, 1), (4, 8)])
    def test_serial_training(self, train_traces, train_files, program,
                             length, rounding):
        trace = train_traces[program]
        expected = _profile_rule(trace, 32768, length, rounding)
        for source in (trace, TraceFileSource(train_files[program])):
            trained = train_site_predictor(
                source, chain_length=length, size_rounding=rounding
            )
            assert trained.sites == expected

    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_saved_database_bytes(self, train_traces, program, tmp_path):
        trace = train_traces[program]
        trained = train_site_predictor(trace)
        reference = SitePredictor(
            _profile_rule(trace, 32768, FULL_CHAIN, 4), 32768, FULL_CHAIN, 4,
            program=program,
        )
        save_predictor(trained, tmp_path / "trained.sites")
        save_predictor(reference, tmp_path / "reference.sites")
        assert (tmp_path / "trained.sites").read_bytes() == (
            tmp_path / "reference.sites"
        ).read_bytes()

    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_multiclass_ladder(self, train_traces, program):
        trace = train_traces[program]
        ladder = (4096, 32768, 262144)
        profile = build_profile(trace, size_rounding=4)
        expected = {}
        for key, stats in profile.sites():
            for klass, bound in enumerate(ladder):
                if stats.max_lifetime < bound:
                    expected[key] = klass
                    break
        trained = train_multiclass_predictor(trace, thresholds=ladder)
        assert trained.site_classes == expected

    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_cce_training_matches_per_object_keys(self, train_traces,
                                                  program):
        trace = train_traces[program]
        all_short = {}
        for chain_id, size, lifetime, _ in iter_object_lifetimes(trace):
            key = (encrypt_chain(trace.chains.chain(chain_id)),
                   round_size(size, 4))
            all_short[key] = all_short.get(key, True) and lifetime < 32768
        expected = frozenset(k for k, short in all_short.items() if short)
        assert train_cce_predictor(trace).keys == expected


# ----------------------------------------------------------------------
# Evaluation and replay: memoized against direct reference loops
# ----------------------------------------------------------------------

def _reference_evaluate(predictor, trace):
    """The per-object scoring loop, with no memo."""
    source = trace
    totals = dict(total=0, predicted=0, error=0, objects=0, refs=0)
    test_keys, matched = set(), set()
    for chain_id, size, lifetime, touches in iter_object_lifetimes(source):
        chain = trace.chains.chain(chain_id)
        key = predictor.key_for(chain, size)
        test_keys.add(key)
        hit = predictor.predicts_short_lived(chain, size)
        if hit:
            matched.add(key)
            totals["objects"] += 1
            totals["refs"] += touches
            if lifetime < predictor.threshold:
                totals["predicted"] += size
            else:
                totals["error"] += size
        totals["total"] += size
    return totals, len(test_keys), len(matched)


class _AskEveryTime(dict):
    """A verdict dict that stores nothing, so every access asks again."""

    def __init__(self, lookup, chains):
        super().__init__()
        self.lookup = lookup
        self.chains = chains

    def __missing__(self, key):
        chain, size = key
        if self.chains is not None:
            chain = self.chains.chain(chain)
        return self.lookup(chain, size)


class _Unmemoized(LifetimePredictor):
    """Wraps a predictor so every allocation asks it directly."""

    def __init__(self, inner: LifetimePredictor):
        self.inner = inner
        self.threshold = inner.threshold

    def predicts_short_lived(self, chain, size):
        return self.inner.predicts_short_lived(chain, size)

    def bind(self, chains=None):
        return _AskEveryTime(self.predicts_short_lived, chains)


#: The three allocators the pipeline benchmark's probe drives with tuples.
TUPLE_FED_SPECS = {
    "arena": PAPER_DEFAULT_SPEC,
    "bsd": BSD_SPEC,
    "firstfit": FIRSTFIT_SPEC,
}


class TestEvaluationAndReplay:
    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_evaluate_matches_reference(self, train_traces, program):
        trace = train_traces[program]
        for length in (1, FULL_CHAIN):
            predictor = train_site_predictor(trace, chain_length=length,
                                             threshold=4096)
            result = evaluate(predictor, trace)
            totals, test_sites, used = _reference_evaluate(predictor, trace)
            assert result.total_bytes == totals["total"]
            assert result.predicted_short_bytes == totals["predicted"]
            assert result.error_bytes == totals["error"]
            assert result.predicted_objects == totals["objects"]
            assert result.predicted_heap_refs == totals["refs"]
            assert (result.total_sites, result.sites_used) == (
                test_sites, used
            )

    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_arena_replay_matches_unmemoized(self, train_traces, program):
        trace = train_traces[program]
        predictor = train_site_predictor(trace, threshold=4096)
        memoized = simulate_spec(trace, PAPER_DEFAULT_SPEC, predictor)
        direct = simulate_spec(trace, PAPER_DEFAULT_SPEC,
                               _Unmemoized(predictor))
        assert dataclasses.asdict(memoized) == dataclasses.asdict(direct)

    @pytest.mark.parametrize("label", sorted(TUPLE_FED_SPECS))
    @pytest.mark.parametrize("program", PROGRAM_ORDER)
    def test_tuple_fed_allocator_matches_id_replay(self, train_traces,
                                                   program, label):
        # Built the way the pipeline benchmark's allocator-only probe
        # builds it: no chain table, so malloc gets decoded chain tuples.
        trace = train_traces[program]
        spec = TUPLE_FED_SPECS[label]
        predictor = (
            train_site_predictor(trace, threshold=4096)
            if spec.kind == "arena" else None
        )
        chain_of = trace.chains.chain
        allocator = build_allocator(spec, predictor)
        addresses = {}
        for ev in trace.events():
            if ev[0] == EV_ALLOC:
                addresses[ev[1]] = allocator.malloc(ev[3], chain_of(ev[2]))
            elif ev[0] == EV_FREE:
                allocator.free(addresses.pop(ev[1]))
        counts = replay_spec(trace, spec, predictor)
        assert allocator.ops == counts.ops
        assert allocator.max_heap_size == counts.max_heap_size
        assert allocator.live_bytes == counts.final_live_bytes

    def test_multiarena_replay_matches_direct_classes(self, train_traces):
        trace = train_traces["espresso"]
        predictor = train_multiclass_predictor(trace)
        allocator = MultiArenaAllocator(predictor)
        replay(trace, allocator)
        expected = [0] * predictor.num_classes
        for obj_id in range(trace.total_objects):
            klass = predictor.class_of(trace.chain_of(obj_id),
                                       trace.size_of(obj_id))
            if klass is not None:
                expected[klass] += 1
        seen = [s.allocs + s.overflows for s in allocator.area_stats]
        assert seen == expected


class TestOracleIsNeverMemoized:
    #: simulate_arena_oracle on the tiny traces, recorded before the memo
    #: existed: (max heap, arena allocs, arena bytes, overflows, resets).
    EXPECTED = {
        ("cfrac", 4096): (81920, 2530, 30842, 0, 9),
        ("cfrac", 32768): (65536, 2865, 37377, 0, 11),
        ("espresso", 4096): (73728, 221, 11104, 0, 2),
        ("espresso", 32768): (65536, 243, 12316, 0, 3),
        ("gawk", 4096): (73728, 5947, 192810, 0, 49),
        ("gawk", 32768): (73728, 6227, 201000, 0, 51),
        ("ghost", 4096): (286720, 228, 11516, 0, 2),
        ("ghost", 32768): (286720, 324, 15014, 31, 3),
        ("perl", 4096): (73728, 4045, 105480, 0, 27),
        ("perl", 32768): (73728, 4081, 106303, 0, 27),
    }

    @pytest.mark.parametrize("program,threshold", sorted(EXPECTED))
    def test_results_unchanged(self, program, threshold):
        result = simulate_arena_oracle(WORKLOADS[program].trace("tiny"),
                                       threshold=threshold)
        assert (
            result.max_heap_size, result.arena_allocs, result.arena_bytes,
            result.ops.arena_overflows, result.ops.arena_resets,
        ) == self.EXPECTED[(program, threshold)]


# ----------------------------------------------------------------------
# Error contract: streams naming ids nobody allocated or interned
# ----------------------------------------------------------------------

BAD_STREAMS = {
    "unknown-free": (
        [(EV_ALLOC, 0, 0, 16, 0), (EV_FREE, 7, 16, 0)],
        "event 1: free of object 7",
    ),
    "chain-out-of-range": (
        [(EV_ALLOC, 0, 0, 16, 0), (EV_ALLOC, 1, 99, 16, 16)],
        "event 1: object 1 names chain id 99",
    ),
    "negative-chain": (
        [(EV_ALLOC, 0, -1, 16, 0)],
        "event 0: object 0 names chain id -1",
    ),
}


def _packed_trace(events) -> Trace:
    """A :class:`Trace` holding ``events`` as given, unchecked.

    Its arrays cover every id an event names, so only replay's own
    checks can reject it.
    """
    ids = [ev[1] for ev in events]
    count = max(ids + [-1]) + 1
    chain_ids = array("i", [0] * count)
    sizes = array("q", [16] * count)
    codes = array("q")
    for ev in events:
        if ev[0] == EV_ALLOC:
            chain_ids[ev[1]] = ev[2]
            sizes[ev[1]] = ev[3]
        codes.append((ev[1] << 2) | ev[0])
    zeros = array("q", [0] * count)
    return Trace("bad", "test", ChainTable.from_list([("main", "f")]),
                 chain_ids, sizes, zeros, array("q", [-1] * count), zeros,
                 codes, total_calls=0, heap_refs=0, non_heap_refs=0)


class _ChangesBetweenPasses(ListSource):
    """Malformed on its first pass, well formed on every later one."""

    def __init__(self, first, later):
        super().__init__(later)
        self._first = list(first)
        self._passes = 0

    def events(self):
        self._passes += 1
        return iter(self._first if self._passes == 1 else self._events)


class TestReplayErrorContract:
    @pytest.mark.parametrize("case", sorted(BAD_STREAMS))
    def test_packed_trace_names_program(self, case):
        events, message = BAD_STREAMS[case]
        with pytest.raises(TraceFormatError, match=f"bad/test: {message}"):
            replay(_packed_trace(events), build_allocator(PAPER_DEFAULT_SPEC))

    def test_source_that_changes_between_passes(self):
        bad, _ = BAD_STREAMS["unknown-free"]
        with pytest.raises(TraceFormatError, match="second pass"):
            replay(_ChangesBetweenPasses(bad, bad[:1]),
                   build_allocator(PAPER_DEFAULT_SPEC))

    @pytest.mark.parametrize("case", sorted(BAD_STREAMS))
    def test_replay_raises_trace_format_error(self, case, tmp_path):
        events, message = BAD_STREAMS[case]
        path = tmp_path / "bad.rtr3"
        write_trace_v3(ListSource(events), path)
        with pytest.raises(TraceFormatError) as info:
            replay(TraceFileSource(path), build_allocator(PAPER_DEFAULT_SPEC))
        assert str(path) in str(info.value)
        assert message in str(info.value)

    def test_in_memory_source_names_program(self):
        events, message = BAD_STREAMS["unknown-free"]
        with pytest.raises(TraceFormatError, match=f"bad/test: {message}"):
            replay(ListSource(events), build_allocator(PAPER_DEFAULT_SPEC))

    @pytest.mark.parametrize("case", sorted(BAD_STREAMS))
    def test_cli_exits_one_with_error_line(self, case, tmp_path, capsys):
        events, message = BAD_STREAMS[case]
        path = tmp_path / "bad.rtr3"
        write_trace_v3(ListSource(events), path)
        code = main(["simulate", str(path), "--allocator", "firstfit",
                     "--stream"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err
