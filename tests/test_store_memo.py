"""A TraceStore computes each distinct replay, fold and attribution once.

* Differential: every memoized answer (``TraceStore.simulate``,
  ``TraceStore.attribution``) equals a fresh ``simulate_spec`` /
  ``attribute_sites`` call field for field, on materialized and
  streaming stores, including answers re-priced from a shared replay.
* Counts: span counts on one store pin how many passes ``table all``
  and ``run_search`` make, and a count of every per-object lifetime
  pass pins that Tables 4-6 read one pair table per execution.
* Multi-class training streams: a streaming store resolves a multiarena
  spec without materializing its training trace.
* ``build_trace`` raises ``TraceFormatError`` for every malformed
  stream and every footer that disagrees with its events, so the trace
  cache counts such an entry as corrupt; the streaming consumers
  (training, live stats, ``simulate --stream``) raise the same error
  for the same malformed stream or footer.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.alloc.spec import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
)
from repro.analysis import tables
from repro.analysis.experiments import TraceStore
from repro.analysis.simulate import simulate_spec
from repro.analysis.trace_cache import TraceCache
from repro.cli import main
from repro.core.predictor import train_site_predictor
from repro.runtime import folds
from repro.runtime.stream import protocol
from repro.obs.attrib import attribute_sites
from repro.obs.metrics import Metrics
from repro.obs.spans import TRACER
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EV_FREE,
    build_trace,
    iter_object_records,
    stream_live_stats,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from repro.runtime.tracefile import TraceFormatError, load_trace, save_trace
from repro.search import DEFAULT_SPACE, run_search
from tests.conftest import ListSource

SCALE = 0.02
PROGRAM = "gawk"
MODES = ("materialized", "streaming")

SPECS = {
    "firstfit": FIRSTFIT_SPEC,
    "bsd": BSD_SPEC,
    "paper-default": PAPER_DEFAULT_SPEC,
    "cce-strategy": AllocatorSpec(strategy="cce"),
    "self": AllocatorSpec(predictor="self"),
    "static": AllocatorSpec(predictor="static"),
    "multiarena": AllocatorSpec(
        kind="multiarena", class_thresholds=(32768, 262144)
    ),
    "small-arenas": AllocatorSpec(
        num_arenas=8, arena_size=2048, threshold=16384
    ),
}

MODELS = {
    "default": DEFAULT_COST_MODEL,
    "custom": CostModel(predict=25, chain4=12, cce_per_call=5, ff_scan=6,
                        arena_bump=11, bsd_refill=300),
}


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("store-memo") / "cache"
    TraceStore(scale=SCALE, cache_dir=directory).warm()
    return directory


def _store(cache_dir, mode: str) -> TraceStore:
    return TraceStore(scale=SCALE, cache_dir=cache_dir,
                      streaming=mode == "streaming")


@pytest.fixture
def spans():
    TRACER.reset()
    TRACER.enable()
    yield TRACER
    TRACER.disable()
    TRACER.reset()


@pytest.fixture
def object_passes(monkeypatch):
    """One entry per per-object lifetime pass: an in-memory trace's
    array fold, or a stream's object-record pass."""
    passes = []

    def count(module, name):
        inner = getattr(module, name)

        def counted(*args):
            passes.append(name)
            return inner(*args)

        monkeypatch.setattr(module, name, counted)

    count(folds, "_fold_trace")
    count(folds, "iter_object_records")
    count(protocol, "iter_object_records")
    return passes


class TestMemoMatchesFresh:
    @pytest.mark.parametrize("mode", MODES)
    def test_simulate(self, cache_dir, mode):
        store = _store(cache_dir, mode)
        # Every spec under both models on one store, so most answers are
        # re-priced from a replay an earlier spec or model left behind.
        for model_name, model in MODELS.items():
            for name, spec in SPECS.items():
                fresh = simulate_spec(
                    store.source(PROGRAM), spec,
                    store.predictor_for(PROGRAM, spec), model=model,
                )
                memo = store.simulate(PROGRAM, spec, model=model)
                assert dataclasses.asdict(memo) == dataclasses.asdict(
                    fresh
                ), (name, model_name)

    @pytest.mark.parametrize("mode", MODES)
    def test_attribution(self, cache_dir, mode):
        store = _store(cache_dir, mode)
        for model_name, model in MODELS.items():
            for name, spec in SPECS.items():
                fresh = attribute_sites(
                    store.source(PROGRAM),
                    predictor=store.predictor_for(PROGRAM, spec),
                    model=model, spec=spec,
                )
                memo = store.attribution(PROGRAM, spec, model=model)
                assert json.dumps(memo.to_dict(), sort_keys=True) == (
                    json.dumps(fresh.to_dict(), sort_keys=True)
                ), (name, model_name)

    def test_results_do_not_alias_the_memo(self, cache_dir):
        store = _store(cache_dir, "materialized")
        first = store.simulate(PROGRAM, PAPER_DEFAULT_SPEC)
        first.ops.allocs += 1
        first.general_ops.frees += 1
        again = store.simulate(PROGRAM, PAPER_DEFAULT_SPEC)
        assert again.ops.allocs == first.ops.allocs - 1
        assert again.general_ops.frees == first.general_ops.frees - 1

    def test_one_replay_per_placement(self, cache_dir, spans):
        store = _store(cache_dir, "materialized")
        for model in MODELS.values():
            for spec in SPECS.values():
                store.simulate(PROGRAM, spec, model=model)
        placements = {spec.placement() for spec in SPECS.values()}
        assert len(placements) == len(SPECS) - 1  # cce shares len4's
        assert len(spans.find("simulate.replay")) == len(placements)

    def test_strategy_is_costing_only(self):
        assert AllocatorSpec(strategy="cce").placement() == (
            PAPER_DEFAULT_SPEC.placement()
        )
        assert AllocatorSpec(num_arenas=8).placement() != (
            PAPER_DEFAULT_SPEC.placement()
        )


class TestPassCounts:
    @pytest.mark.parametrize("mode", MODES)
    def test_table_all(self, cache_dir, mode, spans, object_passes):
        store = _store(cache_dir, mode)
        passes = []
        for number in range(1, 10):
            start = len(object_passes)
            getattr(tables, f"table{number}")(store)
            passes.append(len(object_passes) - start)
        assert len(spans.find("simulate.replay")) == 20
        assert len(spans.find("profile.train_sites")) == 10
        # Tables 4 and 6 select nine predictors per program; Tables 7-9
        # reuse them.
        assert len(spans.find("predictor.train")) == 45
        # Table 3 collects each program's lifetimes once.  Tables 4-6
        # fold one pair table per execution, the 10 folds above, and
        # score, train and select from those alone.
        assert passes == [0, 0, 5, 10, 0, 0, 0, 0, 0]

    @pytest.mark.parametrize("mode", MODES)
    def test_run_search(self, cache_dir, mode, spans):
        store = _store(cache_dir, mode)
        run_search(store, PROGRAM, DEFAULT_SPACE)
        assert len(list(DEFAULT_SPACE.specs())) == 18
        # One replay per (arena size, threshold): gawk never outgrows 8
        # arenas, so the 16- and 32-arena specs read the 8-arena counts.
        assert len(spans.find("simulate.replay")) == 6
        assert len(spans.find("attrib.fold")) == 2
        # One pair table trains every predictor; the attributions price
        # the test execution's tables at 16 KB and 32 KB.
        assert len(spans.find("profile.train_sites")) == 3


class TestMulticlassStreams:
    SPEC = AllocatorSpec(kind="multiarena", class_thresholds=(4096, 32768))

    def test_streaming_store_never_materializes(self, cache_dir):
        materialized = _store(cache_dir, "materialized")
        streaming = _store(cache_dir, "streaming")
        for program in streaming.programs:
            for spec in (self.SPEC,
                         dataclasses.replace(self.SPEC, predictor="self")):
                streamed = streaming.predictor_for(program, spec)
                expected = materialized.predictor_for(program, spec)
                assert streamed.site_classes == expected.site_classes
                assert streamed.thresholds == expected.thresholds
        assert streaming._traces == {}

    def test_shares_the_site_predictors_fold(self, cache_dir, spans):
        store = _store(cache_dir, "streaming")
        store.predictor(PROGRAM)
        store.predictor_for(PROGRAM, self.SPEC)
        assert len(spans.find("profile.train_sites")) == 1
        assert len(spans.find("predictor.train")) == 2


# ----------------------------------------------------------------------
# build_trace: one error contract for every malformed stream
# ----------------------------------------------------------------------

_A0 = (EV_ALLOC, 0, 0, 16, 0)
_A1 = (EV_ALLOC, 1, 0, 16, 16)

MALFORMED = {
    "free-never-allocated": (
        [_A0, (EV_FREE, 7, 16, 0)],
        "event 1: free of object 7, which is not live",
    ),
    "free-negative-id": (
        [_A0, _A1, (EV_FREE, -1, 32, 0)],
        "event 2: free of object -1, which is not live",
    ),
    "double-free": (
        [_A0, (EV_FREE, 0, 16, 0), _A1, (EV_FREE, 0, 32, 0)],
        "event 3: free of object 0, which is not live",
    ),
    "uninterned-chain": (
        [_A0, (EV_ALLOC, 1, 5, 16, 16)],
        "event 1: object 1 names chain id 5, but the header interns "
        "1 chains",
    ),
    "negative-chain": (
        [(EV_ALLOC, 0, -1, 16, 0)],
        "event 0: object 0 names chain id -1",
    ),
    "alloc-out-of-order": (
        [_A0, (EV_ALLOC, 2, 0, 16, 16)],
        "event 1: alloc of object 2 out of order",
    ),
    "zero-size": (
        [_A0, (EV_ALLOC, 1, 0, 0, 16)],
        "event 1: object 1 has size 0; sizes are >= 1",
    ),
    "negative-size": (
        [_A0, (EV_ALLOC, 1, 0, -8, 16)],
        "event 1: object 1 has size -8; sizes are >= 1",
    ),
}

#: The cases a replay must reject before the allocator sees the size.
BAD_SIZES = ("negative-size", "zero-size")

#: Footers that disagree with a well-formed stream of two 16-byte
#: objects, object 0 freed after 5 touches: (summary overrides, error).
_FOOTER_EVENTS = [_A0, _A1, (EV_FREE, 0, 32, 5)]
BAD_FOOTERS = {
    "footer-total-objects": (
        {"total_objects": 7},
        "footer total_objects is 7, but the events allocate 2 objects",
    ),
    "footer-end-time": (
        {"end_time": 1000},
        "footer end_time is 1000, but the events allocate 32 bytes",
    ),
    "footer-objects-and-end-time": (
        {"total_objects": 7, "end_time": 1000},
        "footer total_objects is 7",
    ),
    "footer-unfreed-freed-object": (
        {"unfreed_touches": ((0, 99),)},
        "footer unfreed_touches names object 0, which is not live at "
        "the end of the stream",
    ),
    "footer-unfreed-negative-id": (
        {"unfreed_touches": ((-1, 99),)},
        "footer unfreed_touches names object -1, which is not live",
    ),
    "footer-unfreed-unknown-id": (
        {"unfreed_touches": ((1, 3), (5, 99))},
        "footer unfreed_touches names object 5, which is not live",
    ),
}

#: Every stream ``build_trace`` rejects: (events, summary overrides,
#: error).
REJECTED = {
    **{case: (events, None, message)
       for case, (events, message) in MALFORMED.items()},
    **{case: (_FOOTER_EVENTS, summary, message)
       for case, (summary, message) in BAD_FOOTERS.items()},
}


def _rejected(case: str):
    """``case``'s stream and the error it must raise."""
    events, summary, message = REJECTED[case]
    return ListSource(events, summary=summary), message


class TestBuildTraceErrorContract:
    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_in_memory_source_names_program(self, case):
        source, message = _rejected(case)
        with pytest.raises(TraceFormatError) as info:
            build_trace(source)
        assert str(info.value).startswith(f"bad/test: {message}")

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_file_source_names_path(self, case, tmp_path):
        source, message = _rejected(case)
        path = tmp_path / "bad.rtr3"
        write_trace_v3(source, path)
        with pytest.raises(TraceFormatError) as info:
            load_trace(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_cli_exits_one_with_error_line(self, case, tmp_path, capsys):
        source, message = _rejected(case)
        path = tmp_path / "bad.rtr3"
        write_trace_v3(source, path)
        code = main(["simulate", str(path), "--allocator", "firstfit"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_trace_cache_counts_the_entry_corrupt(self, case, tmp_path):
        source, _ = _rejected(case)
        cache = TraceCache(tmp_path / "cache", metrics=Metrics())
        path = cache.entry_path("bad", "test", 1.0)
        path.parent.mkdir(parents=True)
        write_trace_v3(source, path)
        assert cache.load("bad", "test", 1.0) is None
        assert cache.metrics.counter("trace_cache.corrupt") == 1
        assert not path.exists()


def _all_records(source):
    return list(iter_object_records(source))


def _replay_firstfit(source):
    return simulate_spec(source, FIRSTFIT_SPEC)


#: Consumers that walk a stream without materializing it.
STREAM_CONSUMERS = {
    "train_site_predictor": train_site_predictor,
    "stream_live_stats": stream_live_stats,
}


class TestStreamConsumersErrorContract:
    @pytest.mark.parametrize("consumer", sorted(STREAM_CONSUMERS))
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_file_source_names_path(self, case, consumer, tmp_path):
        events, message = MALFORMED[case]
        path = tmp_path / "bad.rtr3"
        write_trace_v3(ListSource(events), path)
        with pytest.raises(TraceFormatError) as info:
            STREAM_CONSUMERS[consumer](TraceFileSource(path))
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize("case", sorted(BAD_FOOTERS))
    def test_records_and_trace_agree_on_the_footer(self, case, tmp_path):
        # Every streaming consumer checks the footer that build_trace
        # checks, so all reject it with one message, in memory and on
        # file.
        source, message = _rejected(case)
        path = tmp_path / "bad.rtr3"
        write_trace_v3(source, path)
        for stream, where in ((source, "bad/test"),
                              (TraceFileSource(path), str(path))):
            errors = set()
            for consumer in (build_trace, _all_records,
                             train_site_predictor, stream_live_stats,
                             _replay_firstfit):
                with pytest.raises(TraceFormatError) as info:
                    consumer(stream)
                errors.add(str(info.value))
            assert len(errors) == 1
            assert errors.pop().startswith(f"{where}: {message}")

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_cli_stream_exits_one_with_error_line(self, case, tmp_path,
                                                  capsys):
        source, message = _rejected(case)
        path = tmp_path / "bad.rtr3"
        write_trace_v3(source, path)
        code = main(["simulate", str(path), "--stream",
                     "--allocator", "firstfit"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("mode", ["materialized", "streamed"])
    @pytest.mark.parametrize("spec", ["arena", "bsd", "firstfit"])
    @pytest.mark.parametrize("case", BAD_SIZES)
    def test_replay_rejects_sizes_below_one(self, case, spec, mode,
                                            tmp_path):
        # A v2 file loads without build_trace's checks, so the
        # materialized replay meets the bad size in the packed arrays;
        # the streamed one meets it in the v3 file's events.
        events, message = MALFORMED[case]
        size = events[1][3]
        good = [_A0, _A1]
        predictor = train_site_predictor(ListSource(good), threshold=4096)
        if mode == "materialized":
            path = tmp_path / "bad.json"
            save_trace(build_trace(ListSource(good)), path)
            doc = json.loads(path.read_text())
            doc["sizes"][1] = size
            path.write_text(json.dumps(doc))
            source, where = load_trace(path), "bad/test"
        else:
            path = tmp_path / "bad.rtr3"
            write_trace_v3(ListSource(events), path)
            source, where = TraceFileSource(path), str(path)
        replays = {
            "arena": lambda: simulate_spec(source, PAPER_DEFAULT_SPEC,
                                           predictor),
            "bsd": lambda: simulate_spec(source, BSD_SPEC),
            "firstfit": lambda: simulate_spec(source, FIRSTFIT_SPEC),
        }
        with pytest.raises(TraceFormatError) as info:
            replays[spec]()
        assert str(info.value) == f"{where}: {message}"
