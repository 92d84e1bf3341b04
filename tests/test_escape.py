"""Static escape analysis: classification, soundness, and plumbing.

Three layers of coverage:

* **Edge cases of the call-graph closure** on a synthetic toy workload —
  mutual recursion with folded arguments, closures capturing allocated
  objects, allocation through a wrapper binding, and dynamic dispatch —
  checking both termination and the conservative classification stance.
* **Soundness against the trace oracle** — on every workload's tiny
  trace, no object whose site the analysis classified ``short`` may
  actually live past the threshold.
* **Determinism and plumbing** — golden DB bytes, save/load roundtrips
  through both database formats, the ``TraceStore`` predictor modes,
  and the CLI surface (``predict-static``, ``escape-eval``,
  ``--predictor static``) including replay-mode byte identity.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.experiments import TraceStore
from repro.cli import main
from repro.core.database import load_predictor, save_predictor
from repro.core.predictor import DEFAULT_THRESHOLD, StaticEscapePredictor
from repro.core.sites import prune_recursive_cycles
from repro.static.escape import (
    CLASS_ESCAPING,
    CLASS_SHORT,
    CLASS_UNKNOWN,
    StaticEscapeDB,
    build_escape_db,
)

DATA_DIR = Path(__file__).parent / "data"


# ---------------------------------------------------------------------------
# call-graph closure edge cases (synthetic toy workload)


_TOY_SOURCE = '''
class ToyWorkload:
    name = "toy"

    def __init__(self, heap):
        self.heap = heap
        self.keep = []
        self.callbacks = []

    @traced
    def xalloc(self, n):
        return self.heap.malloc(n)

    @traced
    def ping(self, n):
        obj = self.xalloc(16)
        self.heap.free(obj)
        if n:
            self.pong(n - 1)

    @traced
    def pong(self, n):
        obj = self.xalloc(24)
        self.heap.free(obj)
        if n:
            self.ping(n - 1)

    @traced
    def capture(self):
        obj = self.xalloc(32)
        self.callbacks.append(lambda: self.heap.touch(obj, 1))

    @traced
    def through_binding(self):
        alloc = self.xalloc
        obj = alloc(40)
        self.heap.free(obj)

    @traced
    def dispatch(self, fn):
        obj = self.xalloc(48)
        fn(obj)

    @traced
    def run(self):
        self.ping(2)
        self.capture()
        self.through_binding()
        self.dispatch(self.heap.touch)
'''


@pytest.fixture(scope="module")
def toy_db(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_root")
    pkg = root / "repro" / "workloads" / "toy"
    pkg.mkdir(parents=True)
    (pkg / "work.py").write_text(_TOY_SOURCE, encoding="utf-8")
    return build_escape_db("toy", source_root=root)


class TestCallGraphEdgeCases:
    def test_mutual_recursion_terminates_with_pruned_chains(self, toy_db):
        # ping <-> pong with a folded argument that never repeats
        # (n, n-1, n-2, ...) must still converge; the recursive cycle is
        # pruned out of the emitted chains.
        chains = {chain for chain, _size in toy_db.sites}
        assert ("main", "run", "ping", "xalloc") in chains
        assert ("main", "run", "ping", "pong", "xalloc") in chains
        for chain in chains:
            assert len(chain) == len(set(chain)), chain

    def test_mutual_recursion_freed_sites_are_short(self, toy_db):
        assert toy_db.sites[("main", "run", "ping", "xalloc"), 16] == \
            CLASS_SHORT
        assert toy_db.sites[("main", "run", "ping", "pong", "xalloc"), 24] \
            == CLASS_SHORT

    def test_closure_capture_escapes(self, toy_db):
        # The lambda stored in self.callbacks captures obj: its lifetime
        # is the callback list's, not the region's.
        assert toy_db.sites[("main", "run", "capture", "xalloc"), 32] == \
            CLASS_ESCAPING

    def test_wrapper_binding_is_projected_but_never_short(self, toy_db):
        # alloc = self.xalloc; alloc(40) — the binding level is followed
        # into the chain space (the site exists) but classification
        # cannot prove the free reaches this allocation: conservative.
        matching = {
            size: cls
            for (chain, size), cls in toy_db.sites.items()
            if chain == ("main", "run", "through_binding", "xalloc")
        }
        assert matching
        assert CLASS_SHORT not in matching.values()

    def test_dynamic_dispatch_stays_unknown(self, toy_db):
        # fn(obj) invokes an escaping callable: the over-approximation
        # must keep every dispatch site unknown, never short.
        matching = {
            size: cls
            for (chain, size), cls in toy_db.sites.items()
            if chain == ("main", "run", "dispatch", "xalloc")
        }
        assert matching
        assert set(matching.values()) == {CLASS_UNKNOWN}


# ---------------------------------------------------------------------------
# determinism + golden bytes


class TestEscapeDBDeterminism:
    def test_build_is_deterministic(self):
        first = build_escape_db("cfrac").to_json()
        second = build_escape_db("cfrac").to_json()
        assert first == second

    def test_golden_cfrac_escape_db(self):
        golden = (DATA_DIR / "cfrac_escape_db.json").read_text(
            encoding="utf-8"
        )
        assert build_escape_db("cfrac").to_json() == golden

    def test_class_counts_match_sites(self):
        db = build_escape_db("cfrac")
        counts = db.class_counts()
        assert sum(counts.values()) == len(db.sites)
        assert counts[CLASS_SHORT] > 0
        assert counts[CLASS_ESCAPING] > 0


# ---------------------------------------------------------------------------
# soundness against the trace oracle


class TestSoundness:
    def test_never_predicts_unknown_or_escaping_short(self):
        for program in ("cfrac", "espresso", "gawk", "ghost", "perl"):
            pred = build_escape_db(program).to_predictor()
            for (chain, size), cls in pred.classes.items():
                if cls != CLASS_SHORT:
                    assert not pred.predicts_short_lived(
                        chain, size if size is not None else 8
                    ), (program, chain, size, cls)

    def test_no_short_site_outlives_threshold(self, any_tiny_trace):
        # The acceptance gate: zero objects predicted short by the
        # static DB whose actual lifetime crosses the threshold.
        trace = any_tiny_trace
        pred = build_escape_db(trace.program).to_predictor()
        bad = []
        for i in range(len(trace.raw_arrays()["sizes"])):
            chain = tuple(trace.chain_of(i))
            size = trace.size_of(i)
            if not pred.predicts_short_lived(chain, size):
                continue
            if trace.lifetime_of(i) >= DEFAULT_THRESHOLD:
                bad.append((prune_recursive_cycles(chain), size))
        assert bad == []

    def test_static_predictor_covers_tiny_volume(self, cfrac_tiny):
        # Not a soundness property, but the analysis has to be *useful*:
        # on cfrac it should predict a visible share of short bytes.
        from repro.core.predictor import evaluate

        pred = build_escape_db("cfrac").to_predictor()
        ev = evaluate(pred, cfrac_tiny)
        assert ev.predicted_short_bytes > 0
        assert ev.error_bytes == 0


# ---------------------------------------------------------------------------
# predictor semantics + database roundtrips


class TestStaticEscapePredictor:
    def _predictor(self):
        return StaticEscapePredictor(
            classes={
                (("main", "work", "xalloc"), 16): CLASS_SHORT,
                (("main", "work", "xalloc"), None): CLASS_SHORT,
                (("main", "keep", "xalloc"), 32): CLASS_ESCAPING,
                (("main", "maybe", "xalloc"), None): CLASS_UNKNOWN,
                (("main", "maybe", "xalloc"), 8): CLASS_SHORT,
            },
            threshold=DEFAULT_THRESHOLD,
            program="synthetic",
        )

    def test_wildcard_and_exact_agree_short(self):
        pred = self._predictor()
        assert pred.predicts_short_lived(("main", "work", "xalloc"), 16)
        # wildcard-only match (size not listed exactly)
        assert pred.predicts_short_lived(("main", "work", "xalloc"), 24)

    def test_worst_matching_class_wins(self):
        pred = self._predictor()
        # exact says short but the wildcard says unknown: not short.
        assert not pred.predicts_short_lived(("main", "maybe", "xalloc"), 8)

    def test_unmatched_chain_is_never_short(self):
        pred = self._predictor()
        assert not pred.predicts_short_lived(("main", "other", "xalloc"), 16)
        assert not pred.predicts_short_lived(("main", "keep", "xalloc"), 32)

    def test_recursive_chains_prune_to_db_keys(self):
        pred = self._predictor()
        assert pred.predicts_short_lived(
            ("main", "work", "work", "xalloc"), 16
        )

    def test_sites_format_roundtrip(self, tmp_path):
        pred = self._predictor()
        path = tmp_path / "static.json"
        save_predictor(pred, path)
        loaded = load_predictor(path)
        assert isinstance(loaded, StaticEscapePredictor)
        assert loaded.classes == pred.classes
        assert loaded.threshold == pred.threshold

    def test_escape_format_loads_as_predictor(self, tmp_path):
        db = build_escape_db("cfrac")
        path = tmp_path / "escape.json"
        db.save(path)
        loaded = load_predictor(path)
        assert isinstance(loaded, StaticEscapePredictor)
        assert loaded.classes == db.sites

    def test_escape_db_roundtrip(self, tmp_path):
        db = build_escape_db("cfrac")
        path = tmp_path / "escape.json"
        db.save(path)
        again = StaticEscapeDB.load(path)
        assert again.sites == db.sites
        assert again.to_json() == db.to_json()


# ---------------------------------------------------------------------------
# TraceStore predictor modes


class TestPredictorModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            TraceStore(scale=0.02, predictor_mode="oracle")

    def test_static_mode_needs_no_replay(self, tmp_path):
        # The static predictor comes from source alone: no trace ever
        # materializes, so an empty cold cache stays empty.
        store = TraceStore(
            scale=0.02,
            cache_dir=tmp_path / "cache",
            predictor_mode="static",
        )
        pred = store.predictor("cfrac")
        assert isinstance(pred, StaticEscapePredictor)
        assert not list((tmp_path / "cache").glob("**/*.rtr*"))

    def test_static_predictor_cached_per_program(self, tmp_path):
        store = TraceStore(
            scale=0.02,
            cache_dir=tmp_path / "cache",
            predictor_mode="static",
        )
        assert store.predictor("cfrac") is store.predictor("cfrac")


# ---------------------------------------------------------------------------
# CLI surface


class TestPredictStaticCLI:
    def test_summary_output(self, capsys):
        assert main(["predict-static", "cfrac"]) == 0
        out = capsys.readouterr().out
        assert "cfrac" in out
        assert "short" in out

    def test_json_matches_build(self, capsys):
        assert main(["predict-static", "cfrac", "--json"]) == 0
        out = capsys.readouterr().out
        assert out == build_escape_db("cfrac").to_json()

    def test_output_file_loads_as_predictor(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        assert main(["predict-static", "cfrac", "-o", str(path)]) == 0
        loaded = load_predictor(path)
        assert isinstance(loaded, StaticEscapePredictor)
        assert loaded.site_count > 0

    def test_simulate_arena_with_static_predictor(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "t.rtr.gz"
        assert main(["trace", "cfrac", "tiny", "-o", str(trace)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(trace), "--allocator", "arena",
                     "--predictor", "static"]) == 0
        assert "arena" in capsys.readouterr().out


class TestEscapeEvalCLI:
    def _run(self, extra, cache_dir, capsys):
        argv = [
            "escape-eval", "--programs", "cfrac", "--scale", "0.02",
            "--cache-dir", str(cache_dir),
        ] + extra
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_replay_modes_byte_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        materialized = self._run([], cache, capsys)
        streamed = self._run(["--stream"], cache, capsys)
        assert materialized == streamed
        assert "cfrac" in materialized

    def test_json_reports_all_three_predictors(self, tmp_path, capsys):
        import json

        out = self._run(["--json"], tmp_path / "cache", capsys)
        doc = json.loads(out)
        row = doc["rows"][0]
        assert row["program"] == "cfrac"
        assert set(row["arena_max_heap"]) == {"oracle", "static", "trained"}
        assert 0.0 <= row["static"]["accuracy"] <= 1.0
