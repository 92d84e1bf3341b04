"""Tests for the design-space search service.

Unit layers (space, objective, evolution) run over a fake store on the
synthetic churn trace; the end-to-end determinism test drives the real
CLI on a tiny cfrac run and byte-compares the materialized session
against a ``--stream`` one — the property the recorded trajectory leans
on.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.alloc.costs import DEFAULT_COST_MODEL
from repro.alloc.spec import PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.analysis.simulate import simulate_spec
from repro.cli import main
from repro.core.predictor import train_site_predictor
from repro.obs.attrib import attribute_sites
from repro.obs.diff import detect_kind, diff_documents
from repro.search import (
    DEFAULT_SPACE,
    CandidateMetrics,
    Objective,
    ObjectiveError,
    SearchSession,
    SearchSpace,
    SearchSpaceError,
    SearchStore,
    evolve,
    render_best,
    render_session,
    run_search,
)

THRESHOLD = 4096


class FakeStore:
    """The store surface the search service consumes, over one
    synthetic trace: every replay and fold runs fresh, with no memo."""

    scale = 1.0

    def __init__(self):
        from tests.conftest import make_churn_trace

        self._trace = make_churn_trace()
        self._predictors = {}

    def simulate(self, program, spec, dataset="test",
                 model=DEFAULT_COST_MODEL):
        return simulate_spec(self._trace, spec,
                             self.predictor_for(program, spec), model=model)

    def attribution(self, program, spec, dataset="test",
                    model=DEFAULT_COST_MODEL):
        return attribute_sites(self._trace,
                               predictor=self.predictor_for(program, spec),
                               model=model, spec=spec)

    def predictor_for(self, program, spec):
        if spec.predictor == "none":
            return None
        key = (spec.threshold, spec.chain_length, spec.size_rounding)
        if key not in self._predictors:
            self._predictors[key] = train_site_predictor(
                self._trace,
                threshold=spec.threshold,
                chain_length=spec.chain_length,
                size_rounding=spec.size_rounding,
            )
        return self._predictors[key]


@pytest.fixture(scope="module")
def fake_store():
    return FakeStore()


SMALL_SPACE = SearchSpace(
    num_arenas=(8, 16),
    arena_sizes=(2048, 4096),
    thresholds=(THRESHOLD,),
)


class TestSearchSpace:
    def test_json_round_trip(self):
        assert SearchSpace.from_json(SMALL_SPACE.to_json()) == SMALL_SPACE

    def test_unknown_field_rejected(self):
        with pytest.raises(SearchSpaceError, match="unknown search space"):
            SearchSpace.from_dict({"arena_count": [8]})

    def test_empty_axis_rejected(self):
        with pytest.raises(SearchSpaceError, match="at least one"):
            SearchSpace(kinds=())

    def test_duplicate_value_rejected(self):
        with pytest.raises(SearchSpaceError, match="repeats a value"):
            SearchSpace(num_arenas=(8, 8))

    def test_space_without_a_valid_spec_rejected(self):
        with pytest.raises(SearchSpaceError, match="no valid spec"):
            SearchSpace(num_arenas=(0, -3))
        with pytest.raises(SearchSpaceError, match="no valid spec"):
            SearchSpace(kinds=("firstfit",), predictors=("trained",))

    def test_grid_enumeration_is_deterministic(self):
        first = [spec.spec_hash() for spec in SMALL_SPACE.specs()]
        second = [spec.spec_hash() for spec in SMALL_SPACE.specs()]
        assert first == second
        assert len(first) == len(set(first)) == 4

    def test_invalid_combinations_are_skipped(self):
        # firstfit x predictor=trained is schema-invalid; only the
        # arena candidates survive (firstfit requires predictor none).
        space = SearchSpace(
            kinds=("arena", "firstfit"),
            num_arenas=(16,),
            arena_sizes=(4096,),
            thresholds=(THRESHOLD,),
            predictors=("trained",),
        )
        kinds = {spec.kind for spec in space.specs()}
        assert kinds == {"arena"}

    def test_space_hash_tracks_contents(self):
        assert SMALL_SPACE.space_hash() != DEFAULT_SPACE.space_hash()
        assert SMALL_SPACE.space_hash() == (
            SearchSpace.from_json(SMALL_SPACE.to_json()).space_hash()
        )


class TestObjective:
    BASE = CandidateMetrics(
        total_instr=1000, max_heap_size=500, frag_byte_time=200
    )

    def test_baseline_scores_exactly_one(self):
        assert Objective().score(self.BASE, self.BASE) == 1.0

    def test_better_candidate_scores_below_one(self):
        better = CandidateMetrics(
            total_instr=900, max_heap_size=400, frag_byte_time=200
        )
        assert Objective().score(better, self.BASE) < 1.0

    def test_weights_select_axes(self):
        heavier_heap = CandidateMetrics(
            total_instr=500, max_heap_size=1000, frag_byte_time=200
        )
        instr_only = Objective(instructions=1.0, max_heap=0.0,
                               fragmentation=0.0)
        heap_only = Objective(instructions=0.0, max_heap=1.0,
                              fragmentation=0.0)
        assert instr_only.score(heavier_heap, self.BASE) == 0.5
        assert heap_only.score(heavier_heap, self.BASE) == 2.0

    def test_zero_baseline_axis_is_dropped(self):
        zero_frag = CandidateMetrics(
            total_instr=1000, max_heap_size=500, frag_byte_time=0
        )
        assert Objective().score(zero_frag, zero_frag) == 1.0
        worse = CandidateMetrics(
            total_instr=1000, max_heap_size=500, frag_byte_time=10
        )
        # The unmeasurable axis is dropped, not scored as infinitely
        # bad — the session must stay strictly JSON-serializable.
        assert Objective().score(worse, zero_frag) == 1.0
        assert "fragmentation" not in Objective().ratios(worse, zero_frag)

    @pytest.mark.parametrize("kwargs", [
        {"instructions": -1.0},
        {"instructions": 0.0, "max_heap": 0.0, "fragmentation": 0.0},
        {"max_heap": "lots"},
    ])
    def test_bad_weights_rejected(self, kwargs):
        with pytest.raises(ObjectiveError):
            Objective(**kwargs)

    def test_unknown_weight_rejected(self):
        with pytest.raises(ObjectiveError, match="unknown objective"):
            Objective.from_dict({"rss": 1.0})


class TestEvolve:
    def test_same_seed_same_candidates(self):
        def evaluate(spec):
            return float(spec.num_arenas * spec.arena_size)

        first = evolve(DEFAULT_SPACE, evaluate, seed=11)
        second = evolve(DEFAULT_SPACE, evaluate, seed=11)
        assert (
            [spec.spec_hash() for spec, _ in first]
            == [spec.spec_hash() for spec, _ in second]
        )

    def test_candidates_stay_inside_the_space(self):
        seen = []

        def evaluate(spec):
            seen.append(spec)
            return float(spec.arena_size)

        evolve(SMALL_SPACE, evaluate, seed=3)
        for spec in seen:
            assert spec.num_arenas in SMALL_SPACE.num_arenas
            assert spec.arena_size in SMALL_SPACE.arena_sizes
            assert spec.threshold in SMALL_SPACE.thresholds

    def test_each_distinct_spec_evaluated_once(self):
        counts = {}

        def evaluate(spec):
            key = spec.spec_hash()
            counts[key] = counts.get(key, 0) + 1
            return float(spec.arena_size)

        evolve(SMALL_SPACE, evaluate, seed=5, generations=6, population=6)
        assert counts and all(count == 1 for count in counts.values())

    def test_mutation_respects_axes(self):
        from repro.search import mutate

        rng = random.Random(0)
        for _ in range(20):
            mutant = mutate(PAPER_DEFAULT_SPEC, rng, SMALL_SPACE)
            if mutant is not None:
                assert mutant != PAPER_DEFAULT_SPEC
                assert mutant.num_arenas in SMALL_SPACE.num_arenas


class TestRunSearch:
    @pytest.fixture(scope="class")
    def session(self, fake_store):
        return run_search(
            fake_store, "synthetic", space=SMALL_SPACE, seq=1
        )

    def test_grid_covers_the_space(self, session):
        assert len(session.results) == 4
        assert [entry["rank"] for entry in session.results] == [1, 2, 3, 4]

    def test_ranked_by_score_then_hash(self, session):
        keys = [
            (entry["score"], entry["spec_hash"])
            for entry in session.results
        ]
        assert keys == sorted(keys)

    def test_baseline_is_the_paper_default(self, session):
        assert session.baseline["spec"] == PAPER_DEFAULT_SPEC.to_dict()
        assert session.baseline["spec_hash"] == PAPER_DEFAULT_SPEC.spec_hash()

    def test_session_is_reproducible(self, fake_store, session):
        again = run_search(
            fake_store, "synthetic", space=SMALL_SPACE, seq=1
        )
        assert json.dumps(again.to_dict(), sort_keys=True) == json.dumps(
            session.to_dict(), sort_keys=True
        )

    def test_no_wall_clock_in_the_session(self, session):
        text = json.dumps(session.to_dict())
        assert "created_at" not in text
        assert "jobs" not in text

    def test_round_trip_and_kind_detection(self, session):
        doc = session.to_dict()
        assert SearchSession.from_dict(doc).to_dict() == doc
        assert detect_kind(doc) == "search"

    def test_diff_gates_a_score_regression(self, session):
        old = session.to_dict()
        new = json.loads(json.dumps(old))
        new["results"][0]["score"] = old["results"][0]["score"] * 10 + 1
        assert not diff_documents(old, old).regressed
        assert diff_documents(old, new).regressed

    def test_evolve_mode_is_seed_deterministic(self, fake_store):
        first = run_search(
            fake_store, "synthetic", space=SMALL_SPACE, mode="evolve",
            seed=9, seq=1,
        )
        second = run_search(
            fake_store, "synthetic", space=SMALL_SPACE, mode="evolve",
            seed=9, seq=1,
        )
        assert first.to_dict() == second.to_dict()

    def test_unknown_mode_rejected(self, fake_store):
        from repro.search import SearchError

        with pytest.raises(SearchError, match="unknown search mode"):
            run_search(fake_store, "synthetic", mode="annealing")

    def test_render_smoke(self, session):
        table = render_session(session, top=2)
        assert "rank" in table and "more candidate(s)" in table
        assert "paper-default arena spec" in render_best(session)


class TestSearchStore:
    def test_write_load_resolve(self, fake_store, tmp_path):
        store = SearchStore(tmp_path / "search")
        assert store.next_seq() == 1
        first = run_search(
            fake_store, "synthetic", space=SMALL_SPACE, seq=store.next_seq()
        )
        path = store.write(first)
        assert path.name == "SEARCH_0001.json"
        assert store.next_seq() == 2
        second = run_search(
            fake_store, "synthetic", space=SMALL_SPACE, seq=store.next_seq()
        )
        store.write(second)
        assert store.load("latest").seq == 2
        assert store.load("prev").seq == 1
        assert store.load(1).seq == 1
        assert store.load(str(path)).seq == 1

    def test_missing_prev_is_actionable(self, tmp_path):
        store = SearchStore(tmp_path / "empty")
        with pytest.raises(FileNotFoundError, match="no 'latest' session"):
            store.load("latest")

    def test_non_search_document_rejected(self, tmp_path):
        bad = tmp_path / "SEARCH_0001.json"
        bad.write_text('{"kind": "bench"}', encoding="utf-8")
        from repro.search import SearchFormatError

        with pytest.raises(SearchFormatError, match="kind='search'"):
            SearchStore(tmp_path).load(1)


class TestSearchCli:
    def test_run_materialized_vs_stream_byte_identical(self, tmp_path,
                                                       capsys):
        cache = str(tmp_path / "cache")
        space = tmp_path / "space.json"
        space.write_text(
            SearchSpace(
                num_arenas=(8, 16), arena_sizes=(4096,),
            ).to_json(),
            encoding="utf-8",
        )
        materialized_dir = tmp_path / "materialized"
        streamed_dir = tmp_path / "streamed"
        base = [
            "search", "run", "--program", "cfrac", "--scale", "0.02",
            "--cache-dir", cache, "--space", str(space),
        ]
        assert main(base + ["--search-dir", str(materialized_dir)]) == 0
        assert main(
            base + ["--search-dir", str(streamed_dir), "--stream"]
        ) == 0
        capsys.readouterr()
        materialized = (materialized_dir / "SEARCH_0001.json").read_bytes()
        streamed = (streamed_dir / "SEARCH_0001.json").read_bytes()
        assert materialized == streamed

    def test_show_and_best_read_the_session(self, tmp_path, capsys,
                                            fake_store):
        store = SearchStore(tmp_path / "search")
        store.write(run_search(
            fake_store, "synthetic", space=SMALL_SPACE, seq=1
        ))
        assert main(
            ["search", "show", "--search-dir", str(tmp_path / "search")]
        ) == 0
        assert "search session 0001" in capsys.readouterr().out
        assert main(
            ["search", "best", "--search-dir", str(tmp_path / "search"),
             "--json"]
        ) == 0
        best = json.loads(capsys.readouterr().out)
        assert best["rank"] == 1

    @pytest.mark.parametrize("mode", ("grid", "evolve"))
    def test_space_without_a_valid_spec_is_an_error(self, tmp_path, capsys,
                                                    mode):
        space = tmp_path / "space.json"
        space.write_text(json.dumps({"num_arenas": [0, -3]}),
                         encoding="utf-8")
        search_dir = tmp_path / "search"
        assert main([
            "search", "run", "--program", "cfrac", "--scale", "0.02",
            "--no-cache", "--space", str(space), "--mode", mode,
            "--search-dir", str(search_dir),
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no valid spec" in err
        assert not search_dir.exists()

    def test_missing_session_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["search", "best", "--search-dir", str(tmp_path / "none")]
        ) == 1
        assert "error:" in capsys.readouterr().err
