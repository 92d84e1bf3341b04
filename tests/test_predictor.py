"""Unit and property tests for lifetime predictors and their evaluation."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    SitePredictor,
    actual_short_lived_bytes,
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.core.profile import build_profile
from repro.core.sites import FULL_CHAIN
from repro.runtime.heap import TracedHeap
from tests.conftest import make_churn_trace


class TestTraining:
    def test_keeper_site_excluded(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        assert not predictor.predicts_short_lived(
            ("main", "work", "keeper"), 2048
        )

    def test_churn_sites_included(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        assert predictor.predicts_short_lived(("main", "work", "helper"), 16)

    def test_degenerate_threshold_selects_nothing(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=1)
        assert predictor.site_count == 0

    def test_huge_threshold_selects_everything(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=10**12)
        profile = build_profile(churn_trace, size_rounding=4)
        assert predictor.site_count == len(profile)

    def test_level_recorded(self, churn_trace):
        predictor = train_site_predictor(
            churn_trace, chain_length=2, size_rounding=8
        )
        assert predictor.level == (2, 8)

    def test_lookup_respects_level(self, churn_trace):
        predictor = train_site_predictor(churn_trace, chain_length=1)
        # At length 1, any chain ending in "helper" matches.
        assert predictor.predicts_short_lived(("other", "path", "helper"), 16)

    def test_size_rounding_in_lookup(self, churn_trace):
        predictor = train_site_predictor(churn_trace, size_rounding=4)
        # 14 rounds to 16, which the training run allocated.
        assert predictor.predicts_short_lived(
            ("main", "work", "helper"), 14
        ) == predictor.predicts_short_lived(("main", "work", "helper"), 16)


class TestSelfEvaluation:
    def test_self_prediction_has_no_error(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        result = evaluate(predictor, churn_trace)
        assert result.error_pct == 0.0
        assert result.predicted_short_bytes > 0

    def test_predicted_bounded_by_actual(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        result = evaluate(predictor, churn_trace)
        assert result.predicted_short_bytes <= result.actual_short_bytes

    def test_percentages_consistent(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        result = evaluate(predictor, churn_trace)
        assert 0 <= result.predicted_pct <= result.actual_pct <= 100
        assert result.coverage_of_actual <= 1.0

    def test_sites_used_counts_matches(self, churn_trace):
        predictor = train_site_predictor(churn_trace, threshold=4096)
        result = evaluate(predictor, churn_trace)
        assert result.sites_used <= predictor.site_count
        unmatched = evaluate(predictor, churn_trace, count_matched_sites=False)
        assert unmatched.sites_used == predictor.site_count


class TestTrueEvaluation:
    def test_error_bytes_on_shifted_behaviour(self):
        # Training: all "helper" objects short-lived.
        train = make_churn_trace(objects=200)
        predictor = train_site_predictor(train, threshold=4096)

        # Test: same site now also allocates one never-freed object.
        heap = TracedHeap("synthetic", dataset="synthetic")
        live = []
        with heap.frame("work"):
            for index in range(200):
                with heap.frame("helper"):
                    obj = heap.malloc(16)
                live.append(obj)
                if len(live) > 4:
                    heap.free(live.pop(0))
            for obj in live:
                heap.free(obj)
            with heap.frame("helper"):
                heap.malloc(16)  # immortal, mispredicted as short-lived
            heap.malloc(40000)  # push byte-time past the threshold
        test = heap.finish()

        result = evaluate(predictor, test)
        assert result.error_bytes == 16
        assert result.error_pct > 0

    def test_unknown_sites_not_predicted(self, churn_trace):
        predictor = SitePredictor(
            frozenset(), threshold=DEFAULT_THRESHOLD,
            chain_length=FULL_CHAIN, size_rounding=4,
        )
        result = evaluate(predictor, churn_trace)
        assert result.predicted_short_bytes == 0
        assert result.predicted_objects == 0
        assert result.new_ref_pct == 0.0


class TestSizeOnlyPredictor:
    def test_mixed_size_disqualified(self):
        # The immortal keeper shares the churn size, so the size mixes
        # short and long lifetimes.  (Keeper exit lifetime is ~3200 here,
        # hence the 2048 threshold.)
        trace = make_churn_trace(sizes=(16,), keeper_size=16)
        predictor = train_size_only_predictor(trace, threshold=2048)
        assert 16 not in predictor.sizes

    def test_pure_short_size_qualifies(self, churn_trace):
        predictor = train_size_only_predictor(churn_trace, threshold=4096)
        assert 16 in predictor.sizes
        assert 4096 not in predictor.sizes

    def test_site_count_is_size_count(self, churn_trace):
        predictor = train_size_only_predictor(churn_trace, threshold=4096)
        assert predictor.site_count == len(predictor.sizes)

    def test_never_better_than_site_predictor(self, gawk_tiny):
        threshold = 8 * 1024
        by_site = evaluate(
            train_site_predictor(gawk_tiny, threshold=threshold), gawk_tiny
        )
        by_size = evaluate(
            train_size_only_predictor(gawk_tiny, threshold=threshold),
            gawk_tiny,
        )
        assert by_size.predicted_short_bytes <= by_site.predicted_short_bytes


class TestActualShortLived:
    def test_counts_only_under_threshold(self, churn_trace):
        everything = actual_short_lived_bytes(churn_trace, 10**12)
        assert everything == churn_trace.total_bytes
        nothing = actual_short_lived_bytes(churn_trace, 1)
        assert nothing == 0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=10**7))
    def test_monotone_in_threshold(self, threshold):
        trace = make_churn_trace(objects=60)
        smaller = actual_short_lived_bytes(trace, threshold)
        larger = actual_short_lived_bytes(trace, threshold * 2)
        assert smaller <= larger


class TestEvaluationInvariants:
    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(min_value=64, max_value=10**6),
        st.integers(min_value=1, max_value=7),
    )
    def test_bytes_partition(self, threshold, chain_length):
        trace = make_churn_trace(objects=120)
        predictor = train_site_predictor(
            trace, threshold=threshold, chain_length=chain_length
        )
        result = evaluate(predictor, trace)
        assert (
            result.predicted_short_bytes + result.error_bytes
            <= result.total_bytes
        )
        assert result.total_bytes == trace.total_bytes
        assert 0 <= result.new_ref_pct <= 100.0
