"""Unit and property tests for the P^2 quantile estimators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quantile import ExactQuantiles, P2Histogram, P2Quantile


class TestP2Quantile:
    def test_rejects_bad_probability(self):
        for p in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                P2Quantile(p)

    def test_no_observations_raises(self):
        with pytest.raises(ValueError):
            P2Quantile(0.5).value()

    def test_few_observations_exact(self):
        est = P2Quantile(0.5)
        est.extend([5.0, 1.0, 3.0])
        assert est.value() == 3.0

    def test_median_of_uniform_ramp(self):
        est = P2Quantile(0.5)
        est.extend(float(i) for i in range(1, 1001))
        assert 450 <= est.value() <= 550

    def test_p90_of_uniform_ramp(self):
        est = P2Quantile(0.9)
        est.extend(float(i) for i in range(1, 1001))
        assert 850 <= est.value() <= 950

    def test_count_tracks_observations(self):
        est = P2Quantile(0.25)
        est.extend([1.0, 2.0, 3.0])
        assert est.count == 3

    def test_shuffled_stream_converges(self):
        rng = random.Random(7)
        data = [float(i) for i in range(2000)]
        rng.shuffle(data)
        est = P2Quantile(0.75)
        est.extend(data)
        exact = 0.75 * 1999
        assert abs(est.value() - exact) < 0.1 * 2000

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=200,
        ),
        st.floats(min_value=0.05, max_value=0.95),
    )
    def test_value_always_within_range(self, data, p):
        est = P2Quantile(p)
        est.extend(data)
        assert min(data) <= est.value() <= max(data)


class TestP2Histogram:
    def test_rejects_too_few_cells(self):
        with pytest.raises(ValueError):
            P2Histogram(cells=1)

    def test_no_observations_raises(self):
        with pytest.raises(ValueError):
            P2Histogram().quantiles()

    def test_min_max_exact(self):
        rng = random.Random(3)
        data = [rng.uniform(-50, 50) for _ in range(500)]
        hist = P2Histogram(cells=4)
        hist.extend(data)
        assert hist.min == min(data)
        assert hist.max == max(data)

    def test_quantiles_sorted(self):
        rng = random.Random(11)
        hist = P2Histogram(cells=4)
        hist.extend(rng.expovariate(0.01) for _ in range(2000))
        qs = hist.quantiles()
        assert qs == sorted(qs)
        assert len(qs) == 5

    def test_quartiles_near_exact_on_uniform(self):
        hist = P2Histogram(cells=4)
        exact = ExactQuantiles()
        rng = random.Random(5)
        for _ in range(4000):
            x = rng.uniform(0, 1000)
            hist.add(x)
            exact.add(x)
        for p, estimate in zip([0.25, 0.5, 0.75], hist.quantiles()[1:4]):
            assert abs(estimate - exact.quantile(p)) < 50

    def test_interpolated_quantile_endpoints(self):
        hist = P2Histogram(cells=4)
        hist.extend(float(i) for i in range(100))
        assert hist.quantile(0.0) == hist.min
        assert hist.quantile(1.0) == hist.max

    def test_quantile_rejects_out_of_range(self):
        hist = P2Histogram()
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_pre_warmup_quantiles(self):
        hist = P2Histogram(cells=4)
        hist.extend([10.0, 20.0, 30.0])
        qs = hist.quantiles()
        assert qs[0] == 10.0
        assert qs[-1] == 30.0
        assert qs == sorted(qs)

    def test_eight_cells(self):
        hist = P2Histogram(cells=8)
        hist.extend(float(i) for i in range(1, 10001))
        qs = hist.quantiles()
        assert len(qs) == 9
        # The median marker of an 8-cell histogram is index 4.
        assert abs(qs[4] - 5000) < 500

    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e9,
                      allow_nan=False, allow_infinity=False),
            min_size=1, max_size=300,
        )
    )
    def test_markers_bounded_and_sorted(self, data):
        hist = P2Histogram(cells=4)
        hist.extend(data)
        qs = hist.quantiles()
        assert qs[0] == min(data)
        assert qs[-1] == max(data)
        assert qs == sorted(qs)

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_identical_observations_collapse(self, value):
        hist = P2Histogram(cells=4)
        hist.extend([float(value)] * 50)
        assert hist.quantiles() == [float(value)] * 5


def _p2_reference(increments, xs):
    """Jain & Chlamtac's P^2, transcribed step by step from the paper.

    ``increments[i]`` is marker ``i``'s desired-position increment per
    observation.  Returns the marker heights, or ``None`` before one
    observation per marker has arrived.  The estimators must match this
    bit for bit, so the arithmetic keeps the published formulas'
    operand order.
    """
    m = len(increments)
    xs = list(xs)
    if len(xs) < m:
        return None
    # A: the first m observations, sorted, are the initial heights.
    q = sorted(xs[:m])
    n = [float(i + 1) for i in range(m)]
    desired = [1.0 + (m - 1) * inc for inc in increments]
    for x in xs[m:]:
        # B1: find the cell k with q[k] <= x < q[k + 1]; a new extreme
        # replaces the end marker's height.
        if x < q[0]:
            q[0] = x
            k = 0
        elif x >= q[m - 1]:
            q[m - 1] = max(q[m - 1], x)
            k = m - 2
        else:
            k = max(i for i in range(m - 1) if q[i] <= x)
        # B2: the markers above the cell move up one position.
        for i in range(k + 1, m):
            n[i] = n[i] + 1.0
        # B3: every desired position advances by its increment.
        for i in range(m):
            desired[i] = desired[i] + increments[i]
        # B4-B5: an interior marker at least one position off its desired
        # position, with room to move, moves one step; its height follows
        # the parabola (equation 1), or the line when the parabola would
        # leave the neighbours' heights.
        for i in range(1, m - 1):
            d = desired[i] - n[i]
            if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                d <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                d = 1 if d > 0 else -1
                parabolic = q[i] + d / (n[i + 1] - n[i - 1]) * (
                    (n[i] - n[i - 1] + d) * (q[i + 1] - q[i])
                    / (n[i + 1] - n[i])
                    + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1])
                    / (n[i] - n[i - 1])
                )
                if q[i - 1] < parabolic < q[i + 1]:
                    q[i] = parabolic
                else:
                    q[i] = q[i] + d * (q[i + d] - q[i]) / (n[i + d] - n[i])
                n[i] = n[i] + d
    return q


@st.composite
def _p2_streams(draw):
    """Lifetime-like streams: unsorted, sorted, or runs of one value
    (the shape Table 3 feeds, lifetime by lifetime)."""
    kind = draw(st.sampled_from(["unsorted", "sorted", "repeated"]))
    if kind == "repeated":
        runs = draw(st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(1, 40)),
            max_size=30,
        ))
        return [value for value, count in runs for _ in range(count)]
    xs = draw(st.lists(
        st.integers(0, 10**6) | st.floats(0, 1e9, allow_nan=False),
        max_size=300,
    ))
    return sorted(xs) if kind == "sorted" else xs


class TestP2MatchesPublishedAlgorithm:
    """``add`` and ``extend`` give the published algorithm's floats."""

    @settings(max_examples=150, deadline=None)
    @given(xs=_p2_streams(), cells=st.sampled_from([2, 4, 8]),
           split=st.integers(0, 300))
    def test_histogram(self, xs, cells, split):
        expected = _p2_reference([i / cells for i in range(cells + 1)], xs)
        one_by_one = P2Histogram(cells)
        for x in xs:
            one_by_one.add(x)
        mixed = P2Histogram(cells)
        for x in xs[:split]:
            mixed.add(x)
        mixed.extend(iter(xs[split:]))
        for hist in (one_by_one, mixed):
            assert hist.count == len(xs)
            if expected is not None:
                assert hist.quantiles() == expected

    @settings(max_examples=100, deadline=None)
    @given(xs=_p2_streams(), p=st.sampled_from([0.1, 0.25, 0.5, 0.9]))
    def test_quantile(self, xs, p):
        expected = _p2_reference([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0], xs)
        est = P2Quantile(p)
        est.extend(xs)
        assert est.count == len(xs)
        if expected is not None:
            assert est.value() == expected[2]


class TestExactQuantiles:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ExactQuantiles().quantile(0.5)

    def test_single_value(self):
        exact = ExactQuantiles()
        exact.add(42.0)
        assert exact.quantile(0.0) == exact.quantile(1.0) == 42.0

    def test_median_interpolates(self):
        exact = ExactQuantiles()
        exact.extend([1.0, 2.0, 3.0, 4.0])
        assert exact.quantile(0.5) == 2.5

    def test_quantiles_batch(self):
        exact = ExactQuantiles()
        exact.extend(float(i) for i in range(101))
        assert exact.quantiles([0.0, 0.25, 0.5, 1.0]) == [0.0, 25.0, 50.0, 100.0]

    def test_rejects_out_of_range(self):
        exact = ExactQuantiles()
        exact.add(1.0)
        with pytest.raises(ValueError):
            exact.quantile(-0.1)

    @given(
        st.lists(st.integers(min_value=0, max_value=1000),
                 min_size=1, max_size=100),
        st.floats(min_value=0, max_value=1),
    )
    def test_within_data_range(self, data, p):
        exact = ExactQuantiles()
        exact.extend(float(x) for x in data)
        assert min(data) <= exact.quantile(p) <= max(data)
