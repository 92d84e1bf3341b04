"""Streaming quantile estimation with the P-square algorithm.

Barrett & Zorn collect a lifetime *quantile histogram* for every allocation
site using the P^2 (P-square) algorithm of Jain and Chlamtac (CACM 28(10),
1985).  P^2 estimates a set of quantiles of a stream in O(1) memory per
quantile, without storing observations, which is what makes per-site
histograms affordable when a program has thousands of sites.

This module provides:

``P2Quantile``
    The classic five-marker estimator for a single quantile ``p``.

``P2Histogram``
    The equiprobable-cell histogram variant: ``cells`` cells give
    ``cells + 1`` markers tracking the ``i / cells`` quantiles, including the
    exact minimum and maximum.  The paper's Table 3 uses the four-cell
    (quartile) form of this estimator.

``ExactQuantiles``
    A store-everything reference implementation used by the test suite to
    bound P^2 approximation error and by small analyses where memory is not
    a concern.

The estimators accept any real-valued observations; the rest of the library
feeds them object lifetimes measured in bytes of allocation (the paper's
byte-time clock, see :mod:`repro.runtime.heap`).
"""

from __future__ import annotations

import math
from bisect import insort
from functools import lru_cache
from typing import Iterable, List, Sequence

__all__ = ["P2Quantile", "P2Histogram", "ExactQuantiles"]


@lru_cache(maxsize=None)
def _index_ranges(nmarkers: int):
    """The P^2 update's index ranges for ``nmarkers`` markers, built once
    and shared by every estimator of that size: the markers above each
    cell, every marker, and the interior markers."""
    return (
        tuple(range(k + 1, nmarkers) for k in range(nmarkers)),
        range(nmarkers),
        range(1, nmarkers - 1),
    )


class _P2Markers:
    """Shared marker-adjustment machinery for the P^2 estimators.

    Subclasses fix the number of markers and the desired-position increment
    of each marker per observation.  The marker invariant maintained here is
    the heart of P^2: marker heights stay sorted, marker positions stay
    strictly increasing, and each interior marker drifts toward its desired
    (ideal) position, moving at most one position per observation using the
    parabolic formula (or linear interpolation when the parabola would break
    monotonicity).
    """

    def __init__(self, increments: Sequence[float]):
        # increments[i] is d(desired position)/d(observation) for marker i.
        self._increments = list(increments)
        self._nmarkers = len(increments)
        self._initial: List[float] = []
        self._q: List[float] = []  # marker heights
        self._n: List[float] = []  # marker positions (1-based counts)
        self._np: List[float] = []  # desired marker positions
        self._count = 0
        self._ranges = _index_ranges(self._nmarkers)

    @property
    def count(self) -> int:
        """Number of observations seen so far."""
        return self._count

    def add(self, x: float) -> None:
        """Fold one observation into the estimate."""
        self.extend((x,))

    def extend(self, xs: Iterable[float]) -> None:
        """Fold every observation of ``xs`` into the estimate, in order."""
        xs = iter(xs)
        if not self._q:
            # Warm-up: keep the first observations sorted until there is
            # one per marker; they become the initial heights.
            initial = self._initial
            for x in xs:
                self._count += 1
                insort(initial, x)
                if len(initial) == self._nmarkers:
                    break
            else:
                return
            self._q = initial
            self._n = [float(i + 1) for i in range(self._nmarkers)]
            self._np = [
                1.0 + (self._nmarkers - 1) * inc for inc in self._increments
            ]
            self._initial = []
        q, n, np_ = self._q, self._n, self._np
        increments = self._increments
        above, markers, interior = self._ranges
        last = self._nmarkers - 1
        count = self._count
        for x in xs:
            count += 1
            # Find the cell containing x, extending the extreme markers if
            # needed (steps B1-B2 of the published algorithm).
            if x < q[0]:
                q[0] = x
                k = 0
            elif x >= q[last]:
                if x > q[last]:
                    q[last] = x
                k = last - 1
            else:
                k = 0
                while not (q[k] <= x < q[k + 1]):
                    k += 1

            # Shift positions of markers above the cell, advance desired
            # positions of every marker (steps B3-B4).
            for i in above[k]:
                n[i] += 1.0
            for i in markers:
                np_[i] += increments[i]

            # Adjust interior markers toward their desired positions (step
            # B5): the parabolic prediction of equation (1), or the linear
            # one when the parabola would break monotonicity.
            for i in interior:
                d = np_[i] - n[i]
                if (d >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                    d <= -1.0 and n[i - 1] - n[i] < -1.0
                ):
                    step = 1 if d > 0 else -1
                    candidate = q[i] + step / (n[i + 1] - n[i - 1]) * (
                        (n[i] - n[i - 1] + step) * (q[i + 1] - q[i])
                        / (n[i + 1] - n[i])
                        + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1])
                        / (n[i] - n[i - 1])
                    )
                    if not (q[i - 1] < candidate < q[i + 1]):
                        candidate = q[i] + step * (q[i + step] - q[i]) / (
                            n[i + step] - n[i]
                        )
                    q[i] = candidate
                    n[i] += step
        self._count = count

    def _marker_heights(self) -> List[float]:
        """Marker heights, falling back to sorted observations pre-warmup."""
        if self._q:
            return list(self._q)
        return list(self._initial)


class P2Quantile(_P2Markers):
    """Single-quantile P^2 estimator with five markers.

    >>> est = P2Quantile(0.5)
    >>> est.extend(range(1, 101))
    >>> 45 <= est.value() <= 55
    True
    """

    def __init__(self, p: float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {p}")
        self.p = p
        super().__init__([0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0])

    def value(self) -> float:
        """Current estimate of the ``p`` quantile.

        Raises :class:`ValueError` when no observations have been seen.
        Before five observations have arrived the exact sample quantile of
        the stored observations is returned.
        """
        if self._count == 0:
            raise ValueError("no observations")
        if self._q:
            return self._q[2]
        return _exact_quantile(self._initial, self.p)


class P2Histogram(_P2Markers):
    """Equiprobable-cell P^2 histogram.

    With ``cells = B`` the histogram maintains ``B + 1`` markers estimating
    the ``0/B, 1/B, ..., B/B`` quantiles of the stream; the first and last
    markers hold the exact minimum and maximum.  The paper's per-site
    lifetime quantile histograms are the ``cells=4`` (quartile) instance.
    """

    def __init__(self, cells: int = 4):
        if cells < 2:
            raise ValueError(f"need at least 2 cells, got {cells}")
        self.cells = cells
        super().__init__([i / cells for i in range(cells + 1)])

    def quantiles(self) -> List[float]:
        """Estimates of the ``i / cells`` quantiles, min and max included."""
        if self._count == 0:
            raise ValueError("no observations")
        if self._q:
            return list(self._q)
        data = self._marker_heights()
        return [
            _exact_quantile(data, i / self.cells) for i in range(self.cells + 1)
        ]

    def quantile(self, p: float) -> float:
        """Estimate of the ``p`` quantile, interpolated between markers.

        ``p`` must lie in [0, 1].  Between markers the estimate is linear in
        marker position, matching how the published algorithm reads out its
        histogram.
        """
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p}")
        qs = self.quantiles()
        scaled = p * self.cells
        lo = min(int(math.floor(scaled)), self.cells - 1)
        frac = scaled - lo
        return qs[lo] + frac * (qs[lo + 1] - qs[lo])

    @property
    def min(self) -> float:
        """Exact minimum observation."""
        return self.quantiles()[0]

    @property
    def max(self) -> float:
        """Exact maximum observation."""
        return self.quantiles()[-1]


def _exact_quantile(sorted_data: Sequence[float], p: float) -> float:
    """Exact ``p`` quantile of ``sorted_data`` with linear interpolation."""
    if not sorted_data:
        raise ValueError("no observations")
    if len(sorted_data) == 1:
        return sorted_data[0]
    pos = p * (len(sorted_data) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_data) - 1)
    frac = pos - lo
    return sorted_data[lo] + frac * (sorted_data[hi] - sorted_data[lo])


class ExactQuantiles:
    """Store-everything quantile tracker, the testing reference for P^2.

    Keeps observations in sorted order; ``quantile`` answers any quantile
    exactly (with linear interpolation between order statistics).
    """

    def __init__(self) -> None:
        self._data: List[float] = []

    @property
    def count(self) -> int:
        """Number of observations seen so far."""
        return len(self._data)

    def add(self, x: float) -> None:
        """Insert one observation, keeping the store sorted."""
        insort(self._data, x)

    def extend(self, xs: Iterable[float]) -> None:
        """Insert every observation of ``xs``."""
        for x in xs:
            self.add(x)

    def quantile(self, p: float) -> float:
        """Exact ``p`` quantile of everything seen so far."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {p}")
        return _exact_quantile(self._data, p)

    def quantiles(self, ps: Iterable[float]) -> List[float]:
        """Exact quantiles for each probability in ``ps``."""
        return [self.quantile(p) for p in ps]
