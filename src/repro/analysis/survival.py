"""Byte survival curves: the generational hypothesis as a function.

The paper's Tables 3 and 4 sample the lifetime distribution at quartiles
and at the single 32 KB threshold.  The underlying object is the *survival
curve* ``s(t)`` — the fraction of allocated bytes still live ``t`` bytes
after their allocation — the function generational collectors are designed
around (Lieberman & Hewitt, Ungar; the paper's §1.1).  This module
computes it exactly from a trace at log-spaced ages, giving the
reproduction the figure the paper describes in prose: a cliff at small
ages followed by a long, thin tail.

The curve also generalizes both headline numbers: ``1 - s(32 KB)`` is
Table 4's Actual column, and the quartiles of Table 3 are the ages where
``s`` crosses 0.75/0.50/0.25.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.runtime.events import EventSource
from repro.runtime.folds import lifetime_runs

__all__ = ["SurvivalCurve", "survival_curve", "DEFAULT_AGES"]

#: Log-spaced byte-time ages from 16 B to 16 MB.
DEFAULT_AGES: Tuple[int, ...] = tuple(16 * (4 ** k) for k in range(11))


@dataclass(frozen=True)
class SurvivalCurve:
    """The byte survival function of one execution, sampled at ``ages``."""

    program: str
    dataset: str
    total_bytes: int
    ages: Tuple[int, ...]
    #: ``surviving[i]`` = fraction of bytes with lifetime >= ``ages[i]``.
    surviving: Tuple[float, ...]

    def fraction_surviving(self, age: int) -> float:
        """Surviving fraction at an arbitrary age (step interpolation).

        Returns the sampled value at the largest sampled age <= ``age``;
        for ages below the first sample everything survives.
        """
        index = bisect_right(self.ages, age)
        if index == 0:
            return 1.0
        return self.surviving[index - 1]

    def half_life(self) -> int:
        """The first sampled age where less than half the bytes survive."""
        for age, fraction in zip(self.ages, self.surviving):
            if fraction < 0.5:
                return age
        return self.ages[-1]

    def render(self, width: int = 50) -> str:
        """A text plot of the curve (one bar per sampled age)."""
        lines = [
            f"byte survival: {self.program}/{self.dataset} "
            f"({self.total_bytes} bytes)"
        ]
        for age, fraction in zip(self.ages, self.surviving):
            bar = "#" * max(0, round(fraction * width))
            lines.append(f"  {age:>10,}B |{bar:<{width}}| {100 * fraction:5.1f}%")
        return "\n".join(lines)


def survival_curve(
    source: EventSource, ages: Sequence[int] = DEFAULT_AGES
) -> SurvivalCurve:
    """Compute the exact byte survival curve of ``source`` at ``ages``.

    ``ages`` must be strictly increasing.  Unfreed objects follow the
    trace convention (they die at program exit).

    The curve reads Table 3's fold,
    :func:`~repro.runtime.folds.lifetime_runs`: each distinct lifetime's
    bytes fall into the age bucket of that lifetime, and the curve is a
    prefix sum over buckets, the same integers a bucket per object gives.
    """
    age_list = list(ages)
    if not age_list or age_list != sorted(set(age_list)):
        raise ValueError(f"ages must be strictly increasing, got {ages}")
    # buckets[i] = bytes of objects dead before age_list[i] but not
    # before age_list[i-1]; the last bucket (lifetime >= all ages) never
    # counts as dead.
    buckets = [0] * (len(age_list) + 1)
    total = 0
    for lifetime, _, nbytes in lifetime_runs(source):
        total += nbytes
        buckets[bisect_right(age_list, lifetime)] += nbytes
    surviving: List[float] = []
    dead_bytes = 0
    for index in range(len(age_list)):
        dead_bytes += buckets[index]
        surviving.append((total - dead_bytes) / total if total else 0.0)
    header = source.header
    return SurvivalCurve(
        program=header.program,
        dataset=header.dataset,
        total_bytes=total,
        ages=tuple(age_list),
        surviving=tuple(surviving),
    )
