"""Multi-class lifetime prediction — the paper's future-work direction.

§6 of the paper: "This paper has explored the possibility of lifetime
prediction and simulated the performance of one algorithm based on this
idea.  Further exploration of algorithms based on this idea are required."
The single 32 KB threshold leaves a gap the paper's own Table 3 exposes:
ESPRESSO's lifetimes cluster between 2 KB and 25 KB and its 75% quantile
sits at 25.5 KB, so a large mid-range population barely misses (or barely
makes) the short-lived cut.

This module generalizes the predictor to an ordered ladder of lifetime
classes: a site is assigned the *smallest* class whose threshold bounds
every training lifetime observed at that site (the same conservative
all-objects rule as the paper's, applied per rung).  Class 0 reproduces
the paper's predictor exactly; higher classes feed the additional arena
areas of :class:`repro.alloc.multiarena.MultiArenaAllocator`, each sized
to its threshold the way the paper sizes 64 KB to the 32 KB cutoff.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from typing import TYPE_CHECKING

from repro.core.predictor import (
    TRUE_PREDICTION_ROUNDING,
    LifetimePredictor,
    pair_table,
)
from repro.core.profile import SiteKey
from repro.core.sites import FULL_CHAIN, CallChain, site_key

if TYPE_CHECKING:
    from repro.runtime.events import EventSource
    from repro.runtime.folds import PairTable

__all__ = [
    "DEFAULT_CLASS_THRESHOLDS",
    "MultiClassPredictor",
    "train_multiclass_predictor",
]

#: Default class ladder: the paper's 32 KB rung plus a medium class for
#: the espresso-shaped mid-range population.
DEFAULT_CLASS_THRESHOLDS: Tuple[int, ...] = (32 * 1024, 256 * 1024)


class MultiClassPredictor(LifetimePredictor):
    """Assigns allocation sites to lifetime classes.

    ``thresholds`` is the strictly increasing ladder of byte-time bounds;
    class *i* contains sites whose training objects all died under
    ``thresholds[i]`` (and not under ``thresholds[i-1]``).  Sites beyond
    the last rung — or unseen at prediction time — are long-lived
    (``class_of`` returns ``None``).

    ``threshold`` and :meth:`predicts_short_lived` expose the class-0 view
    so a multi-class predictor drops into every API that expects the
    paper's single-threshold predictor.
    """

    def __init__(
        self,
        site_classes: Dict[SiteKey, int],
        thresholds: Sequence[int],
        chain_length: Optional[int],
        size_rounding: int,
        program: str = "?",
    ):
        ladder = tuple(thresholds)
        if not ladder or list(ladder) != sorted(set(ladder)):
            raise ValueError(
                f"thresholds must be strictly increasing, got {thresholds}"
            )
        self.site_classes = site_classes
        self.thresholds = ladder
        self.threshold = ladder[0]
        self.chain_length = chain_length
        self.size_rounding = size_rounding
        self.program = program

    @property
    def num_classes(self) -> int:
        """Number of predicted (non-long-lived) classes."""
        return len(self.thresholds)

    @property
    def site_count(self) -> int:
        return len(self.site_classes)

    def key_for(self, chain: CallChain, size: int) -> SiteKey:
        """Abstract an allocation to this predictor's site level."""
        return site_key(
            chain, size, length=self.chain_length,
            size_rounding=self.size_rounding,
        )

    def class_of(self, chain: CallChain, size: int) -> Optional[int]:
        """The predicted lifetime class, or ``None`` for long-lived."""
        return self.site_classes.get(self.key_for(chain, size))

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        """Class-0 membership: the paper's single-threshold prediction."""
        return self.class_of(chain, size) == 0

    def class_site_count(self, klass: int) -> int:
        """Number of sites assigned to class ``klass``."""
        return sum(1 for c in self.site_classes.values() if c == klass)

    @classmethod
    def from_table(
        cls,
        table: "PairTable",
        thresholds: Sequence[int],
        chain_length: Optional[int],
        size_rounding: int,
        program: str = "?",
    ) -> "MultiClassPredictor":
        """Assign each site at one level to the smallest class whose
        threshold strictly bounds its maximum lifetime in a
        :func:`~repro.core.predictor.pair_table`."""
        ladder = tuple(thresholds)
        site_classes: Dict[SiteKey, int] = {}
        for key, max_lifetime in table.site_max_lifetimes(
            chain_length, size_rounding
        ).items():
            for klass, bound in enumerate(ladder):
                if max_lifetime < bound:
                    site_classes[key] = klass
                    break
        return cls(
            site_classes,
            thresholds=ladder,
            chain_length=chain_length,
            size_rounding=size_rounding,
            program=program,
        )


def train_multiclass_predictor(
    trace: "EventSource",
    thresholds: Sequence[int] = DEFAULT_CLASS_THRESHOLDS,
    chain_length: Optional[int] = FULL_CHAIN,
    size_rounding: int = TRUE_PREDICTION_ROUNDING,
) -> MultiClassPredictor:
    """Train a class ladder from one execution's trace.

    Applies the paper's conservative rule per rung: a site lands in the
    smallest class whose threshold strictly bounds its maximum observed
    lifetime.  With ``thresholds=(32768,)`` this is byte-for-byte the
    paper's predictor.  Like
    :func:`~repro.core.predictor.train_site_predictor`, this is one
    :func:`~repro.core.predictor.pair_table` fold, then a selection.
    """
    table = pair_table(trace)
    return MultiClassPredictor.from_table(
        table, thresholds, chain_length, size_rounding,
        program=table.program,
    )
