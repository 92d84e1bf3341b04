"""Declarative allocator specifications and the construction registry.

The paper fixes one allocator shape — 16 x 4 KB arenas, a 32 KB
short-lived cutoff, size rounding of four — and every consumer used to
re-plumb those numbers through its own constructor arguments.  An
:class:`AllocatorSpec` lifts the whole configuration surface into one
typed, validated, JSON-serializable value:

* **kind** — which simulator (``arena``, ``firstfit``, ``bsd``,
  ``multiarena``);
* **geometry** — ``num_arenas`` x ``arena_size`` for the arena area;
* **prediction** — ``threshold``, ``size_rounding``, ``chain_length``
  (the CCE depth when finite), ``predictor`` resolution mode, and the
  ``class_thresholds`` ladder for the multi-class extension;
* **costing** — the ``strategy`` (``len4``/``cce``) Table 9 prices
  chain identification under.

Specs round-trip through JSON (:meth:`AllocatorSpec.to_json` /
:meth:`AllocatorSpec.from_json`), validate on construction with
actionable errors, and hash canonically (:meth:`AllocatorSpec.spec_hash`)
so result sessions can pin exactly which configuration produced them.
Construction goes through the registry: :func:`build_allocator` looks up
the spec's kind and hands back a ready simulator, which is the single
construction path `analysis`, `bench`, `obs`, and `search` share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Optional, Tuple

from repro.alloc.arena import (
    ARENA_ALIGNMENT,
    DEFAULT_ARENA_SIZE,
    DEFAULT_NUM_ARENAS,
    ArenaAllocator,
)
from repro.alloc.base import Allocator, AllocatorError
from repro.alloc.bsd import BsdAllocator
from repro.alloc.firstfit import FirstFitAllocator
from repro.alloc.multiarena import MultiArenaAllocator

__all__ = [
    "ALLOCATOR_KINDS",
    "PREDICTOR_MODES",
    "STRATEGIES",
    "AllocatorSpec",
    "SpecError",
    "PAPER_DEFAULT_SPEC",
    "FIRSTFIT_SPEC",
    "BSD_SPEC",
    "build_allocator",
    "register_kind",
    "allocator_kinds",
]

#: How a spec's predictor is resolved (by :meth:`TraceStore.predictor_for`):
#: ``trained`` profiles the train execution (true prediction), ``self``
#: profiles the evaluation execution itself, ``static`` derives the
#: escape-analysis predictor from source, ``cce`` trains the encrypted-
#: chain predictor, ``none`` runs without one (everything general-heap).
PREDICTOR_MODES = ("trained", "self", "static", "cce", "none")

#: Chain-identification cost strategies (Table 9's two arena columns).
STRATEGIES = ("len4", "cce")

#: Paper defaults for the prediction parameters, restated here so the
#: spec module does not import :mod:`repro.core` (allocators must stay
#: importable without the predictor layer).
_DEFAULT_THRESHOLD = 32 * 1024
_DEFAULT_SIZE_ROUNDING = 4


class SpecError(ValueError):
    """An allocator spec failed validation or deserialization."""


@dataclass(frozen=True)
class AllocatorSpec:
    """One allocator configuration, declaratively.

    Every field has the paper's default, so ``AllocatorSpec()`` *is* the
    paper's arena allocator.  Validation runs on construction — an
    invalid spec cannot exist — and :func:`dataclasses.replace` re-runs
    it, so mutated copies stay checked.
    """

    kind: str = "arena"
    num_arenas: int = DEFAULT_NUM_ARENAS
    arena_size: int = DEFAULT_ARENA_SIZE
    threshold: int = _DEFAULT_THRESHOLD
    size_rounding: int = _DEFAULT_SIZE_ROUNDING
    #: Sub-chain length the predictor keys on; ``None`` is the full
    #: (cycle-pruned) chain.  Finite values are the CCE depth axis.
    chain_length: Optional[int] = None
    #: Multi-class lifetime ladder; only ``kind="multiarena"`` uses it.
    class_thresholds: Tuple[int, ...] = field(default_factory=tuple)
    predictor: str = "trained"
    strategy: str = "len4"

    def __post_init__(self):
        object.__setattr__(
            self, "class_thresholds", tuple(self.class_thresholds)
        )
        self.validate()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`SpecError` with an actionable message if invalid."""
        if self.kind not in _REGISTRY:
            raise SpecError(
                f"unknown allocator kind {self.kind!r}; "
                f"expected one of {', '.join(allocator_kinds())}"
            )
        self._require_int("num_arenas", self.num_arenas, minimum=1)
        self._require_int(
            "arena_size", self.arena_size, minimum=ARENA_ALIGNMENT
        )
        self._require_int("threshold", self.threshold, minimum=1)
        self._require_int("size_rounding", self.size_rounding, minimum=1)
        if self.chain_length is not None:
            self._require_int("chain_length", self.chain_length, minimum=1)
        if self.predictor not in PREDICTOR_MODES:
            raise SpecError(
                f"unknown predictor mode {self.predictor!r}; "
                f"expected one of {', '.join(PREDICTOR_MODES)}"
            )
        if self.strategy not in STRATEGIES:
            raise SpecError(
                f"unknown cost strategy {self.strategy!r}; "
                f"expected one of {', '.join(STRATEGIES)}"
            )
        for value in self.class_thresholds:
            self._require_int("class_thresholds entry", value, minimum=1)
        ladder = self.class_thresholds
        if ladder and list(ladder) != sorted(set(ladder)):
            raise SpecError(
                f"class_thresholds must be strictly increasing, "
                f"got {ladder}"
            )
        if self.kind == "multiarena":
            if not ladder:
                raise SpecError(
                    "kind 'multiarena' needs a class_thresholds ladder, "
                    "e.g. (32768, 262144); for a single class use "
                    "kind 'arena'"
                )
            if self.predictor not in ("trained", "self"):
                raise SpecError(
                    f"kind 'multiarena' needs a profiled class predictor; "
                    f"set predictor to 'trained' or 'self', "
                    f"not {self.predictor!r}"
                )
        elif ladder:
            raise SpecError(
                f"class_thresholds only applies to kind 'multiarena'; "
                f"drop it from this {self.kind!r} spec"
            )
        if self.kind in ("firstfit", "bsd"):
            if self.predictor != "none":
                raise SpecError(
                    f"kind {self.kind!r} takes no predictor; "
                    f"set predictor='none'"
                )
            if self.strategy != "len4":
                raise SpecError(
                    f"strategy {self.strategy!r} only prices arena chain "
                    f"identification; a {self.kind!r} spec must keep the "
                    f"default 'len4'"
                )

    @staticmethod
    def _require_int(name: str, value, minimum: int) -> None:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SpecError(
                f"{name} must be an integer >= {minimum}, "
                f"got {value!r} ({type(value).__name__})"
            )
        if value < minimum:
            raise SpecError(
                f"{name} must be >= {minimum}, got {value}"
            )

    # ------------------------------------------------------------------
    # Canonical form, hashing, JSON round-trip
    # ------------------------------------------------------------------

    def canonical(self) -> "AllocatorSpec":
        """This spec with fields its kind never reads reset to defaults.

        Two specs that build behaviourally identical allocators hash
        identically: a ``bsd`` spec's arena geometry or threshold can't
        change a single replayed byte, so the canonical form erases it.
        """
        if self.kind in ("firstfit", "bsd"):
            return replace(
                self,
                num_arenas=DEFAULT_NUM_ARENAS,
                arena_size=DEFAULT_ARENA_SIZE,
                threshold=_DEFAULT_THRESHOLD,
                size_rounding=_DEFAULT_SIZE_ROUNDING,
                chain_length=None,
            )
        if self.kind == "multiarena":
            # The area ladder is sized from class_thresholds, not from
            # the single-area geometry fields.
            return replace(
                self,
                num_arenas=DEFAULT_NUM_ARENAS,
                arena_size=DEFAULT_ARENA_SIZE,
                threshold=self.class_thresholds[0],
            )
        return self

    def placement(self) -> "AllocatorSpec":
        """The canonical form with the costing-only ``strategy`` reset.

        ``strategy`` only decides how Table 9 prices chain
        identification from the finished op counts; it never changes
        where an object goes.  Two specs with equal placements therefore
        replay identically, which is what a replay memo keys on.
        """
        return replace(self.canonical(), strategy=STRATEGIES[0])

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict with every field, class ladder as a list."""
        return {
            "kind": self.kind,
            "num_arenas": self.num_arenas,
            "arena_size": self.arena_size,
            "threshold": self.threshold,
            "size_rounding": self.size_rounding,
            "chain_length": self.chain_length,
            "class_thresholds": list(self.class_thresholds),
            "predictor": self.predictor,
            "strategy": self.strategy,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AllocatorSpec":
        """Build and validate a spec from a (possibly partial) dict."""
        if not isinstance(data, dict):
            raise SpecError(
                f"allocator spec must be a JSON object, "
                f"got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown allocator spec field(s) {', '.join(unknown)}; "
                f"expected a subset of {', '.join(sorted(known))}"
            )
        kwargs = dict(data)
        if "class_thresholds" in kwargs:
            ladder = kwargs["class_thresholds"]
            if not isinstance(ladder, (list, tuple)):
                raise SpecError(
                    f"class_thresholds must be a list of integers, "
                    f"got {ladder!r}"
                )
            kwargs["class_thresholds"] = tuple(ladder)
        return cls(**kwargs)

    def to_json(self) -> str:
        """Deterministic JSON (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AllocatorSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"allocator spec is not valid JSON: {exc}")
        return cls.from_dict(data)

    def spec_hash(self) -> str:
        """12-hex-digit digest of the canonical form (provenance key)."""
        payload = json.dumps(
            self.canonical().to_dict(), sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    def describe(self) -> str:
        """A one-line human label (CLI tables, search rankings)."""
        if self.kind in ("firstfit", "bsd"):
            return self.kind
        if self.kind == "multiarena":
            ladder = "/".join(str(t) for t in self.class_thresholds)
            return (
                f"multiarena[{ladder}] x{self.num_arenas} "
                f"pred={self.predictor}"
            )
        chain = "full" if self.chain_length is None else self.chain_length
        return (
            f"arena {self.num_arenas}x{self.arena_size} "
            f"thr={self.threshold} round={self.size_rounding} "
            f"chain={chain} pred={self.predictor} cost={self.strategy}"
        )


# ----------------------------------------------------------------------
# Construction registry
# ----------------------------------------------------------------------

#: kind -> builder(spec, predictor) -> Allocator
AllocatorBuilder = Callable[[AllocatorSpec, Optional[object]], Allocator]

_REGISTRY: Dict[str, AllocatorBuilder] = {}


def register_kind(kind: str):
    """Register a builder for an allocator kind (decorator)."""

    def decorate(builder: AllocatorBuilder) -> AllocatorBuilder:
        _REGISTRY[kind] = builder
        return builder

    return decorate


def allocator_kinds() -> Tuple[str, ...]:
    """Registered kinds in sorted order."""
    return tuple(sorted(_REGISTRY))


def build_allocator(
    spec: AllocatorSpec, predictor: Optional[object] = None
) -> Allocator:
    """Construct the allocator a spec describes.

    ``predictor`` is the *resolved* predictor object (the spec's
    ``predictor`` field only says how a store should resolve one —
    see :meth:`repro.analysis.TraceStore.predictor_for`).  Kinds that
    take no predictor reject one, so a plumbing mistake fails loudly
    instead of silently changing placement.
    """
    builder = _REGISTRY.get(spec.kind)
    if builder is None:
        raise SpecError(
            f"unknown allocator kind {spec.kind!r}; "
            f"expected one of {', '.join(allocator_kinds())}"
        )
    return builder(spec, predictor)


@register_kind("arena")
def _build_arena(
    spec: AllocatorSpec, predictor: Optional[object]
) -> ArenaAllocator:
    return ArenaAllocator(
        predictor, num_arenas=spec.num_arenas, arena_size=spec.arena_size
    )


@register_kind("firstfit")
def _build_firstfit(
    spec: AllocatorSpec, predictor: Optional[object]
) -> FirstFitAllocator:
    if predictor is not None:
        raise SpecError(
            "kind 'firstfit' takes no predictor; build it with "
            "predictor=None"
        )
    return FirstFitAllocator()


@register_kind("bsd")
def _build_bsd(
    spec: AllocatorSpec, predictor: Optional[object]
) -> BsdAllocator:
    if predictor is not None:
        raise SpecError(
            "kind 'bsd' takes no predictor; build it with predictor=None"
        )
    return BsdAllocator()


@register_kind("multiarena")
def _build_multiarena(
    spec: AllocatorSpec, predictor: Optional[object]
) -> MultiArenaAllocator:
    thresholds = getattr(predictor, "thresholds", None)
    if thresholds is None:
        raise SpecError(
            "kind 'multiarena' needs a MultiClassPredictor (an object "
            "with a thresholds ladder); train one with "
            "train_multiclass_predictor and pass it as predictor="
        )
    if tuple(thresholds) != spec.class_thresholds:
        raise SpecError(
            f"predictor ladder {tuple(thresholds)} does not match the "
            f"spec's class_thresholds {spec.class_thresholds}; train the "
            f"predictor with the spec's ladder"
        )
    try:
        return MultiArenaAllocator(predictor)
    except AllocatorError as exc:
        raise SpecError(str(exc))


#: The registered kinds, frozen at import (CLI choices lists).
ALLOCATOR_KINDS = allocator_kinds()

#: The paper's configuration (§5.2): 16 x 4 KB arenas, 32 KB cutoff,
#: size rounding 4, full-chain true prediction, len4 chain costing.
PAPER_DEFAULT_SPEC = AllocatorSpec()

#: The two baseline allocators as specs.
FIRSTFIT_SPEC = AllocatorSpec(kind="firstfit", predictor="none")
BSD_SPEC = AllocatorSpec(kind="bsd", predictor="none")
