"""The allocator design space: axes of :class:`AllocatorSpec` values.

A :class:`SearchSpace` names, per spec field, the candidate values the
search may combine.  The grid enumerator walks the full cartesian
product in a fixed field order; the evolutionary driver samples, mates,
and mutates *within the same axes*, so every candidate either mode
produces is a validated :class:`~repro.alloc.spec.AllocatorSpec` drawn
from the declared space.  Combinations the spec schema rejects (for
example a ``firstfit`` kind paired with a trained predictor) are
skipped rather than repaired, keeping the space declaration honest;
a space whose every combination is rejected is itself an error.

The space serializes to JSON (``--space FILE``) and hashes canonically,
so a search session records exactly which design space produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Iterator, List, Optional, Tuple

from repro.alloc.arena import DEFAULT_ARENA_SIZE, DEFAULT_NUM_ARENAS
from repro.alloc.spec import AllocatorSpec, SpecError

__all__ = ["SearchSpace", "SearchSpaceError", "DEFAULT_SPACE"]


class SearchSpaceError(ValueError):
    """A search-space document that cannot describe a design space."""


#: (space field, AllocatorSpec field) in enumeration order.
_AXES: Tuple[Tuple[str, str], ...] = (
    ("kinds", "kind"),
    ("num_arenas", "num_arenas"),
    ("arena_sizes", "arena_size"),
    ("thresholds", "threshold"),
    ("size_roundings", "size_rounding"),
    ("chain_lengths", "chain_length"),
    ("class_ladders", "class_thresholds"),
    ("predictors", "predictor"),
    ("strategies", "strategy"),
)


@dataclass(frozen=True)
class SearchSpace:
    """Candidate values per :class:`AllocatorSpec` field."""

    kinds: Tuple[str, ...] = ("arena",)
    num_arenas: Tuple[int, ...] = (8, DEFAULT_NUM_ARENAS, 32)
    arena_sizes: Tuple[int, ...] = (2048, DEFAULT_ARENA_SIZE, 8192)
    thresholds: Tuple[int, ...] = (16384, 32768)
    size_roundings: Tuple[int, ...] = (4,)
    chain_lengths: Tuple[Optional[int], ...] = (None,)
    class_ladders: Tuple[Tuple[int, ...], ...] = ((),)
    predictors: Tuple[str, ...] = ("trained",)
    strategies: Tuple[str, ...] = ("len4",)

    def __post_init__(self):
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if not isinstance(value, tuple):
                try:
                    value = tuple(value)
                except TypeError:
                    raise SearchSpaceError(
                        f"search space {spec_field.name} must be a "
                        f"sequence of candidate values, got "
                        f"{type(value).__name__}"
                    )
                object.__setattr__(self, spec_field.name, value)
        ladders = tuple(
            tuple(ladder) if not isinstance(ladder, tuple) else ladder
            for ladder in self.class_ladders
        )
        object.__setattr__(self, "class_ladders", ladders)
        self.validate()

    def validate(self) -> None:
        """Raise :class:`SearchSpaceError` unless every axis is usable
        and the axes combine into at least one valid spec."""
        for space_field, _ in _AXES:
            values = getattr(self, space_field)
            if not values:
                raise SearchSpaceError(
                    f"search space {space_field} must name at least one "
                    f"candidate value"
                )
            if len(set(values)) != len(values):
                raise SearchSpaceError(
                    f"search space {space_field} repeats a value: "
                    f"{list(values)}"
                )
        if next(self.specs(), None) is None:
            raise SearchSpaceError(
                "search space has no valid spec: the allocator spec "
                "schema rejects every combination of its values"
            )

    # ------------------------------------------------------------------
    # Enumeration and sampling
    # ------------------------------------------------------------------

    def axes(self) -> List[Tuple[str, Tuple]]:
        """``(AllocatorSpec field, candidate values)`` per axis."""
        return [
            (spec_field, getattr(self, space_field))
            for space_field, spec_field in _AXES
        ]

    @property
    def size(self) -> int:
        """The cartesian-product size (an upper bound on valid specs)."""
        total = 1
        for _, values in self.axes():
            total *= len(values)
        return total

    def build(self, **choices) -> Optional[AllocatorSpec]:
        """One spec from per-field choices; None when the schema
        rejects the combination."""
        try:
            return AllocatorSpec(**choices)
        except SpecError:
            return None

    def specs(self) -> Iterator[AllocatorSpec]:
        """Every valid spec in the grid, deduplicated by canonical hash.

        Enumeration order is the fixed axis order with the last axis
        varying fastest, so the grid is reproducible run to run.
        """
        from itertools import product

        axes = self.axes()
        names = [name for name, _ in axes]
        seen = set()
        for combo in product(*(values for _, values in axes)):
            spec = self.build(**dict(zip(names, combo)))
            if spec is None:
                continue
            key = spec.spec_hash()
            if key in seen:
                continue
            seen.add(key)
            yield spec

    def random_spec(self, rng) -> Optional[AllocatorSpec]:
        """One spec sampled uniformly per axis from ``rng`` (a seeded
        :class:`random.Random`); None when the draw is invalid."""
        choices = {
            name: rng.choice(list(values)) for name, values in self.axes()
        }
        return self.build(**choices)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "kinds": list(self.kinds),
            "num_arenas": list(self.num_arenas),
            "arena_sizes": list(self.arena_sizes),
            "thresholds": list(self.thresholds),
            "size_roundings": list(self.size_roundings),
            "chain_lengths": list(self.chain_lengths),
            "class_ladders": [list(ladder) for ladder in self.class_ladders],
            "predictors": list(self.predictors),
            "strategies": list(self.strategies),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpace":
        if not isinstance(data, dict):
            raise SearchSpaceError(
                f"search space document must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SearchSpaceError(
                f"unknown search space field(s) {unknown}; "
                f"expected a subset of {sorted(known)}"
            )
        kwargs = dict(data)
        if "class_ladders" in kwargs:
            try:
                kwargs["class_ladders"] = tuple(
                    tuple(ladder) for ladder in kwargs["class_ladders"]
                )
            except TypeError:
                raise SearchSpaceError(
                    "search space class_ladders must be a list of "
                    "integer lists"
                )
        return cls(**kwargs)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SearchSpace":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SearchSpaceError(f"search space is not valid JSON: {exc}")
        return cls.from_dict(data)

    def space_hash(self) -> str:
        """A short stable digest naming this design space in provenance."""
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]


#: The stock design space ``search run`` explores without ``--space``.
DEFAULT_SPACE = SearchSpace()
