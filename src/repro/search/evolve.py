"""Seeded evolutionary driver over the allocator design space.

For spaces too big to enumerate, evolution walks them guided by the
objective: seed a population of random (valid) specs, keep the
better-scoring half, and refill with children made by field-wise
crossover of two elites plus an occasional single-axis mutation —
always within the :class:`~repro.search.space.SearchSpace` axes, always
revalidated by the spec schema.

Everything random flows through one ``random.Random(seed)`` instance
and every ranking tie-breaks on the canonical spec hash, so a given
(seed, space, workload) triple replays to the identical candidate set
and ranking — byte-identical sessions, materialized or streamed.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

from repro.alloc.spec import AllocatorSpec
from repro.search.space import SearchSpace

__all__ = ["evolve", "crossover", "mutate", "DEFAULT_GENERATIONS",
           "DEFAULT_POPULATION"]

DEFAULT_GENERATIONS = 4
DEFAULT_POPULATION = 8

#: Chance a crossover child is additionally mutated on one axis.
_MUTATION_RATE = 0.5

#: Sampling attempts per needed spec before giving up on a space whose
#: valid region is tiny (e.g. every combination schema-rejected).
_ATTEMPTS_PER_SLOT = 20


def crossover(left: AllocatorSpec, right: AllocatorSpec, rng: random.Random,
              space: SearchSpace) -> Optional[AllocatorSpec]:
    """A child taking each axis from one parent by coin flip; None when
    the combination fails spec validation."""
    choices = {}
    for name, _ in space.axes():
        parent = left if rng.random() < 0.5 else right
        choices[name] = getattr(parent, name)
    return space.build(**choices)


def mutate(spec: AllocatorSpec, rng: random.Random,
           space: SearchSpace) -> Optional[AllocatorSpec]:
    """``spec`` with one axis reassigned to a different value from the
    space; None when no axis has an alternative or the result is
    invalid."""
    mutable = [
        (name, [value for value in values if value != getattr(spec, name)])
        for name, values in space.axes()
        if len(values) > 1
    ]
    mutable = [(name, alternatives) for name, alternatives in mutable
               if alternatives]
    if not mutable:
        return None
    name, alternatives = rng.choice(mutable)
    choices = {axis: getattr(spec, axis) for axis, _ in space.axes()}
    choices[name] = rng.choice(alternatives)
    return space.build(**choices)


def evolve(
    space: SearchSpace,
    evaluate: Callable[[AllocatorSpec], float],
    seed: int = 0,
    generations: int = DEFAULT_GENERATIONS,
    population: int = DEFAULT_POPULATION,
) -> List[Tuple[AllocatorSpec, float]]:
    """Run the evolutionary search; returns every evaluated (spec, score)
    in evaluation order.

    ``evaluate`` maps a spec to its objective score (lower is better)
    and is called exactly once per distinct canonical spec — memoize
    there if evaluation is expensive.
    """
    rng = random.Random(seed)
    seen = set()
    evaluated: List[Tuple[AllocatorSpec, float]] = []

    def admit(spec: Optional[AllocatorSpec]) -> Optional[
            Tuple[AllocatorSpec, float]]:
        if spec is None:
            return None
        key = spec.spec_hash()
        if key in seen:
            return None
        seen.add(key)
        member = (spec, evaluate(spec))
        evaluated.append(member)
        return member

    members: List[Tuple[AllocatorSpec, float]] = []
    attempts = population * _ATTEMPTS_PER_SLOT
    while len(members) < population and attempts > 0:
        attempts -= 1
        member = admit(space.random_spec(rng))
        if member is not None:
            members.append(member)

    for _ in range(generations):
        if len(members) < 2:
            break
        members.sort(key=lambda member: (member[1], member[0].spec_hash()))
        elites = members[: max(2, len(members) // 2)]
        children: List[Tuple[AllocatorSpec, float]] = []
        wanted = population - len(elites)
        attempts = max(wanted, 1) * _ATTEMPTS_PER_SLOT
        while len(children) < wanted and attempts > 0:
            attempts -= 1
            left = rng.choice(elites)[0]
            right = rng.choice(elites)[0]
            child = crossover(left, right, rng, space)
            if child is not None and rng.random() < _MUTATION_RATE:
                child = mutate(child, rng, space) or child
            member = admit(child)
            if member is not None:
                children.append(member)
        members = elites + children

    return evaluated
