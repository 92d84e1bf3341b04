"""Design-space search over declarative allocator specs.

The paper reports one hand-picked arena configuration (16 x 4 KB
arenas, 32 KB cutoff); this package asks the question the authors
could not afford to: *which* configuration wins on a given workload?
A :class:`~repro.search.space.SearchSpace` declares the candidate
axes, the grid enumerator or the seeded evolutionary driver generates
validated :class:`~repro.alloc.spec.AllocatorSpec` candidates, each is
replayed and attributed through the store's (optionally streamed)
event pipeline, and the :class:`~repro.search.objective.Objective`
scores it against the paper-default baseline.  Ranked sessions land in
``results/search/SEARCH_<seq>.json`` with full provenance and no
wall-clock noise, so the same search replays byte-identically —
materialized or ``--stream`` — and ``diff-sessions`` can gate one run
against another.

Exposed on the CLI as ``repro-alloc search run/show/best``.
"""

from repro.search.evolve import (
    DEFAULT_GENERATIONS,
    DEFAULT_POPULATION,
    crossover,
    evolve,
    mutate,
)
from repro.search.objective import (
    DEFAULT_OBJECTIVE,
    CandidateMetrics,
    Objective,
    ObjectiveError,
)
from repro.search.results import (
    SEARCH_DIR_ENV,
    SEARCH_SCHEMA_VERSION,
    SearchFormatError,
    SearchSession,
    SearchStore,
    default_search_dir,
    render_best,
    render_session,
    search_provenance,
)
from repro.search.service import (
    SEARCH_MODES,
    SearchError,
    evaluate_spec,
    run_search,
)
from repro.search.space import DEFAULT_SPACE, SearchSpace, SearchSpaceError

__all__ = [
    "CandidateMetrics",
    "DEFAULT_GENERATIONS",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_POPULATION",
    "DEFAULT_SPACE",
    "Objective",
    "ObjectiveError",
    "SEARCH_DIR_ENV",
    "SEARCH_MODES",
    "SEARCH_SCHEMA_VERSION",
    "SearchError",
    "SearchFormatError",
    "SearchSession",
    "SearchSpace",
    "SearchSpaceError",
    "SearchStore",
    "crossover",
    "default_search_dir",
    "evaluate_spec",
    "evolve",
    "mutate",
    "render_best",
    "render_session",
    "run_search",
    "search_provenance",
]
