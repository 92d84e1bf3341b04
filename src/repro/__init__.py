"""repro: lifetime-predicting memory allocation (Barrett & Zorn, PLDI 1993).

A complete reproduction of *Using Lifetime Predictors to Improve Memory
Allocation Performance*: profile a program's allocation behaviour, learn
which allocation sites produce only short-lived objects, and serve those
sites from Hanson-style bump-pointer arenas in front of a general-purpose
heap.

Quick tour::

    from repro import (
        PAPER_DEFAULT_SPEC, evaluate, simulate_spec, train_site_predictor,
    )
    from repro.workloads.registry import run_workload

    train = run_workload("gawk", "train")       # profile a training input
    predictor = train_site_predictor(train)     # learn short-lived sites
    test = run_workload("gawk", "test")         # a different input
    print(evaluate(predictor, test).predicted_pct)  # Table 4's number
    result = simulate_spec(test, PAPER_DEFAULT_SPEC, predictor)  # Tables 7-9
    print(result.arena_byte_pct, result.max_heap_size)

Packages:

* :mod:`repro.core` — sites, profiles, predictors, P^2 quantiles, CCE.
* :mod:`repro.runtime` — the traced allocation runtime and trace files.
* :mod:`repro.alloc` — first-fit, BSD, and arena allocator simulators
  plus the instruction-cost model.
* :mod:`repro.workloads` — the five traced programs (cfrac, espresso,
  gawk, ghost, perl).
* :mod:`repro.analysis` — trace-driven simulation and the paper's tables.
"""

from repro.alloc import (
    BSD_SPEC,
    FIRSTFIT_SPEC,
    PAPER_DEFAULT_SPEC,
    AllocatorSpec,
    ArenaAllocator,
    BsdAllocator,
    FirstFitAllocator,
    arena_cost,
    bsd_cost,
    firstfit_cost,
)
from repro.analysis import TraceStore, simulate_spec
from repro.core import (
    DEFAULT_THRESHOLD,
    AllocationSite,
    CCEPredictor,
    P2Histogram,
    P2Quantile,
    SitePredictor,
    SizeOnlyPredictor,
    build_profile,
    evaluate,
    load_predictor,
    save_predictor,
    train_cce_predictor,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.runtime import HeapObject, Trace, TracedHeap, load_trace, save_trace

__version__ = "1.0.0"

__all__ = [
    "BSD_SPEC",
    "FIRSTFIT_SPEC",
    "PAPER_DEFAULT_SPEC",
    "AllocatorSpec",
    "ArenaAllocator",
    "BsdAllocator",
    "FirstFitAllocator",
    "arena_cost",
    "bsd_cost",
    "firstfit_cost",
    "TraceStore",
    "simulate_spec",
    "DEFAULT_THRESHOLD",
    "AllocationSite",
    "CCEPredictor",
    "P2Histogram",
    "P2Quantile",
    "SitePredictor",
    "SizeOnlyPredictor",
    "build_profile",
    "evaluate",
    "load_predictor",
    "save_predictor",
    "train_cce_predictor",
    "train_site_predictor",
    "train_size_only_predictor",
    "HeapObject",
    "Trace",
    "TracedHeap",
    "load_trace",
    "save_trace",
    "__version__",
]
