"""Experiment drivers: trace-driven simulation and the paper's tables."""

from repro.analysis.experiments import (
    EVAL_DATASET,
    TRAIN_DATASET,
    TraceStore,
    WarmResult,
)
from repro.analysis.trace_cache import TraceCache, default_cache_dir
from repro.analysis.locality import (
    LocalityResult,
    compare_locality,
    measure_locality,
    prefragment,
)
from repro.analysis.simulate import (
    SimulationResult,
    replay,
    simulate_spec,
)
from repro.analysis.compare import ProfileDiff, diff_traces, render_diff
from repro.analysis.oracle import simulate_arena_oracle
from repro.analysis.survival import SurvivalCurve, survival_curve
from repro.analysis.tables import (
    TABLE6_LENGTHS,
    Table1Row,
    table1,
    Table2Row,
    Table3Row,
    Table4Row,
    Table5Row,
    Table6Row,
    Table7Row,
    Table8Row,
    Table9Row,
    short_lived_fraction,
    table2,
    table3,
    table4,
    table5,
    table6,
    table7,
    table8,
    table9,
)

__all__ = [
    "EVAL_DATASET",
    "TRAIN_DATASET",
    "TraceStore",
    "WarmResult",
    "TraceCache",
    "default_cache_dir",
    "LocalityResult",
    "compare_locality",
    "measure_locality",
    "prefragment",
    "SimulationResult",
    "replay",
    "simulate_spec",
    "ProfileDiff",
    "diff_traces",
    "render_diff",
    "simulate_arena_oracle",
    "SurvivalCurve",
    "survival_curve",
    "TABLE6_LENGTHS",
    "Table1Row",
    "table1",
    "Table2Row", "Table3Row", "Table4Row", "Table5Row", "Table6Row",
    "Table7Row", "Table8Row", "Table9Row",
    "short_lived_fraction",
    "table2", "table3", "table4", "table5", "table6", "table7",
    "table8", "table9",
]
