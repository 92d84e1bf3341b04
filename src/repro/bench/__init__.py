"""Benchmark trajectory: recorded simulated cost and the regression gate.

``repro.bench`` records the simulated cost of every allocator replay as
a comparable history:

* :mod:`repro.bench.suite` runs the benchmark suite (one
  telemetry-instrumented allocator replay per benchmark over the shared
  trace store);
* :mod:`repro.bench.record` defines the schema-versioned per-benchmark
  records and sessions;
* :mod:`repro.bench.store` appends sessions to the ``BENCH_<seq>.json``
  trajectory (default ``results/bench``);
* :mod:`repro.bench.provenance` stamps every artifact with git SHA,
  scale, python version, and schema version.

Surfaced as ``repro-alloc bench run / compare / history`` and wired into
the benchmark pytest session (``REPRO_BENCH_RECORD=1``) and CI; the
regression gate is :func:`repro.obs.diff.bench_gate`, a comparator preset.
"""

from repro.bench.provenance import (
    BENCH_SCHEMA_VERSION,
    collect_provenance,
    git_sha,
)
from repro.bench.record import BenchRecord, BenchSession
from repro.bench.store import BENCH_DIR_ENV, BenchStore, default_bench_dir
from repro.bench.suite import BENCH_ALLOCATORS, run_session, run_suite

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_ALLOCATORS",
    "BENCH_DIR_ENV",
    "BenchRecord",
    "BenchSession",
    "BenchStore",
    "collect_provenance",
    "default_bench_dir",
    "git_sha",
    "run_session",
    "run_suite",
]
