"""Shared benchmark fixtures and the session's observability hooks.

All table benchmarks share one :class:`~repro.analysis.TraceStore` at full
scale (override with ``REPRO_BENCH_SCALE``), so the five workloads run
their train and test inputs once per session.  The store sits on the
persistent on-disk trace cache (``$REPRO_CACHE_DIR`` or
``~/.cache/repro-alloc``; set ``REPRO_NO_CACHE`` to opt out), so traces
survive *across* benchmark sessions — a re-run loads every trace in
milliseconds instead of re-tracing the workloads.

Each benchmark writes its rendered table to ``results/`` so the
regenerated rows can be compared with the paper's (see EXPERIMENTS.md).

Cross-run observability hooks, all environment-gated:

* a cache summary and a provenance-stamped ``results/metrics.json``
  (git SHA, scale, python and schema versions + the full
  :data:`~repro.obs.METRICS` registry) print/write at session end,
  unconditionally;
* ``REPRO_SPANS_OUT=<path>`` enables the pipeline span tracer for the
  whole session and exports Chrome trace-event JSON there at the end;
* ``REPRO_BENCH_RECORD=1`` appends a ``BENCH_<seq>.json`` session to the
  benchmark trajectory (``$REPRO_BENCH_DIR`` or ``results/bench``) from
  the session's shared store — see ``repro-alloc bench``.
"""

from __future__ import annotations

import json
import math
import os
import pathlib

import pytest

from repro.analysis import TraceStore
from repro.bench import BenchStore, run_session
from repro.bench.provenance import collect_provenance
from repro.obs.metrics import METRICS
from repro.obs.spans import TRACER, write_chrome_trace

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"

SCALE_ENV = "REPRO_BENCH_SCALE"
RECORD_ENV = "REPRO_BENCH_RECORD"
SPANS_ENV = "REPRO_SPANS_OUT"

#: The session store, stashed so ``pytest_terminal_summary`` can reuse the
#: already-loaded traces when ``REPRO_BENCH_RECORD`` asks for a record.
_SESSION_STORE = None


def bench_scale() -> float:
    """The validated ``REPRO_BENCH_SCALE`` (default 1.0).

    A junk value used to surface as a bare ``ValueError`` traceback from
    ``float()`` deep inside the store fixture; fail instead with a
    message that names the variable.
    """
    raw = os.environ.get(SCALE_ENV, "1.0")
    try:
        scale = float(raw)
    except ValueError:
        raise pytest.UsageError(
            f"{SCALE_ENV} must be a number (workload scale factor), "
            f"got {raw!r}"
        )
    if not math.isfinite(scale) or scale <= 0:
        raise pytest.UsageError(
            f"{SCALE_ENV} must be a finite number > 0, got {raw!r}"
        )
    return scale


def pytest_configure(config) -> None:
    """Fail fast on a bad scale; arm the span tracer when asked to."""
    bench_scale()
    if os.environ.get(SPANS_ENV):
        TRACER.enable()


@pytest.fixture(scope="session")
def store() -> TraceStore:
    global _SESSION_STORE
    _SESSION_STORE = TraceStore(scale=bench_scale())
    return _SESSION_STORE


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def write_result(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Store one experiment's rendered output under results/."""
    (results_dir / name).write_text(text + "\n", encoding="utf-8")


def write_metrics_json(path: pathlib.Path) -> None:
    """Dump the metrics registry plus provenance as ``metrics.json``.

    The provenance block (git SHA, scale, python and schema versions)
    makes sessions comparable across machines and commits — a metrics
    file that can't say what it measured is not evidence.
    """
    payload = {
        "provenance": collect_provenance(scale=bench_scale()),
        **METRICS.to_dict(),
    }
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def pytest_terminal_summary(terminalreporter) -> None:
    """Session-end reporting: cache summary, metrics dump, bench record.

    Everything here is glue over tested components; the dump itself is
    covered by tests/test_bench_conftest.py.
    """
    hits = METRICS.counter("trace_cache.hit")
    misses = METRICS.counter("trace_cache.miss")
    if hits or misses:
        terminalreporter.write_line(
            f"trace cache: {hits} hits, {misses} misses"
        )
    if METRICS.counters:
        RESULTS_DIR.mkdir(exist_ok=True)
        metrics_path = RESULTS_DIR / "metrics.json"
        write_metrics_json(metrics_path)
        terminalreporter.write_line(f"pipeline metrics -> {metrics_path}")
    if os.environ.get(RECORD_ENV) and _SESSION_STORE is not None:
        try:
            bench_store = BenchStore()
            session = run_session(_SESSION_STORE, seq=bench_store.next_seq())
            path = bench_store.write(session)
            terminalreporter.write_line(
                f"bench record ({len(session.records)} benchmarks) -> {path}"
            )
        except Exception as exc:  # a failed record must not fail the run
            terminalreporter.write_line(f"bench record failed: {exc}")
    spans_out = os.environ.get(SPANS_ENV)
    if spans_out and TRACER.enabled:
        path = write_chrome_trace(TRACER, spans_out,
                                  process_name="repro-benchmarks")
        terminalreporter.write_line(f"span trace -> {path}")
