"""Lifetime folds: an in-memory trace and its streamed v3 file agree.

:func:`~repro.runtime.folds.fold_object_lifetimes` folds an in-memory
trace from its object arrays, in object-id order, and a stream from one
:func:`~repro.runtime.stream.protocol.iter_object_records` pass, in free
order.  Every consumer built on it must therefore give the same answer
on both.  The streamed side is a churn trace written at 7 events per
chunk, so every churn object is allocated in one chunk and freed in a
later one, and one keeper object is never freed.
"""

from __future__ import annotations

import pytest

from repro.alloc.spec import BSD_SPEC, FIRSTFIT_SPEC, PAPER_DEFAULT_SPEC
from repro.analysis.simulate import simulate_spec
from repro.core.predictor import (
    actual_short_lived_bytes,
    evaluate,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.runtime.folds import LifetimeFold, fold_object_lifetimes
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from tests.conftest import make_churn_trace

THRESHOLD = 4096


class _RecordFold(LifetimeFold):
    """Collects every record the fold pass delivers, positions included."""

    def __init__(self):
        self.records = []

    def add_object(self, obj_id, chain_id, size, birth, death, touches):
        self.records.append((obj_id, chain_id, size, birth, death, touches))


class _LifetimeRecordFold(LifetimeFold):
    """Collects every ``add`` tuple (the lifetime-only fast path)."""

    def __init__(self):
        self.records = []

    def add(self, chain_id, size, lifetime, touches):
        self.records.append((chain_id, size, lifetime, touches))


@pytest.fixture(scope="module")
def memory_source():
    return make_churn_trace(objects=600)


@pytest.fixture(scope="module")
def streamed_source(memory_source, tmp_path_factory):
    path = tmp_path_factory.mktemp("folds") / "churn.rtr3"
    write_trace_v3(memory_source, path, chunk_events=7)
    source = TraceFileSource(path)
    assert len(source.chunk_index) > 100
    return source


class TestFoldParity:
    def test_records_identical(self, memory_source, streamed_source):
        memory = fold_object_lifetimes(memory_source, _RecordFold())
        streamed = fold_object_lifetimes(streamed_source, _RecordFold())
        assert memory.records == sorted(memory.records)
        assert sorted(streamed.records) == memory.records
        assert len(memory.records) == memory_source.summary.total_objects

    def test_lifetime_tuples_identical(self, memory_source, streamed_source):
        memory = fold_object_lifetimes(memory_source, _LifetimeRecordFold())
        streamed = fold_object_lifetimes(
            streamed_source, _LifetimeRecordFold()
        )
        assert sorted(streamed.records) == sorted(memory.records)

    def test_site_predictor_identical(self, memory_source, streamed_source):
        memory = train_site_predictor(memory_source, threshold=THRESHOLD)
        streamed = train_site_predictor(streamed_source, threshold=THRESHOLD)
        assert memory.sites
        assert streamed.sites == memory.sites
        assert streamed.threshold == memory.threshold
        assert streamed.program == memory.program

    def test_evaluation_identical(self, memory_source, streamed_source):
        predictor = train_site_predictor(memory_source, threshold=THRESHOLD)
        assert evaluate(predictor, streamed_source) == evaluate(
            predictor, memory_source
        )

    def test_size_only_predictor_identical(
        self, memory_source, streamed_source
    ):
        memory = train_size_only_predictor(memory_source,
                                           threshold=THRESHOLD)
        streamed = train_size_only_predictor(streamed_source,
                                             threshold=THRESHOLD)
        assert memory.sizes
        assert streamed.sizes == memory.sizes
        assert evaluate(memory, streamed_source) == evaluate(
            memory, memory_source
        )

    def test_short_bytes_oracle_identical(
        self, memory_source, streamed_source
    ):
        memory = actual_short_lived_bytes(memory_source, THRESHOLD)
        assert memory > 0
        assert actual_short_lived_bytes(streamed_source, THRESHOLD) == memory

    def test_simulations_identical(self, memory_source, streamed_source):
        predictor = train_site_predictor(memory_source, threshold=THRESHOLD)
        for spec in (FIRSTFIT_SPEC, BSD_SPEC):
            assert simulate_spec(streamed_source, spec) == simulate_spec(
                memory_source, spec
            )
        assert simulate_spec(
            streamed_source, PAPER_DEFAULT_SPEC, predictor
        ) == simulate_spec(memory_source, PAPER_DEFAULT_SPEC, predictor)
