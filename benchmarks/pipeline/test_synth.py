"""The synthetic generator is a pure function of its seed.

Run with ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.
"""

from repro.analysis.trace_cache import TraceCache
from repro.core.predictor import evaluate, train_site_predictor

import synth

OBJECTS = 1500


def _bytes(paths):
    return [path.read_bytes() for path in paths]


def test_same_seed_writes_identical_files(tmp_path):
    first = synth.write(7, tmp_path / "a", OBJECTS)
    again = synth.write(7, tmp_path / "b", OBJECTS)
    assert _bytes(first) == _bytes(again)


def test_other_seed_writes_other_files(tmp_path):
    first = synth.write(7, tmp_path / "a", OBJECTS)
    other = synth.write(8, tmp_path / "b", OBJECTS)
    for mine, theirs in zip(_bytes(first), _bytes(other)):
        assert mine != theirs


def test_test_stream_reuses_train_sites_but_few_keys(tmp_path):
    synth.write(3, tmp_path, OBJECTS)
    cache = TraceCache(tmp_path)
    train = cache.open_stream("synthetic", "train", synth.SCALE)
    test = cache.open_stream("synthetic", "test", synth.SCALE)
    score = evaluate(train_site_predictor(train), test)
    assert score.predicted_pct > 20
    assert score.total_sites / test.summary.total_objects > 0.3
