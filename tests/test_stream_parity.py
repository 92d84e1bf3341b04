"""End-to-end parity: converted v3 streams reproduce the tables exactly.

The acceptance test for the streaming refactor (DESIGN.md §10): every
workload is traced once, saved as a v3 file, rewritten disk to disk by
``convert_trace``, and then replayed through a
``TraceStore(streaming=True)``.  Tables 4, 7, and 8 rendered from the
streamed files must be *byte-identical* to the materialized path, and the
trained predictor databases must serialize to identical bytes.

One module-scoped fixture runs the five workloads (train + test datasets)
at scale 0.05; everything downstream reuses those runs via the shared
cache directory.
"""

from __future__ import annotations

import pytest

from repro.analysis import report
from repro.analysis.experiments import TraceStore
from repro.analysis.tables import table4, table7, table8
from repro.analysis.trace_cache import TraceCache
from repro.core.database import save_predictor
from repro.obs.metrics import Metrics
from repro.runtime.stream import TraceFileSource
from repro.runtime.tracefile import convert_trace, save_trace
from repro.workloads.registry import PROGRAM_ORDER

SCALE = 0.05


@pytest.fixture(scope="module")
def stores(tmp_path_factory):
    """(materialized store, streaming store) over one shared cache.

    The streaming store's cache entries are produced by the converter
    rather than written natively, so this fixture exercises the whole
    path: trace -> v3 file -> convert -> v3 file -> stream.
    """
    root = tmp_path_factory.mktemp("stream-parity")
    cache_dir = root / "cache"
    materialized = TraceStore(scale=SCALE, cache_dir=cache_dir)
    cache = TraceCache(cache_dir, metrics=Metrics())
    for program, dataset in materialized.warm_pairs():
        trace = materialized.trace(program, dataset)
        saved = root / f"{program}-{dataset}.rtr3"
        save_trace(trace, saved)
        entry = cache.entry_path(program, dataset, SCALE)
        entry.parent.mkdir(parents=True, exist_ok=True)
        convert_trace(saved, entry)
    streaming = TraceStore(scale=SCALE, cache_dir=cache_dir, streaming=True)
    return materialized, streaming


def test_streaming_store_replays_files_not_memory(stores):
    _, streaming = stores
    assert isinstance(streaming.source("gawk"), TraceFileSource)


def test_tables_4_7_8_are_byte_identical(stores):
    materialized, streaming = stores
    renderers = (
        (table4, report.render_table4),
        (table7, report.render_table7),
        (table8, report.render_table8),
    )
    for build, render in renderers:
        assert render(build(streaming)) == render(build(materialized))


def test_predictor_databases_are_byte_identical(stores, tmp_path):
    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        mat_path = tmp_path / f"{program}-materialized.db"
        str_path = tmp_path / f"{program}-streamed.db"
        save_predictor(materialized.predictor(program), mat_path)
        save_predictor(streaming.predictor(program), str_path)
        assert str_path.read_bytes() == mat_path.read_bytes(), program


def test_cce_predictors_agree(stores):
    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        assert (
            streaming.cce_predictor(program).keys
            == materialized.cce_predictor(program).keys
        ), program


def test_windows_and_drift_are_byte_identical_across_replay_modes(stores):
    """The five-workload ``windows`` parity gate (ISSUE 8 acceptance).

    The windowed time-series document and the drift report derived from
    it — serialized exactly as their JSON exports write them — must be
    byte-identical whether the fold consumed the materialized trace or
    the v3 stream.  Window boundaries come from the trace header (bytes
    axis) so the partition is identical by construction; what this gate
    proves is that the per-window tallies and per-site scores survive
    the stream's free-order delivery.
    """
    import json

    from repro.obs.drift import drift_report
    from repro.obs.windows import window_profile

    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        predictor = materialized.predictor(program)
        docs = []
        for store in (materialized, streaming):
            profile = window_profile(
                store.source(program, "test"),
                windows=8,
                predictor=predictor,
            )
            docs.append(json.dumps(
                {
                    "windows": profile.to_dict(),
                    "drift": drift_report(profile),
                },
                indent=2,
                sort_keys=True,
            ))
        assert docs[0] == docs[1], program


def test_events_axis_windows_are_byte_identical(stores):
    """The events axis needs a prepass over the stream to place window
    boundaries, so it exercises re-iterability of every source kind; the
    resulting document must still be mode-independent.  One workload
    suffices — the bytes-axis gate above covers all five.
    """
    import json

    from repro.obs.windows import window_profile

    materialized, streaming = stores
    docs = [
        json.dumps(
            window_profile(
                store.source("gawk", "test"), windows=8, by="events"
            ).to_dict(),
            indent=2,
            sort_keys=True,
        )
        for store in (materialized, streaming)
    ]
    assert docs[0] == docs[1]


def test_attribution_is_byte_identical_across_replay_modes(stores):
    """The five-workload ``profile-sites`` parity gate (ISSUE 7).

    The attribution document — serialized exactly as the JSON export
    writes it — must be byte-identical whether the fold consumed the
    materialized trace or the v3 stream.  The predictor comes from the
    materialized store on both paths so the only variable is the event
    pipeline.
    """
    import json

    from repro.obs.attrib import attribute_sites

    materialized, streaming = stores
    for program in PROGRAM_ORDER:
        predictor = materialized.predictor(program)
        docs = [
            json.dumps(
                attribute_sites(
                    store.source(program, "test"),
                    profile="arena",
                    predictor=predictor,
                ).to_dict(),
                indent=2,
                sort_keys=True,
            )
            for store in (materialized, streaming)
        ]
        assert docs[0] == docs[1], program
