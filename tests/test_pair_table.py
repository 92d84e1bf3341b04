"""The pair table against the per-object folds it replaced.

Every order-independent consumer reads one
:class:`~repro.runtime.folds.PairTable` per execution and threshold
instead of visiting objects one by one.  The references here are the
per-object loops those consumers ran before: the evaluation fold
(integer sums, key-set unions, one verdict per pair), the attribution
fold's ``add``, the per-size AND of size-only training, the per-key AND
of CCE training, the oracle byte sum and the all-short-lived site rule.  Over generated well-formed
streams (the strategy of ``tests/test_replay_core.py``, with a random
site predictor and a random size-only one) and one real program at a
small scale, at two thresholds, each consumer must equal its reference
field for field, on the materialized trace and on its streamed v3 file.
A :class:`~repro.analysis.experiments.TraceStore`'s ``evaluate`` and
``attribution`` must equal the free functions.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.bsd import bucket_for
from repro.alloc.costs import DEFAULT_COST_MODEL
from repro.alloc.firstfit import ALIGNMENT, HEADER_SIZE
from repro.alloc.spec import BSD_SPEC, PAPER_DEFAULT_SPEC, AllocatorSpec
from repro.analysis.experiments import TraceStore
from repro.core.cce import CCEPredictor, encrypt_chain, train_cce_predictor
from repro.core.multiclass import train_multiclass_predictor
from repro.core.predictor import (
    PredictionEvaluation,
    SitePredictor,
    SizeOnlyPredictor,
    actual_short_lived_bytes,
    evaluate,
    evaluate_table,
    pair_table,
    train_site_predictor,
    train_size_only_predictor,
)
from repro.core.sites import FULL_CHAIN, round_size, site_key
from repro.obs.attrib import SiteAttribution, attribute_sites
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    build_trace,
    iter_object_lifetimes,
)
from repro.runtime.stream.v3 import TraceFileSource, write_trace_v3
from tests.conftest import ListSource
from tests.test_replay_core import _site_predictor, streams

THRESHOLDS = (4096, 32768)
#: (chain length, size rounding) levels site selection is checked at.
LEVELS = ((FULL_CHAIN, 4), (1, 1), (3, 4))
LADDER = (4096, 32768, 262144)
PROFILES = ("bsd", "firstfit", "arena")


# ----------------------------------------------------------------------
# The per-object references
# ----------------------------------------------------------------------

class _Objects:
    """One execution's header, footer and per-object
    ``(chain id, size, lifetime, touches)`` records."""

    def __init__(self, source):
        self.header = source.header
        self.summary = source.summary
        self.records = list(iter_object_lifetimes(source))


def _reference_evaluate(predictor, objects, count_matched_sites):
    """The evaluation fold: per-object sums, one verdict per pair."""
    header = objects.header
    threshold = predictor.threshold
    total = actual = predicted = error = count = refs = 0
    test_keys, matched_keys, hits = set(), set(), {}
    for chain_id, size, lifetime, touches in objects.records:
        total += size
        short = lifetime < threshold
        if short:
            actual += size
        hit = hits.get((chain_id, size))
        if hit is None:
            chain = header.chains.chain(chain_id)
            if isinstance(predictor, SitePredictor):
                key = predictor.key_for(chain, size)
                matched = (key,) if key in predictor.sites else ()
            else:
                key = predictor.key_for(chain, size)
                matched = (
                    (key,) if predictor.predicts_short_lived(chain, size)
                    else ()
                )
            test_keys.add(key)
            matched_keys.update(matched)
            hit = hits[chain_id, size] = bool(matched)
        if hit:
            count += 1
            refs += touches
            if short:
                predicted += size
            else:
                error += size
    return PredictionEvaluation(
        program=header.program,
        dataset=header.dataset,
        threshold=threshold,
        total_sites=len(test_keys),
        sites_used=(
            len(matched_keys) if count_matched_sites
            else predictor.site_count
        ),
        total_bytes=total,
        actual_short_bytes=actual,
        predicted_short_bytes=predicted,
        error_bytes=error,
        predicted_objects=count,
        total_heap_refs=objects.summary.heap_refs,
        predicted_heap_refs=refs,
    )


def _padding(profile, size):
    if profile == "bsd":
        return (1 << bucket_for(size)) - size
    aligned = ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT
    return aligned + HEADER_SIZE - size


def _reference_attribution(objects, profile, predictor, threshold):
    """The attribution fold's per-object ``add``, site by site."""
    model = DEFAULT_COST_MODEL
    chain_of = objects.header.chains.chain
    sites = {}
    for chain_id, size, lifetime, touches in objects.records:
        site = sites.setdefault(chain_id, SiteAttribution())
        short = lifetime < threshold
        site.objects += 1
        site.bytes += size
        site.touches += touches
        site.occupancy_byte_time += size * lifetime
        if short:
            site.short_objects += 1
            site.short_bytes += size
        if profile == "bsd":
            alloc, free = model.bsd_alloc_base, model.bsd_free
            frag = _padding(profile, size)
        elif profile == "firstfit":
            alloc, free = model.ff_alloc_base, model.ff_free_base
            frag = _padding(profile, size)
        elif predictor is not None and predictor.predicts_short_lived(
            chain_of(chain_id), size
        ):
            site.predicted_objects += 1
            alloc = model.predict + model.arena_bump
            free = model.arena_free
            frag = 0
            if not short:
                site.late_free += 1
                site.late_free_byte_time += size * (lifetime - threshold)
        else:
            alloc = model.predict + model.ff_alloc_base
            free = model.ff_free_base
            frag = _padding(profile, size)
            if short:
                site.missed_short += 1
                site.missed_short_bytes += size
        site.alloc_instr += alloc
        site.free_instr += free
        site.frag_bytes += frag
        site.frag_byte_time += frag * lifetime
    return {chain_of(chain_id): site for chain_id, site in sites.items()}


def _reference_site_maxima(objects, length, rounding):
    """Each site key's max lifetime, object by object, at one level."""
    chain_of = objects.header.chains.chain
    maxima = {}
    for chain_id, size, lifetime, _ in objects.records:
        key = site_key(chain_of(chain_id), size, length, rounding)
        maxima[key] = max(maxima.get(key, lifetime), lifetime)
    return maxima


def _reference_sites(objects, threshold, length, rounding):
    """The all-short-lived rule, at one level."""
    maxima = _reference_site_maxima(objects, length, rounding)
    return frozenset(k for k, life in maxima.items() if life < threshold)


def _reference_sizes(objects, threshold):
    """Size-only training's per-size AND of shortness."""
    short = {}
    for _, size, lifetime, _ in objects.records:
        short[size] = short.get(size, True) and lifetime < threshold
    return frozenset(size for size, ok in short.items() if ok)


def _reference_cce(objects, threshold, rounding):
    """CCE training's per-(CCE key, rounded size) AND of shortness."""
    chain_of = objects.header.chains.chain
    short = {}
    for chain_id, size, lifetime, _ in objects.records:
        key = (encrypt_chain(chain_of(chain_id)), round_size(size, rounding))
        short[key] = short.get(key, True) and lifetime < threshold
    return frozenset(key for key, ok in short.items() if ok)


def _reference_short_bytes(objects, threshold):
    """The oracle: bytes of the objects that died under ``threshold``."""
    return sum(
        size for _, size, lifetime, _ in objects.records
        if lifetime < threshold
    )


def _reference_classes(objects, length, rounding):
    maxima = _reference_site_maxima(objects, length, rounding)
    return {
        key: next(k for k, bound in enumerate(LADDER) if life < bound)
        for key, life in maxima.items() if life < LADDER[-1]
    }


# ----------------------------------------------------------------------
# One check of every consumer against its reference
# ----------------------------------------------------------------------

def _check_consumers(traces, site, sizes, boundary):
    """``traces`` are one execution, materialized and streamed;
    ``site`` and ``sizes`` are a site and a size-only predictor;
    ``boundary`` is a threshold some object's lifetime equals."""
    objects = _Objects(traces[-1])
    for threshold in THRESHOLDS + (boundary,):
        site_at = SitePredictor(site.sites, threshold, site.chain_length,
                                site.size_rounding)
        sizes_at = SizeOnlyPredictor(sizes.sizes, threshold)
        for trace in traces:
            label = (threshold, type(trace).__name__)
            for predictor in (site_at, sizes_at):
                for flag in (True, False):
                    assert evaluate(predictor, trace, flag) == (
                        _reference_evaluate(predictor, objects, flag)
                    ), label
            assert actual_short_lived_bytes(trace, threshold) == (
                _reference_short_bytes(objects, threshold)
            ), label
            assert train_size_only_predictor(trace, threshold).sizes == (
                _reference_sizes(objects, threshold)
            ), label
            for rounding in (1, 4):
                reference = _reference_cce(objects, threshold, rounding)
                assert train_cce_predictor(
                    trace, threshold, rounding
                ).keys == reference, (label, rounding)
                # Selection reads only max lifetimes, so a table folded
                # at another threshold selects the same keys.
                assert CCEPredictor.from_table(
                    pair_table(trace, THRESHOLDS[-1]), threshold, rounding
                ).keys == reference, (label, rounding)
            for length, rounding in LEVELS:
                assert train_site_predictor(
                    trace, threshold, length, rounding
                ).sites == _reference_sites(
                    objects, threshold, length, rounding
                ), (label, length, rounding)
            for profile in PROFILES:
                attribution = attribute_sites(
                    trace, profile, predictor=site_at, threshold=threshold
                )
                assert (attribution.profile, attribution.threshold) == (
                    profile, threshold
                )
                assert attribution.sites == _reference_attribution(
                    objects, profile, site_at, threshold
                ), (label, profile)
    for trace in traces:
        assert train_multiclass_predictor(
            trace, LADDER, FULL_CHAIN, 4
        ).site_classes == _reference_classes(objects, FULL_CHAIN, 4)


def _sizes_predictor(data, events):
    """Predicts a random share of the stream's sizes."""
    sizes = sorted({ev[3] for ev in events if ev[0] == EV_ALLOC})
    chosen = data.draw(st.lists(st.sampled_from(sizes), unique=True)
                       if sizes else st.just([]))
    return SizeOnlyPredictor(frozenset(chosen), threshold=THRESHOLDS[0])


class TestGeneratedStreams:
    @settings(max_examples=100, deadline=None)
    @given(stream=streams(), chunk_events=st.integers(1, 64), data=st.data())
    def test_every_consumer_matches_the_object_loop(
        self, tmp_path_factory, stream, chunk_events, data
    ):
        events, chains = stream
        source = ListSource(events, chains=chains)
        path = tmp_path_factory.mktemp("pairs") / "gen.rtr3"
        write_trace_v3(source, path, chunk_events=chunk_events)
        lifetimes = [record[2] for record in iter_object_lifetimes(source)]
        _check_consumers(
            (build_trace(source), TraceFileSource(path)),
            _site_predictor(data, events, chains),
            _sizes_predictor(data, events),
            data.draw(st.sampled_from(lifetimes)) if lifetimes else 1,
        )


# ----------------------------------------------------------------------
# One real program, and the store's memoized answers
# ----------------------------------------------------------------------

SCALE = 0.02
PROGRAM = "gawk"


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pair-table") / "cache"
    store = TraceStore(scale=SCALE, cache_dir=directory)
    for dataset in ("train", "test"):
        store.trace(PROGRAM, dataset)
    return directory


def _stores(cache_dir):
    return [TraceStore(scale=SCALE, cache_dir=cache_dir, streaming=mode)
            for mode in (False, True)]


class TestRealProgram:
    def test_every_consumer_matches_the_object_loop(self, cache_dir):
        materialized, streaming = _stores(cache_dir)
        trace = materialized.trace(PROGRAM)
        site = train_site_predictor(materialized.source(PROGRAM, "train"))
        sizes = train_size_only_predictor(trace, THRESHOLDS[0])
        assert site.sites and sizes.sizes
        lifetimes = sorted(trace.lifetime_of(obj_id)
                           for obj_id in range(trace.total_objects))
        _check_consumers((trace, streaming.source(PROGRAM)), site, sizes,
                         lifetimes[len(lifetimes) // 2])

    @pytest.mark.parametrize("streaming", (False, True))
    def test_store_equals_the_free_functions(self, cache_dir, streaming):
        store = _stores(cache_dir)[streaming]
        specs = (
            BSD_SPEC, PAPER_DEFAULT_SPEC,
            AllocatorSpec(predictor="self", threshold=THRESHOLDS[0]),
        )
        for spec in specs:
            source = store.source(PROGRAM)
            predictor = store.predictor_for(PROGRAM, spec)
            assert store.attribution(PROGRAM, spec).to_dict() == (
                attribute_sites(source, predictor=predictor, spec=spec)
                .to_dict()
            ), spec.describe()
            if predictor is not None:
                assert store.evaluate(PROGRAM, predictor) == evaluate(
                    predictor, source
                ), spec.describe()
        for threshold in THRESHOLDS:
            for length in (1, FULL_CHAIN):
                predictor = store.self_predictor(
                    PROGRAM, threshold=threshold, chain_length=length
                )
                assert predictor.sites == train_site_predictor(
                    store.source(PROGRAM), threshold, length
                ).sites
                assert store.evaluate(PROGRAM, predictor) == evaluate(
                    predictor, store.source(PROGRAM)
                )
        # The rounding sweep and the CCE ablation ask these.
        for rounding in (1, 32):
            predictor = store.predictor(PROGRAM, size_rounding=rounding)
            fresh = train_site_predictor(store.source(PROGRAM, "train"),
                                         size_rounding=rounding)
            assert predictor.sites == fresh.sites
            assert store.evaluate(PROGRAM, predictor) == evaluate(
                fresh, store.source(PROGRAM)
            )
        cce = store.cce_predictor(PROGRAM, train_dataset="test")
        fresh = train_cce_predictor(store.source(PROGRAM))
        assert cce.keys == fresh.keys
        assert cce.keys == _reference_cce(
            _Objects(store.source(PROGRAM)), cce.threshold, cce.size_rounding
        )
        assert store.evaluate(PROGRAM, cce) == evaluate(
            fresh, store.source(PROGRAM)
        )
        # One table per (dataset, threshold) asked for, never per call.
        assert {
            key: sorted(tables)
            for key, tables in store._pair_tables.items()
        } == {(PROGRAM, "train"): [32768],
              (PROGRAM, "test"): sorted(THRESHOLDS)}

    def test_sites_are_each_predictors_own_keys(self, cache_dir):
        # Total Sites and Sites Used count the keys a CCE or multi-class
        # predictor abstracts the table's pairs to, not their sizes.
        store = _stores(cache_dir)[0]
        train = store.source(PROGRAM, "train")
        for predictor in (train_cce_predictor(train),
                          train_multiclass_predictor(train, LADDER)):
            table = store.pair_table(PROGRAM, threshold=predictor.threshold)
            keys, matched = set(), set()
            for chain_id, size in table.rows:
                chain = table.chains.chain(chain_id)
                key = predictor.key_for(chain, size)
                keys.add(key)
                if predictor.predicts_short_lived(chain, size):
                    matched.add(key)
            sizes = {size for _, size in table.rows}
            assert len(keys) != len(sizes) and matched
            result = store.evaluate(PROGRAM, predictor)
            assert (result.total_sites, result.sites_used) == (
                len(keys), len(matched)
            ), type(predictor).__name__

    def test_table_at_another_threshold_is_refused(self, cache_dir):
        store = _stores(cache_dir)[0]
        predictor = store.predictor(PROGRAM, threshold=THRESHOLDS[0])
        table = store.pair_table(PROGRAM, threshold=THRESHOLDS[1])
        with pytest.raises(ValueError, match="threshold 32768 cannot"):
            evaluate_table(predictor, table)
