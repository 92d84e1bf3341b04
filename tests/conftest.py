"""Shared fixtures: small synthetic traces and tiny workload runs.

Workload traces are expensive relative to unit tests, so the tiny-dataset
traces are session-scoped; tests must treat them as read-only.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from repro.core.sites import ChainTable
from repro.runtime.heap import TracedHeap
from repro.runtime.stream.protocol import (
    EV_ALLOC,
    EventSource,
    StreamHeader,
    StreamSummary,
)
from repro.workloads.registry import WORKLOADS

#: A v2 trace document (gzipped JSON) of ``make_touch_trace(objects=24)``,
#: written by the v2 writer before v3 became the only format; the input
#: of the tests of ``convert``, the one-way v2 upgrade.
V2_FIXTURE = Path(__file__).parent / "data" / "touchy-v2.json.gz"
V2_FIXTURE_OBJECTS = 24


class ListSource(EventSource):
    """A hand-written event stream of program ``bad``, dataset ``test``.

    The events are taken as given, malformed or not, so error-contract
    tests can feed any consumer (or ``write_trace_v3``) a stream the
    traced runtime would never record.  The summary is the one the
    events imply (a size that is not an integer adds no bytes), with
    any ``summary`` field overrides applied;
    ``has_touch_events`` sets the header's flag, which
    ``measure_locality`` requires.
    """

    def __init__(self, events, chains=(("main", "f"),), summary=None,
                 has_touch_events=False):
        self._events = list(events)
        self._header = StreamHeader("bad", "test", ChainTable.from_list(chains),
                                    has_touch_events=has_touch_events)
        allocs = [ev for ev in self._events if ev[0] == EV_ALLOC]
        self._summary = StreamSummary(
            total_calls=0, heap_refs=0, non_heap_refs=0,
            end_time=sum(ev[3] for ev in allocs if type(ev[3]) is int),
            total_objects=len(allocs),
            event_count=len(self._events),
        )
        if summary:
            self._summary = dataclasses.replace(self._summary, **summary)

    @property
    def header(self):
        return self._header

    @property
    def summary(self):
        return self._summary

    def events(self):
        return iter(self._events)


def make_churn_trace(
    objects: int = 400,
    window: int = 4,
    sizes=(16, 24, 32, 40),
    program: str = "synthetic",
    keeper_size: int = 2048,
):
    """A synthetic trace: a churn loop plus one long-lived object.

    Objects are allocated under ``work > helper`` and freed ``window``
    allocations later, so every churn object's lifetime is a few hundred
    bytes (a bit over ``keeper_size`` for the handful that span the keeper
    allocation).  One ``keeper`` object allocated mid-run survives to the
    end, so its exit lifetime is about half the total churn volume.  With
    the defaults, a threshold of 4096 separates churn (short) from the
    keeper (long).  Returns the finished trace.
    """
    heap = TracedHeap(program, dataset="synthetic")
    live = []
    with heap.frame("work"):
        for index in range(objects):
            if index == objects // 2:
                with heap.frame("keeper"):
                    heap.malloc(keeper_size)
            with heap.frame("helper"):
                obj = heap.malloc(sizes[index % len(sizes)])
            heap.touch(obj, 2)
            live.append(obj)
            if len(live) > window:
                heap.free(live.pop(0))
        for obj in live:
            heap.free(obj)
    return heap.finish()


def make_touch_trace(objects: int = 120):
    """A churn trace recorded with touch events (locality-measurable)."""
    heap = TracedHeap("touchy", dataset="synthetic", record_touches=True)
    live = []
    with heap.frame("work"):
        for index in range(objects):
            with heap.frame("helper"):
                obj = heap.malloc(16 + 8 * (index % 5))
            heap.touch(obj, 1 + index % 3)
            live.append(obj)
            if len(live) > 4:
                victim = live.pop(0)
                heap.touch(victim, 2)
                heap.free(victim)
        for obj in live:
            heap.free(obj)
    return heap.finish()


def assert_traces_equal(a, b):
    """Trace ``b`` holds ``a``'s identity, counters, chains and records."""
    assert (b.program, b.dataset) == (a.program, a.dataset)
    assert (b.total_calls, b.heap_refs, b.non_heap_refs) == (
        a.total_calls, a.heap_refs, a.non_heap_refs
    )
    assert b.chains.to_list() == a.chains.to_list()
    assert b.raw_arrays() == a.raw_arrays()


@pytest.fixture
def churn_trace():
    """A fresh small synthetic churn trace."""
    return make_churn_trace()


def _tiny_trace(name: str):
    return WORKLOADS[name].trace("tiny")


@pytest.fixture(scope="session")
def cfrac_tiny():
    """Session-scoped cfrac tiny trace (read-only)."""
    return _tiny_trace("cfrac")


@pytest.fixture(scope="session")
def espresso_tiny():
    """Session-scoped espresso tiny trace (read-only)."""
    return _tiny_trace("espresso")


@pytest.fixture(scope="session")
def gawk_tiny():
    """Session-scoped gawk tiny trace (read-only)."""
    return _tiny_trace("gawk")


@pytest.fixture(scope="session")
def ghost_tiny():
    """Session-scoped ghost tiny trace (read-only)."""
    return _tiny_trace("ghost")


@pytest.fixture(scope="session")
def perl_tiny():
    """Session-scoped perl tiny trace (read-only)."""
    return _tiny_trace("perl")


@pytest.fixture(scope="session", params=sorted(WORKLOADS))
def any_tiny_trace(request):
    """Parametrized over every workload's tiny trace."""
    return _tiny_trace(request.param)
