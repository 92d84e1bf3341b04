"""Time-series heap telemetry and per-site misprediction accounting.

A :class:`Telemetry` recorder rides along one trace replay.  It attaches
to the allocator through the probe interface on
:class:`~repro.alloc.base.Allocator` (``attach_probe``), receives one
``on_alloc``/``on_free`` callback per heap event, and produces:

* **time-series samples** — every ``interval`` allocation events (plus a
  final sample at the end of the replay) it snapshots the allocator's
  gauges via ``telemetry_snapshot()``: heap break, live bytes, external
  and internal fragmentation, free-list length, arena occupancy — plus
  derived series of its own (byte-time clock, windowed mean first-fit
  search depth, arena capture rate so far, cumulative mispredictions);
* **per-site misprediction counters** — keyed by the allocation
  :class:`~repro.core.sites.CallChain`, three failure modes:

  ``late_free``
      an object *predicted short-lived* (placed in an arena, or an arena
      overflow) that was freed only after the lifetime threshold — the
      arena-polluting misprediction of §5.2;
  ``overflow``
      a predicted-short-lived request that fell through to the general
      heap because every arena was occupied or the object was too large
      (footnote 1 of the paper);
  ``missed_short``
      an object the predictor sent to the general heap that actually died
      under the threshold — capture the predictor left on the table.

The recorder is passive: it never changes placement, sizes, or operation
counts, so a replay with telemetry attached produces byte-identical
simulation results (tests assert this).  When no recorder is attached the
allocators pay a single ``is None`` check per operation and ``replay()``
is unchanged — the hot path stays hot.

Aggregate totals (samples taken, mispredictions by kind) are mirrored
into a :class:`~repro.obs.metrics.Metrics` registry (the process-wide
:data:`~repro.obs.metrics.METRICS` by default) so pipeline timings and
simulation telemetry read out of one report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.alloc.base import ChainKey
from repro.core.predictor import DEFAULT_THRESHOLD
from repro.core.sites import CallChain, ChainTable
from repro.obs.metrics import METRICS, Metrics, record_peak_rss

__all__ = [
    "DEFAULT_SAMPLE_INTERVAL",
    "MISPREDICTION_KINDS",
    "NullTelemetry",
    "SiteCounters",
    "Telemetry",
]

#: Default sampling period, in allocation events.
DEFAULT_SAMPLE_INTERVAL = 1024

#: The misprediction failure modes tracked per site.
MISPREDICTION_KINDS = ("late_free", "overflow", "missed_short")

#: Placements whose objects were predicted short-lived at birth.
_PREDICTED_SHORT = ("arena", "overflow")


@dataclass
class SiteCounters:
    """Per-site allocation and misprediction tallies."""

    allocs: int = 0
    bytes: int = 0
    arena_allocs: int = 0
    late_free: int = 0
    overflow: int = 0
    missed_short: int = 0

    @property
    def mispredictions(self) -> int:
        """All misprediction events charged to this site."""
        return self.late_free + self.overflow + self.missed_short


class NullTelemetry:
    """A no-op recorder: probe dispatch cost without any recording.

    Useful for benchmarking the probe interface itself; real runs either
    attach a :class:`Telemetry` or nothing at all.
    """

    def attach(self, allocator, program: str = "?", dataset: str = "?",
               chains: Optional[ChainTable] = None) -> None:
        allocator.attach_probe(self)
        self._allocator = allocator

    def on_alloc(self, addr: int, size: int,
                 chain: Optional[ChainKey], placement: str) -> None:
        pass

    def on_free(self, addr: int) -> None:
        pass

    def finish(self) -> None:
        self._allocator.attach_probe(None)


class Telemetry:
    """Recorder of heap time-series samples and misprediction counters.

    One recorder serves one replay: :meth:`attach` it to the allocator
    (``replay()`` does this when given a ``telemetry`` argument), and read
    :attr:`samples`, :attr:`sites`, and :meth:`totals` afterwards.

    ``threshold`` is the short-lived cutoff in byte-time used to classify
    ``late_free`` / ``missed_short``; when omitted it is taken from the
    allocator's predictor at attach time (falling back to the paper's
    32 KB default).
    """

    def __init__(
        self,
        interval: int = DEFAULT_SAMPLE_INTERVAL,
        threshold: Optional[int] = None,
        metrics: Optional[Metrics] = None,
    ):
        if interval < 1:
            raise ValueError(f"sample interval must be >= 1, got {interval}")
        self.interval = interval
        self.threshold = threshold
        self.metrics = metrics if metrics is not None else METRICS
        self.program = "?"
        self.dataset = "?"
        self.allocator_name = "?"
        self.samples: List[Dict[str, Any]] = []
        self.sites: Dict[CallChain, SiteCounters] = {}
        self._allocator = None
        self._chains: Optional[ChainTable] = None
        self._clock = 0  # byte-time: cumulative bytes requested
        self._allocs = 0
        self._frees = 0
        self._bytes_by_placement: Dict[str, int] = {}
        self._allocs_by_placement: Dict[str, int] = {}
        # addr -> (chain, placement, birth byte-time, size)
        self._live: Dict[int, Tuple[Optional[CallChain], str, int, int]] = {}
        self._last_scanned = 0
        self._last_allocs = 0
        self._sampled_at = -1

    # ------------------------------------------------------------------
    # Probe interface (called by the allocator)
    # ------------------------------------------------------------------

    def attach(self, allocator, program: str = "?", dataset: str = "?",
               chains: Optional[ChainTable] = None) -> None:
        """Start recording ``allocator``; called once, before the replay.

        With ``chains``, the allocator reports interned chain ids of that
        table (replay binds it to them), and the recorder resolves each
        id to its chain, so :attr:`sites` keys on chains either way.
        """
        self._allocator = allocator
        self._chains = chains
        self.allocator_name = allocator.name
        self.program = program
        self.dataset = dataset
        if self.threshold is None:
            predictor = getattr(allocator, "predictor", None)
            self.threshold = getattr(
                predictor, "threshold", DEFAULT_THRESHOLD
            ) if predictor is not None else DEFAULT_THRESHOLD
        allocator.attach_probe(self)

    def on_alloc(self, addr: int, size: int,
                 chain: Optional[ChainKey], placement: str) -> None:
        """One object born at ``addr``; ``placement`` is where it went.

        ``chain`` is the chain tuple, or its id in the table given to
        :meth:`attach`.  ``placement`` is ``"arena"`` (predicted short,
        bump-allocated), ``"overflow"`` (predicted short, arenas full →
        general heap), ``"general"`` (predicted long-lived), or
        ``"unpredicted"`` (no predictor consulted — baseline allocators).
        """
        if chain is not None and self._chains is not None:
            chain = self._chains.chain(chain)
        self._clock += size
        self._allocs += 1
        self._allocs_by_placement[placement] = (
            self._allocs_by_placement.get(placement, 0) + 1
        )
        self._bytes_by_placement[placement] = (
            self._bytes_by_placement.get(placement, 0) + size
        )
        self._live[addr] = (chain, placement, self._clock, size)
        if chain is not None:
            site = self.sites.get(chain)
            if site is None:
                site = self.sites[chain] = SiteCounters()
            site.allocs += 1
            site.bytes += size
            if placement == "arena":
                site.arena_allocs += 1
            elif placement == "overflow":
                site.overflow += 1
        if self._allocs % self.interval == 0:
            self._sample()

    def on_free(self, addr: int) -> None:
        """The object at ``addr`` died; classify its prediction outcome."""
        record = self._live.pop(addr, None)
        if record is None:  # born before the recorder attached
            return
        chain, placement, birth, _size = record
        self._frees += 1
        if chain is None:
            return
        lifetime = self._clock - birth
        if placement in _PREDICTED_SHORT:
            if lifetime >= self.threshold:
                self.sites[chain].late_free += 1
        elif placement == "general":
            if lifetime < self.threshold:
                self.sites[chain].missed_short += 1

    def finish(self) -> None:
        """Detach and emit the final sample (so no replay samples zero)."""
        if self._allocs > 0 and self._allocs != self._sampled_at:
            self._sample()
        totals = self.totals()
        self.metrics.incr("telemetry.samples", len(self.samples))
        for kind in MISPREDICTION_KINDS:
            self.metrics.incr(f"telemetry.mispredict.{kind}", totals[kind])
        record_peak_rss(self.metrics)
        if self._allocator is not None:
            self._allocator.attach_probe(None)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def _sample(self) -> None:
        ops = self._allocator.ops
        allocs_delta = self._allocs - self._last_allocs
        scanned = self._total_blocks_scanned()
        scanned_delta = scanned - self._last_scanned
        totals = self.totals()
        row: Dict[str, Any] = {
            "event": self._allocs,
            "byte_time": self._clock,
            "live_objects": self._allocs - self._frees,
            "capture_rate": _frac(ops.arena_allocs, ops.allocs),
            "search_depth": _frac(scanned_delta, allocs_delta, pct=False),
            "mispredictions": sum(
                totals[kind] for kind in MISPREDICTION_KINDS
            ),
        }
        row.update(self._allocator.telemetry_snapshot())
        self.samples.append(row)
        self._last_scanned = scanned
        self._last_allocs = self._allocs
        self._sampled_at = self._allocs

    def _total_blocks_scanned(self) -> int:
        """First-fit free-list blocks examined, including a general heap's."""
        total = self._allocator.ops.blocks_scanned
        general = getattr(self._allocator, "general", None)
        if general is not None:
            total += general.ops.blocks_scanned
        return total

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------

    def totals(self) -> Dict[str, int]:
        """Aggregate event and misprediction counts for the whole replay."""
        totals = {
            "allocs": self._allocs,
            "frees": self._frees,
            "bytes": self._clock,
            "sites": len(self.sites),
        }
        for kind in MISPREDICTION_KINDS:
            totals[kind] = sum(getattr(s, kind) for s in self.sites.values())
        for placement in ("arena", "overflow", "general", "unpredicted"):
            totals[f"{placement}_allocs"] = self._allocs_by_placement.get(
                placement, 0
            )
            totals[f"{placement}_bytes"] = self._bytes_by_placement.get(
                placement, 0
            )
        return totals

    def top_sites(self, top: int = 10) -> List[Tuple[CallChain, SiteCounters]]:
        """The ``top`` sites by misprediction count (ties: more allocs,
        then chain order, so the ranking is deterministic)."""
        ranked = [
            (chain, site)
            for chain, site in self.sites.items()
            if site.mispredictions > 0
        ]
        ranked.sort(key=lambda cs: (-cs[1].mispredictions, -cs[1].allocs, cs[0]))
        return ranked[:top]

    def series(self, key: str) -> List[Any]:
        """One column of the sample table (missing values become 0)."""
        return [row.get(key, 0) for row in self.samples]


def _frac(numerator: int, denominator: int, pct: bool = False) -> float:
    if denominator == 0:
        return 0.0
    value = numerator / denominator
    return round(100.0 * value if pct else value, 6)
