"""Schema-versioned benchmark records and sessions.

One :class:`BenchRecord` captures what the regression gate needs about
one benchmark, all of it simulated cost: instruction costs from
:mod:`repro.alloc.costs`, arena capture rate, heap size, and the
telemetry misprediction totals.  Barrett & Zorn price allocator CPU
cost the same way, as operation counts times instructions per
operation, so a record carries no wall clock.  A :class:`BenchSession`
is one suite run — the records plus full provenance — and serializes
to the ``BENCH_<seq>.json`` trajectory files.

Every field is exactly reproducible from the same traces: two suite
runs on one commit write equal records (the test suite asserts this),
which is what lets the comparator hold them to a zero-noise threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.provenance import BENCH_SCHEMA_VERSION

__all__ = ["BenchRecord", "BenchSession"]


@dataclass(frozen=True)
class BenchRecord:
    """One benchmark's simulated cost (one replay family in the suite)."""

    name: str
    program: str
    dataset: str
    allocator: str
    allocs: int
    frees: int
    instr_per_alloc: float
    instr_per_free: float
    max_heap_size: int
    final_live_bytes: int
    arena_alloc_pct: float
    arena_byte_pct: float
    mispredictions: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict with stable key order and rounded floats."""
        return {
            "name": self.name,
            "program": self.program,
            "dataset": self.dataset,
            "allocator": self.allocator,
            "allocs": self.allocs,
            "frees": self.frees,
            "instr_per_alloc": round(self.instr_per_alloc, 6),
            "instr_per_free": round(self.instr_per_free, 6),
            "max_heap_size": self.max_heap_size,
            "final_live_bytes": self.final_live_bytes,
            "arena_alloc_pct": round(self.arena_alloc_pct, 6),
            "arena_byte_pct": round(self.arena_byte_pct, 6),
            "mispredictions": dict(sorted(self.mispredictions.items())),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchRecord":
        """Rebuild a record from its :meth:`to_dict` form."""
        return cls(
            name=data["name"],
            program=data["program"],
            dataset=data["dataset"],
            allocator=data["allocator"],
            allocs=int(data["allocs"]),
            frees=int(data["frees"]),
            instr_per_alloc=float(data["instr_per_alloc"]),
            instr_per_free=float(data["instr_per_free"]),
            max_heap_size=int(data["max_heap_size"]),
            final_live_bytes=int(data["final_live_bytes"]),
            arena_alloc_pct=float(data["arena_alloc_pct"]),
            arena_byte_pct=float(data["arena_byte_pct"]),
            mispredictions={
                k: int(v) for k, v in data.get("mispredictions", {}).items()
            },
        )

    @property
    def mispredictions_total(self) -> int:
        """All misprediction events across the three failure modes."""
        return sum(self.mispredictions.values())

    @property
    def total_instr(self) -> float:
        """Simulated allocator instructions: allocs and frees, each
        times its per-operation cost."""
        return (self.allocs * self.instr_per_alloc
                + self.frees * self.instr_per_free)


@dataclass
class BenchSession:
    """One suite run: schema version, sequence number, provenance, records."""

    seq: int
    provenance: Dict[str, Any]
    records: List[BenchRecord]
    schema_version: int = BENCH_SCHEMA_VERSION
    #: Optional per-program top-K site attribution summaries
    #: (:meth:`repro.obs.attrib.AttributionProfile.summary_dict`), keyed
    #: by program name.  Deterministic but ungated: the comparator reads
    #: only ``records``, so attaching attribution never moves the bench
    #: gate — it explains regressions, it does not define them.
    attribution: Dict[str, Any] = field(default_factory=dict)

    @property
    def scale(self) -> float:
        """The workload scale this session ran at."""
        return float(self.provenance.get("scale", 1.0))

    @property
    def total_instr(self) -> float:
        """Simulated allocator instructions summed over every record."""
        return sum(rec.total_instr for rec in self.records)

    def record(self, name: str) -> BenchRecord:
        """The record called ``name`` (KeyError if absent)."""
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "schema_version": self.schema_version,
            "seq": self.seq,
            "provenance": dict(self.provenance),
            "records": [rec.to_dict() for rec in self.records],
        }
        if self.attribution:
            data["attribution"] = dict(self.attribution)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BenchSession":
        return cls(
            seq=int(data["seq"]),
            provenance=dict(data.get("provenance", {})),
            records=[
                BenchRecord.from_dict(rec) for rec in data.get("records", [])
            ],
            schema_version=int(data["schema_version"]),
            attribution=dict(data.get("attribution", {})),
        )
