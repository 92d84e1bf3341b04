"""Per-site cost attribution, priced from one execution's pair table.

The paper's whole argument is that the allocation *site* (the predictor
call chain) is the right unit for memory decisions, yet telemetry stops
at whole-run totals — a run got slower or more fragmented, but nothing
says *which sites paid for it*.  This module closes that gap:
:func:`attribute_table` prices the rows of a
:class:`~repro.runtime.folds.PairTable` — the per-``(chain id, size)``
lifetime sums every predictor trainer reads — and attributes, per call
chain:

* **simulated instruction cost** — each object is priced one alloc/free
  pair through :class:`~repro.alloc.costs.CostModel` under the chosen
  allocator profile (``bsd``, ``firstfit``, or ``arena`` with a
  predictor deciding placement per object);
* **heap occupancy** — ``size x lifetime`` byte-time, the integral of
  the object's footprint over the byte-time clock;
* **fragmentation contribution** — the rounding/header padding the
  profile's allocator would add (power-of-two buckets for ``bsd``,
  8-byte alignment plus header for ``firstfit`` and arena-missed
  objects, zero for arena bump allocation), both as bytes and as
  byte-time;
* **misprediction penalty** — ``late_free`` (predicted short, died at or
  past the threshold; the arena-polluting failure of §5.2, with the
  pollution integral ``size x (lifetime - threshold)``) and
  ``missed_short`` (sent to the general heap, actually died under the
  threshold — capture left on the table).

Each object's price depends on its pair, its lifetime and whether the
lifetime is under the threshold, so every per-site sum is a pair
column times a factor fixed by the pair: its size, its verdict, its
padding or a cost constant.  The table is an order-independent fold,
so the attribution is identical materialized and streamed, and the
exports are byte-identical across both paths (gated in CI and
``tests/test_stream_parity.py``).

Deliberate exclusions, documented rather than approximated:

* history-dependent cost terms (first-fit scan lengths, BSD page
  refills, splits, coalesces, arena resets) depend on heap state at
  each event and are therefore not order-independent; the per-object
  base costs attributed here are the deterministic floor.  Whole-run
  totals including those terms live in ``bench`` records and Table 9.
* the ``overflow`` misprediction kind requires replayed arena occupancy
  and is structurally zero here; ``stats`` reports it from a real
  replay.
* every object is charged exactly one alloc and one free — objects
  never freed die at program exit by the trace convention, and their
  exit-time free is priced like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.alloc.bsd import bucket_for
from repro.alloc.costs import DEFAULT_COST_MODEL, CostModel
from repro.alloc.firstfit import ALIGNMENT, HEADER_SIZE
from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    LifetimePredictor,
    pair_table,
)
from repro.core.sites import CallChain
from repro.obs.spans import TRACER
from repro.runtime.folds import PairTable

__all__ = [
    "ATTRIB_PROFILES",
    "ATTRIB_SCHEMA_VERSION",
    "SiteAttribution",
    "AttributionProfile",
    "attribute_sites",
    "attribute_table",
    "profile_for_spec",
    "render_attrib",
    "export_attribution",
    "write_attrib_json",
    "write_attrib_csv",
    "write_attrib_collapsed",
]

#: Allocator profiles an attribution can be priced under.
ATTRIB_PROFILES = ("arena", "firstfit", "bsd")

#: Version stamp of the exported attribution document.
ATTRIB_SCHEMA_VERSION = 1

#: Per-site metric columns in export order (also the CSV column set).
_METRIC_FIELDS = (
    "objects",
    "bytes",
    "touches",
    "short_objects",
    "short_bytes",
    "predicted_objects",
    "alloc_instr",
    "free_instr",
    "total_instr",
    "occupancy_byte_time",
    "frag_bytes",
    "frag_byte_time",
    "late_free",
    "late_free_byte_time",
    "missed_short",
    "missed_short_bytes",
    "mispredictions",
)


@dataclass
class SiteAttribution:
    """One call chain's attributed costs (all integers, all summable)."""

    objects: int = 0
    bytes: int = 0
    touches: int = 0
    short_objects: int = 0
    short_bytes: int = 0
    predicted_objects: int = 0
    alloc_instr: int = 0
    free_instr: int = 0
    occupancy_byte_time: int = 0
    frag_bytes: int = 0
    frag_byte_time: int = 0
    late_free: int = 0
    late_free_byte_time: int = 0
    missed_short: int = 0
    missed_short_bytes: int = 0

    @property
    def total_instr(self) -> int:
        """Attributed instructions, alloc and free sides combined."""
        return self.alloc_instr + self.free_instr

    @property
    def mispredictions(self) -> int:
        """Misprediction events attributable without replay state."""
        return self.late_free + self.missed_short

    def merge(self, other: "SiteAttribution") -> None:
        """Fold another site record into this one (plain sums)."""
        self.objects += other.objects
        self.bytes += other.bytes
        self.touches += other.touches
        self.short_objects += other.short_objects
        self.short_bytes += other.short_bytes
        self.predicted_objects += other.predicted_objects
        self.alloc_instr += other.alloc_instr
        self.free_instr += other.free_instr
        self.occupancy_byte_time += other.occupancy_byte_time
        self.frag_bytes += other.frag_bytes
        self.frag_byte_time += other.frag_byte_time
        self.late_free += other.late_free
        self.late_free_byte_time += other.late_free_byte_time
        self.missed_short += other.missed_short
        self.missed_short_bytes += other.missed_short_bytes

    def to_dict(self) -> Dict[str, int]:
        """All metric columns, derived ones included."""
        return {name: getattr(self, name) for name in _METRIC_FIELDS}


def _firstfit_padding(size: int) -> int:
    """Bytes of alignment + header overhead a first-fit block carries."""
    aligned = ((size + ALIGNMENT - 1) // ALIGNMENT) * ALIGNMENT
    return aligned + HEADER_SIZE - size


def _bsd_padding(size: int) -> int:
    """Bytes of bucket rounding + header overhead a BSD block carries."""
    return (1 << bucket_for(size)) - size


@dataclass
class AttributionProfile:
    """One execution's finished attribution, keyed by call chain."""

    program: str
    dataset: str
    profile: str
    threshold: int
    sites: Dict[CallChain, SiteAttribution] = field(default_factory=dict)

    def totals(self) -> SiteAttribution:
        """Every site's record folded into one whole-run total."""
        total = SiteAttribution()
        for site in self.sites.values():
            total.merge(site)
        return total

    def top_sites(
        self, top: int = 10
    ) -> List[Tuple[CallChain, SiteAttribution]]:
        """The ``top`` sites by attributed instructions (ties: more
        bytes, then chain order, so the ranking is deterministic)."""
        ranked = sorted(
            self.sites.items(),
            key=lambda cs: (-cs[1].total_instr, -cs[1].bytes, cs[0]),
        )
        return ranked[:top]

    def to_dict(self) -> Dict[str, Any]:
        """The deterministic attribution document (sites sorted by chain)."""
        return {
            "kind": "attribution",
            "schema_version": ATTRIB_SCHEMA_VERSION,
            "program": self.program,
            "dataset": self.dataset,
            "profile": self.profile,
            "threshold": self.threshold,
            "cost_model_excludes": [
                "history-dependent op counts (scans, refills, splits, "
                "coalesces, resets)",
                "overflow mispredictions (need replayed arena occupancy)",
            ],
            "totals": self.totals().to_dict(),
            "sites": [
                {"chain": list(chain), **self.sites[chain].to_dict()}
                for chain in sorted(self.sites)
            ],
        }

    def collapsed_stacks(self, weight: str = "total_instr") -> str:
        """The sites as folded stacks: ``caller;...;callee <weight>``.

        One line per chain, semicolon-joined outermost-first, weighted by
        the chosen metric — the format ``flamegraph.pl`` and speedscope
        consume.  Zero-weight chains are dropped, lines sort by chain.
        """
        if weight not in _METRIC_FIELDS:
            raise ValueError(
                f"unknown attribution weight {weight!r} "
                f"(have {', '.join(_METRIC_FIELDS)})"
            )
        lines = []
        for chain in sorted(self.sites):
            value = getattr(self.sites[chain], weight)
            if value:
                lines.append(f"{';'.join(chain)} {value}")
        return "\n".join(lines)

    def summary_dict(self, top: int = 10) -> Dict[str, Any]:
        """A compact top-K form for embedding in bench sessions."""
        return {
            "profile": self.profile,
            "threshold": self.threshold,
            "site_count": len(self.sites),
            "totals": self.totals().to_dict(),
            "top_sites": [
                {
                    "chain": list(chain),
                    "total_instr": site.total_instr,
                    "bytes": site.bytes,
                    "frag_byte_time": site.frag_byte_time,
                    "mispredictions": site.mispredictions,
                }
                for chain, site in self.top_sites(top)
            ],
        }


def profile_for_spec(spec) -> str:
    """The attribution profile an :class:`~repro.alloc.AllocatorSpec`
    prices under (the arena kinds share the arena profile)."""
    return "arena" if spec.kind in ("arena", "multiarena") else spec.kind


def attribute_sites(
    trace,
    profile: str = "arena",
    predictor: Optional[LifetimePredictor] = None,
    threshold: Optional[int] = None,
    model: CostModel = DEFAULT_COST_MODEL,
    spec=None,
) -> AttributionProfile:
    """Attribute one execution's costs per call chain.

    ``trace`` is a :class:`~repro.runtime.events.Trace` or a v3 file.
    This is :func:`~repro.core.predictor.pair_table` at the threshold
    followed by :func:`attribute_table`, so materialized and streamed
    inputs produce the same profile field for field.

    With ``spec`` (an :class:`~repro.alloc.AllocatorSpec`) the profile
    and threshold come from the spec — the declarative path the search
    service and spec-driven CLI commands use; explicit ``threshold``
    still wins when both are given.  Otherwise the threshold is the
    predictor's, or the paper's 32 KB without one.
    """
    if spec is not None:
        profile = profile_for_spec(spec)
        if threshold is None:
            threshold = spec.threshold
    if threshold is None:
        threshold = getattr(predictor, "threshold", DEFAULT_THRESHOLD)
    return attribute_table(
        pair_table(trace, threshold), profile, predictor=predictor,
        model=model,
    )


def attribute_table(
    table: PairTable,
    profile: str = "arena",
    predictor: Optional[LifetimePredictor] = None,
    model: CostModel = DEFAULT_COST_MODEL,
) -> AttributionProfile:
    """Price one execution's pair table per call chain.

    Short and late-free mean under and at-or-over the table's
    threshold.  An object is priced from its pair, its lifetime and its
    shortness alone — no heap state — so each row is priced once: its
    columns times the pair's constant price, and ``late_free_byte_time``
    as ``size × (long lifetime sum − threshold × long objects)``.
    """
    if profile not in ATTRIB_PROFILES:
        raise ValueError(
            f"unknown attribution profile {profile!r} "
            f"(have {', '.join(ATTRIB_PROFILES)})"
        )
    chain_of = table.chains.chain
    threshold = table.threshold
    sites: Dict[int, SiteAttribution] = {}
    with TRACER.span("attrib.fold", cat="obs", program=table.program,
                     dataset=table.dataset, profile=profile):
        for (chain_id, size), row in table.rows.items():
            count, short, touches, lifetime, long_lifetime, _ = row
            site = sites.get(chain_id)
            if site is None:
                site = sites[chain_id] = SiteAttribution()
            site.objects += count
            site.bytes += size * count
            site.touches += touches
            site.occupancy_byte_time += size * lifetime
            site.short_objects += short
            site.short_bytes += size * short
            if profile == "bsd":
                alloc = model.bsd_alloc_base
                free = model.bsd_free
                frag = _bsd_padding(size)
            elif profile == "firstfit":
                alloc = model.ff_alloc_base
                free = model.ff_free_base
                frag = _firstfit_padding(size)
            elif predictor is not None and predictor.predicts_short_lived(
                chain_of(chain_id), size
            ):
                # arena, predicted short: bump-allocated in an arena
                site.predicted_objects += count
                alloc = model.predict + model.arena_bump
                free = model.arena_free
                frag = 0
                site.late_free += count - short
                site.late_free_byte_time += size * (
                    long_lifetime - threshold * (count - short)
                )
            else:  # arena, not predicted: the general heap
                alloc = model.predict + model.ff_alloc_base
                free = model.ff_free_base
                frag = _firstfit_padding(size)
                site.missed_short += short
                site.missed_short_bytes += size * short
            site.alloc_instr += alloc * count
            site.free_instr += free * count
            site.frag_bytes += frag * count
            site.frag_byte_time += frag * lifetime
    return AttributionProfile(
        program=table.program,
        dataset=table.dataset,
        profile=profile,
        threshold=threshold,
        sites={chain_of(chain_id): site for chain_id, site in sites.items()},
    )


# ----------------------------------------------------------------------
# Rendering and deterministic exports
# ----------------------------------------------------------------------


def _chain_label(chain: CallChain, depth: int = 4) -> str:
    tail = chain[-depth:]
    label = ">".join(tail)
    return ("…" + label) if len(chain) > depth else label


def render_attrib(profile: AttributionProfile, top: int = 10) -> str:
    """The attribution as a terminal table: totals, then the top sites."""
    totals = profile.totals()
    lines = [
        f"site attribution: {profile.program}/{profile.dataset}"
        f" · {profile.profile} profile"
        f" · threshold {profile.threshold} bytes",
        f"  {totals.objects:,} objects · {totals.bytes:,} bytes"
        f" · {len(profile.sites):,} sites"
        f" · {totals.total_instr:,} instructions"
        f" · {totals.frag_bytes:,} frag bytes",
        f"  mispredictions: late-free {totals.late_free:,}"
        f" · missed-short {totals.missed_short:,}"
        " (overflow needs a replay; see stats)",
    ]
    ranked = profile.top_sites(top)
    if ranked:
        lines.append(f"  top {len(ranked)} sites by attributed instructions:")
        lines.append(
            "    instr        bytes        frag·time     late  missed  site"
        )
        for chain, site in ranked:
            lines.append(
                f"    {site.total_instr:>11,}  {site.bytes:>11,}"
                f"  {site.frag_byte_time:>12,}  {site.late_free:>4,}"
                f"  {site.missed_short:>6,}  {_chain_label(chain)}"
            )
    else:
        lines.append("  no sites attributed (empty trace?)")
    return "\n".join(lines)


def write_attrib_json(
    profile: AttributionProfile, path: Union[str, Path]
) -> Path:
    """Write the attribution document as deterministic JSON."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(profile.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def write_attrib_csv(
    profile: AttributionProfile, path: Union[str, Path]
) -> Path:
    """Write one CSV row per site, sorted by chain, fixed column order.

    The chain cell is the frames ``;``-joined; frames containing the
    field separator, quotes, or newlines are quoted by the :mod:`csv`
    module (RFC 4180), so adversarial chain names round-trip through any
    conforming reader instead of shearing the row.
    """
    import csv

    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("chain",) + _METRIC_FIELDS)
        for chain in sorted(profile.sites):
            metrics = profile.sites[chain].to_dict()
            writer.writerow(
                [";".join(chain)]
                + [str(metrics[name]) for name in _METRIC_FIELDS]
            )
    return path


def write_attrib_collapsed(
    profile: AttributionProfile,
    path: Union[str, Path],
    weight: str = "total_instr",
) -> Path:
    """Write the collapsed-stack (flamegraph.pl) view of the sites."""
    path = Path(path)
    text = profile.collapsed_stacks(weight)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
        if text:
            handle.write("\n")
    return path


def export_attribution(
    profile: AttributionProfile,
    out_dir: Union[str, Path],
    basename: Optional[str] = None,
    weight: str = "total_instr",
) -> Dict[str, Path]:
    """Write the JSON/CSV/collapsed artifacts under ``out_dir``.

    Returns ``{"json": ..., "csv": ..., "collapsed": ...}`` paths; the
    basename defaults to ``<program>-<dataset>-<profile>`` flattened the
    same way the telemetry exporter flattens its artifact names.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if basename is None:
        raw = f"{profile.program}-{profile.dataset}-{profile.profile}"
        basename = "".join(
            ch if ch.isalnum() or ch in "-._" else "_" for ch in raw
        )
    return {
        "json": write_attrib_json(
            profile, out_dir / f"{basename}.attrib.json"
        ),
        "csv": write_attrib_csv(profile, out_dir / f"{basename}.attrib.csv"),
        "collapsed": write_attrib_collapsed(
            profile, out_dir / f"{basename}.collapsed", weight=weight
        ),
    }
