"""Extension experiment: measuring the locality the paper predicted.

The paper claims (§1, §6) that arena segregation improves reference
locality but supports the claim only with the predicted New Ref fractions
of Table 6.  This experiment closes the loop with a cache simulation over
touch-recorded traces:

1. **New Ref validation** — the fraction of heap references that actually
   land inside the 64 KB arena area matches the Table 6 prediction; this
   is the paper's locality quantity, measured rather than predicted.
2. **Miss rates** — first-fit / BSD / arena on 64 KB caches at one-way
   (direct-mapped) and two-way associativity, plus a pre-fragmented
   first-fit heap.

Findings recorded in EXPERIMENTS.md:

* the confinement prediction is realized almost exactly;
* a design coupling the paper leaves implicit: the arena allocator splits
  the address space (arena area low, general heap above), and in a
  **direct-mapped** cache the two alias onto the same sets — the arena
  configuration pays several points of conflict misses that two-way
  associativity eliminates entirely;
* at this reproduction's scale the general heap never fragments enough
  for first-fit to fall behind (its working set is a few kilobytes); the
  paper's positive locality gap needs its multi-megabyte fragmented heaps.
"""

from __future__ import annotations

from repro.alloc.cache import CacheConfig
from repro.analysis.locality import compare_locality
from repro.core.predictor import evaluate, train_site_predictor
from repro.workloads.registry import get_workload

from conftest import write_result

PROGRAMS = ["cfrac", "gawk", "perl"]
SCALE = 0.3
DIRECT = CacheConfig(size=64 * 1024, line_size=32, ways=1)
TWO_WAY = CacheConfig(size=64 * 1024, line_size=32, ways=2)


def test_locality(results_dir):
    rows = {}
    for program in PROGRAMS:
        workload = get_workload(program)
        trace = workload.trace("test", scale=SCALE, record_touches=True)
        predictor = train_site_predictor(workload.trace("train", scale=SCALE))
        predicted_newref = evaluate(predictor, trace).new_ref_pct
        direct = compare_locality(trace, predictor, config=DIRECT)
        two_way = compare_locality(trace, predictor, config=TWO_WAY)
        fragmented = compare_locality(
            trace, predictor, config=TWO_WAY, prefragment_holes=512
        )
        rows[program] = (predicted_newref, direct, two_way, fragmented)

    lines = [
        f"Cache locality (64 KB, 32 B lines; scale {SCALE})",
        "  program   newref pred/measured | direct: ff/bsd/arena miss% |"
        " 2-way: ff/bsd/arena miss% | ff-frag-2way",
    ]
    for program, (predicted, direct, two_way, fragmented) in rows.items():
        lines.append(
            f"  {program:9s} {predicted:5.1f} / "
            f"{100 * direct['arena'].in_region_fraction:5.1f} | "
            f"{100 * direct['first-fit'].miss_rate:5.2f} "
            f"{100 * direct['bsd'].miss_rate:5.2f} "
            f"{100 * direct['arena'].miss_rate:5.2f} | "
            f"{100 * two_way['first-fit'].miss_rate:5.2f} "
            f"{100 * two_way['bsd'].miss_rate:5.2f} "
            f"{100 * two_way['arena'].miss_rate:5.2f} | "
            f"{100 * fragmented['first-fit'].miss_rate:5.2f}"
        )
    write_result(results_dir, "locality_cache.txt", "\n".join(lines))

    for program, (predicted, direct, two_way, fragmented) in rows.items():
        # 1. The New Ref prediction is realized within a few points.
        measured = 100 * direct["arena"].in_region_fraction
        assert abs(measured - predicted) < 8.0, (
            f"Table 6: {program}'s measured New Ref {measured:.1f}% is "
            f"within 8 points of the predicted {predicted:.1f}%"
        )

        # 2. With two ways, all three allocators' miss rates converge.
        rates = [two_way[k].miss_rate for k in ("first-fit", "bsd", "arena")]
        assert max(rates) - min(rates) < 0.015, (
            f"§6: {program}'s two-way miss rates agree within 1.5 points"
        )

        # 3. Direct mapping exposes arena/general-heap aliasing: the arena
        #    configuration misses at least as much direct-mapped as
        #    two-way, and the penalty stays bounded.
        assert (
            direct["arena"].miss_rate >= two_way["arena"].miss_rate - 1e-9
        ), f"§6: {program}'s arena misses no less direct-mapped than two-way"
        assert direct["arena"].miss_rate < 0.12, (
            f"§6: {program}'s direct-mapped arena miss rate is under 12%"
        )

        # 4. Fragmentation never improves first-fit's locality.
        assert (
            fragmented["first-fit"].miss_rate
            >= two_way["first-fit"].miss_rate - 0.005
        ), f"§6: fragmentation does not improve {program}'s first-fit misses"
