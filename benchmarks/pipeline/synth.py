"""Seeded synthetic allocation traces with little call-site reuse.

The five real workloads intern only 23-63 call chains for 10^4-10^5
allocations, so anything keyed on the chain (site abstraction, predictor
lookups, per-chain caches) sees near-perfect reuse.  This generator
produces the opposite: a train and a test execution of ``objects``
allocations each, drawn from a universe of ``objects / 3`` allocation
sites whose call chains are 6-20 frames deep, many with recursion cycles
that :func:`~repro.core.sites.prune_recursive_cycles` has to fold.
Lifetimes are bimodal around the paper's 32 KB short-lived threshold:

* most sites are *short* (exponential lifetimes, mean 2 KB of
  allocation), so a predictor trained on the train stream selects them;
* some are *long* (64 KB-1 MB, or never freed);
* a tenth are *mixed*: half their objects outlive the threshold by a
  little, so prediction makes real errors.

The test stream draws nine in ten allocations from the train stream's
sites and the rest from sites it never saw, so a real share of it is
predicted short.

The seed draws the call chains.  Site classes, sizes, lifetimes and the
order of allocations follow one fixed schedule, because first-fit
fragmentation, and with it the cost of a replay, swings by a tenth from
one random schedule to the next; a fixed schedule keeps the benchmark's
timings comparable across seeds.  The same seed always gives
byte-identical traces.
"""

from __future__ import annotations

import heapq
import random
from pathlib import Path
from typing import List, Tuple

from repro.analysis.trace_cache import TraceCache
from repro.runtime.events import Trace, TraceBuilder

#: Allocations per execution at the benchmark's full size and in
#: ``--quick`` mode.
DEFAULT_OBJECTS = 20000
QUICK_OBJECTS = 2000
#: The synthetic program has no scale; its cache entries carry this one.
SCALE = 1.0

_SCHEDULE_SEED = 0x5EED
_FUNCTIONS = 600
_SIZES = (8, 16, 24, 32, 40, 48, 64, 96, 128, 192, 256, 512, 1024, 4096)
_SHORT_MEAN = 2048
_CALLS_PER_ALLOC = 12
_NON_HEAP_REFS_PER_CALL = 2


def _chain(names: random.Random, prefix: str) -> Tuple[str, ...]:
    """One call chain of depth 6-20, with a recursion cycle 40% of the time."""
    depth = names.randint(6, 20)
    frames = ["main"] + [
        f"{prefix}{names.randrange(_FUNCTIONS):03d}" for _ in range(depth - 1)
    ]
    if names.random() < 0.4:
        start = names.randrange(1, len(frames) - 1)
        segment = frames[start:start + names.randint(1, 3)]
        frames[start:start] = segment * names.randint(1, 3)
    return tuple(frames[:20])


def _site(schedule: random.Random, names: random.Random,
          prefix: str) -> tuple:
    """A call chain plus the site's sizes and lifetime class."""
    roll = schedule.random()
    kind = "short" if roll < 0.7 else ("long" if roll < 0.9 else "mixed")
    sizes = tuple(schedule.choice(_SIZES)
                  for _ in range(schedule.randint(1, 2)))
    return (_chain(names, prefix), sizes, kind)


def _lifetime(schedule: random.Random, kind: str):
    """Bytes of allocation the object survives; ``None`` is never freed."""
    if kind == "short":
        return int(schedule.expovariate(1.0 / _SHORT_MEAN))
    if kind == "mixed":
        # Just over the threshold, so a mispredicted object pins its
        # arena briefly rather than for the rest of the run.
        if schedule.random() < 0.5:
            return int(schedule.expovariate(1.0 / _SHORT_MEAN))
        return schedule.randint(40 * 1024, 160 * 1024)
    if schedule.random() < 0.2:
        return None
    return schedule.randint(64 * 1024, 1024 * 1024)


def _execution(schedule: random.Random, names: random.Random, dataset: str,
               sites: List[tuple], fresh: float, objects: int) -> Trace:
    """One execution: ``objects`` allocations, frees as lifetimes expire."""
    builder = TraceBuilder(program="synthetic", dataset=dataset)
    pending: list = []  # (death byte-time, obj_id, touches)
    clock = 0
    for _ in range(objects):
        while pending and pending[0][0] <= clock:
            _, obj_id, touches = heapq.heappop(pending)
            builder.add_free(obj_id, death=clock, touches=touches)
        if schedule.random() < fresh:
            chain, sizes, kind = _site(schedule, names, "t")
        else:
            chain, sizes, kind = sites[schedule.randrange(len(sites))]
        size = schedule.choice(sizes)
        birth = clock
        obj_id = builder.add_alloc(chain, size, birth=birth)
        clock += size
        touches = schedule.randint(0, 8)
        builder.heap_refs += touches
        lifetime = _lifetime(schedule, kind)
        if lifetime is None:
            builder.set_touches(obj_id, touches)
        else:
            heapq.heappush(pending, (birth + lifetime, obj_id, touches))
    for _, obj_id, touches in pending:
        builder.set_touches(obj_id, touches)
    builder.total_calls = objects * _CALLS_PER_ALLOC
    builder.non_heap_refs = builder.total_calls * _NON_HEAP_REFS_PER_CALL
    return builder.build()


def generate(seed: int, objects: int = DEFAULT_OBJECTS) -> Tuple[Trace, Trace]:
    """The (train, test) pair for ``seed``."""
    schedule = random.Random(_SCHEDULE_SEED)
    names = random.Random(seed)
    sites = [_site(schedule, names, "f") for _ in range(max(1, objects // 3))]
    train = _execution(schedule, names, "train", sites, 0.0, objects)
    test = _execution(schedule, names, "test", sites, 0.1, objects)
    return train, test


def write(seed: int, directory: Path,
          objects: int = DEFAULT_OBJECTS) -> List[Path]:
    """Store the pair as v3 entries of a trace cache over ``directory``."""
    cache = TraceCache(directory)
    return [cache.store(trace, SCALE) for trace in generate(seed, objects)]
