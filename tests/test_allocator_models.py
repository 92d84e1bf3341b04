"""Executable specifications of the three allocator simulators.

Each model below restates one allocator from its prose, over plain
lists, with none of the simulator's data structures: no block objects
with links, no dict keyed by address, no memo.

* :class:`FirstFitModel` — Knuth's Algorithm A (TAOCP vol. 1 §2.5) over
  a circular free list, searched from the rover; Algorithm C's
  boundary-tag coalescing, right neighbour first; ``sbrk`` growth of
  the top block.  The rover rule is the simulator's, which is not
  next-fit: the rover moves only when the block it points at leaves the
  free list (DESIGN.md §19).
* :class:`BsdModel` — the 4.3BSD power-of-two buckets: each request plus
  its header rounds up to a power of two, each bucket is a LIFO list,
  and an empty bucket is refilled with a carved page.
* :class:`ArenaModel` — the paper's §5.1 arena: a bump pointer and a
  count per arena, the reset-on-empty scan from the first arena when
  the current one is full, and fall-through to a first-fit general heap.

Each model and its simulator take the same generated traffic
(:func:`tests.test_replay_core.streams`).  After every operation the
returned address, every ``OpCounts`` field, ``max_heap_size`` and
``live_bytes`` must agree.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alloc.address_space import DEFAULT_SBRK_INCREMENT
from repro.alloc.arena import ArenaAllocator
from repro.alloc.base import OpCounts
from repro.alloc.bsd import BsdAllocator
from repro.alloc.firstfit import FirstFitAllocator
from repro.runtime.stream.protocol import EV_ALLOC, EV_FREE
from tests.test_replay_core import _site_predictor, streams

# A block of the first-fit model: [address, size incl. header, free?,
# requested bytes].
ADDR, SIZE, FREE, REQUESTED = range(4)


def _index(blocks, block) -> int:
    """Position of ``block`` (by identity) in ``blocks``."""
    return next(i for i, other in enumerate(blocks) if other is block)


class FirstFitModel:
    """First-fit from the prose: Algorithms A and C over plain lists."""

    HEADER = 8
    ALIGN = 8
    MIN_SPLIT = HEADER + ALIGN

    def __init__(self, base: int = 0, increment: int = DEFAULT_SBRK_INCREMENT):
        self.ops = OpCounts()
        self.base = self.brk = self.max_brk = base
        self.increment = increment
        self.heap = []  # every block, in address order
        self.avail = []  # the circular free list, in list order
        self.rover = None  # the free block each search starts from

    def malloc(self, size: int, chain=None) -> int:
        self.ops.allocs += 1
        self.ops.bytes_requested += size
        need = -(-size // self.ALIGN) * self.ALIGN + self.HEADER
        # Algorithm A: examine free blocks in list order from the rover,
        # once round the circle, and take the first big enough.  The
        # rover stays where the search began.
        block = None
        if self.avail:
            start = _index(self.avail, self.rover)
            ring = self.avail[start:] + self.avail[:start]
            for scanned, candidate in enumerate(ring, 1):
                if candidate[SIZE] >= need:
                    block = candidate
                    break
            self.ops.blocks_scanned += scanned
        if block is None:
            block = self._sbrk(need)
        if block[SIZE] - need >= self.MIN_SPLIT:
            # Split: the low part is allocated, and the remainder takes
            # the block's place in the free list (and the rover's).
            self.ops.splits += 1
            tail = [block[ADDR] + need, block[SIZE] - need, True, 0]
            block[SIZE] = need
            self.heap.insert(_index(self.heap, block) + 1, tail)
            self.avail[_index(self.avail, block)] = tail
            if self.rover is block:
                self.rover = tail
        else:
            self._unlink(block)
        block[FREE] = False
        block[REQUESTED] = size
        return block[ADDR] + self.HEADER

    def free(self, addr: int) -> None:
        self.ops.frees += 1
        at = next(i for i, b in enumerate(self.heap)
                  if b[ADDR] == addr - self.HEADER)
        block = self.heap[at]
        block[FREE] = True
        block[REQUESTED] = 0
        # Algorithm C: merge a free right neighbour into the block, then
        # let a free left neighbour absorb it; a block that no left
        # neighbour absorbs joins the free list just after the rover.
        if at + 1 < len(self.heap) and self.heap[at + 1][FREE]:
            self.ops.coalesces += 1
            right = self.heap.pop(at + 1)
            self._unlink(right)
            block[SIZE] += right[SIZE]
        if at > 0 and self.heap[at - 1][FREE]:
            self.ops.coalesces += 1
            self.heap.pop(at)
            self.heap[at - 1][SIZE] += block[SIZE]
        else:
            self._link(block)

    def _sbrk(self, need: int):
        """Grow the heap: extend a free top block by its shortfall, or
        add a new free block at the old break."""
        self.ops.sbrks += 1
        if self.heap and self.heap[-1][FREE]:
            top = self.heap[-1]
            top[SIZE] += self._extend(need - top[SIZE])
            return top
        block = [self.brk, 0, True, 0]
        block[SIZE] = self._extend(need)
        self.heap.append(block)
        self._link(block)
        return block

    def _extend(self, nbytes: int) -> int:
        grown = -(-nbytes // self.increment) * self.increment
        self.brk += grown
        self.max_brk = max(self.max_brk, self.brk)
        return grown

    def _link(self, block) -> None:
        if self.rover is None:
            self.avail = [block]
            self.rover = block
        else:
            self.avail.insert(_index(self.avail, self.rover) + 1, block)

    def _unlink(self, block) -> None:
        """Take ``block`` off the free list; a rover on it moves on to
        its successor."""
        at = _index(self.avail, block)
        del self.avail[at]
        if self.rover is block:
            self.rover = self.avail[at % len(self.avail)] if self.avail else None

    @property
    def max_heap_size(self) -> int:
        return self.max_brk - self.base

    @property
    def live_bytes(self) -> int:
        return sum(block[REQUESTED] for block in self.heap if not block[FREE])


class BsdModel:
    """Kingsley's 4.3BSD buckets from the prose."""

    HEADER = 4
    SMALLEST = 4  # 2**4 = 16-byte blocks
    PAGE = 4096

    def __init__(self):
        self.ops = OpCounts()
        self.brk = 0
        self.buckets = {}  # bucket -> LIFO list of block addresses
        self.live = []  # [block address, requested bytes, bucket]

    def malloc(self, size: int, chain=None) -> int:
        self.ops.allocs += 1
        self.ops.bytes_requested += size
        bucket = self.SMALLEST
        while 2 ** bucket < size + self.HEADER:
            bucket += 1
        stack = self.buckets.setdefault(bucket, [])
        if not stack:
            # Carve a page (or one block, when a block is bigger) into
            # blocks of this bucket, pushed in address order.
            self.ops.sbrks += 1
            chunk = max(2 ** bucket, self.PAGE)
            stack.extend(range(self.brk, self.brk + chunk, 2 ** bucket))
            self.brk += chunk
        block = stack.pop()
        self.live.append([block, size, bucket])
        return block + self.HEADER

    def free(self, addr: int) -> None:
        self.ops.frees += 1
        entry = next(e for e in self.live if e[0] == addr - self.HEADER)
        self.live.remove(entry)
        self.buckets[entry[2]].append(entry[0])

    @property
    def max_heap_size(self) -> int:
        return self.brk  # BSD never gives memory back

    @property
    def live_bytes(self) -> int:
        return sum(entry[1] for entry in self.live)


class ArenaModel:
    """The paper's §5.1 arena allocator over a first-fit general heap."""

    ALIGN = 8

    def __init__(self, predictor, num_arenas: int, arena_size: int):
        self.ops = OpCounts()
        self.predictor = predictor
        self.arena_size = arena_size
        self.limit = num_arenas * arena_size
        # Per arena: [base, bump pointer, count of live objects].
        self.arenas = [[i * arena_size, i * arena_size, 0]
                       for i in range(num_arenas)]
        self.current = 0
        self.live = []  # [address, requested bytes] of arena objects
        self.general = FirstFitModel(base=self.limit)

    def malloc(self, size: int, chain=None) -> int:
        self.ops.allocs += 1
        self.ops.bytes_requested += size
        if self.predictor is not None:
            self.ops.predictions += 1
            if self.predictor.predicts_short_lived(chain, size):
                self.ops.predicted_short += 1
                addr = self._arena_malloc(size)
                if addr is not None:
                    return addr
                self.ops.arena_overflows += 1
        return self.general.malloc(size, chain)

    def _arena_malloc(self, size: int):
        """Bump in the current arena; when it is full, reset the first
        arena whose count is zero and bump there; else give up."""
        need = -(-size // self.ALIGN) * self.ALIGN
        arena = self.arenas[self.current]
        if arena[1] + need > arena[0] + self.arena_size:
            if need > self.arena_size:
                return None  # no arena could hold it (footnote 1)
            for index, candidate in enumerate(self.arenas):
                self.ops.arenas_scanned += 1
                if candidate[2] == 0:
                    self.ops.arena_resets += 1
                    candidate[1] = candidate[0]
                    self.current = index
                    arena = candidate
                    break
            else:
                return None
        addr = arena[1]
        arena[1] += need
        arena[2] += 1
        self.live.append([addr, size])
        self.ops.arena_allocs += 1
        return addr

    def free(self, addr: int) -> None:
        self.ops.frees += 1
        if addr < self.limit:
            # An arena object: the address names its arena.
            self.ops.arena_frees += 1
            self.arenas[addr // self.arena_size][2] -= 1
            self.live.remove(next(e for e in self.live if e[0] == addr))
        else:
            self.general.free(addr)
            self.general.ops.frees -= 1  # a free is priced once, here

    @property
    def max_heap_size(self) -> int:
        return self.limit + self.general.max_heap_size

    @property
    def live_bytes(self) -> int:
        return self.general.live_bytes + sum(e[1] for e in self.live)


def _lockstep(events, chains, simulator, model, heaps) -> None:
    """Feed both the stream; after each operation, compare what it
    returned and every counter, gauge and heap size."""
    sim_addrs = {}
    model_addrs = {}
    for offset, ev in enumerate(events):
        if ev[0] == EV_ALLOC:
            chain, size = chains[ev[2]], ev[3]
            sim_addrs[ev[1]] = simulator.malloc(size, chain)
            model_addrs[ev[1]] = model.malloc(size, chain)
            assert sim_addrs[ev[1]] == model_addrs[ev[1]], offset
        elif ev[0] == EV_FREE:
            simulator.free(sim_addrs.pop(ev[1]))
            model.free(model_addrs.pop(ev[1]))
        else:
            continue
        for sim_heap, model_heap in heaps(simulator, model):
            assert sim_heap.ops == model_heap.ops, offset
        assert simulator.max_heap_size == model.max_heap_size, offset
        assert simulator.live_bytes == model.live_bytes, offset


def _itself(simulator, model):
    return [(simulator, model)]


def _with_general(simulator, model):
    return [(simulator, model), (simulator.general, model.general)]


class TestSimulatorsMatchTheirSpecifications:
    @settings(max_examples=150, deadline=None)
    @given(stream=streams(),
           increment=st.sampled_from([8, 64, 512, DEFAULT_SBRK_INCREMENT]))
    def test_firstfit(self, stream, increment):
        events, chains = stream
        _lockstep(events, chains, FirstFitAllocator(sbrk_increment=increment),
                  FirstFitModel(increment=increment), _itself)

    @settings(max_examples=120, deadline=None)
    @given(stream=streams())
    def test_bsd(self, stream):
        events, chains = stream
        _lockstep(events, chains, BsdAllocator(), BsdModel(), _itself)

    @settings(max_examples=150, deadline=None)
    @given(stream=streams(), num_arenas=st.integers(1, 4),
           arena_size=st.sampled_from([64, 256, 1024]), data=st.data())
    def test_arena(self, stream, num_arenas, arena_size, data):
        events, chains = stream
        predictor = _site_predictor(data, events, chains)
        _lockstep(
            events, chains,
            ArenaAllocator(predictor, num_arenas=num_arenas,
                           arena_size=arena_size),
            ArenaModel(predictor, num_arenas, arena_size),
            _with_general,
        )
