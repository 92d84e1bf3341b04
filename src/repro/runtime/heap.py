"""The traced heap: the reproduction's instrumented allocation runtime.

Barrett & Zorn instrumented real C programs with Larus' AE tool so that
every ``malloc``/``free`` carried the current call chain.  A Python
reproduction cannot instrument the interpreter's hidden heap, so the
workloads in :mod:`repro.workloads` are written against this explicit
runtime instead: every dynamic object they create is obtained from a
:class:`TracedHeap`, which

* maintains the current call chain (functions push/pop frames via the
  :func:`traced` decorator or the :meth:`TracedHeap.frame` context
  manager),
* advances the byte-time clock by the size of each allocation (the paper's
  lifetime unit, §3.2),
* records every birth and death into a :class:`~repro.runtime.events.Trace`,
* counts function calls (needed to cost call-chain encryption) and memory
  references (heap references via :meth:`TracedHeap.touch`, non-heap
  references charged automatically per function call), supplying the data
  behind the paper's Heap Refs and New Ref columns.

The heap hands out :class:`HeapObject` handles.  Handles carry an arbitrary
``payload`` so a workload's real data (bignum digit arrays, parse-tree
nodes, interpreter values) lives on the handle; the traced size is the
modelled C size of that data, which each workload computes from its own
layout rules.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Any, Callable, Iterator, List, TypeVar

from repro.runtime.events import Trace, TraceBuilder

__all__ = ["HeapObject", "TracedHeap", "traced", "HeapError"]

#: Non-heap (stack/global) memory references charged per traced function
#: call: frame setup, saved registers, spilled locals.  A modelling
#: constant; see DESIGN.md §2.
NON_HEAP_REFS_PER_CALL = 2


class HeapError(Exception):
    """Raised on misuse of the traced heap (double free, foreign object)."""


class HeapObject:
    """Handle for one object allocated from a :class:`TracedHeap`.

    ``payload`` is workload-private data.  ``size`` is the modelled size in
    bytes — what the workload's C original would have passed to ``malloc``.
    """

    __slots__ = ("obj_id", "size", "payload", "_heap", "_touches", "_freed")

    def __init__(self, obj_id: int, size: int, heap: "TracedHeap"):
        self.obj_id = obj_id
        self.size = size
        self.payload: Any = None
        self._heap = heap
        self._touches = 0
        self._freed = False

    @property
    def freed(self) -> bool:
        """Whether this object has been returned to the heap."""
        return self._freed

    @property
    def touches(self) -> int:
        """Heap references made to this object so far."""
        return self._touches

    def touch(self, count: int = 1) -> None:
        """Convenience for ``heap.touch(self, count)``."""
        self._heap.touch(self, count)

    def free(self) -> None:
        """Convenience for ``heap.free(self)``."""
        self._heap.free(self)

    def __repr__(self) -> str:
        state = "freed" if self._freed else "live"
        return f"<HeapObject #{self.obj_id} size={self.size} {state}>"


class TracedHeap:
    """An instrumented allocation arena for one traced program execution.

    Typical use::

        heap = TracedHeap("cfrac", dataset="train")
        with heap.frame("main"):
            run_the_workload(heap)
        trace = heap.finish()

    The heap is single-use: after :meth:`finish` it refuses further
    allocation.
    """

    def __init__(
        self,
        program: str,
        dataset: str = "default",
        root: str = "main",
        non_heap_refs_per_call: int = NON_HEAP_REFS_PER_CALL,
        record_touches: bool = False,
    ):
        self._builder = TraceBuilder(
            program=program, dataset=dataset, record_touches=record_touches
        )
        self._record_touches = record_touches
        self._stack: List[str] = [root]
        self._clock = 0  # byte-time: total bytes allocated so far
        self._live_bytes = 0
        self._live_objects = 0
        self._finished = False
        self._non_heap_refs_per_call = non_heap_refs_per_call

    # ------------------------------------------------------------------
    # Call-chain maintenance
    # ------------------------------------------------------------------

    @property
    def call_chain(self) -> tuple:
        """The current call chain, outermost function first."""
        return tuple(self._stack)

    @property
    def depth(self) -> int:
        """Current call-stack depth."""
        return len(self._stack)

    @contextmanager
    def frame(self, name: str) -> Iterator[None]:
        """Push ``name`` onto the call chain for the duration of the block.

        Every entry counts as one function call for the trace's
        ``total_calls`` and charges the modelled non-heap references.
        """
        self._enter(name)
        try:
            yield
        finally:
            self._exit()

    def _enter(self, name: str) -> None:
        self._stack.append(name)
        self._builder.total_calls += 1
        self._builder.non_heap_refs += self._non_heap_refs_per_call

    def _exit(self) -> None:
        self._stack.pop()

    # ------------------------------------------------------------------
    # Allocation interface
    # ------------------------------------------------------------------

    @property
    def clock(self) -> int:
        """Current byte-time (total bytes allocated so far)."""
        return self._clock

    @property
    def live_bytes(self) -> int:
        """Bytes currently allocated and not yet freed."""
        return self._live_bytes

    @property
    def live_objects(self) -> int:
        """Objects currently allocated and not yet freed."""
        return self._live_objects

    def malloc(self, size: int, payload: Any = None) -> HeapObject:
        """Allocate ``size`` modelled bytes at the current call chain.

        ``size`` must be positive — the traced programs model C ``malloc``
        calls, which the workloads never issue for zero bytes.
        """
        self._check_open()
        if size <= 0:
            raise HeapError(f"allocation size must be positive, got {size}")
        obj_id = self._builder.add_alloc(
            chain=tuple(self._stack), size=size, birth=self._clock
        )
        self._clock += size
        self._live_bytes += size
        self._live_objects += 1
        obj = HeapObject(obj_id, size, self)
        obj.payload = payload
        return obj

    def free(self, obj: HeapObject) -> None:
        """Return ``obj`` to the heap, recording its death time.

        Raises :class:`HeapError` on double free or on an object belonging
        to a different heap.
        """
        self._check_open()
        if obj._heap is not self:
            raise HeapError("object belongs to a different heap")
        if obj._freed:
            raise HeapError(f"double free of {obj!r}")
        obj._freed = True
        self._live_bytes -= obj.size
        self._live_objects -= 1
        self._builder.add_free(obj.obj_id, death=self._clock, touches=obj._touches)

    def realloc(self, obj: HeapObject, size: int) -> HeapObject:
        """Model C ``realloc``: free ``obj`` and allocate a new object.

        The payload is carried over to the new handle.  Like the C original,
        this counts as a fresh allocation event at the current site.
        """
        payload = obj.payload
        self.free(obj)
        return self.malloc(size, payload=payload)

    def touch(self, obj: HeapObject, count: int = 1) -> None:
        """Record ``count`` heap memory references to ``obj``.

        Workloads call this at the natural use points of their algorithms
        (reading a digit array, walking a list node); the aggregate feeds
        the Heap Refs and New Ref measurements.

        Raises :class:`HeapError` after :meth:`finish` — the trace is
        sealed, so late touches would be silently lost.
        """
        self._check_open()
        if count < 0:
            raise HeapError(f"touch count must be non-negative, got {count}")
        if obj._freed:
            raise HeapError(f"touch after free of {obj!r}")
        obj._touches += count
        self._builder.heap_refs += count
        if self._record_touches and count:
            self._builder.add_touch_event(obj.obj_id, count)

    def non_heap_refs(self, count: int) -> None:
        """Record ``count`` additional non-heap memory references.

        Raises :class:`HeapError` after :meth:`finish`, like the other
        mutators.
        """
        self._check_open()
        if count < 0:
            raise HeapError(f"ref count must be non-negative, got {count}")
        self._builder.non_heap_refs += count

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finish(self) -> Trace:
        """Seal the heap and return the completed trace.

        Objects still live keep the never-freed sentinel ``-1`` in the
        trace's deaths array; every consumer treats them as dying at
        program exit.  Their touch counts are not recorded: an object's
        touches reach the trace only through :meth:`free`, and this only
        builds the trace, so a never-freed object records 0 touches and
        the trace's ``summary.unfreed_touches`` is empty.
        """
        self._check_open()
        self._finished = True
        return self._builder.build()

    def _check_open(self) -> None:
        if self._finished:
            raise HeapError("heap already finished")


F = TypeVar("F", bound=Callable[..., Any])


def traced(fn: F) -> F:
    """Method decorator: push the function's name onto the traced call chain.

    Decorated methods must belong to an object exposing the heap as
    ``self.heap`` — the convention every workload class in
    :mod:`repro.workloads` follows::

        class Factorizer:
            def __init__(self, heap):
                self.heap = heap

            @traced
            def factor(self, n):
                ...  # allocations here carry "factor" on their chain

    The chain name is the bare function name (not the qualified name): the
    paper's chains are function chains, and two workload classes reusing a
    method name model two C programs reusing a function name, which never
    happens within one trace.
    """
    name = fn.__name__

    @functools.wraps(fn)
    def wrapper(self, *args: Any, **kwargs: Any) -> Any:
        heap: TracedHeap = self.heap
        heap._enter(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            heap._exit()

    return wrapper  # type: ignore[return-value]
