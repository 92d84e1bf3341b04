"""Call-chain encryption (CCE).

§5.1 of the paper describes an alternative to walking the last four stack
frames at each allocation, attributed to Larry Carter: give every function
a 16-bit id and, at each call, XOR the caller's running key with the
callee's id.  The running key then identifies the current call chain in
O(1) at allocation time, at a cost of ~3 instructions per function call.

Because XOR is commutative and self-inverse, distinct chains can collide
(the paper notes ids "should be selected so that the resulting keys ...
are likely to be unique" and suggests static call-graph analysis).  This
module implements the scheme with deterministic pseudo-random ids, a
:class:`CCEPredictor` keyed on (encrypted chain, rounded size), and a
collision analysis used by the ablation benchmarks to quantify how much
accuracy the encoding gives up relative to the real chain.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import reduce
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.core.predictor import (
    DEFAULT_THRESHOLD,
    TRUE_PREDICTION_ROUNDING,
    LifetimePredictor,
)
from repro.core.sites import CallChain, round_size
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from repro.runtime.events import Trace
    from repro.runtime.stream.protocol import EventSource

__all__ = [
    "function_id",
    "encrypt_chain",
    "CCEPredictor",
    "train_cce_predictor",
    "CollisionReport",
    "collision_report",
    "KEY_BITS",
]

#: Key width.  The paper uses 16-bit ids because contemporary hardware
#: (MIPS R3000) supported 16-bit immediates.
KEY_BITS = 16
_KEY_MASK = (1 << KEY_BITS) - 1


def function_id(name: str, bits: int = KEY_BITS) -> int:
    """Deterministic pseudo-random ``bits``-bit id for function ``name``.

    Derived from a stable hash so ids agree across processes and runs —
    the reproduction's stand-in for the compile-time id assignment the
    paper envisions.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") & ((1 << bits) - 1)


def encrypt_chain(chain: Sequence[str], bits: int = KEY_BITS) -> int:
    """The CCE key of ``chain``: XOR of every frame's function id.

    This models the running key a compiled program would maintain: starting
    from 0 at program entry, each call XORs in the callee's id, each return
    XORs it back out — so at any moment the key is the XOR over the live
    stack, which is what this function computes directly.
    """
    return reduce(lambda key, fn: key ^ function_id(fn, bits), chain, 0)


class CCEPredictor(LifetimePredictor):
    """Short-lived predictor keyed on (CCE key, rounded size).

    Functionally a :class:`~repro.core.predictor.SitePredictor` whose chain
    abstraction is the XOR key instead of a sub-chain; collisions between
    chains can both lose predictions (a short-lived chain colliding with a
    long-lived one disqualifies the key) and create spurious ones.
    """

    def __init__(
        self,
        keys: FrozenSet[Tuple[int, int]],
        threshold: int,
        size_rounding: int,
        bits: int = KEY_BITS,
        program: str = "?",
    ):
        self.keys = keys
        self.threshold = threshold
        self.size_rounding = size_rounding
        self.bits = bits
        self.program = program

    @property
    def site_count(self) -> int:
        return len(self.keys)

    def key_for(self, chain: CallChain, size: int) -> Tuple[int, int]:
        """Abstract (chain, size) to this predictor's (key, size) pair."""
        return (
            encrypt_chain(chain, self.bits),
            round_size(size, self.size_rounding),
        )

    def predicts_short_lived(self, chain: CallChain, size: int) -> bool:
        return self.key_for(chain, size) in self.keys


def train_cce_predictor(
    trace: Union["Trace", "EventSource"],
    threshold: int = DEFAULT_THRESHOLD,
    size_rounding: int = TRUE_PREDICTION_ROUNDING,
    bits: int = KEY_BITS,
) -> CCEPredictor:
    """Train a :class:`CCEPredictor` with the all-short-lived site rule.

    A (key, size) entry qualifies only if *every* object whose chain
    encrypts to that key died under the threshold — so chains that collide
    with a long-lived chain are (safely) disqualified.  The and-fold is
    order-independent, so a streamed trace selects exactly the keys the
    materialized one does.
    """
    from repro.runtime.stream.protocol import (
        as_event_source,
        iter_object_lifetimes,
    )

    source = as_event_source(trace)
    chain_of = source.header.chains.chain
    # One encryption per chain id, not one sha256 per frame per object.
    chain_keys: Dict[int, int] = {}
    all_short: Dict[Tuple[int, int], bool] = {}
    for chain_id, size, lifetime, _ in iter_object_lifetimes(source):
        chain_key = chain_keys.get(chain_id)
        if chain_key is None:
            chain_key = chain_keys[chain_id] = encrypt_chain(
                chain_of(chain_id), bits
            )
        key = (chain_key, round_size(size, size_rounding))
        short = lifetime < threshold
        all_short[key] = all_short.get(key, True) and short
    selected = frozenset(key for key, short in all_short.items() if short)
    return CCEPredictor(
        selected,
        threshold=threshold,
        size_rounding=size_rounding,
        bits=bits,
        program=source.header.program,
    )


@dataclass(frozen=True)
class CollisionReport:
    """How faithfully CCE keys separate a set of call chains."""

    chains: int
    distinct_keys: int
    colliding_chains: int
    worst_bucket: int

    @property
    def collision_rate(self) -> float:
        """Fraction of chains sharing their key with a different chain."""
        if self.chains == 0:
            return 0.0
        return self.colliding_chains / self.chains


def collision_report(
    chains: Iterable[Sequence[str]], bits: int = KEY_BITS
) -> CollisionReport:
    """Measure key collisions over ``chains`` at the given key width."""
    buckets: Dict[int, Set[CallChain]] = {}
    for chain in chains:
        buckets.setdefault(encrypt_chain(chain, bits), set()).add(tuple(chain))
    sizes: List[int] = [len(bucket) for bucket in buckets.values()]
    colliding = sum(size for size in sizes if size > 1)
    return CollisionReport(
        chains=sum(sizes),
        distinct_keys=len(buckets),
        colliding_chains=colliding,
        worst_bucket=max(sizes, default=0),
    )
