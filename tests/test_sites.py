"""Unit and property tests for call chains and allocation sites."""

from __future__ import annotations

import json
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.sites import (
    FULL_CHAIN,
    AllocationSite,
    ChainTable,
    prune_recursive_cycles,
    round_size,
    site_key,
    sub_chain,
)

names = st.text(alphabet="abcdef", min_size=1, max_size=3)
chains = st.lists(names, min_size=0, max_size=20)


class TestPruneRecursiveCycles:
    def test_no_recursion_unchanged(self):
        chain = ("main", "parse", "expr", "alloc")
        assert prune_recursive_cycles(chain) == chain

    def test_direct_recursion_collapses(self):
        assert prune_recursive_cycles(
            ["main", "walk", "walk", "walk", "leaf"]
        ) == ("main", "walk", "leaf")

    def test_indirect_cycle_collapses(self):
        assert prune_recursive_cycles(
            ["main", "walk", "visit", "walk", "leaf"]
        ) == ("main", "walk", "leaf")

    def test_mutual_recursion(self):
        assert prune_recursive_cycles(["a", "b", "a", "b", "c"]) == ("a", "b", "c")

    def test_empty_chain(self):
        assert prune_recursive_cycles([]) == ()

    def test_cycle_at_end(self):
        assert prune_recursive_cycles(["m", "f", "g", "f"]) == ("m", "f")

    @given(chains)
    def test_no_duplicates_in_result(self, chain):
        pruned = prune_recursive_cycles(chain)
        assert len(pruned) == len(set(pruned))

    @given(chains)
    def test_idempotent(self, chain):
        once = prune_recursive_cycles(chain)
        assert prune_recursive_cycles(once) == once

    @given(chains)
    def test_result_is_subsequence(self, chain):
        pruned = prune_recursive_cycles(chain)
        it = iter(chain)
        assert all(any(fn == item for item in it) for fn in pruned)

    @given(chains)
    def test_preserves_endpoints(self, chain):
        pruned = prune_recursive_cycles(chain)
        if chain:
            assert pruned[0] == chain[0]
            assert pruned[-1] == chain[-1]


class TestSubChain:
    def test_length_one_is_direct_caller(self):
        assert sub_chain(("main", "a", "b"), 1) == ("b",)

    def test_length_beyond_chain_returns_all(self):
        assert sub_chain(("main", "a"), 10) == ("main", "a")

    def test_full_chain_prunes_cycles(self):
        assert sub_chain(("m", "f", "g", "f"), FULL_CHAIN) == ("m", "f")

    def test_length_n_does_not_prune(self):
        # The paper prunes recursion only in the complete-chain case.
        assert sub_chain(("m", "f", "g", "f"), 3) == ("f", "g", "f")

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sub_chain(("a",), 0)


class TestRoundSize:
    def test_exact_multiple_unchanged(self):
        assert round_size(16, 4) == 16

    def test_rounds_up(self):
        assert round_size(17, 4) == 20
        assert round_size(1, 8) == 8

    def test_identity_rounding(self):
        assert round_size(13, 1) == 13

    def test_zero_size(self):
        assert round_size(0, 4) == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            round_size(-1, 4)

    def test_bad_multiple_rejected(self):
        with pytest.raises(ValueError):
            round_size(8, 0)

    @given(st.integers(min_value=0, max_value=10**9),
           st.integers(min_value=1, max_value=64))
    def test_properties(self, size, multiple):
        rounded = round_size(size, multiple)
        assert rounded >= size
        assert rounded % multiple == 0
        assert rounded - size < multiple


class TestAllocationSite:
    def test_key_default_prunes_and_keeps_size(self):
        site = AllocationSite(chain=("m", "f", "g", "f"), size=13)
        assert site.key() == (("m", "f"), 13)

    def test_key_with_rounding(self):
        site = AllocationSite(chain=("m", "f"), size=13)
        assert site.key(size_rounding=4) == (("m", "f"), 16)

    def test_key_with_length(self):
        site = AllocationSite(chain=("m", "a", "b"), size=8)
        assert site.key(length=2) == (("a", "b"), 8)

    def test_direct_caller(self):
        assert AllocationSite(("m", "f"), 8).direct_caller == "f"

    def test_direct_caller_empty_chain(self):
        with pytest.raises(ValueError):
            _ = AllocationSite((), 8).direct_caller

    def test_sites_differ_by_size(self):
        a = AllocationSite(("m",), 8)
        b = AllocationSite(("m",), 16)
        assert a != b
        assert a.key() != b.key()

    def test_site_key_function_matches_method(self):
        site = AllocationSite(("m", "f", "g"), 13)
        assert site.key(length=2, size_rounding=4) == site_key(
            ("m", "f", "g"), 13, length=2, size_rounding=4
        )


class TestChainTable:
    def test_intern_returns_stable_ids(self):
        table = ChainTable()
        first = table.intern(("a", "b"))
        second = table.intern(("a", "b"))
        assert first == second
        assert len(table) == 1

    def test_distinct_chains_distinct_ids(self):
        table = ChainTable()
        assert table.intern(("a",)) != table.intern(("b",))

    def test_chain_lookup(self):
        table = ChainTable()
        cid = table.intern(["x", "y"])
        assert table.chain(cid) == ("x", "y")

    def test_bad_id_raises(self):
        table = ChainTable()
        with pytest.raises(IndexError):
            table.chain(0)
        with pytest.raises(IndexError):
            table.chain(-1)

    def test_id_of_unknown_is_none(self):
        assert ChainTable().id_of(("zzz",)) is None

    def test_round_trip_through_list(self):
        table = ChainTable()
        table.intern(("a",))
        table.intern(("a", "b"))
        rebuilt = ChainTable.from_list(table.to_list())
        assert rebuilt.to_list() == table.to_list()
        assert rebuilt.id_of(("a", "b")) == table.id_of(("a", "b"))

    def test_from_list_holds_one_string_per_name(self):
        # Names decoded from a file arrive as one string per occurrence.
        chains = json.loads('[["main", "parse", "node"], ["main", "node"]]')
        assert chains[0][2] is not chains[1][1]
        table = ChainTable.from_list(chains)
        first, second = table.to_list()
        assert first[0] is second[0] and first[2] is second[1]
        assert first[2] is sys.intern("node")

    def test_iteration_in_id_order(self):
        table = ChainTable()
        table.intern(("one",))
        table.intern(("two",))
        assert list(table) == [("one",), ("two",)]
