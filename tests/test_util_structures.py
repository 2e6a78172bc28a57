"""Tests for LazyMaxHeap, DisjointSetUnion, RangeAddMaxTree, and RNG."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.util import range_tree
from repro.util.dsu import DisjointSetUnion
from repro.util.heaps import LazyMaxHeap
from repro.util.range_tree import RangeAddMaxTree
from repro.util.rng import RngFactory, derive_rng, make_rng, stable_digest


class TestLazyMaxHeap:
    def test_empty(self):
        heap = LazyMaxHeap()
        assert not heap
        assert heap.pop() is None
        assert heap.peek() is None

    def test_pops_in_descending_order(self):
        heap = LazyMaxHeap()
        for i, priority in enumerate([3.0, 1.0, 7.0, 5.0]):
            heap.push(priority, f"t{i}")
        assert [heap.pop()[0] for _ in range(4)] == [7.0, 5.0, 3.0, 1.0]

    def test_push_supersedes_same_token(self):
        heap = LazyMaxHeap()
        heap.push(9.0, "a")
        heap.push(2.0, "a")  # supersedes; heap has one live entry
        assert len(heap) == 1
        priority, token, _ = heap.pop()
        assert (priority, token) == (2.0, "a")
        assert heap.pop() is None

    def test_invalidate(self):
        heap = LazyMaxHeap()
        heap.push(9.0, "a")
        heap.push(5.0, "b")
        heap.invalidate("a")
        assert heap.pop()[1] == "b"
        assert not heap

    def test_tie_breaks_fifo(self):
        heap = LazyMaxHeap()
        heap.push(1.0, "first")
        heap.push(1.0, "second")
        assert heap.pop()[1] == "first"

    def test_payload_round_trip(self):
        heap = LazyMaxHeap()
        heap.push(1.0, "t", {"data": 42})
        assert heap.pop()[2] == {"data": 42}

    def test_peek_does_not_remove(self):
        heap = LazyMaxHeap()
        heap.push(1.0, "t")
        assert heap.peek()[1] == "t"
        assert len(heap) == 1


class TestDSU:
    def test_singletons(self):
        dsu = DisjointSetUnion([1, 2, 3])
        assert not dsu.connected(1, 2)
        assert len(dsu.groups()) == 3

    def test_union_find(self):
        dsu = DisjointSetUnion([1, 2, 3, 4])
        assert dsu.union(1, 2) is True
        assert dsu.union(1, 2) is False
        dsu.union(3, 4)
        assert dsu.connected(1, 2)
        assert not dsu.connected(2, 3)
        dsu.union(2, 3)
        assert dsu.connected(1, 4)

    def test_groups_sorted(self):
        dsu = DisjointSetUnion([5, 3, 1])
        dsu.union(5, 1)
        groups = dsu.groups()
        assert [1, 5] in groups and [3] in groups

    def test_add_idempotent(self):
        dsu = DisjointSetUnion()
        dsu.add("x")
        dsu.add("x")
        assert dsu.find("x") == "x"

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)), max_size=40))
    def test_matches_naive_components(self, unions):
        dsu = DisjointSetUnion(range(16))
        naive = {i: {i} for i in range(16)}
        for a, b in unions:
            dsu.union(a, b)
            if naive[a] is not naive[b]:
                merged = naive[a] | naive[b]
                for member in merged:
                    naive[member] = merged
        for a in range(16):
            for b in range(16):
                assert dsu.connected(a, b) == (naive[a] is naive[b])


class TestRangeAddMaxTree:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            RangeAddMaxTree(0)

    def test_initial_zero(self):
        t = RangeAddMaxTree(8)
        assert t.max_in(1, 8) == 0.0

    def test_single_add(self):
        t = RangeAddMaxTree(8)
        t.add(3, 5, 2.5)
        assert t.max_in(1, 8) == 2.5
        assert t.max_in(1, 2) == 0.0
        assert t.value_at(4) == 2.5
        assert t.value_at(6) == 0.0

    def test_clamping(self):
        t = RangeAddMaxTree(4)
        t.add(-10, 100, 1.0)  # silently clamped to [1, 4]
        assert t.value_at(1) == 1.0 and t.value_at(4) == 1.0

    def test_empty_query(self):
        t = RangeAddMaxTree(4)
        assert t.max_in(3, 2) == float("-inf")

    @given(
        ops=st.lists(
            st.tuples(st.integers(1, 20), st.integers(1, 20), st.floats(-5, 5)),
            max_size=30,
        ),
        queries=st.lists(st.tuples(st.integers(1, 20), st.integers(1, 20)), max_size=10),
    )
    def test_matches_naive_array(self, ops, queries):
        n = 20
        tree = RangeAddMaxTree(n)
        array = [0.0] * (n + 1)
        for lo, hi, value in ops:
            lo, hi = min(lo, hi), max(lo, hi)
            tree.add(lo, hi, value)
            for i in range(lo, hi + 1):
                array[i] += value
        for lo, hi in queries:
            lo, hi = min(lo, hi), max(lo, hi)
            assert tree.max_in(lo, hi) == pytest.approx(max(array[lo : hi + 1]))


class ReferenceRangeAddMaxTree(RangeAddMaxTree):
    """The recursive lazy-propagation range-add, kept as the reference
    the memoised decomposition must match bit for bit."""

    __slots__ = ()

    def add(self, lo: int, hi: int, value: float) -> None:
        lo = max(1, lo)
        hi = min(self.n, hi)
        if hi < lo or value == 0.0:
            return
        self._add(1, 1, self.n, lo, hi, value)

    def _add(self, node: int, l: int, r: int, lo: int, hi: int, value: float) -> None:
        if hi < l or r < lo:
            return
        if lo <= l and r <= hi:
            self._max[node] += value
            self._lazy[node] += value
            return
        mid = (l + r) // 2
        self._add(2 * node, l, mid, lo, hi, value)
        self._add(2 * node + 1, mid + 1, r, lo, hi, value)
        self._max[node] = self._lazy[node] + max(self._max[2 * node], self._max[2 * node + 1])


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _paint_ops(n: int):
    """Add sequences as the index issues them: ranges clamped or out
    of range or empty, zero no-ops, magnitudes from 1e-12 to 1e2, and
    paint/unpaint pairs that need not cancel bit for bit."""
    bound = st.integers(-3, n + 3)
    magnitude = st.one_of(
        st.just(0.0),
        st.floats(1e-12, 1e2, allow_nan=False),
        st.sampled_from([1e-12, 1e-6, 0.1, 1.0, 1e2]),
    )
    op = st.tuples(bound, bound, magnitude, st.booleans(), st.booleans())
    return st.lists(op, max_size=60)


class TestRangeAddMaxTreeReference:
    """The memoised range-add is bit-identical to the recursive one."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 24, 37, 100])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_recursive_reference(self, n, data):
        tree = RangeAddMaxTree(n)
        reference = ReferenceRangeAddMaxTree(n)
        painted: list[tuple[int, int, float]] = []
        for lo, hi, magnitude, negative, unpaint in data.draw(_paint_ops(n)):
            if unpaint and painted:
                lo, hi, value = painted.pop()
                value = -value
            else:
                value = -magnitude if negative else magnitude
                painted.append((lo, hi, value))
            tree.add(lo, hi, value)
            reference.add(lo, hi, value)
            assert _hex(tree._max) == _hex(reference._max)
            assert _hex(tree._lazy) == _hex(reference._lazy)
        assert tree.to_state() == reference.to_state()
        for lo, hi in data.draw(
            st.lists(st.tuples(st.integers(-3, n + 3), st.integers(-3, n + 3)), max_size=20)
        ):
            assert float(tree.max_in(lo, hi)).hex() == float(reference.max_in(lo, hi)).hex()

    def test_decomposition_cache_stays_at_its_cap(self, monkeypatch):
        """At the n = 1000 that fig8e builds, the distinct ranges far
        outnumber the cap: the table fills to it and evicts the oldest
        entries, and the adds stay exact."""
        monkeypatch.setattr(range_tree, "_DECOMPOSITIONS", {})
        limit = range_tree._DECOMPOSITION_CACHE_LIMIT
        n = 1000
        tree = RangeAddMaxTree(n)
        reference = ReferenceRangeAddMaxTree(n)
        ranges = [(lo, hi) for lo in range(1, n + 1, 6) for hi in range(lo, n + 1, 6)]
        assert len(ranges) > 2 * limit
        for i, (lo, hi) in enumerate(ranges):
            value = 1.0 + (i % 7) * 0.1
            tree.add(lo, hi, value)
            reference.add(lo, hi, value)
            assert len(range_tree._DECOMPOSITIONS) <= limit
        assert len(range_tree._DECOMPOSITIONS) == limit
        assert (n, *ranges[0]) not in range_tree._DECOMPOSITIONS
        assert (n, *ranges[-1]) in range_tree._DECOMPOSITIONS
        assert tree.to_state() == reference.to_state()
        assert _hex(tree._max) == _hex(reference._max)

    def test_trees_of_one_size_share_decompositions(self, monkeypatch):
        monkeypatch.setattr(range_tree, "_DECOMPOSITIONS", {})
        RangeAddMaxTree(24).add(3, 9, 1.0)
        RangeAddMaxTree(24).add(3, 9, 2.0)
        RangeAddMaxTree(25).add(3, 9, 1.0)
        assert sorted(range_tree._DECOMPOSITIONS) == [(24, 3, 9), (25, 3, 9)]


class TestRng:
    def test_make_rng_passthrough(self):
        rng = make_rng(0)
        assert make_rng(rng) is rng

    def test_derive_rng_label_independence(self):
        a = derive_rng(42, "tasks").uniform(size=5)
        b = derive_rng(42, "workers").uniform(size=5)
        assert list(a) != list(b)

    def test_derive_rng_reproducible(self):
        a = derive_rng(42, "tasks").uniform(size=5)
        b = derive_rng(42, "tasks").uniform(size=5)
        assert list(a) == list(b)

    def test_stable_digest_is_stable(self):
        assert stable_digest("tasks") == stable_digest("tasks")
        assert stable_digest("tasks") != stable_digest("workers")

    def test_factory_streams(self):
        factory = RngFactory(9)
        assert list(factory.stream("x").uniform(size=3)) == list(
            factory.stream("x").uniform(size=3)
        )
        child = factory.child("sub")
        assert list(child.stream("x").uniform(size=3)) != list(
            factory.stream("x").uniform(size=3)
        )
