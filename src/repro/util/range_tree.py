"""Segment tree with lazy range-add and range-max queries.

Backing structure for the tree index's neighbour-gain bounds: every
slot *paints* its potential-gain bound over its influence interval,
and the best-first search asks for the maximum painted value over a
node's segment.  Classic lazy propagation; all operations are
``O(log n)``.

Range-add is the index-repair hot path (every execution repaints the
slots around it), so it does not descend the tree.  The set of nodes
an add touches depends only on ``(n, lo, hi)``: the nodes the range
fully covers, which take the value, and the nodes it partially
covers, which re-pull their maximum from their children.  That
decomposition is computed once and memoised in a bounded table shared
by every tree of the same size; an add is then two flat loops over
it.  Each node sees the same float operations, in the same order
relative to its children, as a recursive descent would apply, so the
node arrays (and hence :meth:`RangeAddMaxTree.to_state`) are
bit-identical to it.
"""

from __future__ import annotations

from repro.errors import ConfigurationError

__all__ = ["RangeAddMaxTree"]

#: Memoised decompositions: ``(n, lo, hi) -> (covered, partial)``.
_DECOMPOSITIONS: dict[tuple[int, int, int], tuple[tuple[int, ...], tuple[int, ...]]] = {}
#: Cache bound, so a long-lived process painting trees of many sizes
#: cannot grow memory without bound.  A tree of ``n`` slots has at most
#: ``n (n + 1) / 2`` distinct ranges: 300 for a 24-slot streaming task,
#: which never evicts, while ``n = 1000`` cycles through the table
#: (oldest entry evicted first).
_DECOMPOSITION_CACHE_LIMIT = 4096


def _decompose(n: int, lo: int, hi: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nodes an add over ``[lo, hi]`` (already clamped) touches,
    computed without recursion and memoised.

    Returns ``(covered, partial)``: the nodes whose segment lies inside
    the range, and the nodes whose segment straddles it, listed
    children before parents.
    """
    key = (n, lo, hi)
    covered: list[int] = []
    preorder: list[int] = []
    stack = [(1, 1, n)]
    while stack:
        node, l, r = stack.pop()
        if hi < l or r < lo:
            continue
        if lo <= l and r <= hi:
            covered.append(node)
            continue
        preorder.append(node)
        mid = (l + r) // 2
        stack.append((2 * node + 1, mid + 1, r))
        stack.append((2 * node, l, mid))
    # A child follows its parent in preorder, so the reverse re-pulls
    # every partial node after all of its children are final.
    decomposition = (tuple(covered), tuple(reversed(preorder)))
    while len(_DECOMPOSITIONS) >= _DECOMPOSITION_CACHE_LIMIT:
        _DECOMPOSITIONS.pop(next(iter(_DECOMPOSITIONS)))
    _DECOMPOSITIONS[key] = decomposition
    return decomposition


class RangeAddMaxTree:
    """Array of ``n`` floats (1-based) with range-add and range-max."""

    __slots__ = ("n", "_max", "_lazy")

    def __init__(self, n: int):
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        self.n = n
        self._max = [0.0] * (4 * n)
        self._lazy = [0.0] * (4 * n)

    def add(self, lo: int, hi: int, value: float) -> None:
        """Add ``value`` to every position in ``[lo, hi]`` (clamped)."""
        n = self.n
        if lo < 1:
            lo = 1
        if hi > n:
            hi = n
        if hi < lo or value == 0.0:
            return
        decomposition = _DECOMPOSITIONS.get((n, lo, hi))
        if decomposition is None:
            decomposition = _decompose(n, lo, hi)
        covered, partial = decomposition
        tree_max = self._max
        lazy = self._lazy
        for node in covered:
            tree_max[node] += value
            lazy[node] += value
        for node in partial:
            left = tree_max[2 * node]
            right = tree_max[2 * node + 1]
            # ``max(left, right)``, keeping its first-wins tie rule.
            tree_max[node] = lazy[node] + (right if right > left else left)

    def max_in(self, lo: int, hi: int) -> float:
        """Maximum value over ``[lo, hi]`` (clamped; -inf if empty)."""
        lo = max(1, lo)
        hi = min(self.n, hi)
        if hi < lo:
            return float("-inf")
        return self._query(1, 1, self.n, lo, hi)

    def value_at(self, pos: int) -> float:
        """The current value at a single position."""
        return self.max_in(pos, pos)

    # ------------------------------------------------------------------
    # State capture (journal snapshots)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Verbatim node arrays.

        The accumulators carry float round-off *history* (an add
        followed by its reversal need not restore the old bits), so an
        exact snapshot must copy them rather than re-derive them.
        """
        return {"n": self.n, "max": list(self._max), "lazy": list(self._lazy)}

    @classmethod
    def from_state(cls, state: dict) -> "RangeAddMaxTree":
        """Rebuild a tree bit-identical to the captured one."""
        tree = cls(state["n"])
        tree._max = [float(v) for v in state["max"]]
        tree._lazy = [float(v) for v in state["lazy"]]
        return tree

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _query(self, node: int, l: int, r: int, lo: int, hi: int) -> float:
        if lo <= l and r <= hi:
            return self._max[node]
        mid = (l + r) // 2
        if hi <= mid:
            below = self._query(2 * node, l, mid, lo, hi)
        elif lo > mid:
            below = self._query(2 * node + 1, mid + 1, r, lo, hi)
        else:
            below = max(
                self._query(2 * node, l, mid, lo, hi),
                self._query(2 * node + 1, mid + 1, r, lo, hi),
            )
        return below + self._lazy[node]
