"""The aggregated-tree index behind ``Approx*`` (Section III-C).

The naive Algorithm 1 spends its time in two places: (i) enumerating
all ``m`` subtasks to find the one with the maximum heuristic value and
(ii) recomputing interpolation probabilities for all slots per
candidate.  The paper attacks both with a binary tree over the slot
line ``[1, m]`` that *approximates the order-k Voronoi diagram*:

* leaves are time segments of at most ``ts`` slots (the paper's
  Condition 2 — the fanout knob), or segments entirely inside one
  order-k Voronoi cell (Condition 1, checked during descent);
* every node carries aggregates from which an *upper bound* on the
  heuristic value of any slot in its segment follows;
* the maximum-heuristic slot is found by best-first search over the
  tree with a max-heap, pruning nodes whose upper bound cannot beat
  the best exact value found so far.

Upper-bound derivation (sound, hence the indexed solver provably
returns the *same* slot as the naive greedy):

Executing a slot ``s`` changes the quality by

    dq(s) = [phi(lam_s/m) - phi(p_s)]  +  sum_{u affected} gain_u(s)

Per Eq. 6, a single tentative execution can evict at most the farthest
neighbour from ``u``'s k-NN set, so ``u``'s probability rises by at
most ``((m-1) - lam_far (m - d_k(u))) / (k m^2)`` (nothing is evicted
when ``u`` has fewer than ``k`` executed neighbours); pushing that
through the entropy term gives a per-slot bound ``nbr_ub(u)``.

A slot ``u`` can only be affected when ``|u - s| <= d_k(u)``, i.e.
when ``s`` lies inside ``u``'s *influence interval*
``I_u = [u - d_k(u), u + d_k(u)]`` (the tree analogue of the paper's
per-node influence ranges).  Every unexecuted slot therefore *paints*
``nbr_ub(u)`` over ``I_u`` in a lazy range-add/range-max tree; the
painted value at position ``s`` is exactly
``sum_{u : s in I_u} nbr_ub(u)``, an upper bound on the whole
neighbour term of ``dq(s)``.  A node's bound is then::

    ub_gain(node) = max_self_gain(node) + max painted value over [l, r]
    ub_heur(node) = ub_gain(node) / max(min_cost(node), eps)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.instrumentation import OpCounters
from repro.core.quality import entropy_term
from repro.errors import ConfigurationError
from repro.util.heaps import LazyMaxHeap
from repro.util.range_tree import RangeAddMaxTree

__all__ = ["BestCandidate", "TreeIndex", "COST_EPSILON"]

#: Floor applied to costs in heuristic ratios so zero-cost subtasks get
#: a large-but-finite priority instead of dividing by zero.
COST_EPSILON = 1e-9

_NEG_INF = float("-inf")
_INF = float("inf")


@dataclass(frozen=True, slots=True)
class BestCandidate:
    """The exact winner of one best-first search."""

    slot: int
    gain: float
    cost: float
    heuristic: float


class TreeIndex:
    """Aggregated binary tree over the slot line of one task.

    The index mirrors a :class:`TemporalQualityEvaluator` and a cost
    table.  After every committed execution, call :meth:`refresh_range`
    with the evaluator's affected window so the aggregates stay
    consistent.
    """

    def __init__(
        self,
        evaluator: TemporalQualityEvaluator,
        costs,
        *,
        ts: int = 4,
        counters: OpCounters | None = None,
    ):
        """``costs`` must expose ``cost(slot) -> float | None`` and
        ``reliability(slot) -> float`` (None = unassignable slot)."""
        if ts < 1:
            raise ConfigurationError(f"ts must be >= 1, got {ts}")
        self.ev = evaluator
        self.costs = costs
        self.ts = ts
        self.m = evaluator.m
        self.counters = counters if counters is not None else evaluator.counters

        m = self.m
        # Per-slot state (index 0 unused).
        self._cost = [0.0] * (m + 1)
        self._rel = [1.0] * (m + 1)
        self._self_gain = [_NEG_INF] * (m + 1)
        self._painted: list[list[tuple[int, int, float]] | None] = [None] * (m + 1)
        for slot in range(1, m + 1):
            cost = costs.cost(slot)
            self._cost[slot] = _INF if cost is None else float(cost)
            self._rel[slot] = costs.reliability(slot) if cost is not None else 0.0

        # Influence painting: nbr_ub(u) over I_u (see module docstring).
        self._paint = RangeAddMaxTree(m)
        # Segment-tree aggregates over leaf buckets of <= ts slots.
        self._agg_self = [_NEG_INF] * (4 * (m + 1))
        self._agg_cost = [_INF] * (4 * (m + 1))
        self._agg_cand = [0] * (4 * (m + 1))
        self.node_count = 0
        for slot in range(1, m + 1):
            self._refresh_slot(slot)
        self._build(1, 1, m)
        self.counters.index_full_builds += 1

    # ------------------------------------------------------------------
    # Per-slot state
    # ------------------------------------------------------------------
    def _refresh_slot(self, slot: int) -> None:
        """Recompute per-slot derived values and repaint its influence."""
        ev = self.ev
        m, k = ev.m, ev.k

        if ev.is_executed(slot):
            self._self_gain[slot] = _NEG_INF
            self._unpaint(slot)
            return

        p = ev.p(slot)
        phi_p = entropy_term(p)
        # Self gain: the slot flips from interpolated to executed.
        if self._cost[slot] == _INF:
            self._self_gain[slot] = _NEG_INF
        else:
            self._self_gain[slot] = entropy_term(self._rel[slot] / m) - phi_p
        # Neighbour bound (Eq. 6 generalized): executing a slot at
        # distance d from `slot` inserts a contribution of at most
        # (m - d) and evicts at most the current farthest neighbour.
        far = ev.farthest_neighbor(slot)
        if far is None:
            dk = m
            evicted = 0.0
        else:
            dk, lam_far = far
            evicted = lam_far * (m - dk)

        # Distance-banded painting: band (a, b] is bounded by the gain
        # at its inner edge a+1,
        #     phi(min(p + delta_p, 1/m)) - phi(p),
        #     delta_p = ((m - (a+1)) - evicted) / (k m^2),
        # floored at 0.  Geometric doubling keeps the band count at
        # O(log d_k) while staying tight near the slot, where the true
        # gain is largest.  delta_p only falls as the band moves out,
        # so the first band with delta_p <= 0 ends the painting.
        segments: list[tuple[int, int, float]] = []
        norm = k * m * m
        p_cap = 1.0 / m
        a = 0
        width = 1
        while a < dk:
            delta_p = ((m - (a + 1)) - evicted) / norm
            if delta_p <= 0.0:
                break
            b = a + width
            if b > dk:
                b = dk
            p_ub = p + delta_p
            if p_cap < p_ub:
                p_ub = p_cap
            value = entropy_term(p_ub) - phi_p
            if value > 0.0:
                hi_l = slot - a - 1
                if hi_l >= 1:
                    lo_l = slot - b
                    segments.append((lo_l if lo_l > 1 else 1, hi_l, value))
                lo_r = slot + a + 1
                if lo_r <= m:
                    hi_r = slot + b
                    segments.append((lo_r, hi_r if hi_r < m else m, value))
            a = b
            width *= 2

        if self._painted[slot] != segments:
            self._unpaint(slot)
            add = self._paint.add
            for lo, hi, value in segments:
                add(lo, hi, value)
            self._painted[slot] = segments if segments else None
            self.counters.tree_node_updates += 1

    def _unpaint(self, slot: int) -> None:
        old = self._painted[slot]
        if old is not None:
            add = self._paint.add
            for lo, hi, value in old:
                add(lo, hi, -value)
            self._painted[slot] = None
            self.counters.tree_node_updates += 1

    # ------------------------------------------------------------------
    # Segment tree (leaf buckets of <= ts slots)
    # ------------------------------------------------------------------
    def _is_leaf(self, l: int, r: int) -> bool:
        return r - l + 1 <= self.ts

    def _pull_leaf(self, node: int, l: int, r: int) -> None:
        self.counters.tree_node_updates += 1
        best_self = _NEG_INF
        cost = _INF
        cand = 0
        for slot in range(l, r + 1):
            if self._self_gain[slot] > best_self:
                best_self = self._self_gain[slot]
            if not self.ev.is_executed(slot) and self._cost[slot] != _INF:
                cand += 1
                if self._cost[slot] < cost:
                    cost = self._cost[slot]
        self._agg_self[node] = best_self
        self._agg_cost[node] = cost
        self._agg_cand[node] = cand

    def _pull_inner(self, node: int) -> None:
        self.counters.tree_node_updates += 1
        left, right = 2 * node, 2 * node + 1
        self._agg_self[node] = max(self._agg_self[left], self._agg_self[right])
        self._agg_cost[node] = min(self._agg_cost[left], self._agg_cost[right])
        self._agg_cand[node] = self._agg_cand[left] + self._agg_cand[right]

    def _build(self, node: int, l: int, r: int) -> None:
        self.node_count += 1
        if self._is_leaf(l, r):
            self._pull_leaf(node, l, r)
            return
        mid = (l + r) // 2
        self._build(2 * node, l, mid)
        self._build(2 * node + 1, mid + 1, r)
        self._pull_inner(node)

    def refresh_range(self, lo: int, hi: int) -> None:
        """Recompute per-slot state and aggregates for ``[lo, hi]``.

        Call after :meth:`TemporalQualityEvaluator.execute` with the
        affected window; costs of slots in the range are also re-read
        (they change in multi-task scenarios when workers are consumed).
        """
        lo = max(1, lo)
        hi = min(self.m, hi)
        for slot in range(lo, hi + 1):
            cost = self.costs.cost(slot)
            self._cost[slot] = _INF if cost is None else float(cost)
            self._rel[slot] = self.costs.reliability(slot) if cost is not None else 0.0
            self._refresh_slot(slot)
        self._update(1, 1, self.m, lo, hi)

    def refresh_slots(self, slots) -> int:
        """Incrementally refresh an arbitrary set of slots.

        The streaming churn path: a worker join/leave/consumption only
        perturbs the offers of the slots it overlaps, so the index is
        repaired by coalescing those slots into maximal contiguous runs
        and calling :meth:`refresh_range` per run — never rebuilding
        the whole tree.  Returns the number of runs refreshed.
        """
        ordered = sorted({s for s in slots if 1 <= s <= self.m})
        if not ordered:
            return 0
        self.counters.index_incremental_refreshes += 1
        runs = 0
        lo = hi = ordered[0]
        for slot in ordered[1:]:
            if slot == hi + 1:
                hi = slot
                continue
            self.refresh_range(lo, hi)
            runs += 1
            lo = hi = slot
        self.refresh_range(lo, hi)
        return runs + 1

    def _update(self, node: int, l: int, r: int, a: int, b: int) -> None:
        if b < l or r < a:
            return
        if self._is_leaf(l, r):
            self._pull_leaf(node, l, r)
            return
        mid = (l + r) // 2
        self._update(2 * node, l, mid, a, b)
        self._update(2 * node + 1, mid + 1, r, a, b)
        self._pull_inner(node)

    # ------------------------------------------------------------------
    # State capture (journal snapshots)
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """Verbatim index state for an exact snapshot.

        A fresh build over the same evaluator/cost state reproduces
        every aggregate *mathematically*, but the paint tree's float
        accumulators carry round-off history (paint/unpaint pairs need
        not cancel bit-for-bit), and recovered runs must evolve their
        op counters byte-identically to uninterrupted ones — so the
        journal copies the arrays instead of rebuilding.
        """
        return {
            "ts": self.ts,
            "m": self.m,
            "cost": list(self._cost),
            "rel": list(self._rel),
            "self_gain": list(self._self_gain),
            "painted": [
                None if segs is None else [list(seg) for seg in segs]
                for segs in self._painted
            ],
            "paint": self._paint.to_state(),
            "agg_self": list(self._agg_self),
            "agg_cost": list(self._agg_cost),
            "agg_cand": list(self._agg_cand),
            "node_count": self.node_count,
        }

    @classmethod
    def from_state(
        cls,
        evaluator: TemporalQualityEvaluator,
        costs,
        state: dict,
        *,
        counters: OpCounters | None = None,
    ) -> "TreeIndex":
        """Reconstruct an index bit-identical to the captured one.

        Bypasses ``__init__`` entirely: nothing is recomputed and no
        counter is incremented (restoring state is not solver work).
        ``evaluator`` and ``costs`` must themselves be restored to the
        capture point.
        """
        index = cls.__new__(cls)
        index.ev = evaluator
        index.costs = costs
        index.ts = state["ts"]
        index.m = state["m"]
        index.counters = counters if counters is not None else evaluator.counters
        index._cost = [float(v) for v in state["cost"]]
        index._rel = [float(v) for v in state["rel"]]
        index._self_gain = [float(v) for v in state["self_gain"]]
        # Segment tuples were listified for JSON; the refresh path
        # compares them against freshly built tuples, so restore the
        # exact tuple shape.
        index._painted = [
            None if segs is None else [(int(lo), int(hi), float(v)) for lo, hi, v in segs]
            for segs in state["painted"]
        ]
        index._paint = RangeAddMaxTree.from_state(state["paint"])
        index._agg_self = [float(v) for v in state["agg_self"]]
        index._agg_cost = [float(v) for v in state["agg_cost"]]
        index._agg_cand = [int(v) for v in state["agg_cand"]]
        index.node_count = state["node_count"]
        return index

    # ------------------------------------------------------------------
    # Best-first search
    # ------------------------------------------------------------------
    @property
    def candidate_count(self) -> int:
        """Unexecuted, assignable slots currently indexed."""
        return self._agg_cand[1]

    def _node_upper_bound(self, node: int, l: int, r: int) -> float:
        self_gain = self._agg_self[node]
        if self_gain == _NEG_INF:
            return _NEG_INF
        min_cost = self._agg_cost[node]
        if min_cost == _INF:
            return _NEG_INF
        gain_ub = self_gain + self._paint.max_in(l, r)
        return gain_ub / max(min_cost, COST_EPSILON)

    def _same_voronoi_cell(self, l: int, r: int) -> bool:
        """The paper's Condition 1: the segment's end slots share one
        k-NN set, hence the whole segment lies in one order-k cell
        (Lemma 8)."""
        if l == r:
            return True
        return tuple(self.ev.knn_of(l)) == tuple(self.ev.knn_of(r))

    def find_best(self, remaining_budget: float) -> BestCandidate | None:
        """Exact argmax of ``gain / cost`` over affordable slots.

        Best-first search with upper-bound pruning; returns ``None``
        when no unexecuted, assignable, affordable slot exists or all
        affordable slots have non-positive gain.
        """
        total_candidates = self._agg_cand[1]
        self.counters.candidates_total += total_candidates
        if total_candidates == 0:
            return None
        heap = LazyMaxHeap()
        root_ub = self._node_upper_bound(1, 1, self.m)
        if root_ub == _NEG_INF:
            return None
        heap.push(root_ub, (1, 1, self.m))

        best: BestCandidate | None = None
        evaluated = 0
        while heap:
            popped = heap.pop()
            if popped is None:
                break
            ub, (node, l, r), _ = popped
            self.counters.tree_node_visits += 1
            # Strict comparison: a node whose bound *ties* the incumbent
            # may still hide an equal-heuristic slot with a smaller
            # index, which the deterministic tie-break must prefer.
            if best is not None and ub < best.heuristic:
                break
            if self._is_leaf(l, r) or self._same_voronoi_cell(l, r):
                for slot in range(l, r + 1):
                    if self.ev.is_executed(slot):
                        continue
                    cost = self._cost[slot]
                    if cost == _INF or cost > remaining_budget + 1e-12:
                        continue
                    gain = self.ev.gain_if_executed(slot, self._rel[slot])
                    evaluated += 1
                    if gain <= 0.0:
                        continue
                    heur = gain / max(cost, COST_EPSILON)
                    if (
                        best is None
                        or heur > best.heuristic
                        or (heur == best.heuristic and slot < best.slot)
                    ):
                        best = BestCandidate(slot, gain, cost, heur)
                continue
            mid = (l + r) // 2
            for child, cl, cr in ((2 * node, l, mid), (2 * node + 1, mid + 1, r)):
                child_ub = self._node_upper_bound(child, cl, cr)
                if child_ub == _NEG_INF:
                    continue
                if best is not None and child_ub < best.heuristic:
                    self.counters.tree_node_visits += 1
                    continue
                heap.push(child_ub, (child, cl, cr))
        self.counters.candidates_pruned += max(total_candidates - evaluated, 0)
        return best
