"""Tests for the tree-structured order-k Voronoi index (Approx*'s engine).

The central property: :meth:`TreeIndex.find_best` returns exactly the
same slot as exhaustive enumeration — the upper bounds are sound and
ties break identically — across random executed sets, costs, and
budgets.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.evaluator import TemporalQualityEvaluator
from repro.core.instrumentation import OpCounters
from repro.core.quality import entropy_term
from repro.core.tree_index import COST_EPSILON, TreeIndex
from repro.errors import ConfigurationError


class FakeCosts:
    """Minimal cost table: slot -> cost (None = unassignable)."""

    def __init__(self, costs: dict[int, float], reliabilities: dict[int, float] | None = None):
        self._costs = costs
        self._rels = reliabilities or {}

    def cost(self, slot):
        return self._costs.get(slot)

    def reliability(self, slot):
        return self._rels.get(slot, 1.0)


def brute_force_best(ev, costs, remaining):
    """Reference argmax of gain/cost with the library tie-break."""
    best = None
    for slot in range(1, ev.m + 1):
        if ev.is_executed(slot):
            continue
        cost = costs.cost(slot)
        if cost is None or cost > remaining + 1e-12:
            continue
        gain = ev.gain_if_executed(slot, costs.reliability(slot))
        if gain <= 0.0:
            continue
        heur = gain / max(cost, COST_EPSILON)
        if best is None or heur > best[3] or (heur == best[3] and slot < best[0]):
            best = (slot, gain, cost, heur)
    return best


class TestConstruction:
    def test_rejects_bad_ts(self):
        ev = TemporalQualityEvaluator(10, 2)
        with pytest.raises(ConfigurationError):
            TreeIndex(ev, FakeCosts({}), ts=0)

    def test_candidate_count(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({s: 1.0 for s in range(1, 11)}))
        assert index.candidate_count == 10
        window = ev.affected_window(4)
        ev.execute(4)
        index.refresh_range(*window)
        assert index.candidate_count == 9

    def test_unassignable_slots_excluded(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({1: 1.0}))
        assert index.candidate_count == 1

    def test_node_count_decreases_with_ts(self):
        ev = TemporalQualityEvaluator(64, 2)
        costs = FakeCosts({s: 1.0 for s in range(1, 65)})
        small = TreeIndex(ev, costs, ts=2).node_count
        big = TreeIndex(ev, costs, ts=16).node_count
        assert big < small


class TestFindBest:
    def test_empty_index_returns_none(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({}))
        assert index.find_best(100.0) is None

    def test_budget_excludes_expensive_slots(self):
        ev = TemporalQualityEvaluator(11, 2)
        costs = FakeCosts({6: 50.0, 1: 1.0})
        index = TreeIndex(ev, costs)
        best = index.find_best(10.0)
        assert best.slot == 1

    def test_no_affordable_returns_none(self):
        ev = TemporalQualityEvaluator(10, 2)
        index = TreeIndex(ev, FakeCosts({5: 100.0}))
        assert index.find_best(1.0) is None

    def test_matches_brute_force_on_empty_set(self):
        ev = TemporalQualityEvaluator(20, 3)
        costs = FakeCosts({s: float(s) for s in range(1, 21)})
        index = TreeIndex(ev, costs)
        best = index.find_best(1000.0)
        expected = brute_force_best(ev, costs, 1000.0)
        assert (best.slot, best.heuristic) == (expected[0], pytest.approx(expected[3]))

    @settings(deadline=None, max_examples=50)
    @given(
        m=st.integers(8, 40),
        executed=st.sets(st.integers(1, 40), max_size=10),
        seed=st.integers(0, 10_000),
        ts=st.sampled_from([1, 2, 4, 8]),
        k=st.integers(1, 4),
    )
    def test_matches_brute_force_random(self, m, executed, seed, ts, k):
        import numpy as np

        rng = np.random.default_rng(seed)
        executed = {e for e in executed if e <= m}
        cost_map = {
            s: round(float(rng.uniform(0.5, 10.0)), 3)
            for s in range(1, m + 1)
            if rng.uniform() > 0.1  # ~10% unassignable
        }
        costs = FakeCosts(cost_map)
        ev = TemporalQualityEvaluator(m, k)
        index = TreeIndex(ev, costs, ts=ts)
        for e in sorted(executed):
            window = ev.affected_window(e)
            ev.execute(e)
            index.refresh_range(*window)
        remaining = float(rng.uniform(1.0, 15.0))
        got = index.find_best(remaining)
        expected = brute_force_best(ev, costs, remaining)
        if expected is None:
            assert got is None
        else:
            assert got is not None
            assert got.slot == expected[0]
            assert got.gain == pytest.approx(expected[1])
            assert got.heuristic == pytest.approx(expected[3])

    def test_with_reliabilities(self):
        ev = TemporalQualityEvaluator(15, 2)
        cost_map = {s: 1.0 + s * 0.1 for s in range(1, 16)}
        rels = {s: 0.5 + 0.03 * s for s in range(1, 16)}
        costs = FakeCosts(cost_map, rels)
        index = TreeIndex(ev, costs)
        got = index.find_best(100.0)
        expected = brute_force_best(ev, costs, 100.0)
        assert got.slot == expected[0]


class TestIncrementalConsistency:
    def test_greedy_sequence_matches_brute_force(self):
        """A full greedy run driven by the index matches enumeration."""
        ev_a = TemporalQualityEvaluator(30, 3)
        ev_b = TemporalQualityEvaluator(30, 3)
        cost_map = {s: 1.0 + (s * 7 % 5) for s in range(1, 31)}
        costs = FakeCosts(cost_map)
        index = TreeIndex(ev_a, costs, ts=4)
        for _ in range(12):
            got = index.find_best(1e9)
            expected = brute_force_best(ev_b, costs, 1e9)
            if expected is None:
                assert got is None
                break
            assert got.slot == expected[0]
            window = ev_a.affected_window(got.slot)
            ev_a.execute(got.slot)
            index.refresh_range(*window)
            ev_b.execute(expected[0])

    def test_pruning_counters_accumulate(self):
        ev = TemporalQualityEvaluator(60, 3)
        costs = FakeCosts({s: 1.0 for s in range(1, 61)})
        index = TreeIndex(ev, costs, ts=4)
        for _ in range(10):
            best = index.find_best(1e9)
            window = ev.affected_window(best.slot)
            ev.execute(best.slot)
            index.refresh_range(*window)
        counters = index.counters
        assert counters.candidates_total > 0
        assert 0.0 <= counters.pruning_ratio <= 1.0

    def test_refresh_range_reads_cost_changes(self):
        """Cost providers mutate in multi-task runs; refresh re-reads."""
        ev = TemporalQualityEvaluator(10, 2)
        cost_map = {s: 1.0 for s in range(1, 11)}
        costs = FakeCosts(cost_map)
        index = TreeIndex(ev, costs)
        cost_map[3] = 0.01  # slot 3 becomes extremely cheap
        index.refresh_range(3, 3)
        assert index.find_best(1e9).slot == 3


def _reference_refresh_slot(self, slot: int) -> None:
    """The per-slot repaint before the single-pass rewrite, kept as the
    reference: ``gain_at`` closure, every band visited."""
    ev = self.ev
    m, k = ev.m, ev.k

    old = self._painted[slot]
    if ev.is_executed(slot):
        self._self_gain[slot] = float("-inf")
        self._unpaint(slot)
        return

    p = ev.p(slot)
    if self._cost[slot] == float("inf"):
        self._self_gain[slot] = float("-inf")
    else:
        self._self_gain[slot] = entropy_term(self._rel[slot] / m) - entropy_term(p)
    far = ev.farthest_neighbor(slot)
    if far is None:
        dk = m
        evicted = 0.0
    else:
        dk, lam_far = far
        evicted = lam_far * (m - dk)

    def gain_at(distance: int) -> float:
        delta_p = ((m - distance) - evicted) / (k * m * m)
        if delta_p <= 0.0:
            return 0.0
        p_ub = min(p + delta_p, 1.0 / m)
        return max(entropy_term(p_ub) - entropy_term(p), 0.0)

    segments: list[tuple[int, int, float]] = []
    a = 0
    width = 1
    while a < dk:
        b = min(a + width, dk)
        value = gain_at(a + 1)
        if value > 0.0:
            lo_l, hi_l = slot - b, slot - a - 1
            if hi_l >= 1:
                segments.append((max(1, lo_l), hi_l, value))
            lo_r, hi_r = slot + a + 1, slot + b
            if lo_r <= m:
                segments.append((lo_r, min(m, hi_r), value))
        a = b
        width *= 2

    if old != segments:
        self._unpaint(slot)
        for lo, hi, value in segments:
            self._paint.add(lo, hi, value)
        self._painted[slot] = segments if segments else None
        self.counters.tree_node_updates += 1


def _drive_index(backend: str, seed: int) -> list[tuple[str, OpCounters]]:
    """A seeded random repair sequence; the index state and counters
    after every step."""
    import numpy as np

    rng = np.random.default_rng(seed)
    m = int(rng.choice([3, 5, 24, 37, 60]))
    k = int(rng.integers(1, 5))
    hetero = seed % 2 == 1
    cost_map = {
        s: round(float(rng.uniform(0.5, 10.0)), 3)
        for s in range(1, m + 1)
        if rng.uniform() > 0.1
    }
    rels = {s: round(float(rng.uniform(0.3, 1.0)), 3) for s in range(1, m + 1)} if hetero else {}
    costs = FakeCosts(cost_map, rels)
    ev = TemporalQualityEvaluator(m, k, backend=backend)
    index = TreeIndex(ev, costs, ts=int(rng.integers(1, 6)))
    trace = [(json.dumps(index.to_state()), index.counters.snapshot())]
    for _ in range(40):
        action = rng.uniform()
        if action < 0.45:
            free = [s for s in range(1, m + 1) if not ev.is_executed(s)]
            if not free:
                break
            slot = int(rng.choice(free))
            window = ev.affected_window(slot)
            ev.execute(slot, costs.reliability(slot))
            index.refresh_range(*window)
        elif action < 0.75:
            # Worker churn: some offers change or vanish, then the
            # touched slots are repaired incrementally.
            touched = {int(s) for s in rng.integers(1, m + 1, size=int(rng.integers(1, 6)))}
            for s in touched:
                if rng.uniform() < 0.3:
                    cost_map.pop(s, None)
                else:
                    cost_map[s] = round(float(rng.uniform(0.5, 10.0)), 3)
            index.refresh_slots(touched | {0, m + 1})
        else:
            index.find_best(float(rng.uniform(1.0, 15.0)))
        trace.append((json.dumps(index.to_state()), index.counters.snapshot()))
    return trace


class TestReferenceBitIdentity:
    """Index repair is bit-identical to the recursive paint tree and the
    per-band ``gain_at`` refresh it replaced: the journal snapshots the
    paint arrays verbatim, and the regress ledger pins the counters."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("seed", range(12))
    def test_repair_matches_reference(self, backend, seed, monkeypatch):
        from test_util_structures import ReferenceRangeAddMaxTree

        import repro.core.tree_index as tree_index_module

        current = _drive_index(backend, seed)
        monkeypatch.setattr(tree_index_module, "RangeAddMaxTree", ReferenceRangeAddMaxTree)
        monkeypatch.setattr(TreeIndex, "_refresh_slot", _reference_refresh_slot)
        reference = _drive_index(backend, seed)
        assert len(current) == len(reference)
        for step, ((state, counters), (ref_state, ref_counters)) in enumerate(
            zip(current, reference)
        ):
            assert state == ref_state, f"state diverged at step {step}"
            assert counters == ref_counters, f"counters diverged at step {step}"
