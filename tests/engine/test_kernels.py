"""PackedTreeDP vs the `Tree_Assign` recurrence, plus window_bounds."""

from __future__ import annotations

import numpy as np
import pytest

from repro.assign.tree_assign import tree_assign, tree_cost_curve
from repro.engine import DPStats, PackedTreeDP, window_bounds
from repro.errors import InfeasibleError, NotATreeError, TableError
from repro.fu.random_tables import random_table
from repro.graph.dag import descendants
from repro.graph.dfg import DFG


def make_table(dfg, seed=0, num_types=3):
    return random_table(dfg, num_types=num_types, seed=seed)


def _tree() -> DFG:
    return DFG.from_edges(
        [("r", "a"), ("r", "b"), ("b", "c"), ("b", "d")], name="tree"
    )


def _subtree_curve(tree, table, node, deadline):
    """The recurrence's curve of the subtree rooted at ``node``."""
    subtree = tree.subgraph({node} | descendants(tree, node))
    return tree_cost_curve(subtree, table, deadline)


# ----------------------------------------------------------------------
# window_bounds
# ----------------------------------------------------------------------
def _reference_bounds(occ_asap, occ_alap):
    m, horizon = occ_asap.shape
    bounds = []
    windows = np.arange(1, horizon + 1, dtype=np.float64)
    for j in range(m):
        if horizon == 0 or not occ_asap[j].any() and not occ_alap[j].any():
            bounds.append(0)
            continue
        lb_alap = np.max(np.ceil(np.cumsum(occ_alap[j]) / windows))
        lb_asap = np.max(np.ceil(np.cumsum(occ_asap[j][::-1]) / windows))
        bounds.append(int(max(lb_alap, lb_asap)))
    return bounds


def test_window_bounds_matches_reference_loop():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 5))
        horizon = int(rng.integers(1, 12))
        occ_asap = rng.integers(0, 4, size=(m, horizon))
        occ_alap = rng.integers(0, 4, size=(m, horizon))
        got = window_bounds(occ_asap, occ_alap)
        assert got.tolist() == _reference_bounds(occ_asap, occ_alap)


def test_window_bounds_zero_horizon_and_shape_check():
    assert window_bounds(
        np.zeros((3, 0), dtype=np.int64), np.zeros((3, 0), dtype=np.int64)
    ).tolist() == [0, 0, 0]
    with pytest.raises(TableError, match="occupancy shapes"):
        window_bounds(np.zeros((2, 3)), np.zeros((2, 4)))


# ----------------------------------------------------------------------
# PackedTreeDP vs the Tree_Assign recurrence
# ----------------------------------------------------------------------
def test_engines_bitwise_identical_on_tree():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed = PackedTreeDP(tree, 25).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(tree, table, 25)
    )
    floor = packed.min_feasible()
    for j in range(floor, 26):
        ref = tree_assign(tree, table, j)
        assert packed.traceback_at(j) == dict(ref.assignment.items())
    for n in tree.nodes():
        np.testing.assert_array_equal(
            packed.curve(n), _subtree_curve(tree, table, n, 25)
        )


def test_engines_identical_across_pin_rounds():
    tree = _tree()
    table = make_table(tree, seed=5)
    warm = PackedTreeDP(tree, 25, stats=DPStats())
    for t in (table, table.with_fixed("b", 1), table.with_fixed("c", 0), table):
        warm.refresh(t)
        cold = PackedTreeDP(tree, 25).refresh(t)
        np.testing.assert_array_equal(warm.total_curve(), cold.total_curve())
        np.testing.assert_array_equal(
            warm.total_curve(), tree_cost_curve(tree, t, 25)
        )
        ref = tree_assign(tree, t, 25)
        assert warm.traceback_at(25) == dict(ref.assignment.items())
    # round 1 computes all 5 nodes; pinning b dirties b and r; pinning
    # c (b's pin gone) dirties c, b, r, and b's state is new; the last
    # revert re-derives round 1's states, so only clean-probes remain
    assert warm.stats.nodes_visited == 4 * 5
    assert warm.stats.nodes_recomputed == 5 + 2 + 3
    assert warm.stats.cache_hits == 20 - 10
    assert warm.cache_entries() == 10


def test_empty_forest():
    from repro.fu.table import TimeCostTable

    empty = DFG(name="empty")
    table = TimeCostTable(3)
    packed = PackedTreeDP(empty, 4).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(empty, table, 4)
    )
    assert packed.total_curve().tolist() == [0.0] * 5
    assert packed.traceback_at(0) == {}


def test_single_node():
    one = DFG(name="one")
    one.add_node("x", op="add")
    table = make_table(one, seed=2)
    packed = PackedTreeDP(one, 8).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(one, table, 8)
    )
    ref = tree_assign(one, table, 8)
    assert packed.traceback_at(8) == dict(ref.assignment.items())


def test_infeasible_deadline_same_error():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed = PackedTreeDP(tree, 1)
    with pytest.raises(InfeasibleError) as from_packed:
        packed.refresh(table).traceback_at(1)
    with pytest.raises(InfeasibleError) as from_recurrence:
        tree_assign(tree, table, 1)
    assert str(from_packed.value) == str(from_recurrence.value)
    assert from_packed.value.min_feasible == from_recurrence.value.min_feasible


def test_budget_out_of_range_same_error():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed = PackedTreeDP(tree, 10).refresh(table)
    for budget in (11, -1):
        with pytest.raises(InfeasibleError) as exc:
            packed.traceback_at(budget)
        assert str(exc.value) == (
            f"budget {budget} outside the engine's range [0, 10]"
        )


def test_query_before_refresh_raises():
    packed = PackedTreeDP(_tree(), 10)
    with pytest.raises(InfeasibleError, match="refresh"):
        packed.total_curve()


def test_rejects_non_forest_and_negative_deadline():
    dag = DFG.from_edges([("a", "c"), ("b", "c")], name="vee")
    with pytest.raises(NotATreeError, match="out-forest"):
        PackedTreeDP(dag, 5)
    with pytest.raises(InfeasibleError, match=">= 0"):
        PackedTreeDP(_tree(), -1)


def test_clear_cache_recomputes_identically():
    tree = _tree()
    table = make_table(tree, seed=5)
    packed = PackedTreeDP(tree, 20)
    packed.refresh(table)
    before = packed.total_curve().copy()
    assert packed.cache_entries() > 0
    packed.clear_cache()
    assert packed.cache_entries() == 0
    packed.refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), before)
