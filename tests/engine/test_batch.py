"""BatchedTreeDP: a lane is the same with or without other lanes.

The engine promises *per-lane bit-identity*: a lane's curves,
tracebacks and ``DPStats`` integer counters for a bind/refresh sequence
equal those of a one-lane engine driven through the same sequence, and
a one-lane engine equals the `Tree_Assign` recurrence.  These tests pin
that contract on hand-built forests where every intermediate is small
enough to reason about: single lanes, lanes sharing a shape, pin
rounds, rebinds, and the validation surface.  Suite-scale parity
(every registered benchmark, hypothesis instances) lives in
``tests/properties/test_prop_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assign.tree_assign import tree_assign, tree_cost_curve
from repro.engine import DPStats
from repro.engine.batch import BatchedTreeDP, compile_forest
from repro.errors import EngineError, InfeasibleError, TableError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG

from ..conftest import OneLaneDP


def _tree() -> DFG:
    return DFG.from_edges(
        [("r", "a"), ("r", "b"), ("b", "c"), ("b", "d")], name="tree"
    )


def _wide() -> DFG:
    return DFG.from_edges(
        [("x", "y"), ("x", "z"), ("y", "u"), ("y", "v"), ("z", "w")],
        name="wide",
    )


def _scalar(tree: DFG, table, deadline: int) -> OneLaneDP:
    return OneLaneDP(tree, deadline, stats=DPStats()).refresh(table)


def _assert_lane_matches(batched: BatchedTreeDP, lane: int, scalar: OneLaneDP):
    np.testing.assert_array_equal(
        batched.total_curve(lane), scalar.total_curve()
    )
    assert batched.min_feasible(lane) == scalar.min_feasible()
    deadline = batched.deadline(lane)
    for budget in range(scalar.min_feasible(), deadline + 1):
        got = batched.traceback_at(lane, budget)
        want = scalar.traceback_at(budget)
        assert {
            node: int(got[i]) for i, node in enumerate(scalar.nodes)
        } == want


def _counters(stats: DPStats) -> dict:
    # Integer work counters only: seconds_* fields are wall-clock.
    return {
        k: v
        for k, v in vars(stats).items()
        if isinstance(v, int) and not k.startswith("seconds")
    }


def test_single_lane_matches_scalar():
    """One lane is the `Tree_Assign` recurrence, curve and traceback."""
    tree = _tree()
    table = random_table(tree, num_types=3, seed=7)
    shape, nodes, rows = compile_forest(tree)
    stats = DPStats()
    batched = BatchedTreeDP(shape, [25], name=tree.name, stats=[stats])
    batched.bind_table(0, table, rows)
    batched.refresh()
    np.testing.assert_array_equal(
        batched.total_curve(0), tree_cost_curve(tree, table, 25)
    )
    for budget in range(batched.min_feasible(0), 26):
        got = batched.traceback_at(0, budget).tolist()
        assert dict(zip(nodes, got)) == dict(
            tree_assign(tree, table, budget).assignment.items()
        )
    n = len(tree)
    assert _counters(stats) == {
        "refreshes": 1,
        "tracebacks": 26 - batched.min_feasible(0),
        "nodes_visited": n,
        "nodes_recomputed": n,
        "cache_hits": 0,
    }


def test_shared_forest_group():
    tree = _tree()
    t_tree = random_table(tree, num_types=3, seed=1)
    t_tree2 = random_table(tree, num_types=2, seed=2)
    shape, _, rows = compile_forest(tree)
    # two lanes of one shape, with different tables, type counts and
    # deadlines
    batched = BatchedTreeDP(shape, [20, 26])
    batched.bind_table(0, t_tree, rows)
    batched.bind_table(1, t_tree2, rows)
    batched.refresh()
    _assert_lane_matches(batched, 0, _scalar(tree, t_tree, 20))
    _assert_lane_matches(batched, 1, _scalar(tree, t_tree2, 26))


def test_pin_rounds_match_with_fixed_rebinds():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=9)
    shape, _, rows = compile_forest(tree)
    assert rows == ["d", "c", "b", "a", "r"]
    stats = DPStats()
    batched = BatchedTreeDP(shape, [22], stats=[stats])
    batched.bind_table(0, table, rows)
    batched.refresh()
    scalar = _scalar(tree, table, 22)
    pinned = table
    for row, fu_type in ((0, 1), (2, 0), (1, 2)):
        pinned = pinned.with_fixed(rows[row], fu_type)
        scalar.refresh(pinned)
        batched.bind_pinned(0, row, fu_type)
        batched.refresh()
        np.testing.assert_array_equal(
            batched.total_curve(0), tree_cost_curve(tree, pinned, 22)
        )
        _assert_lane_matches(batched, 0, scalar)
    assert _counters(stats) == _counters(scalar.stats)
    # 5 nodes, then each pin's row and its ancestors: d (d, b, r),
    # b (b, r), c (c, b, r).
    assert (stats.refreshes, stats.nodes_visited, stats.nodes_recomputed) == (
        4,
        4 * 5,
        5 + 3 + 2 + 3,
    )
    # Re-binding the base table after the pins flags the three pinned
    # rows again (d, c, b and their ancestor r), and both paths
    # recompute the same dirty set.
    for t in (table, pinned):
        scalar.refresh(t)
        batched.bind_table(0, t, rows)
        batched.refresh()
        np.testing.assert_array_equal(
            batched.total_curve(0), tree_cost_curve(tree, t, 22)
        )
        _assert_lane_matches(batched, 0, scalar)
    assert _counters(stats) == _counters(scalar.stats)
    assert (stats.refreshes, stats.nodes_visited, stats.nodes_recomputed) == (
        6,
        6 * 5,
        5 + 3 + 2 + 3 + 4 + 4,
    )


def test_rebind_same_table_is_all_hits():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=4)
    shape, _, rows = compile_forest(tree)
    stats = DPStats()
    batched = BatchedTreeDP(shape, [20], stats=[stats])
    batched.bind_table(0, table, rows)
    batched.refresh()
    recomputed = stats.nodes_recomputed
    batched.bind_table(0, table, rows)
    batched.refresh()
    # nothing dirty, nothing redone
    assert stats.nodes_recomputed == recomputed


def test_traceback_all_matches_per_budget_tracebacks():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=11)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [20, 24])
    batched.bind_table(0, table, rows)
    batched.bind_table(1, table, rows)
    batched.refresh()
    budgets = [batched.min_feasible(0), batched.min_feasible(1)]
    all_rows = batched.traceback_all(budgets)
    for lane, budget in enumerate(budgets):
        np.testing.assert_array_equal(
            all_rows[lane], batched.traceback_at(lane, budget)
        )


def test_infeasible_lane_reports_like_scalar():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=5)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [0], name=tree.name)
    batched.bind_table(0, table, rows)
    batched.refresh()
    assert not np.isfinite(batched.total_curve(0)).any()
    with pytest.raises(InfeasibleError) as want:
        tree_assign(tree, table, 0)
    got = batched.infeasible_error(0, 0)
    assert str(got) == str(want.value)
    assert got.min_feasible == want.value.min_feasible


def test_constructor_validation():
    shape, _, _ = compile_forest(_tree())
    with pytest.raises(InfeasibleError, match="deadline must be >= 0"):
        BatchedTreeDP(shape, [-1])
    with pytest.raises(EngineError, match="1 deadlines but 2 stats slots"):
        BatchedTreeDP(shape, [10], stats=[None, None])


def test_bind_validation():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=0)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [15])
    with pytest.raises(TableError, match="rows"):
        batched.bind_table(0, table, rows[:-1])
    with pytest.raises(TableError, match="bad bind shapes"):
        batched.bind_arrays(
            0,
            np.zeros((2, 3), dtype=np.int64),
            np.zeros((3, 3), dtype=np.float64),
            ["a", "b"],
        )
    with pytest.raises(EngineError, match="out of range"):
        batched.bind_table(7, table, rows)
    with pytest.raises(EngineError, match="bind_pinned needs a materialized"):
        batched.bind_pinned(0, 0, 0)


def test_bind_rejects_negative_times_and_type_count_changes():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=0)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [15])
    nr = len(rows)
    with pytest.raises(TableError, match="negative execution time"):
        batched.bind_arrays(
            0,
            np.full((nr, 3), -1, dtype=np.int64),
            np.zeros((nr, 3), dtype=np.float64),
            list(range(nr)),
        )
    batched.bind_table(0, table, rows)
    batched.refresh()
    with pytest.raises(TableError, match="FU types"):
        batched.bind_arrays(
            0,
            np.ones((nr, 2), dtype=np.int64),
            np.zeros((nr, 2), dtype=np.float64),
            list(range(nr)),
        )


def test_batched_forest_shape_tables_mirror_csr():
    shape, _, _ = compile_forest(_wide())
    for i in range(shape.n):
        lo, hi = int(shape.child_off[i]), int(shape.child_off[i + 1])
        kids = shape.kids_mat[i]
        assert kids[: hi - lo].tolist() == shape.child_idx[lo:hi].tolist()
        assert (kids[hi - lo :] == -1).all()
