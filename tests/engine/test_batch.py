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
from repro.engine import batch as batch_mod
from repro.engine.batch import BatchedTreeDP, compile_forest
from repro.errors import EngineError, InfeasibleError, TableError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG

from ..conftest import (
    OneLaneDP,
    bind_pinned,
    bind_table,
    traceback_all,
    traceback_at,
)


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
        got = traceback_at(batched, lane, budget)
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
    bind_table(batched, 0, table, rows)
    batched.refresh()
    np.testing.assert_array_equal(
        batched.total_curve(0), tree_cost_curve(tree, table, 25)
    )
    for budget in range(batched.min_feasible(0), 26):
        got = traceback_at(batched, 0, budget).tolist()
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
    bind_table(batched, 0, t_tree, rows)
    bind_table(batched, 1, t_tree2, rows)
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
    bind_table(batched, 0, table, rows)
    batched.refresh()
    scalar = _scalar(tree, table, 22)
    pinned = table
    for row, fu_type in ((0, 1), (2, 0), (1, 2)):
        pinned = pinned.with_fixed(rows[row], fu_type)
        scalar.refresh(pinned)
        bind_pinned(batched, 0, row, fu_type)
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
        bind_table(batched, 0, t, rows)
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
    bind_table(batched, 0, table, rows)
    batched.refresh()
    recomputed = stats.nodes_recomputed
    bind_table(batched, 0, table, rows)
    batched.refresh()
    # nothing dirty, nothing redone
    assert stats.nodes_recomputed == recomputed


def test_traceback_all_matches_per_budget_tracebacks():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=11)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [20, 24])
    bind_table(batched, 0, table, rows)
    bind_table(batched, 1, table, rows)
    batched.refresh()
    budgets = [batched.min_feasible(0), batched.min_feasible(1)]
    all_rows = traceback_all(batched, budgets)
    for lane, budget in enumerate(budgets):
        np.testing.assert_array_equal(
            all_rows[lane], traceback_at(batched, lane, budget)
        )


def test_infeasible_lane_reports_like_scalar():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=5)
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [0], name=tree.name)
    bind_table(batched, 0, table, rows)
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
        bind_table(batched, 0, table, rows[:-1])
    with pytest.raises(TableError, match="bad bind shapes"):
        batched.bind_arrays(
            0,
            np.zeros((2, 3), dtype=np.int64),
            np.zeros((3, 3), dtype=np.float64),
            ["a", "b"],
        )
    with pytest.raises(EngineError, match="out of range"):
        bind_table(batched, 7, table, rows)
    with pytest.raises(EngineError, match="bind_pins needs a materialized"):
        bind_pinned(batched, 0, 0, 0)


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
    bind_table(batched, 0, table, rows)
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
        kids = shape.sweep_kids[i]
        assert kids[: hi - lo].tolist() == shape.child_idx[lo:hi].tolist()
        assert (kids[hi - lo :] == shape.n).all()


def _deep() -> DFG:
    """A 9-node out-tree with 1-3 children per node and height 3."""
    return DFG.from_edges(
        [
            ("r", "a"), ("r", "b"), ("r", "c"),
            ("a", "d"), ("a", "e"), ("b", "f"),
            ("f", "g"), ("f", "h"),
        ],
        name="deep",
    )


def test_one_refresh_over_different_dirty_sets_matches_single_lanes():
    """Lanes with different changed rows refresh in one call, each as
    its own one-lane engine would."""
    tree = _deep()
    shape, nodes, rows = compile_forest(tree)
    tables = [random_table(tree, num_types=3, seed=s) for s in (21, 22, 23, 24)]
    deadlines = [14, 18, 16, 20]
    stats = [DPStats() for _ in tables]
    batched = BatchedTreeDP(shape, deadlines, stats=stats)
    for lane, table in enumerate(tables):
        bind_table(batched, lane, table, rows)
    batched.refresh()
    singles = [_scalar(tree, t, d) for t, d in zip(tables, deadlines)]
    # lane 0: a leaf pin; lane 1: an inner pin plus a leaf pin; lane 2:
    # a rebind of another table; lane 3: nothing changed.
    g, f = rows.index("g"), rows.index("f")
    bind_pinned(batched, 0, g, 2)
    tables[0] = tables[0].with_fixed("g", 2)
    bind_pinned(batched, 1, f, 1)
    bind_pinned(batched, 1, rows.index("e"), 0)
    tables[1] = tables[1].with_fixed("f", 1).with_fixed("e", 0)
    tables[2] = random_table(tree, num_types=3, seed=99)
    bind_table(batched, 2, tables[2], rows)
    batched.refresh()
    for lane, (single, table) in enumerate(zip(singles, tables)):
        single.refresh(table)
        np.testing.assert_array_equal(
            batched.total_curve(lane),
            tree_cost_curve(tree, table, deadlines[lane]),
        )
        _assert_lane_matches(batched, lane, single)
        assert _counters(stats[lane]) == _counters(single.stats)
    # g's chain is g, f, b, r; f and e dirty f, b, r and e, a.
    recomputed = [s.nodes_recomputed - len(nodes) for s in stats]
    assert recomputed[0] == 4 and recomputed[1] == 5 and recomputed[3] == 0


def test_lockstep_pin_keeps_padded_types_out():
    """A multi-lane pin over lanes with 2 and 3 types pins the real
    types only; padding stays time 0 / cost inf and never wins."""
    tree = _deep()
    shape, nodes, rows = compile_forest(tree)
    tables = [
        random_table(tree, num_types=2, seed=31),
        random_table(tree, num_types=3, seed=32),
    ]
    deadlines = [17, 15]
    batched = BatchedTreeDP(shape, deadlines)
    for lane, table in enumerate(tables):
        bind_table(batched, lane, table, rows)
    batched.refresh()
    for node, types in (("f", [1, 2]), ("a", [0, 1]), ("h", [1, 0])):
        row = rows.index(node)
        batched.bind_pins([0, 1], row, types)
        tables = [t.with_fixed(node, k) for t, k in zip(tables, types)]
        batched.refresh()
        assert batched._times[0, row, 2] == 0
        assert batched._costs[0, row, 2] == np.inf
        for lane, table in enumerate(tables):
            d = deadlines[lane]
            np.testing.assert_array_equal(
                batched.total_curve(lane), tree_cost_curve(tree, table, d)
            )
            for budget in range(batched.min_feasible(lane), d + 1):
                got = traceback_at(batched, lane, budget).tolist()
                assert dict(zip(nodes, got)) == dict(
                    tree_assign(tree, table, budget).assignment.items()
                )
                assert lane == 1 or max(got) < 2


def test_bind_pins_validation():
    tree = _deep()
    shape, _, rows = compile_forest(tree)
    batched = BatchedTreeDP(shape, [12, 12])
    bind_table(batched, 0, random_table(tree, num_types=2, seed=1), rows)
    bind_table(batched, 1, random_table(tree, num_types=3, seed=2), rows)
    batched.refresh()
    with pytest.raises(EngineError, match="fu_type 2 out of range"):
        batched.bind_pins([0, 1], 0, [2, 2])
    with pytest.raises(EngineError, match="repeat a lane"):
        batched.bind_pins([1, 1], 0, [0, 1])
    with pytest.raises(EngineError, match="row 99 out of range"):
        batched.bind_pins([0], 99, [0])
    with pytest.raises(EngineError, match="2 lanes but 1 pinned types"):
        batched.bind_pins([0, 1], 0, [0])


def test_small_sweep_block_is_bit_identical(monkeypatch):
    """Chunked height passes give the same curves and choices."""
    tree = _deep()
    shape, _, rows = compile_forest(tree)
    tables = [random_table(tree, num_types=3, seed=s) for s in (41, 42, 43)]

    def run():
        batched = BatchedTreeDP(shape, [13, 19, 16])
        for lane, table in enumerate(tables):
            bind_table(batched, lane, table, rows)
        batched.refresh()
        batched.bind_pins([0, 1, 2], rows.index("f"), [0, 1, 2])
        batched.refresh()
        return batched

    whole = run()
    # One (target, type or child, budget) block holds fewer elements
    # than a single target needs, so every pass runs target by target.
    monkeypatch.setattr(batch_mod, "SWEEP_BLOCK", 7)
    chunked = run()
    np.testing.assert_array_equal(chunked._curves, whole._curves)
    np.testing.assert_array_equal(chunked._choices, whole._choices)
    for lane, deadline in enumerate([13, 19, 16]):
        for budget in range(whole.min_feasible(lane), deadline + 1):
            np.testing.assert_array_equal(
                traceback_at(chunked, lane, budget),
                traceback_at(whole, lane, budget),
            )


def test_lanes_bound_to_the_same_arrays_share_their_first_sweep():
    """Lanes whose first bind passed the same arrays are swept once and
    copied; each still equals its own one-lane engine, counters too."""
    tree = _deep()
    shape, _, rows = compile_forest(tree)
    table = random_table(tree, num_types=3, seed=51)
    other = random_table(tree, num_types=3, seed=52)
    t = np.asarray([table.times(r) for r in rows], dtype=np.int64)
    c = np.asarray([table.costs(r) for r in rows], dtype=np.float64)
    deadlines = [20, 28, 24, 26]
    f = rows.index("f")

    def engine():
        stats = [DPStats() for _ in deadlines]
        batched = BatchedTreeDP(shape, deadlines, stats=stats)
        for lane in (0, 1, 3):
            batched.bind_arrays(lane, t, c, list(range(len(rows))))
        bind_table(batched, 2, other, rows)
        return batched, stats

    def check(batched, stats, tables):
        for lane, (tab, d) in enumerate(zip(tables, deadlines)):
            single = _scalar(tree, tab, d)
            np.testing.assert_array_equal(
                batched.total_curve(lane), tree_cost_curve(tree, tab, d)
            )
            _assert_lane_matches(batched, lane, single)

    # One first sweep: lanes 1 and 3 copy lane 0; a later pin of lane 0
    # leaves them alone.
    batched, stats = engine()
    batched.refresh()
    assert [s.nodes_recomputed for s in stats] == [len(rows)] * 4
    check(batched, stats, [table, table, other, table])
    bind_pinned(batched, 0, f, 2)
    batched.refresh([0])
    assert stats[0].nodes_recomputed == len(rows) + 3
    check(batched, stats, [table.with_fixed("f", 2), table, other, table])

    # Lane 3 refreshes alone first, so it cannot copy; lane 0 then
    # changes before its own first refresh, and lane 1 must not copy it.
    batched, stats = engine()
    batched.refresh([3])
    bind_pinned(batched, 0, f, 2)
    batched.refresh()
    check(batched, stats, [table.with_fixed("f", 2), table, other, table])
