"""BatchedTreeDP: multi-lane bit-parity with the scalar packed engine.

The batched engine promises *per-lane bit-identity* with
:class:`~repro.engine.kernels.PackedTreeDP` — curves, tracebacks, and
``DPStats`` integer counters for the same bind/refresh sequence — while
the compute runs stacked across lanes.  These tests pin that contract
on hand-built forests where every intermediate is small enough to
reason about: single lanes, shared-forest groups, pin rounds, rebinds,
and the validation surface.  Suite-scale parity (every registered
benchmark, hypothesis instances) lives in
``tests/properties/test_prop_batch.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import DPStats
from repro.engine.batch import BatchedForest, BatchedTreeDP
from repro.engine.kernels import PackedTreeDP
from repro.engine.pack import PackedForest
from repro.errors import EngineError, InfeasibleError, TableError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG


def _tree() -> DFG:
    return DFG.from_edges(
        [("r", "a"), ("r", "b"), ("b", "c"), ("b", "d")], name="tree"
    )


def _wide() -> DFG:
    return DFG.from_edges(
        [("x", "y"), ("x", "z"), ("y", "u"), ("y", "v"), ("z", "w")],
        name="wide",
    )


def _scalar(tree: DFG, table, deadline: int) -> PackedTreeDP:
    engine = PackedTreeDP(tree, deadline, stats=DPStats())
    engine.refresh(table)
    return engine


def _assert_lane_matches(batched: BatchedTreeDP, lane: int, scalar: PackedTreeDP):
    np.testing.assert_array_equal(
        batched.total_curve(lane), scalar.total_curve()
    )
    assert batched.min_feasible(lane) == scalar.min_feasible()
    deadline = batched.deadline(lane)
    for budget in range(scalar.min_feasible(), deadline + 1):
        got = batched.traceback_at(lane, budget)
        want = scalar.traceback_at(budget)
        assert {
            node: int(got[i]) for i, node in enumerate(scalar.pack.nodes)
        } == want


def _counters(stats: DPStats) -> dict:
    # Integer work counters only: seconds_* fields are wall-clock.
    return {
        k: v
        for k, v in vars(stats).items()
        if isinstance(v, int) and not k.startswith("seconds")
    }


def test_single_lane_matches_scalar():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=7)
    scalar = _scalar(tree, table, 25)
    pack = PackedForest(tree)
    stats = DPStats()
    batched = BatchedTreeDP([pack], [25], stats=[stats])
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    _assert_lane_matches(batched, 0, scalar)
    assert _counters(stats) == _counters(scalar.stats)


def test_shared_forest_group_and_mixed_shapes():
    tree, wide = _tree(), _wide()
    t_tree = random_table(tree, num_types=3, seed=1)
    t_tree2 = random_table(tree, num_types=3, seed=2)
    t_wide = random_table(wide, num_types=2, seed=3)
    pack_tree, pack_wide = PackedForest(tree), PackedForest(wide)
    # lanes 0 and 1 share one forest object (one group, two slots);
    # lane 2 is a different shape with a different type count.
    batched = BatchedTreeDP([pack_tree, pack_tree, pack_wide], [20, 26, 18])
    batched.bind_table(0, t_tree, pack_tree.rows)
    batched.bind_table(1, t_tree2, pack_tree.rows)
    batched.bind_table(2, t_wide, pack_wide.rows)
    batched.refresh()
    assert len(batched.forest.group_lanes) == 2
    _assert_lane_matches(batched, 0, _scalar(tree, t_tree, 20))
    _assert_lane_matches(batched, 1, _scalar(tree, t_tree2, 26))
    _assert_lane_matches(batched, 2, _scalar(wide, t_wide, 18))


def test_pin_rounds_match_with_fixed_rebinds():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=9)
    pack = PackedForest(tree)
    stats = DPStats()
    batched = BatchedTreeDP([pack], [22], stats=[stats])
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    scalar = _scalar(tree, table, 22)
    pinned = table
    for row, fu_type in ((0, 1), (2, 0), (1, 2)):
        pinned = pinned.with_fixed(pack.rows[row], fu_type)
        scalar.refresh(pinned)
        batched.bind_pinned(0, row, fu_type)
        batched.refresh()
        _assert_lane_matches(batched, 0, scalar)
    assert _counters(stats) == _counters(scalar.stats)
    # Re-binding the base table after the pins flags the three pinned
    # rows again, and both engines recompute the same dirty set.
    for t in (table, pinned):
        scalar.refresh(t)
        batched.bind_table(0, t, pack.rows)
        batched.refresh()
        _assert_lane_matches(batched, 0, scalar)
    assert _counters(stats) == _counters(scalar.stats)


def test_rebind_same_table_is_all_hits():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=4)
    pack = PackedForest(tree)
    stats = DPStats()
    batched = BatchedTreeDP([pack], [20], stats=[stats])
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    recomputed = stats.nodes_recomputed
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    # nothing dirty, nothing redone
    assert stats.nodes_recomputed == recomputed


def test_traceback_all_matches_per_budget_tracebacks():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=11)
    pack = PackedForest(tree)
    batched = BatchedTreeDP([pack, pack], [20, 24])
    batched.bind_table(0, table, pack.rows)
    batched.bind_table(1, table, pack.rows)
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
    pack = PackedForest(tree)
    batched = BatchedTreeDP([pack], [0])
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    assert not np.isfinite(batched.total_curve(0)).any()
    with pytest.raises(InfeasibleError):
        raise batched.infeasible_error(0, 0)


def test_constructor_validation():
    pack = PackedForest(_tree())
    with pytest.raises(EngineError, match="2 forests but 1 deadlines"):
        BatchedTreeDP([pack, pack], [10])
    with pytest.raises(InfeasibleError, match="deadline must be >= 0"):
        BatchedTreeDP([pack], [-1])
    with pytest.raises(EngineError, match="names"):
        BatchedTreeDP([pack], [10], names=["a", "b"])
    with pytest.raises(EngineError, match="stats slots"):
        BatchedTreeDP([pack], [10], stats=[None, None])


def test_bind_validation():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=0)
    pack = PackedForest(tree)
    batched = BatchedTreeDP([pack], [15])
    with pytest.raises(TableError, match="rows"):
        batched.bind_table(0, table, pack.rows[:-1])
    with pytest.raises(TableError, match="bad bind shapes"):
        batched.bind_arrays(
            0,
            np.zeros((2, 3), dtype=np.int64),
            np.zeros((3, 3), dtype=np.float64),
            ["a", "b"],
        )
    with pytest.raises(EngineError, match="out of range"):
        batched.bind_table(7, table, pack.rows)
    with pytest.raises(EngineError, match="bind_pinned needs a materialized"):
        batched.bind_pinned(0, 0, 0)


def test_bind_rejects_negative_times_and_type_count_changes():
    tree = _tree()
    table = random_table(tree, num_types=3, seed=0)
    pack = PackedForest(tree)
    batched = BatchedTreeDP([pack], [15])
    nr = len(pack.rows)
    with pytest.raises(TableError, match="negative execution time"):
        batched.bind_arrays(
            0,
            np.full((nr, 3), -1, dtype=np.int64),
            np.zeros((nr, 3), dtype=np.float64),
            list(range(nr)),
        )
    batched.bind_table(0, table, pack.rows)
    batched.refresh()
    with pytest.raises(TableError, match="FU types"):
        batched.bind_arrays(
            0,
            np.ones((nr, 2), dtype=np.int64),
            np.zeros((nr, 2), dtype=np.float64),
            list(range(nr)),
        )


def test_batched_forest_shape_tables_mirror_csr():
    tree = _wide()
    forest = BatchedForest([PackedForest(tree)])
    shape = forest.shapes[0]
    for i in range(shape.n):
        lo, hi = int(shape.child_off[i]), int(shape.child_off[i + 1])
        kids = shape.kids_mat[i]
        assert kids[: hi - lo].tolist() == shape.child_idx[lo:hi].tolist()
        assert (kids[hi - lo :] == -1).all()
