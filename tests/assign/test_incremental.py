"""Unit tests for the incremental tree-DP engine, one lane at a time."""

import numpy as np
import pytest

from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.tree_assign import _normalize, tree_assign, tree_cost_curve
from repro.engine import DPStats
from repro.errors import InfeasibleError, NotATreeError, TableError
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.suite.registry import get_benchmark

from ..conftest import OneLaneDP


def make_table(dfg, seed=0, num_types=3):
    return random_table(dfg, num_types=num_types, seed=seed)


def tree_dp(dfg, table, deadline):
    """A refreshed engine at ``deadline`` (in-forests transposed)."""
    return OneLaneDP(_normalize(dfg), deadline).refresh(table)


@pytest.fixture
def tree() -> DFG:
    """Out-tree r → x, r → y, y → z."""
    return DFG.from_edges([("r", "x"), ("r", "y"), ("y", "z")], name="t")


@pytest.fixture
def table(tree) -> TimeCostTable:
    return make_table(tree, seed=3)


class TestRefreshCaching:
    def test_first_refresh_computes_everything(self, tree, table):
        dp = OneLaneDP(tree, 20)
        dp.refresh(table)
        assert dp.stats.nodes_recomputed == 4
        assert dp.stats.cache_hits == 0

    def test_same_table_is_all_hits(self, tree, table):
        dp = OneLaneDP(tree, 20)
        dp.refresh(table).refresh(table)
        assert dp.stats.nodes_recomputed == 4
        assert dp.stats.cache_hits == 4

    def test_pin_recomputes_only_the_root_path(self, tree, table):
        dp = OneLaneDP(tree, 20)
        dp.refresh(table)
        dp.refresh(table.with_fixed("z", 0))
        # z, y, r change; x is untouched and served from cache.
        assert dp.stats.nodes_recomputed == 4 + 3
        assert dp.stats.cache_hits == 1

    def test_different_pin_is_a_different_state(self, tree, table):
        dp = OneLaneDP(tree, 20)
        dp.refresh(table)
        dp.refresh(table.with_fixed("z", 0))
        before = dp.stats.nodes_recomputed
        dp.refresh(table.with_fixed("z", 1))
        assert dp.stats.nodes_recomputed == before + 3

    def test_curves_match_tree_cost_curve(self, tree, table):
        dp = OneLaneDP(tree, 25).refresh(table)
        np.testing.assert_array_equal(
            dp.total_curve(), tree_cost_curve(tree, table, 25)
        )


class TestTraceback:
    def test_matches_tree_assign_at_every_budget(self):
        dfg = get_benchmark("lattice4").dag()
        table = random_table(dfg, num_types=3, seed=0)
        dp = tree_dp(dfg, table, 60)
        floor = dp.min_feasible()
        for j in range(floor, 61):
            ref = tree_assign(dfg, table, j)
            assert dp.traceback_at(j) == dict(ref.assignment.items())

    def test_in_forest_is_transposed_like_tree_assign(self):
        dfg = get_benchmark("diffeq").dag()  # an in-forest
        table = random_table(dfg, num_types=3, seed=2)
        dp = tree_dp(dfg, table, 30)
        ref = tree_assign(dfg, table, 30)
        assert dp.traceback_at(30) == dict(ref.assignment.items())

    def test_infeasible_budget_raises_with_floor(self, tree, table):
        dp = OneLaneDP(tree, 40).refresh(table)
        floor = dp.min_feasible()
        with pytest.raises(InfeasibleError) as exc:
            dp.traceback_at(floor - 1)
        assert exc.value.min_feasible == floor

    def test_budget_outside_range_raises(self, tree, table):
        dp = OneLaneDP(tree, 10).refresh(table)
        with pytest.raises(InfeasibleError):
            dp.traceback_at(11)
        with pytest.raises(InfeasibleError):
            dp.traceback_at(-1)

    def test_query_before_refresh_raises(self, tree):
        dp = OneLaneDP(tree, 10)
        with pytest.raises(InfeasibleError, match="refresh"):
            dp.traceback_at(5)
        with pytest.raises(InfeasibleError, match="refresh"):
            dp.total_curve()


class TestValidation:
    def test_non_forest_rejected(self, diamond):
        with pytest.raises(NotATreeError):
            OneLaneDP(diamond, 10)

    def test_negative_deadline_rejected(self, tree):
        with pytest.raises(InfeasibleError):
            OneLaneDP(tree, -1)

    def test_missing_row_raises_table_error(self, tree, table):
        incomplete = TimeCostTable(3)
        incomplete.set_row("r", [1, 2, 3], [3.0, 2.0, 1.0])
        dp = OneLaneDP(tree, 10)
        with pytest.raises(TableError, match="no table row"):
            dp.refresh(incomplete)


class TestEmptyForest:
    def test_refresh_and_traceback(self):
        dp = OneLaneDP(DFG(name="empty"), 5).refresh(TimeCostTable(2))
        np.testing.assert_array_equal(dp.total_curve(), np.zeros(6))
        assert dp.traceback_at(0) == {}
        assert dp.traceback_at(5) == {}


class TestStats:
    def test_external_stats_accumulate(self, tree, table):
        stats = DPStats()
        OneLaneDP(tree, 20, stats=stats).refresh(table)
        OneLaneDP(tree, 20, stats=stats).refresh(table)
        assert stats.refreshes == 2
        assert stats.nodes_visited == 8

    def test_addition_and_hit_rate(self):
        a = DPStats(refreshes=1, nodes_visited=4, nodes_recomputed=4)
        b = DPStats(refreshes=2, nodes_visited=8, cache_hits=8, tracebacks=3)
        total = a + b
        assert total.refreshes == 3
        assert total.nodes_visited == 12
        assert total.hit_rate == pytest.approx(8 / 12)
        assert DPStats().hit_rate == 0.0

    def test_repeat_collects_stats(self, wide_dag):
        table = make_table(wide_dag, seed=1)
        from repro.assign.assignment import min_completion_time

        stats = DPStats()
        deadline = min_completion_time(wide_dag, table) + 4
        dfg_assign_repeat(wide_dag, table, deadline, stats=stats)
        assert stats.refreshes >= 1
        assert stats.tracebacks == stats.refreshes
