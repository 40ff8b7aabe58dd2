"""Unit tests for Tree_Assign (optimal DP on trees/forests)."""

import numpy as np
import pytest

from repro.assign.exact import brute_force_assign
from repro.assign.path_assign import path_assign
from repro.assign.tree_assign import tree_assign, tree_cost_curve
from repro.errors import InfeasibleError, NotATreeError
from repro.fu.random_tables import random_table
from repro.suite.synthetic import random_tree


class TestShapes:
    def test_out_tree(self, small_tree):
        table = random_table(small_tree, seed=0)
        result = tree_assign(small_tree, table, 30)
        result.verify(small_tree, table)

    def test_in_tree_via_transpose(self, small_tree):
        in_tree = small_tree.transpose()
        table = random_table(in_tree, seed=0)
        result = tree_assign(in_tree, table, 30)
        result.verify(in_tree, table)

    def test_chain_agrees_with_path_assign(self, chain3, chain3_table):
        for deadline in range(4, 14):
            t = tree_assign(chain3, chain3_table, deadline)
            p = path_assign(chain3, chain3_table, deadline)
            assert t.cost == pytest.approx(p.cost)

    def test_forest_multiple_roots(self):
        from repro.graph.dfg import DFG

        forest = DFG.from_edges([("r1", "x"), ("r2", "y"), ("r2", "z")])
        table = random_table(forest, seed=1)
        result = tree_assign(forest, table, 25)
        result.verify(forest, table)

    def test_single_node(self):
        from repro.graph.dfg import DFG

        dfg = DFG()
        dfg.add_node("x")
        table = random_table(dfg, seed=2)
        result = tree_assign(dfg, table, 100)
        assert result.cost == pytest.approx(table.min_cost("x"))

    def test_rejects_general_dag(self, wide_dag):
        table = random_table(wide_dag, seed=0)
        with pytest.raises(NotATreeError):
            tree_assign(wide_dag, table, 100)

    def test_empty_forest_assigns_nothing(self):
        # Regression: used to crash in combine_children ("needs at
        # least one curve") instead of returning the empty assignment.
        from repro.fu.table import TimeCostTable
        from repro.graph.dfg import DFG

        result = tree_assign(DFG(name="empty"), TimeCostTable(3), 10)
        assert len(result.assignment) == 0
        assert result.cost == 0.0
        assert result.completion_time == 0

    def test_empty_forest_zero_curve(self):
        from repro.fu.table import TimeCostTable
        from repro.graph.dfg import DFG

        curve = tree_cost_curve(DFG(name="empty"), TimeCostTable(3), 6)
        np.testing.assert_array_equal(curve, np.zeros(7))


class TestOptimality:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_out_trees(self, seed):
        tree = random_tree(7, seed=seed, out_tree=True)
        table = random_table(tree, num_types=3, seed=seed)
        from repro.assign.assignment import min_completion_time

        floor = min_completion_time(tree, table)
        for deadline in (floor, floor + 3, floor + 8):
            got = tree_assign(tree, table, deadline)
            got.verify(tree, table)
            want = brute_force_assign(tree, table, deadline)
            assert got.cost == pytest.approx(want.cost)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_in_trees(self, seed):
        tree = random_tree(7, seed=seed, out_tree=False)
        table = random_table(tree, num_types=3, seed=seed)
        from repro.assign.assignment import min_completion_time

        floor = min_completion_time(tree, table)
        for deadline in (floor, floor + 5):
            got = tree_assign(tree, table, deadline)
            got.verify(tree, table)
            want = brute_force_assign(tree, table, deadline)
            assert got.cost == pytest.approx(want.cost)

    def test_loose_deadline_all_cheapest(self, small_tree):
        table = random_table(small_tree, seed=3)
        result = tree_assign(small_tree, table, 10_000)
        expected = sum(table.min_cost(n) for n in small_tree.nodes())
        assert result.cost == pytest.approx(expected)


class TestCostCurve:
    def test_non_increasing(self, small_tree):
        table = random_table(small_tree, seed=4)
        curve = tree_cost_curve(small_tree, table, 40)
        finite = curve[np.isfinite(curve)]
        assert (np.diff(finite) <= 1e-12).all()

    def test_first_finite_is_min_completion(self, small_tree):
        from repro.assign.assignment import min_completion_time
        from repro.engine.kernels import first_feasible_budget

        table = random_table(small_tree, seed=5)
        curve = tree_cost_curve(small_tree, table, 60)
        assert first_feasible_budget(curve) == min_completion_time(
            small_tree, table
        )

    def test_curve_values_match_tree_assign(self, small_tree):
        table = random_table(small_tree, seed=6)
        curve = tree_cost_curve(small_tree, table, 30)
        for deadline in range(len(curve)):
            if np.isfinite(curve[deadline]):
                result = tree_assign(small_tree, table, deadline)
                assert result.cost == pytest.approx(curve[deadline])


class TestNodeKey:
    def test_copies_share_rows(self):
        """Two copies of a node must use the original's table row."""
        from repro.graph.dfg import DFG

        tree = DFG(name="copies")
        tree.add_node("r", op="op")
        tree.add_node("x~1", op="op", origin="x")
        tree.add_node("x~2", op="op", origin="x")
        tree.add_edge("r", "x~1", 0)
        tree.add_edge("r", "x~2", 0)
        from repro.fu.table import TimeCostTable

        table = TimeCostTable.from_rows(
            {"r": ([1, 2], [5.0, 1.0]), "x": ([1, 3], [8.0, 2.0])}
        )
        key = lambda n: tree.attr(n, "origin") or n
        result = tree_assign(tree, table, 5, node_key=key)
        # cost counts both copies (tree semantics), cheapest feasible:
        # r=1 (t2,c1) leaves budget 3 for each x -> both type 1 (c2)
        assert result.cost == pytest.approx(1.0 + 2.0 + 2.0)


class TestInfeasibility:
    def test_below_floor(self, small_tree):
        table = random_table(small_tree, seed=7)
        from repro.assign.assignment import min_completion_time

        floor = min_completion_time(small_tree, table)
        with pytest.raises(InfeasibleError) as exc:
            tree_assign(small_tree, table, floor - 1)
        assert exc.value.min_feasible == floor

    def test_negative_deadline(self, small_tree):
        table = random_table(small_tree, seed=8)
        with pytest.raises(InfeasibleError):
            tree_assign(small_tree, table, -5)
