"""Unit tests for Pareto cost/latency frontiers."""

import pytest

from repro.assign.assignment import min_completion_time
from repro.assign.frontier import dfg_frontier, frontier_knees, tree_frontier
from repro.assign.tree_assign import tree_assign
from repro.checkkit.oracles import reference_frontier
from repro.errors import InfeasibleError, NotATreeError
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.suite.registry import get_benchmark


class TestKnees:
    def test_collapses_plateaus(self):
        points = [(1, 10.0), (2, 10.0), (3, 8.0), (4, 8.0), (5, 5.0)]
        assert frontier_knees(points) == [(1, 10.0), (3, 8.0), (5, 5.0)]

    def test_empty(self):
        assert frontier_knees([]) == []

    def test_single(self):
        assert frontier_knees([(3, 7.0)]) == [(3, 7.0)]

    def test_float_noise_at_large_scale_is_not_a_knee(self):
        # Energy-scale costs: a drop of 1e-7 at scale 1e7 is float
        # round-off, not an improvement.  The absolute 1e-12 tolerance
        # this function used to apply recorded it as a spurious knee.
        points = [(1, 1.0e7), (2, 1.0e7 - 1e-7), (3, 0.9e7)]
        assert frontier_knees(points) == [(1, 1.0e7), (3, 0.9e7)]

    def test_real_improvements_at_large_scale_are_kept(self):
        points = [(1, 5_000_000.0), (2, 4_999_999.0), (3, 4_000_000.0)]
        assert frontier_knees(points) == points

    def test_small_scale_behaviour_unchanged(self):
        points = [(1, 3.0), (2, 2.5), (3, 2.5), (4, 1.0)]
        assert frontier_knees(points) == [(1, 3.0), (2, 2.5), (4, 1.0)]


class TestTreeFrontier:
    @pytest.fixture
    def setup(self):
        dfg = get_benchmark("lattice4").dag()
        table = random_table(dfg, num_types=3, seed=0)
        return dfg, table

    def test_starts_at_floor(self, setup):
        dfg, table = setup
        floor = min_completion_time(dfg, table)
        frontier = tree_frontier(dfg, table, max_deadline=floor + 20)
        assert frontier[0].deadline == floor

    def test_strictly_decreasing_costs(self, setup):
        dfg, table = setup
        frontier = tree_frontier(dfg, table, max_deadline=80)
        costs = [c for _, c in frontier]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_points_match_tree_assign(self, setup):
        dfg, table = setup
        frontier = tree_frontier(dfg, table, max_deadline=60)
        for deadline, cost in frontier:
            assert tree_assign(dfg, table, deadline).cost == pytest.approx(cost)

    def test_ends_at_cheapest(self, setup):
        dfg, table = setup
        loose = sum(int(table.times(n).max()) for n in dfg.nodes())
        frontier = tree_frontier(dfg, table, max_deadline=loose)
        assert frontier[-1].cost == pytest.approx(
            sum(table.min_cost(n) for n in dfg.nodes())
        )

    def test_infeasible_horizon(self, setup):
        dfg, table = setup
        with pytest.raises(InfeasibleError):
            tree_frontier(dfg, table, max_deadline=1)

    def test_rejects_general_dag(self):
        # Regression: used to raise InfeasibleError, conflating "not a
        # tree" with "no feasible assignment"; the documented contract
        # (matching tree_assign) is NotATreeError.
        dfg = get_benchmark("elliptic").dag()
        table = random_table(dfg, num_types=3, seed=0)
        with pytest.raises(NotATreeError, match="dfg_frontier"):
            tree_frontier(dfg, table, max_deadline=100)

    def test_empty_forest_is_the_zero_frontier(self):
        frontier = tree_frontier(DFG(name="empty"), TimeCostTable(2), max_deadline=7)
        assert len(frontier) == 1
        assert frontier[0].deadline == 0
        assert frontier[0].cost == pytest.approx(0.0)
        assert list(frontier[0]) == [0, 0.0]

    def test_points_carry_witness_assignments(self, setup):
        dfg, table = setup
        frontier = tree_frontier(dfg, table, max_deadline=60)
        for point in frontier:
            assert point.assignment is not None
            result = tree_assign(dfg, table, point.deadline)
            assert point.assignment.total_cost(dfg, table) == pytest.approx(
                result.cost
            )

    def test_points_unpack_like_pairs(self, setup):
        dfg, table = setup
        frontier = tree_frontier(dfg, table, max_deadline=60)
        as_dict = dict(frontier)
        for deadline, cost in frontier:
            assert as_dict[deadline] == pytest.approx(cost)

    def test_positional_max_deadline_rejected_under_freeze(self, setup):
        dfg, table = setup
        with pytest.raises(TypeError, match="2 positional arguments"):
            tree_frontier(dfg, table, 60)  # legacy positional


class TestDfgFrontier:
    @pytest.fixture
    def setup(self, wide_dag):
        table = random_table(wide_dag, num_types=3, seed=1)
        return wide_dag, table

    def test_monotone(self, setup):
        dfg, table = setup
        floor = min_completion_time(dfg, table)
        frontier = dfg_frontier(dfg, table, max_deadline=floor + 15)
        costs = [c for _, c in frontier]
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_exact_dominates_heuristic(self, setup):
        dfg, table = setup
        floor = min_completion_time(dfg, table)
        heur = dict(dfg_frontier(dfg, table, max_deadline=floor + 10))
        opt = dict(dfg_frontier(dfg, table, max_deadline=floor + 10, exact=True))
        # compare the achievable cost at every deadline in both
        for deadline in range(floor, floor + 11):
            h = min(c for d, c in heur.items() if d <= deadline)
            o = min(c for d, c in opt.items() if d <= deadline)
            assert o <= h + 1e-9

    def test_swept_matches_reference(self, setup):
        dfg, table = setup
        floor = min_completion_time(dfg, table)
        ref = reference_frontier(dfg, table, max_deadline=floor + 15)
        assert dfg_frontier(dfg, table, max_deadline=floor + 15) == ref

    def test_below_floor_raises(self, setup):
        dfg, table = setup
        floor = min_completion_time(dfg, table)
        with pytest.raises(InfeasibleError):
            dfg_frontier(dfg, table, max_deadline=floor - 1)

    def test_tree_and_dfg_agree_on_forests(self):
        dfg = get_benchmark("diffeq").dag()  # an in-forest
        table = random_table(dfg, num_types=3, seed=2)
        floor = min_completion_time(dfg, table)
        t = dict(tree_frontier(dfg, table, max_deadline=floor + 8))
        d = dict(dfg_frontier(dfg, table, max_deadline=floor + 8))
        for deadline in range(floor, floor + 9):
            tc = min(c for dl, c in t.items() if dl <= deadline)
            dc = min(c for dl, c in d.items() if dl <= deadline)
            assert tc == pytest.approx(dc)
