"""Frontier properties over the full suite registry.

Two invariants the fuzzing harness also checks on random instances,
pinned here on every *registered* benchmark with the seed of record:

* frontiers are non-increasing in cost and strictly increasing in
  deadline (relaxing the constraint can only help);
* every path that computes a frontier agrees exactly: the batched
  `dfg_frontier` equals the cold per-deadline reference loop, and each
  `tree_frontier` knee equals the packed engine's curve and traceback,
  the `tree_cost_curve`, and a `tree_assign` point solve at its
  deadline, with a witness that verifies.
"""

import pytest

from repro.assign.assignment import min_completion_time
from repro.assign.frontier import dfg_frontier, frontier_knees, tree_frontier
from repro.assign.tree_assign import _normalize, tree_assign, tree_cost_curve
from repro.checkkit.oracles import reference_frontier
from repro.engine import PackedTreeDP
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.suite.registry import benchmark_names, get_benchmark

SEED = 2004
SLACK = 6


def _instance(name):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=SEED)
    horizon = min_completion_time(dag, table) + SLACK
    return dag, table, horizon


def _assert_monotone(points):
    costs = [p.cost for p in points]
    deadlines = [p.deadline for p in points]
    assert all(a >= b for a, b in zip(costs, costs[1:])), costs
    assert all(a < b for a, b in zip(deadlines, deadlines[1:])), deadlines


@pytest.mark.parametrize("name", benchmark_names())
def test_dfg_frontier_kernels_identical_and_monotone(name):
    dag, table, horizon = _instance(name)
    batched = dfg_frontier(dag, table, max_deadline=horizon)
    assert batched == reference_frontier(dag, table, max_deadline=horizon)
    _assert_monotone(batched)


@pytest.mark.parametrize("name", benchmark_names())
def test_tree_frontier_kernels_identical_and_monotone(name):
    dag, table, horizon = _instance(name)
    if not (is_out_forest(dag) or is_in_forest(dag)):
        pytest.skip(f"{name} is not a forest")
    frontier = tree_frontier(dag, table, max_deadline=horizon)
    packed = PackedTreeDP(_normalize(dag), horizon).refresh(table)
    curve = tree_cost_curve(dag, table, horizon)
    assert (packed.total_curve() == curve).all()
    finite = [(j, float(c)) for j, c in enumerate(curve) if c != float("inf")]
    assert [tuple(p) for p in frontier] == frontier_knees(finite)
    for point in frontier:
        solo = tree_assign(dag, table, point.deadline)
        assert point.assignment == solo.assignment
        assert dict(point.assignment.items()) == packed.traceback_at(point.deadline)
        assert point.cost == pytest.approx(solo.cost, rel=1e-12)
        assert point.assignment.is_feasible(dag, table, point.deadline)
        assert point.assignment.total_cost(dag, table) == pytest.approx(point.cost)
    _assert_monotone(frontier)
