"""Property-based tests for the extension modules.

Covers the exchange format (round-trip), the downgrade baseline
(feasibility + bounded by optimum), force-directed scheduling
(validity), frontiers (monotone, match the DP), and the ILP model
(objective equivalence)."""

import pytest
from hypothesis import given, settings

from repro.assign.assignment import min_completion_time
from repro.assign.downgrade import downgrade_assign
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.exact import brute_force_assign
from repro.assign.frontier import tree_frontier
from repro.assign.ilp_model import build_ilp, check_solution
from repro.assign.tree_assign import tree_assign
from repro.io import dumps_text, loads_text
from repro.sched.force_directed import force_directed_schedule

from .strategies import dag_with_table, dags, sp_with_table, tree_with_table

SETTINGS = dict(max_examples=50, deadline=None)


@given(dags())
@settings(**SETTINGS)
def test_exchange_format_roundtrip(dfg):
    back, _ = loads_text(dumps_text(dfg))
    assert back == dfg


@given(dag_with_table())
@settings(**SETTINGS)
def test_exchange_format_roundtrip_with_table(data):
    dfg, table = data
    back, back_table = loads_text(dumps_text(dfg, table))
    assert back == dfg
    for n in dfg.nodes():
        assert list(back_table.times(n)) == list(table.times(n))
        assert list(back_table.costs(n)) == list(table.costs(n))


@given(dag_with_table())
@settings(**SETTINGS)
def test_downgrade_feasible_and_bounded(data):
    dfg, table = data
    deadline = min_completion_time(dfg, table) + 2
    result = downgrade_assign(dfg, table, deadline)
    result.verify(dfg, table)
    opt = brute_force_assign(dfg, table, deadline)
    assert result.cost >= opt.cost - 1e-9


@given(dag_with_table())
@settings(**SETTINGS)
def test_force_directed_always_valid(data):
    dfg, table = data
    deadline = min_completion_time(dfg, table) + 2
    assignment = dfg_assign_repeat(dfg, table, deadline).assignment
    sched = force_directed_schedule(dfg, table, assignment, deadline)
    sched.validate(dfg, table, assignment)
    assert sched.makespan(table) <= deadline


@given(tree_with_table())
@settings(**SETTINGS)
def test_tree_frontier_matches_dp_everywhere(data):
    tree, table = data
    floor = min_completion_time(tree, table)
    horizon = floor + 4
    frontier = tree_frontier(tree, table, max_deadline=horizon)
    assert frontier[0].deadline == floor
    costs = [c for _, c in frontier]
    assert all(a > b for a, b in zip(costs, costs[1:]))
    for deadline, cost in frontier:
        assert tree_assign(tree, table, deadline).cost == pytest.approx(cost)


@given(dag_with_table())
@settings(**SETTINGS)
def test_schedule_replay_matches_reference_simulation(data):
    """Any synthesized schedule computes the reference values exactly —
    the semantic counterpart of the structural schedule validator."""
    from repro.sched.min_resource import min_resource_schedule
    from repro.sim.functional import simulate, simulate_schedule

    dfg, table = data
    deadline = min_completion_time(dfg, table) + 2
    assignment = dfg_assign_repeat(dfg, table, deadline).assignment
    schedule = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    inputs = {n: [3.0, -1.0] for n in dfg.roots()}
    assert simulate_schedule(
        dfg, table, assignment, schedule, 2, inputs=inputs
    ) == simulate(dfg, 2, inputs=inputs)


@given(dag_with_table())
@settings(max_examples=30, deadline=None)
def test_modulo_schedule_valid_on_acyclic(data):
    """Modulo scheduling of an acyclic body: a valid pipeline whose II
    is at least the resource floor."""
    from repro.retiming.modulo import modulo_schedule, res_mii
    from repro.sched.schedule import Configuration

    dfg, table = data
    assignment = dfg_assign_repeat(
        dfg, table, min_completion_time(dfg, table) + 2
    ).assignment
    counts = [0] * table.num_types
    for n in dfg.nodes():
        counts[assignment[n]] = max(counts[assignment[n]], 1)
    counts = [c + 1 if c else 0 for c in counts]
    cfg = Configuration.of(counts)
    ms = modulo_schedule(dfg, table, assignment, cfg)
    ms.validate(dfg, table, assignment)
    assert ms.ii >= res_mii(dfg, table, assignment, cfg)


@given(sp_with_table())
@settings(max_examples=40, deadline=None)
def test_sp_assign_is_optimal(data):
    """The series-parallel DP equals brute force on every random SP
    instance small enough for the oracle."""
    from repro.assign.series_parallel import sp_assign

    dfg, table = data
    if len(dfg) > 10:
        return  # oracle too slow; recognition still exercised below
    deadline = min_completion_time(dfg, table) + 2
    got = sp_assign(dfg, table, deadline)
    got.verify(dfg, table)
    want = brute_force_assign(dfg, table, deadline)
    assert got.cost == pytest.approx(want.cost)


@given(sp_with_table())
@settings(max_examples=40, deadline=None)
def test_sp_builder_graphs_are_recognized(data):
    from repro.assign.series_parallel import sp_assign

    dfg, table = data
    deadline = min_completion_time(dfg, table) + 2
    # must never raise NotSeriesParallelError on built-SP graphs
    result = sp_assign(dfg, table, deadline)
    result.verify(dfg, table)


@given(dag_with_table())
@settings(**SETTINGS)
def test_ilp_objective_equals_system_cost(data):
    dfg, table = data
    deadline = min_completion_time(dfg, table) + 2
    model = build_ilp(dfg, table, deadline)
    result = dfg_assign_repeat(dfg, table, deadline)
    assert check_solution(
        model, dfg, table, result.assignment
    ) == pytest.approx(result.cost)
