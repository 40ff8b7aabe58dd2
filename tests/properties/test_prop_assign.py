"""Property-based tests: assignment algorithms vs the brute-force oracle.

These are the strongest correctness guarantees in the suite — for
arbitrary small instances (arbitrary non-monotone tables included):

* `Path_Assign` and `Tree_Assign` are *exactly optimal*;
* the heuristics and greedy are always feasible and never beat the
  optimum; `DFG_Assign_Repeat` never loses to `DFG_Assign_Once`'s
  pinned resolution on the same expansion;
* exact branch-and-bound equals brute force.
"""

import pytest
from hypothesis import given, settings

from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_once, dfg_assign_repeat
from repro.assign.exact import brute_force_assign, exact_assign
from repro.assign.greedy import greedy_assign
from repro.assign.path_assign import path_assign
from repro.assign.tree_assign import tree_assign

from .strategies import chain_with_table, dag_with_table, tree_with_table

SETTINGS = dict(max_examples=60, deadline=None)


def slackful_deadline(dfg, table, extra=3):
    return min_completion_time(dfg, table) + extra


@given(chain_with_table())
@settings(**SETTINGS)
def test_path_assign_is_optimal(data):
    dfg, table = data
    deadline = slackful_deadline(dfg, table)
    got = path_assign(dfg, table, deadline)
    got.verify(dfg, table)
    want = brute_force_assign(dfg, table, deadline)
    assert got.cost == pytest.approx(want.cost)


@given(tree_with_table(out_tree=True))
@settings(**SETTINGS)
def test_tree_assign_optimal_out_trees(data):
    dfg, table = data
    deadline = slackful_deadline(dfg, table)
    got = tree_assign(dfg, table, deadline)
    got.verify(dfg, table)
    want = brute_force_assign(dfg, table, deadline)
    assert got.cost == pytest.approx(want.cost)


@given(tree_with_table(out_tree=False))
@settings(**SETTINGS)
def test_tree_assign_optimal_in_trees(data):
    dfg, table = data
    deadline = slackful_deadline(dfg, table)
    got = tree_assign(dfg, table, deadline)
    got.verify(dfg, table)
    want = brute_force_assign(dfg, table, deadline)
    assert got.cost == pytest.approx(want.cost)


@given(tree_with_table(out_tree=True))
@settings(**SETTINGS)
def test_tree_assign_optimal_at_floor(data):
    """The tightest feasible deadline is the adversarial spot."""
    dfg, table = data
    deadline = min_completion_time(dfg, table)
    got = tree_assign(dfg, table, deadline)
    want = brute_force_assign(dfg, table, deadline)
    assert got.cost == pytest.approx(want.cost)


@given(dag_with_table())
@settings(**SETTINGS)
def test_exact_bb_matches_brute_force(data):
    dfg, table = data
    deadline = slackful_deadline(dfg, table, extra=2)
    bb = exact_assign(dfg, table, deadline)
    bb.verify(dfg, table)
    bf = brute_force_assign(dfg, table, deadline)
    assert bb.cost == pytest.approx(bf.cost)


@given(dag_with_table())
@settings(**SETTINGS)
def test_heuristics_feasible_and_bounded(data):
    dfg, table = data
    deadline = slackful_deadline(dfg, table, extra=2)
    opt = brute_force_assign(dfg, table, deadline)
    for algo in (greedy_assign, dfg_assign_once, dfg_assign_repeat):
        result = algo(dfg, table, deadline)
        result.verify(dfg, table)
        assert result.completion_time <= deadline
        assert result.cost >= opt.cost - 1e-9


@given(dag_with_table())
@settings(**SETTINGS)
def test_repeat_never_worse_than_once(data):
    """On a shared expansion, pinning + re-optimizing cannot lose."""
    from repro.assign.dfg_expand import choose_expansion

    dfg, table = data
    deadline = slackful_deadline(dfg, table, extra=2)
    expansion = choose_expansion(dfg)
    once = dfg_assign_once(dfg, table, deadline, expansion=expansion)
    repeat = dfg_assign_repeat(dfg, table, deadline, expansion=expansion)
    assert repeat.cost <= once.cost + 1e-9


@given(chain_with_table())
@settings(**SETTINGS)
def test_cost_monotone_in_deadline(data):
    """Relaxing the constraint can never increase the optimum."""
    dfg, table = data
    floor = min_completion_time(dfg, table)
    costs = [path_assign(dfg, table, L).cost for L in range(floor, floor + 6)]
    assert all(a >= b - 1e-9 for a, b in zip(costs, costs[1:]))


@given(dag_with_table())
@settings(**SETTINGS)
def test_loose_deadline_reaches_cheapest(data):
    """With enough slack every algorithm lands on the cheapest sum."""
    dfg, table = data
    loose = sum(int(table.times(n).max()) for n in dfg.nodes()) + 1
    cheapest = sum(table.min_cost(n) for n in dfg.nodes())
    for algo in (greedy_assign, dfg_assign_once, dfg_assign_repeat, exact_assign):
        assert algo(dfg, table, loose).cost == pytest.approx(cheapest)
