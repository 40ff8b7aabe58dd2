"""Equivalence properties of the incremental DP engine.

The engine promises *identical* results to the non-incremental
references (`reference_repeat`, `reference_frontier`, `tree_assign`)
— same assignments, same costs, same knees — across
arbitrary tables (hypothesis) and the full suite registry (fixed
seeds).  Any divergence is a bug in the cache keying or the traceback,
so these properties compare exactly, not approximately.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.dfg_expand import choose_expansion
from repro.assign.frontier import dfg_frontier
from repro.assign.tree_assign import _normalize, tree_assign
from repro.checkkit.oracles import reference_frontier, reference_repeat
from repro.fu.random_tables import random_table
from repro.suite.registry import benchmark_names, get_benchmark

from ..conftest import OneLaneDP
from .strategies import dag_with_table, tree_with_table


@settings(max_examples=60, deadline=None)
@given(pair=dag_with_table(max_nodes=7), slack=st.integers(0, 6))
def test_incremental_repeat_matches_reference(pair, slack):
    dfg, table = pair
    deadline = min_completion_time(dfg, table) + slack
    ref = reference_repeat(dfg, table, deadline)
    inc = dfg_assign_repeat(dfg, table, deadline)
    assert dict(inc.assignment.items()) == dict(ref.assignment.items())
    assert inc.cost == ref.cost
    assert inc.completion_time == ref.completion_time


@settings(max_examples=40, deadline=None)
@given(pair=dag_with_table(max_nodes=6), span=st.integers(0, 5))
def test_swept_frontier_matches_reference(pair, span):
    dfg, table = pair
    floor = min_completion_time(dfg, table)
    ref = reference_frontier(dfg, table, max_deadline=floor + span)
    assert dfg_frontier(dfg, table, max_deadline=floor + span) == ref


@settings(max_examples=40, deadline=None)
@given(
    pair=st.one_of(
        tree_with_table(max_nodes=7, out_tree=True),
        tree_with_table(max_nodes=7, out_tree=False),
    ),
    span=st.integers(0, 6),
)
def test_tree_dp_answers_every_budget(pair, span):
    tree, table = pair
    floor = min_completion_time(tree, table)
    forest = _normalize(tree)
    dp = OneLaneDP(forest, floor + span).refresh(table)
    for j in range(floor, floor + span + 1):
        ref = tree_assign(tree, table, j)
        mapping = dp.traceback_at(j)
        assert mapping == dict(ref.assignment.items())
        cost = float(sum(table.cost(n, mapping[n]) for n in forest.nodes()))
        assert cost == ref.cost


def _spans(name: str):
    """Sweep span per registry graph, bounded by the reference's cost
    (the per-deadline reference loop dominates this test's runtime)."""
    tree_size = len(choose_expansion(get_benchmark(name).dag()))
    return max(2, 600 // max(tree_size, 1))


@pytest.mark.parametrize("name", benchmark_names())
@pytest.mark.parametrize("seed", [0, 24])
def test_registry_equivalence(name, seed):
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=seed)
    expansion = choose_expansion(dfg)
    floor = min_completion_time(dfg, table)
    span = _spans(name)
    for deadline in (floor, floor + span):
        ref = reference_repeat(dfg, table, deadline, expansion=expansion)
        inc = dfg_assign_repeat(dfg, table, deadline, expansion=expansion)
        assert dict(inc.assignment.items()) == dict(ref.assignment.items())
        assert inc.cost == ref.cost
    ref_frontier = reference_frontier(dfg, table, max_deadline=floor + span)
    assert dfg_frontier(dfg, table, max_deadline=floor + span) == ref_frontier
