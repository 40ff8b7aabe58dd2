"""`tree_assign_sweep` is `tree_assign` at every deadline, from one pass.

The sweep answers a deadline list with one Fig. 7 pass at the largest
deadline plus one traceback per deadline.  Entry ``i`` must equal a
separate ``tree_assign`` call at ``deadlines[i]``: the same
`AssignResult` (assignment, cost, completion, algorithm), or the same
`InfeasibleError` text and ``min_feasible`` where that call raises.
Checked on every registry tree and forest (in-forests included, whose
error names carry the transpose's ``.T``) and on hypothesis forests.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import min_completion_time, tree_assign, tree_assign_sweep
from repro.errors import InfeasibleError, NotATreeError
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.graph.dfg import DFG
from repro.suite.registry import benchmark_names, get_benchmark

from .strategies import tables_for, trees

SETTINGS = dict(max_examples=60, deadline=None)

def _is_forest(dag):
    return is_out_forest(dag) or is_in_forest(dag)


TREES = [name for name in benchmark_names() if _is_forest(get_benchmark(name).dag())]


def _one(tree, table, deadline):
    try:
        return tree_assign(tree, table, deadline)
    except InfeasibleError as exc:
        return exc


def _same(swept, single):
    if isinstance(single, InfeasibleError):
        assert isinstance(swept, InfeasibleError)
        assert str(swept) == str(single)
        assert swept.min_feasible == single.min_feasible
    else:
        assert swept == single
        assert dict(swept.assignment.items()) == dict(single.assignment.items())


def _check(tree, table, deadlines):
    swept = tree_assign_sweep(tree, table, deadlines)
    assert len(swept) == len(deadlines)
    for deadline, outcome in zip(deadlines, swept):
        _same(outcome, _one(tree, table, deadline))


def test_registry_has_in_forests():
    # The registry's trees are in-forests; hypothesis covers out-forests.
    dags = [get_benchmark(name).dag() for name in TREES]
    assert len(dags) >= 3
    assert any(is_in_forest(g) and not is_out_forest(g) for g in dags)


@pytest.mark.parametrize("name", TREES)
def test_sweep_equals_per_deadline_tree_assign_on_registry(name):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=2004)
    floor = min_completion_time(dag, table)
    deadlines = [floor + 5, floor - 1, floor, 2 * floor, floor + 1, -1, floor]
    _check(dag, table, deadlines)


def test_in_forest_errors_name_the_transpose():
    dag = get_benchmark("lattice4").dag()
    assert is_in_forest(dag) and not is_out_forest(dag)
    table = random_table(dag, num_types=3, seed=7)
    floor = min_completion_time(dag, table)
    (error,) = tree_assign_sweep(dag, table, [floor - 1])
    assert isinstance(error, InfeasibleError)
    assert f"{dag.name}.T" in str(error)


def test_structural_errors_raise_for_the_whole_sweep(wide_dag):
    table = random_table(wide_dag, num_types=2, seed=1)
    with pytest.raises(NotATreeError):
        tree_assign_sweep(wide_dag, table, [5, 9])


def test_empty_sweep_and_empty_forest():
    from repro.fu.table import TimeCostTable

    assert tree_assign_sweep(DFG(name="empty"), TimeCostTable(2), []) == []
    (result,) = tree_assign_sweep(DFG(name="empty"), TimeCostTable(2), [3])
    assert result.cost == 0.0 and len(result.assignment) == 0


@st.composite
def forests(draw):
    """One to three hypothesis trees, all out- or all in-oriented."""
    out_tree = draw(st.booleans())
    forest = DFG(name="hyp_forest")
    for t in range(draw(st.integers(min_value=1, max_value=3))):
        part = draw(trees(max_nodes=6, out_tree=out_tree))
        for node in part.nodes():
            forest.add_node(f"t{t}{node}", op=part.op(node))
        for u, v, d in part.edges():
            forest.add_edge(f"t{t}{u}", f"t{t}{v}", d)
    return forest


@st.composite
def forest_sweeps(draw):
    forest = draw(forests())
    table = draw(tables_for(forest))
    floor = min_completion_time(forest, table)
    deadlines = draw(
        st.lists(
            st.integers(min_value=-1, max_value=floor + 8), min_size=1, max_size=6
        )
    )
    return forest, table, deadlines


@settings(**SETTINGS)
@given(forest_sweeps())
def test_sweep_equals_per_deadline_tree_assign_on_hypothesis_forests(case):
    forest, table, deadlines = case
    _check(forest, table, deadlines)
