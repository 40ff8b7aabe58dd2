"""Bit-identity of the packed engine against the python reference.

The packed kernels promise *exactly* the python incremental engine's
outputs — same curves byte-for-byte, same tracebacks, same stats
counters, same errors — across arbitrary trees/DAGs (hypothesis) plus
the structural edge cases.  The pmap worker-independence checks live
here too (as plain tests: spawning pools inside hypothesis examples
would be both slow and flaky-deadline-prone).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.frontier import dfg_frontier, tree_frontier
from repro.assign.incremental import (
    IncrementalTreeDP,
    PackedAssignDP,
    make_tree_engine,
)
from repro.assign.tree_assign import _normalize
from repro.checkkit.oracles import reference_frontier
from repro.engine import DPStats, pmap
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.graph.dfg import DFG
from repro.suite.registry import get_benchmark

from .strategies import dag_with_table, tree_with_table


@st.composite
def out_tree_with_table(draw, max_nodes: int = 7):
    """Out-trees only: the shape both engine classes accept directly."""
    pair = draw(tree_with_table(max_nodes=max_nodes, out_tree=True))
    return pair


@settings(max_examples=60, deadline=None)
@given(pair=out_tree_with_table(), span=st.integers(0, 6))
def test_packed_curves_bitwise_equal(pair, span):
    tree, table = pair
    floor = min_completion_time(tree, table)
    deadline = floor + span
    packed = PackedAssignDP(tree, deadline).refresh(table)
    python = IncrementalTreeDP(tree, deadline).refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    for node in tree.nodes():
        np.testing.assert_array_equal(packed.curve(node), python.curve(node))
    for j in range(floor, deadline + 1):
        assert packed.traceback_at(j) == python.traceback_at(j)


@settings(max_examples=40, deadline=None)
@given(pair=out_tree_with_table(), span=st.integers(0, 4))
def test_packed_pin_rounds_and_stats_parity(pair, span):
    tree, table = pair
    deadline = min_completion_time(tree, table) + span
    packed = PackedAssignDP(tree, deadline, stats=DPStats()).refresh(table)
    python = IncrementalTreeDP(tree, deadline, stats=DPStats()).refresh(table)
    nodes = list(tree.nodes())
    for node in nodes[: min(3, len(nodes))]:
        pinned = table.with_fixed(node, 0)
        for t in (pinned, table):
            packed.refresh(t)
            python.refresh(t)
            np.testing.assert_array_equal(
                packed.total_curve(), python.total_curve()
            )
            # a pin may push the floor past the deadline; then both
            # engines must raise the same InfeasibleError instead
            if packed.min_feasible() in range(0, deadline + 1):
                assert packed.traceback_at(deadline) == (
                    python.traceback_at(deadline)
                )
            else:
                from repro.errors import InfeasibleError

                with pytest.raises(InfeasibleError) as got_packed:
                    packed.traceback_at(deadline)
                with pytest.raises(InfeasibleError) as got_python:
                    python.traceback_at(deadline)
                assert str(got_packed.value) == str(got_python.value)
    assert packed.stats.as_dict()["nodes_visited"] == (
        python.stats.as_dict()["nodes_visited"]
    )
    assert packed.stats.nodes_recomputed == python.stats.nodes_recomputed
    assert packed.stats.cache_hits == python.stats.cache_hits
    assert packed.cache_entries() == python.cache_entries()


@settings(max_examples=50, deadline=None)
@given(pair=dag_with_table(max_nodes=7), slack=st.integers(0, 6))
def test_packed_repeat_matches_python_kernel(pair, slack):
    dfg, table = pair
    deadline = min_completion_time(dfg, table) + slack
    packed = dfg_assign_repeat(dfg, table, deadline)
    python = dfg_assign_repeat(dfg, table, deadline, kernel="python")
    assert dict(packed.assignment.items()) == dict(python.assignment.items())
    assert packed.cost == python.cost
    assert packed.completion_time == python.completion_time


@settings(max_examples=30, deadline=None)
@given(pair=dag_with_table(max_nodes=6), span=st.integers(0, 5))
def test_packed_frontier_matches_python_kernel(pair, span):
    dfg, table = pair
    floor = min_completion_time(dfg, table)
    packed, python = (
        reference_frontier(
            dfg, table, max_deadline=floor + span, incremental=True, kernel=k
        )
        for k in ("packed", "python")
    )
    assert packed == python == dfg_frontier(dfg, table, max_deadline=floor + span)
    if is_out_forest(dfg) or is_in_forest(dfg):
        for kernel in ("packed", "python"):
            engine = make_tree_engine(
                _normalize(dfg), floor + span, kernel=kernel
            ).refresh(table)
            for point in tree_frontier(dfg, table, max_deadline=floor + span):
                assert engine.traceback_at(point.deadline) == dict(
                    point.assignment.items()
                )


# ----------------------------------------------------------------------
# structural edge cases (exact, not property-based)
# ----------------------------------------------------------------------
def test_empty_forest_identical():
    from repro.fu.table import TimeCostTable

    empty = DFG(name="empty")
    table = TimeCostTable(2)
    packed = PackedAssignDP(empty, 3).refresh(table)
    python = IncrementalTreeDP(empty, 3).refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    assert packed.traceback_at(3) == {} == python.traceback_at(3)
    assert packed.min_feasible() == python.min_feasible() == 0


def test_single_node_identical():
    one = DFG(name="one")
    one.add_node("x", op="mul")
    table = random_table(one, num_types=3, seed=4)
    packed = PackedAssignDP(one, 9).refresh(table)
    python = IncrementalTreeDP(one, 9).refresh(table)
    np.testing.assert_array_equal(packed.total_curve(), python.total_curve())
    assert packed.traceback_at(9) == python.traceback_at(9)


def test_infeasible_deadline_identical_errors():
    from repro.errors import InfeasibleError

    tree = DFG.from_edges([("a", "b"), ("b", "c")], name="chain")
    table = random_table(tree, num_types=3, seed=4)
    packed = PackedAssignDP(tree, 0).refresh(table)
    python = IncrementalTreeDP(tree, 0).refresh(table)
    with pytest.raises(InfeasibleError) as got_packed:
        packed.traceback_at(0)
    with pytest.raises(InfeasibleError) as got_python:
        python.traceback_at(0)
    assert str(got_packed.value) == str(got_python.value)
    assert got_packed.value.min_feasible == got_python.value.min_feasible


# ----------------------------------------------------------------------
# pmap worker-independence (plain tests; spawn pools once)
# ----------------------------------------------------------------------
def _pin_key(x: int) -> tuple:
    return (x % 5, -x, x)


def test_pmap_results_independent_of_worker_count():
    items = list(range(40))
    serial = pmap(_pin_key, items, workers=0)
    assert pmap(_pin_key, items, workers=2) == serial
    assert pmap(_pin_key, items, workers=2, chunk_size=3) == serial


def test_repeat_workers_independent_on_benchmark():
    dfg = get_benchmark("paper_example").dag()
    table = random_table(dfg, num_types=3, seed=1)
    deadline = min_completion_time(dfg, table) + 4
    serial = dfg_assign_repeat(dfg, table, deadline, workers=0)
    fanned = dfg_assign_repeat(dfg, table, deadline, workers=2)
    assert dict(serial.assignment.items()) == dict(fanned.assignment.items())
    assert serial.cost == fanned.cost
    frontier_serial = dfg_frontier(dfg, table, max_deadline=deadline)
    frontier_fanned = dfg_frontier(
        dfg, table, max_deadline=deadline, workers=2
    )
    assert frontier_serial == frontier_fanned
