"""Bit-identity of the tree-DP engine against the reference paths.

One engine lane and the default `dfg_assign_repeat` promise *exactly*
the reference outputs — the `Tree_Assign` recurrence's curves byte for
byte and its tracebacks and errors, and `reference_repeat`'s
assignments and costs — across arbitrary trees/DAGs (hypothesis) plus
the structural edge cases.  The work counters are checked against the
dirty sets the refreshed tables imply.  The
pmap worker-independence checks live here too (as plain tests:
spawning pools inside hypothesis examples would be both slow and
flaky-deadline-prone).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.dfg_expand import choose_expansion
from repro.assign.frontier import (
    FrontierPoint,
    _knee_points,
    dfg_frontier,
    tree_frontier,
)
from repro.assign.tree_assign import _normalize, tree_assign, tree_cost_curve
from repro.checkkit.oracles import reference_frontier, reference_repeat
from repro.engine import DPStats, pmap
from repro.errors import InfeasibleError
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.graph.dag import ancestors, descendants
from repro.graph.dfg import DFG
from repro.suite.registry import get_benchmark

from ..conftest import OneLaneDP
from .strategies import dag_with_table, tree_with_table


@st.composite
def out_tree_with_table(draw, max_nodes: int = 7):
    """Out-trees only: the shape the engine class accepts directly."""
    pair = draw(tree_with_table(max_nodes=max_nodes, out_tree=True))
    return pair


def _subtree(tree, node):
    return {node} | descendants(tree, node)


def _dirty_total(tree, tables) -> int:
    """Summed dirty-set sizes of refreshing through ``tables`` in order.

    The first refresh computes every node; each later one the nodes
    whose row version changed since the previous table, plus their
    ancestors.  This is the engine's ``nodes_recomputed``.
    """
    total = len(tree)
    for prev, cur in zip(tables, tables[1:]):
        dirty = set()
        for n in tree.nodes():
            if cur.row_version(n) != prev.row_version(n):
                dirty |= {n} | ancestors(tree, n)
        total += len(dirty)
    return total


def _engine_frontier(dfg, table, max_deadline):
    """`reference_frontier`'s loop on the default (incremental) engine."""
    raw, best, witness = [], float("inf"), None
    for deadline in range(min_completion_time(dfg, table), max_deadline + 1):
        result = dfg_assign_repeat(dfg, table, deadline)
        if result.cost < best:
            best, witness = result.cost, result.assignment
        raw.append(FrontierPoint(deadline, float(best), witness))
    return _knee_points(raw)


@settings(max_examples=60, deadline=None)
@given(pair=out_tree_with_table(), span=st.integers(0, 6))
def test_packed_curves_bitwise_equal(pair, span):
    tree, table = pair
    floor = min_completion_time(tree, table)
    deadline = floor + span
    packed = OneLaneDP(tree, deadline).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(tree, table, deadline)
    )
    # every subtree, compiled alone, is its own recurrence too
    for node in tree.nodes():
        subtree = tree.subgraph(_subtree(tree, node))
        np.testing.assert_array_equal(
            OneLaneDP(subtree, deadline).refresh(table).total_curve(),
            tree_cost_curve(subtree, table, deadline),
        )
    for j in range(floor, deadline + 1):
        ref = tree_assign(tree, table, j)
        assert packed.traceback_at(j) == dict(ref.assignment.items())


@settings(max_examples=40, deadline=None)
@given(pair=out_tree_with_table(), span=st.integers(0, 4))
def test_packed_pin_rounds_and_stats_parity(pair, span):
    tree, table = pair
    deadline = min_completion_time(tree, table) + span
    packed = OneLaneDP(tree, deadline, stats=DPStats()).refresh(table)
    seen = [table]
    nodes = list(tree.nodes())
    for node in nodes[: min(3, len(nodes))]:
        pinned = table.with_fixed(node, 0)
        for t in (pinned, table):
            packed.refresh(t)
            seen.append(t)
            np.testing.assert_array_equal(
                packed.total_curve(), tree_cost_curve(tree, t, deadline)
            )
            # a pin may push the floor past the deadline; then the
            # engine must raise the recurrence's InfeasibleError instead
            if packed.min_feasible() in range(0, deadline + 1):
                ref = tree_assign(tree, t, deadline)
                assert packed.traceback_at(deadline) == (
                    dict(ref.assignment.items())
                )
            else:
                with pytest.raises(InfeasibleError) as got_packed:
                    packed.traceback_at(deadline)
                with pytest.raises(InfeasibleError) as got_reference:
                    tree_assign(tree, t, deadline)
                assert str(got_packed.value) == str(got_reference.value)
    assert packed.stats.as_dict()["nodes_visited"] == len(seen) * len(tree)
    assert packed.stats.nodes_recomputed == _dirty_total(tree, seen)
    assert packed.stats.cache_hits == (
        packed.stats.nodes_visited - packed.stats.nodes_recomputed
    )


def _pin_dirty(expansion, v) -> int:
    """Nodes a pin of ``v`` recomputes: its copies and their ancestors."""
    copies = set(expansion.copies[v])
    return len(copies.union(*(ancestors(expansion.tree, c) for c in copies)))


@settings(max_examples=50, deadline=None)
@given(pair=dag_with_table(max_nodes=7), slack=st.integers(0, 6))
def test_packed_repeat_matches_python_kernel(pair, slack):
    dfg, table = pair
    deadline = min_completion_time(dfg, table) + slack
    expansion = choose_expansion(dfg)
    dup = expansion.duplicated_originals()
    nodes = list(dfg.nodes())
    # The lockstep solver picks each pin from the *base* row; the
    # reference reads the work table.  A repeated node (pinned once, at
    # its first mention) and single-copy nodes are the pins where the
    # two could differ.
    orders = (
        None,
        list(reversed(dup)),
        dup + nodes[:1] + dup + nodes[:1],
        [v for v in nodes if len(expansion.copies[v]) == 1],
    )
    n = len(expansion.tree)
    for order in orders:
        stats = DPStats()
        packed = dfg_assign_repeat(
            dfg, table, deadline, fix_order=order, stats=stats
        )
        reference = reference_repeat(dfg, table, deadline, fix_order=order)
        assert dict(packed.assignment.items()) == dict(
            reference.assignment.items()
        )
        assert packed.cost == reference.cost
        assert packed.completion_time == reference.completion_time
        pins = dup if order is None else list(dict.fromkeys(order))
        rounds = 1 + len(pins)
        recomputed = n + sum(_pin_dirty(expansion, v) for v in pins)
        assert (
            stats.refreshes,
            stats.tracebacks,
            stats.nodes_visited,
            stats.nodes_recomputed,
            stats.cache_hits,
        ) == (rounds, rounds, rounds * n, recomputed, rounds * n - recomputed)


@settings(max_examples=30, deadline=None)
@given(pair=dag_with_table(max_nodes=6), span=st.integers(0, 5))
def test_packed_frontier_matches_python_kernel(pair, span):
    dfg, table = pair
    horizon = min_completion_time(dfg, table) + span
    packed = _engine_frontier(dfg, table, horizon)
    reference = reference_frontier(dfg, table, max_deadline=horizon)
    assert packed == reference == dfg_frontier(dfg, table, max_deadline=horizon)
    if is_out_forest(dfg) or is_in_forest(dfg):
        engine = OneLaneDP(_normalize(dfg), horizon).refresh(table)
        for point in tree_frontier(dfg, table, max_deadline=horizon):
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
    packed = OneLaneDP(empty, 3).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(empty, table, 3)
    )
    assert packed.traceback_at(3) == {}
    assert packed.min_feasible() == 0


def test_single_node_identical():
    one = DFG(name="one")
    one.add_node("x", op="mul")
    table = random_table(one, num_types=3, seed=4)
    packed = OneLaneDP(one, 9).refresh(table)
    np.testing.assert_array_equal(
        packed.total_curve(), tree_cost_curve(one, table, 9)
    )
    ref = tree_assign(one, table, 9)
    assert packed.traceback_at(9) == dict(ref.assignment.items())


def test_infeasible_deadline_identical_errors():
    tree = DFG.from_edges([("a", "b"), ("b", "c")], name="chain")
    table = random_table(tree, num_types=3, seed=4)
    packed = OneLaneDP(tree, 0).refresh(table)
    with pytest.raises(InfeasibleError) as got_packed:
        packed.traceback_at(0)
    with pytest.raises(InfeasibleError) as got_reference:
        tree_assign(tree, table, 0)
    assert str(got_packed.value) == str(got_reference.value)
    assert got_packed.value.min_feasible == got_reference.value.min_feasible


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


def test_frontier_workers_independent_on_benchmark():
    dfg = get_benchmark("paper_example").dag()
    table = random_table(dfg, num_types=3, seed=1)
    deadline = min_completion_time(dfg, table) + 4
    frontier_serial = dfg_frontier(dfg, table, max_deadline=deadline)
    frontier_fanned = dfg_frontier(
        dfg, table, max_deadline=deadline, workers=2
    )
    assert frontier_serial == frontier_fanned
