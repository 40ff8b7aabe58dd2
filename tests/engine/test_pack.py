"""Structural invariants of the forest compile (`compile_forest`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedTreeDP, DPStats, compile_forest
from repro.errors import NotATreeError, TableError
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG

from ..conftest import bind_table


def make_table(dfg, seed=0, num_types=3):
    return random_table(dfg, num_types=num_types, seed=seed)


def _forest() -> DFG:
    """Two trees: r1 → (a, b), b → c; and the isolated r2."""
    dfg = DFG.from_edges(
        [("r1", "a"), ("r1", "b"), ("b", "c")], name="forest"
    )
    dfg.add_node("r2", op="add")
    return dfg


def _kids(shape, i):
    return shape.child_idx[shape.child_off[i] : shape.child_off[i + 1]].tolist()


def test_reverse_topo_children_before_parents():
    shape, _, _ = compile_forest(_forest())
    for i in range(shape.n):
        for c in _kids(shape, i):
            assert c < i, "child index must precede its parent's"


def test_parent_and_csr_agree():
    tree = _forest()
    shape, nodes, _ = compile_forest(tree)
    for i, node in enumerate(nodes):
        kids = _kids(shape, i)
        assert [nodes[c] for c in kids] == tree.children(node)
        assert shape.kid_counts[i] == len(kids)
        for c in kids:
            assert shape.parent[c] == i
    roots = set(shape.roots.tolist())
    assert roots == {i for i in range(shape.n) if shape.parent[i] == -1}


def _deep_forest() -> DFG:
    """Uneven depths and fan-outs, so a level mixes subtrees."""
    edges = [("r1", "a"), ("r1", "b"), ("r1", "c"), ("a", "d"), ("c", "e"),
             ("c", "f"), ("d", "g"), ("f", "h"), ("f", "i"), ("r2", "j"),
             ("j", "k"), ("j", "l"), ("l", "m")]
    return DFG.from_edges(edges, name="deep")


def test_levels_partition_and_align():
    for build in (_forest, _deep_forest):
        _check_bfs_levels(build())


def _check_bfs_levels(forest: DFG):
    """Level k + 1 of the BFS order is the CSR concatenation of level
    k's children, the alignment the traceback's ``np.repeat`` needs."""
    shape, _, _ = compile_forest(forest)
    assert sorted(shape.bfs_nodes.tolist()) == list(range(shape.n))
    bounds = shape.level_off.tolist()
    levels = [shape.bfs_nodes[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]
    assert levels[0] == shape.roots.tolist()
    for k, level in enumerate(levels):
        kids = [c for p in level for c in _kids(shape, p)]
        assert kids == (levels[k + 1] if k + 1 < len(levels) else [])
    np.testing.assert_array_equal(shape.bfs_rows, shape.row_of[shape.bfs_nodes])
    np.testing.assert_array_equal(shape.bfs_counts, shape.kid_counts[shape.bfs_nodes])
    np.testing.assert_array_equal(shape.bfs_nodes[shape.bfs_inverse], np.arange(shape.n))


def test_node_key_dedups_rows():
    dfg = DFG.from_edges([("r", "x1"), ("r", "x2")], name="copies")
    origin = {"r": "r", "x1": "x", "x2": "x"}
    shape, nodes, rows = compile_forest(dfg, origin.__getitem__)
    assert sorted(rows) == ["r", "x"]
    assert shape.n_rows == 2
    x1, x2 = nodes.index("x1"), nodes.index("x2")
    assert shape.row_of[x1] == shape.row_of[x2] == rows.index("x")


def test_multi_parent_rejected():
    dag = DFG.from_edges([("a", "c"), ("b", "c")], name="vee")
    with pytest.raises(NotATreeError, match="several parents"):
        compile_forest(dag)


def test_empty_forest():
    shape, nodes, rows = compile_forest(DFG(name="empty"))
    assert shape.n == 0 and shape.roots.size == 0 and shape.bfs_nodes.size == 0
    assert nodes == [] and rows == []


def test_binding_reports_changed_rows():
    """A rebind marks exactly the rows whose version token changed."""
    tree = _forest()
    table = make_table(tree, seed=3)
    shape, _, rows = compile_forest(tree)
    stats = DPStats()
    engine = BatchedTreeDP(shape, [20], stats=[stats])

    def rebind(t) -> int:
        before = stats.nodes_recomputed
        bind_table(engine, 0, t, rows)
        engine.refresh()
        return stats.nodes_recomputed - before

    assert rebind(table) == shape.n  # the first bind is every row
    assert rebind(table) == 0  # identical rebind: nothing changed
    # pinning c changes its row only: c and its ancestors b, r1
    assert rebind(table.with_fixed("c", 0)) == 3
    # ... and returning to the base table flags the same single row.
    assert rebind(table) == 3


def test_binding_rejects_num_types_mismatch():
    tree = _forest()
    shape, _, rows = compile_forest(tree)
    engine = BatchedTreeDP(shape, [20])
    bind_table(engine, 0, make_table(tree, seed=3, num_types=3), rows)
    engine.refresh()
    other = TimeCostTable(2)
    for n in tree.nodes():
        other.set_row(n, [1, 2], [2.0, 1.0])
    with pytest.raises(TableError, match="FU types"):
        bind_table(engine, 0, other, rows)
