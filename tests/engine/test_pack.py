"""Structural invariants of the forest compile (`compile_forest`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import BatchedTreeDP, DPStats, compile_forest
from repro.errors import NotATreeError, TableError
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


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


def test_levels_partition_and_align():
    shape, _, _ = compile_forest(_forest())
    seen = np.concatenate(shape.levels)
    assert sorted(seen.tolist()) == list(range(shape.n))
    for k, kids in enumerate(shape.level_children):
        if kids.size:
            np.testing.assert_array_equal(kids, shape.levels[k + 1])
        else:
            assert k == len(shape.levels) - 1


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
    assert shape.n == 0 and shape.roots.size == 0 and shape.levels == []
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
        engine.bind_table(0, t, rows)
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
    engine.bind_table(0, make_table(tree, seed=3, num_types=3), rows)
    engine.refresh()
    other = TimeCostTable(2)
    for n in tree.nodes():
        other.set_row(n, [1, 2], [2.0, 1.0])
    with pytest.raises(TableError, match="FU types"):
        engine.bind_table(0, other, rows)
