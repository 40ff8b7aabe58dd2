"""Shared fixtures and helpers for the repro test suite."""

from __future__ import annotations

import pytest

from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


@pytest.fixture
def diamond() -> DFG:
    """The 4-node diamond: a → b, a → c, b → d, c → d."""
    return DFG.from_edges(
        [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")], name="diamond"
    )


@pytest.fixture
def chain3() -> DFG:
    """A 3-node simple path a → b → c."""
    return DFG.from_edges([("a", "b"), ("b", "c")], name="chain3")


@pytest.fixture
def chain3_table() -> TimeCostTable:
    """Monotone 3-type table for the chain fixture."""
    return TimeCostTable.from_rows(
        {
            "a": ([1, 3, 5], [10.0, 6.0, 2.0]),
            "b": ([2, 4, 6], [12.0, 7.0, 3.0]),
            "c": ([1, 2, 4], [9.0, 5.0, 1.0]),
        }
    )


@pytest.fixture
def small_tree() -> DFG:
    """Out-tree: r → x, r → y, y → z."""
    return DFG.from_edges([("r", "x"), ("r", "y"), ("y", "z")], name="small_tree")


@pytest.fixture
def wide_dag() -> DFG:
    """A DAG with common nodes in both directions (not a forest)."""
    return DFG.from_edges(
        [("A", "C"), ("B", "C"), ("C", "E"), ("C", "F"), ("D", "F")],
        name="wide_dag",
    )


def make_table(dfg: DFG, seed: int = 0, num_types: int = 3) -> TimeCostTable:
    """Seeded monotone table for arbitrary test graphs."""
    from repro.fu.random_tables import random_table

    return random_table(dfg, num_types=num_types, seed=seed)


def bind_table(engine, lane, table, rows):
    """Bind ``table`` to ``lane`` of ``engine``; ``rows`` are its row
    keys in the shape's row order (the ``rows`` of ``compile_forest``).
    The tokens are the table's row versions, so a rebind of another
    table marks exactly the rows that differ."""
    import numpy as np

    engine.bind_arrays(
        lane,
        np.asarray([table.times(r) for r in rows], dtype=np.int64).reshape(
            len(rows), table.num_types
        ),
        np.asarray([table.costs(r) for r in rows], dtype=np.float64).reshape(
            len(rows), table.num_types
        ),
        [table.row_version(r) for r in rows],
    )


def bind_pinned(engine, lane, row, fu_type):
    """Pin ``row`` of one ``lane`` to ``fu_type`` (``with_fixed``)."""
    engine.bind_pins([lane], row, [fu_type])


def traceback_at(engine, lane, budget):
    """One lane's choices at ``budget`` in node order (raises when
    infeasible)."""
    chosen, errors = engine.traceback_lanes([lane], [budget])
    if errors[0] is not None:
        raise errors[0]
    return chosen[0]


def traceback_all(engine, budgets):
    """Per-lane list form of ``traceback_lanes``: ``budgets[lane] =
    None`` skips the lane (its entry stays ``None``); a feasible lane's
    entry is its choice row, an infeasible one's its
    ``InfeasibleError``."""
    lanes = [lane for lane, b in enumerate(budgets) if b is not None]
    chosen, errors = engine.traceback_lanes(lanes, [budgets[lane] for lane in lanes])
    out = [None] * len(budgets)
    for j, lane in enumerate(lanes):
        out[lane] = chosen[j] if errors[j] is None else errors[j]
    return out


class OneLaneDP:
    """One :class:`~repro.engine.batch.BatchedTreeDP` lane, driven like
    a single-instance engine: ``refresh(table)`` binds and refreshes,
    ``traceback_at(j)`` returns a ``{node: type}`` dict.  ``tree`` must
    be an out-forest (transpose in-forests with ``_normalize`` first).
    """

    def __init__(self, tree, deadline, *, node_key=None, stats=None):
        from repro.engine import BatchedTreeDP, compile_forest

        self.shape, self.nodes, self.rows = compile_forest(tree, node_key)
        self.engine = BatchedTreeDP(
            self.shape, [deadline], name=tree.name, stats=[stats]
        )
        self.stats = self.engine.stats[0]

    def refresh(self, table):
        bind_table(self.engine, 0, table, self.rows)
        self.engine.refresh()
        return self

    def total_curve(self):
        return self.engine.total_curve(0)

    def min_feasible(self):
        return self.engine.min_feasible(0)

    def traceback_at(self, budget):
        choice = traceback_at(self.engine, 0, budget).tolist()
        return dict(zip(self.nodes, choice))


def batched_tree_frontiers(jobs):
    """Exact forest frontiers of ``(forest, table, max_deadline)`` jobs,
    each from one :class:`~repro.engine.batch.BatchedTreeDP` refresh —
    the engine-level twin of per-job ``tree_frontier`` calls."""
    import numpy as np

    from repro.assign import Assignment, FrontierPoint, frontier_knees
    from repro.assign.tree_assign import _normalize

    frontiers = []
    for dfg, table, horizon in jobs:
        lane = OneLaneDP(_normalize(dfg), horizon).refresh(table)
        curve = lane.total_curve()
        finite = np.flatnonzero(np.isfinite(curve))
        points = []
        for deadline, cost in frontier_knees([(int(j), float(curve[j])) for j in finite]):
            witness = Assignment.of(lane.traceback_at(deadline))
            points.append(FrontierPoint(deadline, cost, witness))
        frontiers.append(points)
    return frontiers
