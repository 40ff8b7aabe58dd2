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


def batched_tree_frontiers(jobs):
    """Exact forest frontiers of ``(forest, table, max_deadline)`` jobs
    from one :class:`~repro.engine.batch.BatchedTreeDP` refresh — the
    engine-level twin of per-job ``tree_frontier`` calls."""
    import numpy as np

    from repro.assign import Assignment, FrontierPoint, frontier_knees
    from repro.assign.tree_assign import _normalize
    from repro.engine import BatchedTreeDP, PackedForest

    forests = [_normalize(dfg) for dfg, _, _ in jobs]
    packs = [PackedForest(forest) for forest in forests]
    engine = BatchedTreeDP(
        packs, [horizon for _, _, horizon in jobs], names=[f.name for f in forests]
    )
    for lane, ((_, table, _), pack) in enumerate(zip(jobs, packs)):
        engine.bind_table(lane, table, pack.rows)
    engine.refresh()
    frontiers = []
    for lane, pack in enumerate(packs):
        curve = engine.total_curve(lane)
        finite = np.flatnonzero(np.isfinite(curve))
        points = []
        for deadline, cost in frontier_knees([(int(j), float(curve[j])) for j in finite]):
            choice = map(int, engine.traceback_at(lane, deadline))
            witness = Assignment.of(dict(zip(pack.nodes, choice)))
            points.append(FrontierPoint(deadline, cost, witness))
        frontiers.append(points)
    return frontiers
