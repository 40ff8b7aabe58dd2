"""The engine's array bind rejects the costs a table rejects.

Reproducer (hand-written): a root with two leaves, bound through
``BatchedTreeDP.bind_arrays`` with a NaN cost on one leaf.  The bind
only checked that times were not negative, so the NaN reached the
sweep: the root curve read ``[inf, nan, ...]`` and the traceback
raised the self-contradicting ``InfeasibleError`` "no assignment of
'batched' completes within 6 (minimum possible is 2)".  A ``-inf``
cost gave a ``-inf`` curve.  The bind now raises the ``TableError`` a
``TimeCostTable`` raises for the same row.
"""

import numpy as np
import pytest

from repro.engine import BatchedTreeDP, compile_forest
from repro.errors import TableError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


def _engine():
    tree = DFG.from_edges([("r", "a"), ("r", "b")], name="two_leaves")
    shape, _, rows = compile_forest(tree)
    return BatchedTreeDP(shape, [6]), len(rows)


@pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1.0])
def test_bind_rejects_invalid_cost(bad):
    engine, nr = _engine()
    times = np.ones((nr, 2), dtype=np.int64)
    costs = np.ones((nr, 2), dtype=np.float64)
    costs[0, 1] = bad
    with pytest.raises(TableError, match="invalid execution cost"):
        engine.bind_arrays(0, times, costs, list(range(nr)))
    # ... the same row a table refuses.
    with pytest.raises(TableError, match="invalid execution cost"):
        TimeCostTable(2).set_row("a", [1, 1], list(costs[0]))


def test_rebind_rejects_invalid_cost():
    engine, nr = _engine()
    times = np.ones((nr, 2), dtype=np.int64)
    costs = np.ones((nr, 2), dtype=np.float64)
    engine.bind_arrays(0, times, costs, list(range(nr)))
    engine.refresh()
    costs[1, 0] = np.nan
    with pytest.raises(TableError, match="invalid execution cost"):
        engine.bind_arrays(0, times, costs, [0, "changed", 2])
    # The rejected bind changed nothing: the traceback still works.
    chosen, _ = engine.traceback_lanes([0], [6])
    assert chosen[0].tolist() == [0, 0, 0]
