"""tree_frontier's InfeasibleError carries the achievable minimum.

Shrunk reproducer: a one-node graph whose fastest type takes 2 steps,
swept up to ``max_deadline=0``.  ``tree_frontier`` used to raise with
``min_feasible=None`` while ``tree_assign`` and ``dfg_frontier`` on the
same instance attach the bound.
"""

import pytest

from repro.assign import dfg_frontier, tree_assign, tree_frontier
from repro.errors import InfeasibleError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


def _one_node():
    dfg = DFG(name="one")
    dfg.add_node("a", "mul")
    table = TimeCostTable.from_rows({"a": ([2, 4], [5.0, 1.0])})
    return dfg, table


def test_tree_frontier_infeasible_carries_min_feasible():
    dfg, table = _one_node()
    with pytest.raises(InfeasibleError, match="minimum possible is 2") as exc:
        tree_frontier(dfg, table, max_deadline=0)
    assert exc.value.min_feasible == 2


def test_bound_matches_the_other_entry_points():
    dfg, table = _one_node()
    bounds = []
    for solve in (
        lambda: tree_frontier(dfg, table, max_deadline=1),
        lambda: tree_assign(dfg, table, 1),
        lambda: dfg_frontier(dfg, table, max_deadline=1),
    ):
        with pytest.raises(InfeasibleError) as exc:
            solve()
        bounds.append(exc.value.min_feasible)
    assert bounds == [2, 2, 2]
