"""A ``fix_order`` that names a node twice pins it once.

Reproducer (hypothesis, hand-shrunk): one node ``x`` with a slow cheap
type 0 and a fast dear type 1, at the deadline of the fast type.  With
``fix_order=["x", "x"]`` the first pin chose type 1.  The second pin
read ``x``'s already collapsed row, where every type ties, and picked
index 0; the resolution then read type 0 of the original table, 2 > 1
time units, and both the engine and the reference loop raised
``GraphError`` "dfg_assign_repeat produced an infeasible assignment".
A repeated name is now dropped after its first mention.
"""

import pytest

from repro.assign.dfg_assign import dfg_assign_repeat
from repro.checkkit.oracles import reference_repeat
from repro.engine import DPStats
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


def _instance():
    dfg = DFG(name="one")
    dfg.add_node("x")
    table = TimeCostTable.from_rows({"x": ([2, 1], [1.0, 5.0])})
    return dfg, table


@pytest.mark.parametrize("solve", [dfg_assign_repeat, reference_repeat])
def test_repeated_pin_is_feasible_and_equals_single_pin(solve):
    dfg, table = _instance()
    twice = solve(dfg, table, 1, fix_order=["x", "x"])
    once = solve(dfg, table, 1, fix_order=["x"])
    assert dict(twice.assignment.items()) == {"x": 1}
    assert (twice.cost, twice.completion_time) == (5.0, 1)
    assert dict(once.assignment.items()) == dict(twice.assignment.items())


def test_repeated_pin_runs_one_round():
    dfg, table = _instance()
    stats = DPStats()
    dfg_assign_repeat(dfg, table, 1, fix_order=["x", "x"], stats=stats)
    assert (stats.refreshes, stats.tracebacks) == (2, 2)
