"""`list_schedule` rejects a configuration with no unit for a zero-time node.

Reproducer (hand-shrunk): the chain ``a -> b -> c`` with ``b`` taking
zero time on type 1 and the configuration ``(1, 0)``.  The up-front
check skipped zero-time nodes, but the scheduling loop still needs an
instance of ``b``'s type to place it, so it looped until its horizon
and raised "overran horizon 128 ... likely too small".  The check now
covers every node the loop places, and the error names the missing
type.  The other schedulers give ``b`` an instance of type 1.
"""

import pytest

from repro.assign.assignment import Assignment
from repro.errors import ScheduleError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.sched import heft_schedule, list_schedule, min_resource_schedule
from repro.sched.schedule import Configuration


def _instance():
    dfg = DFG(name="chain")
    dfg.add_edge("a", "b")
    dfg.add_edge("b", "c")
    table = TimeCostTable.from_rows(
        {
            "a": ([1, 1], [1.0, 1.0]),
            "b": ([1, 0], [1.0, 1.0]),
            "c": ([1, 1], [1.0, 1.0]),
        }
    )
    return dfg, table, Assignment.of({"a": 0, "b": 1, "c": 0})


def test_missing_type_of_zero_time_node_raises():
    dfg, table, assignment = _instance()
    with pytest.raises(ScheduleError, match="has no unit of type 1 needed by 'b'"):
        list_schedule(
            dfg, table, assignment=assignment, configuration=Configuration.of([1, 0])
        )


def test_one_unit_of_the_type_places_the_zero_time_node():
    dfg, table, assignment = _instance()
    schedule = list_schedule(
        dfg, table, assignment=assignment, configuration=Configuration.of([1, 1])
    )
    schedule.validate(dfg, table, assignment)
    # a child made ready by a zero-time parent waits for the next step
    assert [op.start for op in schedule.ops.values()] == [0, 1, 2]
    assert schedule.deadline == 3


@pytest.mark.parametrize("scheduler", [min_resource_schedule, heft_schedule])
def test_deadline_schedulers_give_the_zero_time_node_an_instance(scheduler):
    dfg, table, assignment = _instance()
    schedule = scheduler(dfg, table, assignment=assignment, deadline=2)
    assert schedule.configuration.counts == (1, 1)
