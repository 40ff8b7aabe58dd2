"""Property-based tests on scheduling invariants."""

import pytest
from hypothesis import given, settings

from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.sched.lower_bound import lower_bound_configuration
from repro.sched.min_resource import list_schedule, min_resource_schedule
from repro.sched.phase2 import Phase2Frame

from .strategies import dag_with_table

SETTINGS = dict(max_examples=50, deadline=None)


def setup(data, extra=2):
    dfg, table = data
    deadline = min_completion_time(dfg, table) + extra
    assignment = dfg_assign_repeat(dfg, table, deadline).assignment
    return dfg, table, assignment, deadline


def frame_starts(dfg, table, assignment, deadline):
    """The phase-2 frame's ASAP and ALAP starts, keyed by node."""
    frame = Phase2Frame(dfg, table, assignment, deadline)
    nodes = frame.view().nodes
    return dict(zip(nodes, frame.asap())), dict(zip(nodes, frame.alap()))


@given(dag_with_table())
@settings(**SETTINGS)
def test_min_resource_schedule_always_valid(data):
    dfg, table, assignment, deadline = setup(data)
    sched = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    sched.validate(dfg, table, assignment)
    assert sched.makespan(table) <= deadline


@given(dag_with_table())
@settings(**SETTINGS)
def test_configuration_respects_lower_bound(data):
    dfg, table, assignment, deadline = setup(data)
    lb = lower_bound_configuration(dfg, table, assignment, deadline)
    sched = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    assert lb.dominates(sched.configuration)


@given(dag_with_table())
@settings(**SETTINGS)
def test_usage_never_exceeds_configuration(data):
    dfg, table, assignment, deadline = setup(data)
    sched = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    profile = sched.usage_profile(table)
    for j, usage in profile.items():
        assert max(usage, default=0) <= sched.configuration.counts[j]


@given(dag_with_table())
@settings(**SETTINGS)
def test_asap_le_alap(data):
    dfg, table, assignment, deadline = setup(data)
    asap, alap = frame_starts(dfg, table, assignment, deadline)
    for n in dfg.nodes():
        assert asap[n] <= alap[n]


@given(dag_with_table())
@settings(**SETTINGS)
def test_mobility_floor_is_global_slack(data):
    """mobility(v) = deadline − longest path through v, so the minimum
    mobility (over critical-path nodes) equals the global slack and no
    node has less."""
    dfg, table, assignment, deadline = setup(data)
    times = assignment.execution_times(dfg, table)
    asap, alap = frame_starts(dfg, table, assignment, deadline)
    mob = {n: alap[n] - asap[n] for n in dfg.nodes()}
    from repro.graph.paths import longest_path_time

    slack = deadline - longest_path_time(dfg, times)
    assert min(mob.values()) == slack
    assert all(m >= slack for m in mob.values())


@given(dag_with_table())
@settings(**SETTINGS)
def test_schedule_start_within_window(data):
    """Every scheduled start lies in the node's [ASAP, ALAP] window...
    relaxed: >= ASAP always; <= ALAP is exactly the deadline guarantee."""
    dfg, table, assignment, deadline = setup(data)
    asap, alap = frame_starts(dfg, table, assignment, deadline)
    sched = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    for n in dfg.nodes():
        assert asap[n] <= sched.ops[n].start <= alap[n]


@given(dag_with_table())
@settings(**SETTINGS)
def test_list_schedule_on_achieved_configuration_is_valid(data):
    """Plain list scheduling on the achieved configuration yields a
    valid (precedence- and resource-correct) schedule.  Its makespan
    may exceed the deadline in pathological cases (list-scheduling
    anomalies), which is exactly why Min_R_Scheduling drives placement
    by ALAP deadlines instead."""
    dfg, table, assignment, deadline = setup(data)
    cfg = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline).configuration
    sched = list_schedule(dfg, table, assignment=assignment, configuration=cfg)
    sched.validate(dfg, table, assignment)
