"""The indexed phase 2 equals the node-keyed reference, errors included.

:func:`repro.synthesis.run_phase2` and the public wrappers
(:func:`lower_bound_configuration`, :func:`min_resource_schedule`) run
on the integer-indexed DAG view;
:func:`repro.checkkit.oracles.reference_phase2` is the dict-based
`Lower_Bound_R` + `Min_R_Scheduling` they replaced.  On random DAGs —
nodes inserted out of topological order, zero-time and multi-cycle
operations, deadlines from infeasible to loose, the occasional bad type
index — both must give the same lower bound, the same ops in the same
insertion order and the same configuration, or raise the same error
type with the same message.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.assignment import Assignment
from repro.checkkit.oracles import phase2_outcome, reference_phase2
from repro.errors import TableError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.sched import lower_bound_configuration, min_resource_schedule
from repro.synthesis import run_phase2


@st.composite
def phase2_cases(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    rank = draw(st.permutations(range(n)))  # insertion order != topo order
    dfg = DFG(name="hyp_phase2")
    for i in rank:
        dfg.add_node(f"v{i}", op="add")
    for j in range(1, n):
        parents = draw(
            st.lists(st.integers(min_value=0, max_value=j - 1), max_size=3, unique=True)
        )
        for p in parents:
            dfg.add_edge(f"v{p}", f"v{j}", 0)
    m = draw(st.integers(min_value=1, max_value=3))
    table = TimeCostTable(m)
    for node in dfg.nodes():
        times = draw(st.lists(st.integers(0, 4), min_size=m, max_size=m))
        table.set_row(node, times, [1.0] * m)
    types = {node: draw(st.integers(0, m - 1)) for node in dfg.nodes()}
    if draw(st.integers(0, 9)) == 0:  # a type index out of range
        types[draw(st.sampled_from(dfg.nodes()))] = m
    assignment = Assignment.of(types)
    try:
        completion = assignment.completion_time(dfg, table)
    except TableError:
        completion = 3
    deadline = completion + draw(st.integers(min_value=-3, max_value=4))
    return dfg, table, assignment, deadline


@given(phase2_cases())
@settings(max_examples=300, deadline=None)
def test_run_phase2_equals_reference(case):
    dfg, table, assignment, deadline = case
    want = phase2_outcome(lambda: reference_phase2(dfg, table, assignment, deadline))
    got = phase2_outcome(lambda: run_phase2(dfg, table, assignment, deadline))
    assert got == want


@given(phase2_cases())
@settings(max_examples=200, deadline=None)
def test_public_wrappers_equal_reference(case):
    dfg, table, assignment, deadline = case

    def wrappers():
        lower = lower_bound_configuration(dfg, table, assignment, deadline)
        schedule = min_resource_schedule(
            dfg, table, assignment=assignment, deadline=deadline
        )
        return lower, schedule

    want = phase2_outcome(lambda: reference_phase2(dfg, table, assignment, deadline))
    assert phase2_outcome(wrappers) == want


@given(phase2_cases())
@settings(max_examples=100, deadline=None)
def test_structure_edits_drop_the_cached_view(case):
    dfg, table, assignment, deadline = case

    def same():
        want = phase2_outcome(lambda: reference_phase2(dfg, table, assignment, deadline))
        got = phase2_outcome(lambda: run_phase2(dfg, table, assignment, deadline))
        assert got == want

    same()  # caches the indexed view
    last = f"v{len(dfg) - 1}"
    if last != "v0":
        dfg.add_edge("v0", last)  # forward in index order: stays acyclic
        same()
    for u, v, _ in dfg.edges()[:1]:
        dfg.remove_edges(u, v)
        same()


def test_empty_graph_equals_reference():
    dfg, table, assignment = DFG(name="empty"), TimeCostTable(2), Assignment.of({})
    for deadline in (-1, 0, 3):
        want = phase2_outcome(lambda: reference_phase2(dfg, table, assignment, deadline))
        got = phase2_outcome(lambda: run_phase2(dfg, table, assignment, deadline))
        assert got == want
