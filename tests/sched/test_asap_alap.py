"""Unit tests for the ASAP/ALAP passes of the phase-2 frame."""

import pytest

from repro.assign.assignment import Assignment
from repro.errors import ScheduleError, TableError
from repro.fu.table import TimeCostTable
from repro.sched.phase2 import (
    Phase2Frame,
    alap_list,
    asap_list,
    check_deadline,
    indexed_dag,
)

UNIT = {"a": 1, "b": 1, "c": 1, "d": 1}


def asap(dfg, times):
    """ASAP starts keyed by node."""
    view = indexed_dag(dfg)
    return dict(zip(view.nodes, asap_list(view, [times[n] for n in view.nodes])))


def alap(dfg, times, deadline):
    """ALAP starts keyed by node, with the frame's deadline check."""
    check_deadline(deadline)
    view = indexed_dag(dfg)
    starts = alap_list(view, [times[n] for n in view.nodes], deadline)
    return dict(zip(view.nodes, starts))


def mobility(dfg, times, deadline):
    """Per-node slack ``alap - asap``."""
    early, late = asap(dfg, times), alap(dfg, times, deadline)
    return {n: late[n] - early[n] for n in dfg.nodes()}


class TestASAP:
    def test_roots_start_at_zero(self, diamond):
        starts = asap(diamond, UNIT)
        assert starts["a"] == 0

    def test_respects_durations(self, diamond):
        times = {"a": 2, "b": 3, "c": 1, "d": 1}
        starts = asap(diamond, times)
        assert starts["b"] == 2 and starts["c"] == 2
        assert starts["d"] == 5  # after b (2+3)

    def test_matches_longest_path(self, diamond):
        from repro.graph.paths import longest_path_time

        times = {"a": 2, "b": 5, "c": 1, "d": 3}
        starts = asap(diamond, times)
        makespan = max(starts[n] + times[n] for n in diamond.nodes())
        assert makespan == longest_path_time(diamond, times)

    def test_missing_times(self, diamond):
        """The frame reads times from the table: a missing row is a TableError."""
        table = TimeCostTable.from_rows({"a": ([1], [1.0])})
        assignment = Assignment.of({n: 0 for n in diamond.nodes()})
        with pytest.raises(TableError):
            Phase2Frame(diamond, table, assignment, 3)


class TestALAP:
    def test_leaves_end_at_deadline(self, diamond):
        starts = alap(diamond, UNIT, 10)
        assert starts["d"] + UNIT["d"] == 10

    def test_exact_deadline_equals_asap(self, diamond):
        """With zero slack, ALAP and ASAP coincide on critical nodes."""
        early = asap(diamond, UNIT)
        late = alap(diamond, UNIT, 3)  # 3 == critical path
        assert early == late

    def test_infeasible_deadline(self, diamond):
        with pytest.raises(ScheduleError):
            alap(diamond, UNIT, 2)

    def test_negative_deadline(self, diamond):
        with pytest.raises(ScheduleError):
            alap(diamond, UNIT, -1)

    def test_precedence_holds(self, diamond):
        times = {"a": 2, "b": 3, "c": 1, "d": 2}
        starts = alap(diamond, times, 12)
        for u, v, _ in diamond.edges():
            assert starts[v] >= starts[u] + times[u]


class TestMobility:
    def test_non_negative(self, diamond):
        mob = mobility(diamond, UNIT, 6)
        assert all(m >= 0 for m in mob.values())

    def test_critical_nodes_have_zero_at_floor(self, diamond):
        mob = mobility(diamond, UNIT, 3)
        assert all(m == 0 for m in mob.values())

    def test_slack_grows_with_deadline(self, diamond):
        m1 = mobility(diamond, UNIT, 4)
        m2 = mobility(diamond, UNIT, 8)
        assert all(m2[n] >= m1[n] for n in diamond.nodes())

    def test_off_critical_node_has_slack(self, diamond):
        times = {"a": 1, "b": 5, "c": 1, "d": 1}
        mob = mobility(diamond, times, 7)
        assert mob["b"] == 0  # critical
        assert mob["c"] == 4  # can slide within b's window
