"""Unit tests for Lower_Bound_R."""

import pytest

from repro.assign.assignment import Assignment, min_completion_time
from repro.assign.exact import exact_assign
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG
from repro.sched.lower_bound import lower_bound_configuration
from repro.sched.phase2 import asap_list, indexed_dag, occupancy_matrix
from repro.suite.synthetic import random_dag


def occupancy(dfg, times, type_of, num_types, horizon):
    """``occ[j, s]`` of the ASAP schedule, nodes in index order."""
    view = indexed_dag(dfg)
    t = [times[n] for n in view.nodes]
    return occupancy_matrix(
        view.nodes,
        [type_of[n] for n in view.nodes],
        t,
        [asap_list(view, t)],
        num_types,
        horizon,
    )[0]


class TestOccupancy:
    def test_counts_executing_steps(self, diamond):
        times = {"a": 2, "b": 1, "c": 1, "d": 1}
        type_of = {n: 0 for n in diamond.nodes()}
        occ = occupancy(diamond, times, type_of, 1, 4)
        # a occupies steps 0-1, b and c step 2, d step 3
        assert list(occ[0]) == [1, 1, 2, 1]

    def test_respects_type_split(self, diamond):
        times = {n: 1 for n in diamond.nodes()}
        type_of = {"a": 0, "b": 1, "c": 0, "d": 1}
        occ = occupancy(diamond, times, type_of, 2, 3)
        assert occ[0].sum() == 2 and occ[1].sum() == 2

    def test_out_of_horizon_raises(self, diamond):
        from repro.errors import ScheduleError

        times = {n: 1 for n in diamond.nodes()}
        type_of = {n: 0 for n in diamond.nodes()}
        with pytest.raises(ScheduleError):
            occupancy(diamond, times, type_of, 1, 2)


class TestLowerBound:
    def test_serial_chain_needs_one(self, chain3):
        table = random_table(chain3, seed=0)
        assignment = Assignment.fastest(chain3, table)
        deadline = assignment.completion_time(chain3, table)
        lb = lower_bound_configuration(chain3, table, assignment, deadline)
        # a chain never needs more than one unit per type
        assert all(c <= 1 for c in lb.counts)

    def test_parallel_nodes_force_width(self):
        # w independent nodes, deadline = single execution time
        w = 5
        dfg = DFG()
        for i in range(w):
            dfg.add_node(f"v{i}")
        from repro.fu.table import TimeCostTable

        table = TimeCostTable.from_rows(
            {f"v{i}": ([2], [1.0]) for i in range(w)}
        )
        assignment = Assignment.of({f"v{i}": 0 for i in range(w)})
        lb = lower_bound_configuration(dfg, table, assignment, 2)
        assert lb.counts[0] == w  # all must run simultaneously

    def test_relaxed_deadline_halves_bound(self):
        w = 4
        dfg = DFG()
        for i in range(w):
            dfg.add_node(f"v{i}")
        from repro.fu.table import TimeCostTable

        table = TimeCostTable.from_rows(
            {f"v{i}": ([2], [1.0]) for i in range(w)}
        )
        assignment = Assignment.of({f"v{i}": 0 for i in range(w)})
        lb = lower_bound_configuration(dfg, table, assignment, 4)
        assert lb.counts[0] == 2  # 8 busy-steps over 4 steps

    def test_unused_type_bound_zero(self, chain3):
        table = random_table(chain3, num_types=3, seed=1)
        assignment = Assignment.uniform(chain3, 0)
        deadline = assignment.completion_time(chain3, table)
        lb = lower_bound_configuration(chain3, table, assignment, deadline)
        assert lb.counts[1] == 0 and lb.counts[2] == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_bound_is_sound(self, seed):
        """No valid schedule may use fewer units than the bound — verified
        against the min-resource scheduler's achieved configuration."""
        from repro.sched.min_resource import min_resource_schedule

        dfg = random_dag(9, edge_prob=0.3, seed=seed)
        table = random_table(dfg, num_types=3, seed=seed)
        floor = min_completion_time(dfg, table)
        for deadline in (floor, floor + 4):
            assignment = exact_assign(dfg, table, deadline).assignment
            lb = lower_bound_configuration(dfg, table, assignment, deadline)
            achieved = min_resource_schedule(
                dfg, table, assignment=assignment, deadline=deadline
            ).configuration
            assert lb.dominates(achieved)

    def test_infeasible_assignment_rejected(self, chain3):
        from repro.errors import ScheduleError

        table = random_table(chain3, seed=2)
        assignment = Assignment.cheapest(chain3, table)
        with pytest.raises(ScheduleError):
            lower_bound_configuration(chain3, table, assignment, 1)
