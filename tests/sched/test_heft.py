"""Unit tests for the HEFT-style heterogeneous list scheduler."""

import pytest

from repro.assign.assignment import Assignment, min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.fu.random_tables import random_table
from repro.sched.heft import heft_schedule, upward_ranks
from repro.sched.lower_bound import lower_bound_configuration
from repro.suite.registry import get_benchmark
from repro.suite.synthetic import random_dag
from repro.synthesis import synthesize


class TestUpwardRanks:
    def test_source_has_largest_rank_on_a_chain(self, chain3, chain3_table):
        ranks = upward_ranks(chain3, chain3_table)
        assert ranks["a"] > ranks["b"] > ranks["c"]

    def test_rank_is_mean_time_plus_best_child(self, chain3, chain3_table):
        ranks = upward_ranks(chain3, chain3_table)
        mean = {
            n: sum(chain3_table.times(n)) / len(chain3_table.times(n))
            for n in ("a", "b", "c")
        }
        assert ranks["c"] == pytest.approx(mean["c"])
        assert ranks["b"] == pytest.approx(mean["b"] + ranks["c"])
        assert ranks["a"] == pytest.approx(mean["a"] + ranks["b"])

    def test_sink_rank_is_own_mean(self, diamond):
        table = random_table(diamond, seed=0)
        ranks = upward_ranks(diamond, table)
        times = table.times("d")
        assert ranks["d"] == pytest.approx(sum(times) / len(times))


class TestHeftSchedule:
    @pytest.mark.parametrize("seed", range(8))
    def test_valid_and_within_deadline(self, seed):
        dfg = random_dag(11, edge_prob=0.3, seed=seed)
        table = random_table(dfg, num_types=3, seed=seed)
        floor = min_completion_time(dfg, table)
        for deadline in (floor, floor + 3, floor + 10):
            assignment = dfg_assign_repeat(dfg, table, deadline).assignment
            sched = heft_schedule(
                dfg, table, assignment=assignment, deadline=deadline
            )
            sched.validate(dfg, table, assignment)
            assert sched.makespan(table) <= deadline

    @pytest.mark.parametrize("seed", range(8))
    def test_configuration_at_least_lower_bound(self, seed):
        dfg = random_dag(10, edge_prob=0.3, seed=seed)
        table = random_table(dfg, num_types=3, seed=seed)
        floor = min_completion_time(dfg, table)
        assignment = dfg_assign_repeat(dfg, table, floor + 2).assignment
        lb = lower_bound_configuration(dfg, table, assignment, floor + 2)
        sched = heft_schedule(
            dfg, table, assignment=assignment, deadline=floor + 2
        )
        assert lb.dominates(sched.configuration)

    def test_chain_fits_on_single_units(self, chain3, chain3_table):
        assignment = Assignment.fastest(chain3, chain3_table)
        deadline = assignment.completion_time(chain3, chain3_table)
        sched = heft_schedule(
            chain3, chain3_table, assignment=assignment, deadline=deadline
        )
        assert all(c <= 1 for c in sched.configuration.counts)

    def test_initial_configuration_respected(self, chain3, chain3_table):
        assignment = Assignment.fastest(chain3, chain3_table)
        deadline = assignment.completion_time(chain3, chain3_table)
        lb = lower_bound_configuration(
            chain3, chain3_table, assignment, deadline
        )
        sched = heft_schedule(
            chain3,
            chain3_table,
            assignment=assignment,
            deadline=deadline,
            initial=lb,
        )
        assert lb.dominates(sched.configuration)

    def test_deterministic(self):
        dfg = random_dag(12, edge_prob=0.25, seed=4)
        table = random_table(dfg, num_types=3, seed=4)
        floor = min_completion_time(dfg, table)
        assignment = dfg_assign_repeat(dfg, table, floor + 3).assignment
        a = heft_schedule(dfg, table, assignment=assignment, deadline=floor + 3)
        b = heft_schedule(dfg, table, assignment=assignment, deadline=floor + 3)
        assert a.ops == b.ops


class TestFir16Row:
    """The measured row where HEFT beats both other phase-2 schedulers.

    fir16 with ``random_table(seed=2004)`` has floor 38; at
    ``L = ceil(1.3 * 38) = 50`` HEFT schedules the same assignment on
    5 FU units where ``min_resource`` and ``force_directed`` need 6.
    One step either side the three tie, so the win is a property of
    this deadline, not of the graph.
    """

    @pytest.fixture(scope="class")
    def fir16(self):
        dfg = get_benchmark("fir16")
        table = random_table(dfg.dag(), seed=2004)
        assert min_completion_time(dfg.dag(), table) == 38
        return dfg, table

    @staticmethod
    def _units(fir16, deadline):
        dfg, table = fir16
        return {
            scheduler: synthesize(
                dfg, table, deadline, scheduler=scheduler
            ).configuration.total_units()
            for scheduler in ("heft", "min_resource", "force_directed")
        }

    def test_heft_uses_one_unit_fewer_at_ceil_1_3_floor(self, fir16):
        assert self._units(fir16, 50) == {
            "heft": 5,
            "min_resource": 6,
            "force_directed": 6,
        }

    @pytest.mark.parametrize("deadline", [49, 51])
    def test_schedulers_tie_one_step_either_side(self, fir16, deadline):
        assert set(self._units(fir16, deadline).values()) == {6}
