"""Unit tests for the 8-point DCT benchmark graph."""

import pytest

from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.dfg_expand import choose_expansion
from repro.assign.assignment import min_completion_time
from repro.fu.random_tables import random_table
from repro.graph.analysis import profile
from repro.suite.dct import dct8


class TestStructure:
    def test_operation_mix(self):
        g = dct8()
        p = profile(g)
        assert p.nodes == 48
        assert p.ops == {"add": 20, "mul": 16, "sub": 12}

    def test_eight_inputs_eight_outputs(self):
        g = dct8()
        assert len(g.dag().roots()) == 8
        assert len(g.dag().leaves()) == 8

    def test_dense_sharing(self):
        """Every butterfly fans out: many more paths than nodes."""
        p = profile(dct8())
        assert p.root_leaf_paths == 64
        assert p.extra_copies_on_expansion > p.nodes

    def test_acyclic(self):
        assert not dct8().has_cycle()


class TestSynthesis:
    def test_expansion_stays_bounded(self):
        expansion = choose_expansion(dct8().dag())
        assert len(expansion) < 500

    def test_end_to_end(self):
        dag = dct8().dag()
        table = random_table(dag, num_types=3, seed=24)
        floor = min_completion_time(dag, table)
        for deadline in (floor, floor + 6):
            result = dfg_assign_repeat(dag, table, deadline)
            result.verify(dag, table)

    def test_heuristics_beat_greedy_somewhere(self):
        from repro.assign.greedy import greedy_assign

        dag = dct8().dag()
        table = random_table(dag, num_types=3, seed=24)
        floor = min_completion_time(dag, table)
        wins = 0
        for deadline in range(floor, floor + 8):
            r = dfg_assign_repeat(dag, table, deadline)
            g = greedy_assign(dag, table, deadline)
            if r.cost < g.cost - 1e-9:
                wins += 1
        assert wins >= 2

    def test_schedulable(self):
        from repro.sched import min_resource_schedule

        dag = dct8().dag()
        table = random_table(dag, num_types=3, seed=24)
        deadline = min_completion_time(dag, table) + 4
        assignment = dfg_assign_repeat(dag, table, deadline).assignment
        schedule = min_resource_schedule(dag, table, assignment=assignment, deadline=deadline)
        schedule.validate(dag, table, assignment)
