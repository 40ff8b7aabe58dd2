"""Stack-wide determinism: identical inputs → bit-identical outputs.

The documentation promises deterministic behaviour everywhere (tie
breaks by type index / insertion order, seeded tables).  These tests
hold every layer to it by running each pipeline twice and comparing
the *complete* outputs, not just costs — a regression to nondeterminism
(e.g. iterating over an unordered set) fails here even when the costs
happen to agree.
"""

import pytest

from repro.assign import (
    dfg_assign_once,
    dfg_assign_repeat,
    downgrade_assign,
    exact_assign,
    greedy_assign,
    min_completion_time,
    tree_assign,
)
from repro.assign.dfg_expand import choose_expansion
from repro.assign.frontier import dfg_frontier, tree_frontier
from repro.fu.random_tables import random_table
from repro.suite.registry import get_benchmark
from repro.synthesis import synthesize


def _twice(fn):
    return fn(), fn()


class TestAssignmentDeterminism:
    @pytest.mark.parametrize(
        "algo",
        [greedy_assign, downgrade_assign, dfg_assign_once, dfg_assign_repeat,
         exact_assign],
    )
    def test_algorithms_repeat_exactly(self, algo):
        # exact search needs the small benchmark to stay within budget
        name = "diffeq" if algo is exact_assign else "rls_laguerre"
        dfg = get_benchmark(name).dag()
        table = random_table(dfg, num_types=3, seed=24)
        deadline = min_completion_time(dfg, table) + 4
        a, b = _twice(lambda: algo(dfg, table, deadline))
        assert dict(a.assignment.items()) == dict(b.assignment.items())
        assert a.cost == b.cost

    def test_tree_dp_traceback_stable(self):
        dfg = get_benchmark("lattice8").dag()
        table = random_table(dfg, num_types=3, seed=24)
        deadline = min_completion_time(dfg, table) + 6
        a, b = _twice(lambda: tree_assign(dfg, table, deadline))
        assert dict(a.assignment.items()) == dict(b.assignment.items())

    def test_expansion_stable(self):
        dfg = get_benchmark("elliptic").dag()
        e1, e2 = _twice(lambda: choose_expansion(dfg))
        assert sorted(map(str, e1.tree.nodes())) == sorted(
            map(str, e2.tree.nodes())
        )
        assert e1.duplicated_originals() == e2.duplicated_originals()

    def test_frontiers_stable(self):
        tree = get_benchmark("volterra").dag()
        table = random_table(tree, num_types=3, seed=24)
        floor = min_completion_time(tree, table)
        assert tree_frontier(tree, table, max_deadline=floor + 10) == tree_frontier(
            tree, table, max_deadline=floor + 10
        )
        dag = get_benchmark("rls_laguerre").dag()
        dtable = random_table(dag, num_types=3, seed=24)
        dfloor = min_completion_time(dag, dtable)
        assert dfg_frontier(dag, dtable, max_deadline=dfloor + 5) == dfg_frontier(
            dag, dtable, max_deadline=dfloor + 5
        )


class TestSchedulingDeterminism:
    @pytest.mark.parametrize("scheduler", ["min_resource", "force_directed"])
    def test_full_synthesis_repeats_exactly(self, scheduler):
        dfg = get_benchmark("elliptic").dag()
        table = random_table(dfg, num_types=3, seed=24)
        deadline = min_completion_time(dfg, table) + 5
        r1, r2 = _twice(
            lambda: synthesize(dfg, table, deadline, scheduler=scheduler)
        )
        assert r1.schedule.ops == r2.schedule.ops
        assert r1.configuration == r2.configuration

    def test_modulo_schedule_stable(self):
        from repro.assign import Assignment
        from repro.retiming.modulo import modulo_schedule
        from repro.sched.schedule import Configuration
        from repro.suite.extras import iir_biquad_cascade

        dfg = iir_biquad_cascade(2)
        table = random_table(dfg, num_types=2, seed=3)
        assignment = Assignment.cheapest(dfg, table)
        cfg = Configuration.of([3, 3])
        m1, m2 = _twice(lambda: modulo_schedule(dfg, table, assignment, cfg))
        assert m1.starts == m2.starts and m1.ii == m2.ii

    def test_register_allocation_stable(self):
        from repro.sched import allocate_registers

        dfg = get_benchmark("lattice8").dag()
        table = random_table(dfg, num_types=3, seed=24)
        deadline = min_completion_time(dfg, table) + 4
        result = synthesize(dfg, table, deadline)
        a1, a2 = _twice(
            lambda: allocate_registers(
                dfg, table, result.assignment, result.schedule
            )
        )
        assert a1.registers == a2.registers


class TestReportDeterminism:
    def test_experiment_rows_stable(self):
        from repro.report.experiments import run_benchmark_rows

        r1, r2 = _twice(lambda: run_benchmark_rows("diffeq", seed=24, count=3))
        assert r1 == r2

    def test_rendered_tables_stable(self):
        from repro.report.experiments import render_rows, run_benchmark_rows

        rows = run_benchmark_rows("diffeq", seed=24, count=2)
        assert render_rows(rows) == render_rows(rows)
