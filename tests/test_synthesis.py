"""Unit tests for the two-phase synthesis pipeline."""

import pytest

from repro.assign.assignment import Assignment, min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.errors import CyclicDependencyError, InfeasibleError, ReproError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG
from repro.suite import get_benchmark, iir_biquad_cascade
from repro.synthesis import (
    ALGORITHMS,
    SynthesisResult,
    auto_algorithm,
    run_phase2,
    synthesize,
)


class TestAutoAlgorithm:
    def test_path(self, chain3):
        assert auto_algorithm(chain3) == "path"

    def test_tree(self, small_tree):
        assert auto_algorithm(small_tree) == "tree"

    def test_in_tree(self, small_tree):
        assert auto_algorithm(small_tree.transpose()) == "tree"

    def test_dag(self, wide_dag):
        assert auto_algorithm(wide_dag) == "repeat"


class TestSynthesize:
    @pytest.mark.parametrize("algorithm", [None, "greedy", "once", "repeat", "exact"])
    def test_all_algorithms_verify(self, wide_dag, algorithm):
        table = random_table(wide_dag, seed=0)
        deadline = min_completion_time(wide_dag, table) + 5
        result = synthesize(wide_dag, table, deadline, algorithm=algorithm)
        result.verify(wide_dag, table)

    def test_result_fields_consistent(self, wide_dag):
        table = random_table(wide_dag, seed=1)
        deadline = min_completion_time(wide_dag, table) + 4
        result = synthesize(wide_dag, table, deadline)
        assert result.cost == result.assign_result.cost
        assert result.configuration == result.schedule.configuration
        assert result.lower_bound.dominates(result.configuration)
        assert result.schedule.makespan(table) <= deadline

    def test_unknown_algorithm(self, wide_dag):
        table = random_table(wide_dag, seed=2)
        with pytest.raises(ReproError, match="unknown algorithm"):
            synthesize(wide_dag, table, 100, algorithm="magic")

    def test_infeasible_deadline(self, wide_dag):
        table = random_table(wide_dag, seed=3)
        floor = min_completion_time(wide_dag, table)
        with pytest.raises(InfeasibleError):
            synthesize(wide_dag, table, floor - 1)

    def test_cyclic_input_uses_dag_part(self):
        cyclic = iir_biquad_cascade(1)
        dag = cyclic.dag()
        table = random_table(cyclic, seed=4)  # covers all nodes
        deadline = min_completion_time(dag, table) + 4
        result = synthesize(cyclic, table, deadline)
        result.verify(dag, table)

    def test_zero_delay_cycle_rejected(self):
        bad = DFG.from_edges([("a", "b", 0), ("b", "a", 0)])
        from repro.fu.table import TimeCostTable

        table = TimeCostTable.from_rows(
            {"a": ([1], [1.0]), "b": ([1], [1.0])}
        )
        with pytest.raises(CyclicDependencyError):
            synthesize(bad, table, 10)

    def test_exact_never_worse_than_heuristics(self, wide_dag):
        table = random_table(wide_dag, seed=5)
        deadline = min_completion_time(wide_dag, table) + 6
        exact = synthesize(wide_dag, table, deadline, algorithm="exact")
        for name in ("greedy", "once", "repeat"):
            heur = synthesize(wide_dag, table, deadline, algorithm=name)
            assert heur.cost >= exact.cost - 1e-9

    def test_algorithm_registry_complete(self):
        assert set(ALGORITHMS) == {
            "path",
            "tree",
            "sp",
            "once",
            "repeat",
            "greedy",
            "downgrade",
            "exact",
            "portfolio",
        }

    def test_force_directed_scheduler_option(self, wide_dag):
        table = random_table(wide_dag, seed=9)
        deadline = min_completion_time(wide_dag, table) + 5
        result = synthesize(
            wide_dag, table, deadline, scheduler="force_directed"
        )
        result.verify(wide_dag, table)

    def test_unknown_scheduler(self, wide_dag):
        table = random_table(wide_dag, seed=9)
        with pytest.raises(ReproError, match="scheduler"):
            synthesize(wide_dag, table, 100, scheduler="magic")

    @pytest.mark.parametrize("name", ["lattice4", "diffeq", "elliptic"])
    def test_benchmarks_roundtrip(self, name):
        dag = get_benchmark(name).dag()
        table = random_table(dag, seed=6)
        deadline = min_completion_time(dag, table) + 2
        result = synthesize(dag, table, deadline)
        result.verify(dag, table)
        # the reported schedule really uses the phase-1 assignment
        for node in dag.nodes():
            assert result.schedule.ops[node].fu_type == result.assignment[node]


class TestRunPhase2:
    @pytest.mark.parametrize("scheduler", ["min_resource", "heft", "force_directed"])
    def test_validates_the_assignment_once(self, wide_dag, scheduler, monkeypatch):
        table = random_table(wide_dag, seed=0)
        deadline = min_completion_time(wide_dag, table) + 2
        assignment = dfg_assign_repeat(wide_dag, table, deadline).assignment
        calls = []
        validate = Assignment.validate_for

        def counting(self, dfg, tbl):
            calls.append(dfg)
            return validate(self, dfg, tbl)

        monkeypatch.setattr(Assignment, "validate_for", counting)
        lower, schedule = run_phase2(
            wide_dag, table, assignment, deadline, scheduler=scheduler
        )
        assert len(calls) == 1
        schedule.validate(wide_dag, table, assignment)
        assert lower.dominates(schedule.configuration)
