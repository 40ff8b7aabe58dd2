"""Unit tests for DFG_Assign_Once and DFG_Assign_Repeat."""

import pytest

from repro.assign.dfg_assign import dfg_assign_once, dfg_assign_repeat
from repro.assign.dfg_expand import choose_expansion, expansion_candidates
from repro.assign.exact import brute_force_assign, exact_assign
from repro.assign.tree_assign import tree_assign
from repro.assign.assignment import min_completion_time
from repro.errors import GraphError, InfeasibleError
from repro.fu.random_tables import random_table
from repro.suite.synthetic import random_dag


class TestExpansionChoice:
    def test_candidates_cover_both_directions(self, wide_dag):
        fwd, rev = expansion_candidates(wide_dag)
        assert not fwd.transposed and rev.transposed

    def test_choose_picks_smaller(self, wide_dag):
        fwd, rev = expansion_candidates(wide_dag)
        chosen = choose_expansion(wide_dag)
        assert len(chosen) == min(len(fwd), len(rev))

    def test_tie_prefers_forward(self, small_tree):
        # a tree expands to itself both ways (same size)
        chosen = choose_expansion(small_tree)
        assert not chosen.transposed


class TestFeasibility:
    @pytest.mark.parametrize("algo", [dfg_assign_once, dfg_assign_repeat])
    @pytest.mark.parametrize("seed", range(6))
    def test_always_feasible_random_dags(self, algo, seed):
        dfg = random_dag(10, edge_prob=0.3, seed=seed)
        table = random_table(dfg, num_types=3, seed=seed)
        floor = min_completion_time(dfg, table)
        for deadline in (floor, floor + 2, floor + 7, floor + 20):
            result = algo(dfg, table, deadline)
            result.verify(dfg, table)
            assert result.completion_time <= deadline

    @pytest.mark.parametrize("algo", [dfg_assign_once, dfg_assign_repeat])
    def test_infeasible_deadline_raises(self, wide_dag, algo):
        table = random_table(wide_dag, seed=1)
        floor = min_completion_time(wide_dag, table)
        with pytest.raises(InfeasibleError):
            algo(wide_dag, table, floor - 1)


class TestOptimalOnTrees:
    @pytest.mark.parametrize("algo", [dfg_assign_once, dfg_assign_repeat])
    def test_tree_input_gives_tree_assign_cost(self, small_tree, algo):
        """Paper: on trees both heuristics return the optimum."""
        table = random_table(small_tree, seed=2)
        floor = min_completion_time(small_tree, table)
        for deadline in range(floor, floor + 10):
            heur = algo(small_tree, table, deadline)
            opt = tree_assign(small_tree, table, deadline)
            assert heur.cost == pytest.approx(opt.cost)

    @pytest.mark.parametrize("algo", [dfg_assign_once, dfg_assign_repeat])
    def test_in_tree_input(self, small_tree, algo):
        in_tree = small_tree.transpose()
        table = random_table(in_tree, seed=3)
        floor = min_completion_time(in_tree, table)
        heur = algo(in_tree, table, floor + 4)
        opt = tree_assign(in_tree, table, floor + 4)
        assert heur.cost == pytest.approx(opt.cost)


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    def test_never_below_optimum(self, seed):
        dfg = random_dag(9, edge_prob=0.3, seed=100 + seed)
        table = random_table(dfg, num_types=3, seed=seed)
        floor = min_completion_time(dfg, table)
        for deadline in (floor, floor + 4, floor + 10):
            opt = brute_force_assign(dfg, table, deadline)
            once = dfg_assign_once(dfg, table, deadline)
            repeat = dfg_assign_repeat(dfg, table, deadline)
            assert once.cost >= opt.cost - 1e-9
            assert repeat.cost >= opt.cost - 1e-9

    def test_repeat_beats_or_ties_once_on_benchmarks(self):
        """The paper's empirical claim, checked across seeds."""
        from repro.suite.registry import get_benchmark

        for name in ("elliptic", "rls_laguerre"):
            dfg = get_benchmark(name).dag()
            for seed in range(5):
                table = random_table(dfg, num_types=3, seed=seed)
                floor = min_completion_time(dfg, table)
                for deadline in (floor + 2, floor + 6):
                    once = dfg_assign_once(dfg, table, deadline)
                    repeat = dfg_assign_repeat(dfg, table, deadline)
                    assert repeat.cost <= once.cost + 1e-9


class TestRepeatMechanics:
    def test_custom_fix_order(self, wide_dag):
        table = random_table(wide_dag, seed=4)
        floor = min_completion_time(wide_dag, table)
        expansion = choose_expansion(wide_dag)
        dup = expansion.duplicated_originals()
        if dup:
            result = dfg_assign_repeat(
                wide_dag, table, floor + 5, fix_order=list(reversed(dup))
            )
            result.verify(wide_dag, table)

    def test_unknown_fix_order_node(self, wide_dag):
        table = random_table(wide_dag, seed=5)
        floor = min_completion_time(wide_dag, table)
        with pytest.raises(GraphError):
            dfg_assign_repeat(wide_dag, table, floor + 5, fix_order=["zzz"])

    def test_empty_fix_order_is_once_like(self, wide_dag):
        """With nothing pinned, Repeat's resolution equals Once's."""
        table = random_table(wide_dag, seed=6)
        floor = min_completion_time(wide_dag, table)
        expansion = choose_expansion(wide_dag)
        r = dfg_assign_repeat(
            wide_dag, table, floor + 5, expansion=expansion, fix_order=[]
        )
        o = dfg_assign_once(wide_dag, table, floor + 5, expansion=expansion)
        assert r.cost == pytest.approx(o.cost)


class TestMetadata:
    def test_algorithm_names(self, wide_dag):
        table = random_table(wide_dag, seed=7)
        floor = min_completion_time(wide_dag, table)
        assert dfg_assign_once(wide_dag, table, floor).algorithm == "dfg_assign_once"
        assert (
            dfg_assign_repeat(wide_dag, table, floor).algorithm
            == "dfg_assign_repeat"
        )

    def test_deterministic(self, wide_dag):
        table = random_table(wide_dag, seed=8)
        floor = min_completion_time(wide_dag, table)
        a = dfg_assign_repeat(wide_dag, table, floor + 3)
        b = dfg_assign_repeat(wide_dag, table, floor + 3)
        assert dict(a.assignment.items()) == dict(b.assignment.items())
