"""Unit tests for the DSP benchmark graphs (the paper's six + extras)."""

import pytest

from repro.assign.dfg_expand import dfg_expand
from repro.errors import GraphError, ReproError
from repro.graph.classify import is_in_forest, is_out_forest
from repro.suite import (
    PAPER_BENCHMARKS,
    benchmark_names,
    differential_equation_solver,
    elliptic_filter,
    fft_butterfly,
    fir_filter,
    get_benchmark,
    iir_biquad_cascade,
    lattice_filter,
    rls_laguerre_filter,
    volterra_filter,
)


class TestRegistry:
    def test_paper_benchmarks_present(self):
        for name in PAPER_BENCHMARKS:
            dfg = get_benchmark(name)
            assert len(dfg) > 0

    def test_unknown_name(self):
        with pytest.raises(ReproError, match="available"):
            get_benchmark("nope")

    def test_names_sorted(self):
        names = benchmark_names()
        assert names == sorted(names)

    def test_factories_return_fresh_graphs(self):
        g1, g2 = get_benchmark("diffeq"), get_benchmark("diffeq")
        g1.add_node("extra")
        assert "extra" not in g2

    def test_extras_registered(self):
        for name in ("dct8", "fft3", "fir8", "biquad2"):
            assert name in benchmark_names()


class TestLattice:
    def test_node_count(self):
        assert len(lattice_filter(4)) == 17
        assert len(lattice_filter(8)) == 33

    def test_is_tree(self):
        for k in (1, 4, 8):
            g = lattice_filter(k)
            assert is_in_forest(g)

    def test_operation_mix(self):
        g = lattice_filter(4)
        ops = [g.op(n) for n in g.nodes()]
        assert ops.count("mul") == 8
        assert ops.count("add") == 9

    def test_bad_stage_count(self):
        with pytest.raises(GraphError):
            lattice_filter(0)


class TestVolterra:
    def test_default_is_tree(self):
        g = volterra_filter()
        assert is_in_forest(g)

    def test_mul_heavy(self):
        g = volterra_filter()
        ops = [g.op(n) for n in g.nodes()]
        assert ops.count("mul") == 15

    def test_bad_params(self):
        with pytest.raises(GraphError):
            volterra_filter(linear_taps=0)


class TestDiffeq:
    def test_canonical_op_mix(self):
        g = differential_equation_solver()
        ops = [g.op(n) for n in g.nodes()]
        assert len(g) == 11
        assert ops.count("mul") == 6
        assert ops.count("sub") == 2
        assert ops.count("add") == 2
        assert ops.count("cmp") == 1

    def test_three_duplicated_nodes_forward(self):
        """The paper's property: three duplicated nodes."""
        g = differential_equation_solver()
        tree = dfg_expand(g)
        assert sorted(map(str, tree.duplicated_originals())) == ["m3", "s1", "s2"]


class TestElliptic:
    def test_published_op_mix(self):
        g = elliptic_filter()
        ops = [g.op(n) for n in g.nodes()]
        assert len(g) == 34
        assert ops.count("add") == 26
        assert ops.count("mul") == 8

    def test_nine_duplicated_nodes(self):
        """Paper: 'elliptic filter has 9 duplicated nodes'."""
        g = elliptic_filter()
        fwd = dfg_expand(g)
        rev = dfg_expand(g.transpose())
        assert len(fwd.duplicated_originals()) == 9
        assert len(rev.duplicated_originals()) == 9

    def test_not_a_tree(self):
        g = elliptic_filter()
        assert not is_in_forest(g) and not is_out_forest(g)


class TestRlsLaguerre:
    def test_three_duplicated_nodes_in_chosen_tree(self):
        """Paper: RLS-laguerre has three duplicated nodes."""
        from repro.assign.dfg_expand import choose_expansion

        g = rls_laguerre_filter()
        chosen = choose_expansion(g)
        assert len(chosen.duplicated_originals()) == 3

    def test_not_a_tree(self):
        g = rls_laguerre_filter()
        assert not is_in_forest(g) and not is_out_forest(g)

    def test_bad_stages(self):
        with pytest.raises(GraphError):
            rls_laguerre_filter(0)


class TestExtras:
    def test_fir_is_tree(self):
        g = fir_filter(8)
        assert is_in_forest(g)
        assert len(g) == 15

    def test_fir_single_tap(self):
        assert len(fir_filter(1)) == 1

    def test_biquad_is_cyclic_with_delays(self):
        g = iir_biquad_cascade(2)
        assert g.has_cycle()
        assert g.total_delays() > 0
        dag = g.dag()  # must extract cleanly
        assert not dag.has_cycle()

    def test_fft_path_count_grows(self):
        from repro.graph.paths import count_root_leaf_paths

        assert count_root_leaf_paths(fft_butterfly(3).dag()) > count_root_leaf_paths(
            fft_butterfly(2).dag()
        )

    def test_bad_params(self):
        with pytest.raises(GraphError):
            fir_filter(0)
        with pytest.raises(GraphError):
            iir_biquad_cascade(0)
        with pytest.raises(GraphError):
            fft_butterfly(0)


class TestAllBenchmarksSynthesize:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_end_to_end(self, name):
        from repro.assign.assignment import min_completion_time
        from repro.fu.random_tables import random_table
        from repro.synthesis import synthesize

        dag = get_benchmark(name).dag()
        table = random_table(dag, num_types=3, seed=0)
        deadline = min_completion_time(dag, table) + 3
        result = synthesize(dag, table, deadline)
        result.verify(dag, table)
