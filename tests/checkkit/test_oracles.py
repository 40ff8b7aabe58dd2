"""Unit tests for the differential oracle registry."""

import dataclasses

import pytest

import repro.checkkit.oracles as oracles_mod
from repro.checkkit.generators import generate
from repro.checkkit.oracles import (
    CERTIFY_CHAIN,
    FUZZ_CHAIN,
    OracleContext,
    get_oracle,
    oracle_names,
    run_oracles,
)
from repro.errors import CheckError
from repro.fu.random_tables import random_table


def make_table(dfg, seed=0, num_types=3):
    return random_table(dfg, num_types=num_types, seed=seed)


class TestRegistry:
    def test_chains_are_registered(self):
        names = oracle_names()
        for name in FUZZ_CHAIN:
            assert name in names
        assert set(CERTIFY_CHAIN) < set(FUZZ_CHAIN)

    def test_unknown_oracle_raises(self):
        with pytest.raises(CheckError, match="unknown oracle"):
            get_oracle("nope")

    def test_oracles_carry_descriptions(self):
        for name in oracle_names():
            assert get_oracle(name).description


class TestRunOracles:
    def test_chain_on_chain3(self, chain3, chain3_table):
        cert = run_oracles(chain3, chain3_table, 8, names=FUZZ_CHAIN)
        assert cert.deadline == 8
        assert "exact == brute force" in cert.checks
        assert "structure DP == exact" in cert.checks
        assert any("incremental engine" in c for c in cert.checks)

    def test_chain_on_wide_dag(self, wide_dag):
        table = make_table(wide_dag, seed=5)
        from repro.assign.assignment import min_completion_time

        deadline = min_completion_time(wide_dag, table) + 3
        cert = run_oracles(wide_dag, table, deadline, names=FUZZ_CHAIN)
        assert any("batched sweep == cold sweep" in c for c in cert.checks)

    def test_default_chain_is_certify(self, small_tree):
        table = make_table(small_tree, seed=2)
        cert = run_oracles(small_tree, table, 12)
        assert "heuristics optimal on the tree-shaped instance" in cert.checks
        # default chain excludes the fuzz-only differentials
        assert not any("reference loop" in c for c in cert.checks)

    def test_brute_force_limit_gates_the_oracle(self, chain3, chain3_table):
        gated = run_oracles(
            chain3, chain3_table, 8, names=FUZZ_CHAIN, brute_force_limit=0
        )
        assert "exact == brute force" not in gated.checks

    def test_context_shares_expansion(self, chain3, chain3_table):
        ctx = OracleContext(chain3, chain3_table, 8)
        assert ctx.expansion is ctx.expansion
        assert ctx.results is ctx.results


class TestInjectedBugs:
    """A deliberately broken implementation must be caught, not certified."""

    def test_kernel_divergence_is_detected(self, monkeypatch):
        real = oracles_mod.dfg_assign_repeat

        def buggy(dag, table, deadline, **kwargs):
            result = real(dag, table, deadline, **kwargs)
            if kwargs.get("incremental") is False:
                return dataclasses.replace(result, cost=result.cost + 1.0)
            return result

        monkeypatch.setattr(oracles_mod, "dfg_assign_repeat", buggy)
        inst = generate("dag", 13)
        with pytest.raises(CheckError, match="engine cost"):
            run_oracles(
                inst.dfg, inst.table, inst.deadline, names=("reference",)
            )

    def test_tree_frontier_point_divergence_is_detected(self, monkeypatch):
        real = oracles_mod.tree_assign

        def buggy(dag, table, deadline, **kwargs):
            result = real(dag, table, deadline, **kwargs)
            return dataclasses.replace(result, cost=result.cost + 1.0)

        monkeypatch.setattr(oracles_mod, "tree_assign", buggy)
        inst = generate("out_tree", 3)
        with pytest.raises(CheckError, match="tree_frontier knee"):
            run_oracles(
                inst.dfg, inst.table, inst.deadline, names=("reference",)
            )


class TestCertifyFacade:
    """`verify.certify` stays behaviourally identical to its chain."""

    def test_certify_equals_certify_chain(self, small_tree):
        from repro.verify import certify

        table = make_table(small_tree, seed=9)
        via_facade = certify(small_tree, table, 12)
        via_registry = run_oracles(small_tree, table, 12, names=CERTIFY_CHAIN)
        assert via_facade.describe() == via_registry.describe()
