"""Unit tests for the delta-debugging minimizer and its artifacts."""

import dataclasses
import json

import pytest

import repro.checkkit.oracles as oracles_mod
from repro.checkkit.generators import generate
from repro.checkkit.shrink import (
    from_json,
    oracle_predicate,
    replay_json,
    shrink,
    to_json,
    to_pytest,
)
from repro.errors import CheckError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG
from repro.suite.synthetic import random_dag


def _structural_predicate(dfg, table, deadline):
    """A synthetic bug: fails whenever the graph still has >= 2 nodes."""
    if len(dfg) >= 2:
        return f"bug with {len(dfg)} nodes"
    return None


class TestShrink:
    def test_reduces_to_local_minimum(self):
        dfg = random_dag(10, edge_prob=0.3, seed=1)
        table = random_table(dfg, num_types=3, seed=1)
        outcome = shrink(dfg, table, 20, _structural_predicate)
        assert outcome.num_nodes == 2
        assert outcome.message == "bug with 2 nodes"
        assert outcome.rounds >= 1
        assert outcome.attempts >= 1

    def test_passing_instance_is_rejected(self):
        dfg = DFG(name="one")
        dfg.add_node("x", op="add")
        table = random_table(dfg, num_types=3, seed=0)
        with pytest.raises(CheckError, match="passing instance"):
            shrink(dfg, table, 10, _structural_predicate)

    def test_attempt_budget_bounds_the_search(self):
        dfg = random_dag(10, edge_prob=0.3, seed=2)
        table = random_table(dfg, num_types=3, seed=2)
        outcome = shrink(dfg, table, 20, _structural_predicate, max_attempts=3)
        assert outcome.attempts <= 3

    def test_deadline_and_types_are_minimized(self):
        dfg = random_dag(6, edge_prob=0.3, seed=3)
        table = random_table(dfg, num_types=3, seed=3)
        outcome = shrink(dfg, table, 25, _structural_predicate)
        # the synthetic bug ignores the deadline and the table, so both
        # shrink all the way down
        assert outcome.deadline == 0
        assert outcome.table.num_types == 1


class TestInjectedKernelBugShrinks:
    """Acceptance: a monkeypatched kernel bug shrinks to <= 8 nodes."""

    def test_kernel_bug_is_caught_and_shrunk(self, monkeypatch):
        real = oracles_mod.dfg_assign_repeat

        def buggy(dag, table, deadline, **kwargs):
            result = real(dag, table, deadline, **kwargs)
            if kwargs.get("incremental") is False:
                return dataclasses.replace(result, cost=result.cost + 1.0)
            return result

        monkeypatch.setattr(oracles_mod, "dfg_assign_repeat", buggy)
        dfg = random_dag(12, edge_prob=0.25, seed=8)
        table = random_table(dfg, num_types=3, seed=8)
        predicate = oracle_predicate(("reference",), brute_force_limit=0)
        message = predicate(dfg, table, 30)
        assert message is not None and "engine cost" in message
        outcome = shrink(dfg, table, 30, predicate)
        assert outcome.num_nodes <= 8
        assert "engine cost" in outcome.message
        # the shrunk instance still reproduces
        assert predicate(outcome.dfg, outcome.table, outcome.deadline)


class TestArtifacts:
    def _roundtrip_instance(self):
        inst = generate("dag", 21)
        return inst.dfg, inst.table, inst.deadline

    def test_json_roundtrip(self):
        dfg, table, deadline = self._roundtrip_instance()
        text = to_json(
            dfg, table, deadline, spec="dag", seed=21, message="m"
        )
        doc = json.loads(text)
        assert doc["checkkit_reproducer"] == 1
        back_dfg, back_table, back_deadline, meta = from_json(text)
        assert back_deadline == deadline
        assert sorted(back_dfg.nodes()) == sorted(dfg.nodes())
        assert sorted(back_dfg.edges()) == sorted(dfg.edges())
        for node in dfg.nodes():
            assert list(back_table.times(node)) == list(table.times(node))
        assert meta["spec"] == "dag"

    def test_json_is_stable(self):
        dfg, table, deadline = self._roundtrip_instance()
        assert to_json(dfg, table, deadline) == to_json(dfg, table, deadline)

    def test_malformed_json_raises(self):
        with pytest.raises(CheckError, match="malformed reproducer JSON"):
            from_json("{nope")
        with pytest.raises(CheckError, match="not a checkkit reproducer"):
            from_json('{"other": 1}')

    def test_replay_json_passes_on_healthy_code(self):
        dfg, table, deadline = self._roundtrip_instance()
        text = to_json(
            dfg,
            table,
            deadline,
            oracles=("portfolio", "ordering"),
            relations=("transpose",),
        )
        checks = replay_json(text)
        assert any("algorithms feasible" in c for c in checks)
        assert "transposition preserves the optimal cost" in checks

    def test_replay_json_raises_while_bug_reproduces(self, monkeypatch):
        real = oracles_mod.dfg_assign_repeat

        def buggy(dag, table, deadline, **kwargs):
            result = real(dag, table, deadline, **kwargs)
            if kwargs.get("incremental") is False:
                return dataclasses.replace(result, cost=result.cost + 1.0)
            return result

        dfg, table, deadline = self._roundtrip_instance()
        text = to_json(dfg, table, deadline, oracles=("reference",))
        monkeypatch.setattr(oracles_mod, "dfg_assign_repeat", buggy)
        with pytest.raises(CheckError, match="engine cost"):
            replay_json(text)

    def test_to_pytest_emits_runnable_module(self):
        dfg, table, deadline = self._roundtrip_instance()
        text = to_json(dfg, table, deadline, oracles=("portfolio",))
        module = to_pytest(text, "dag_21")
        assert "def test_dag_21():" in module
        assert "replay_json(REPRODUCER)" in module
        namespace = {}
        exec(compile(module, "<reproducer>", "exec"), namespace)
        namespace["test_dag_21"]()

    def test_to_pytest_rejects_bad_names(self):
        dfg, table, deadline = self._roundtrip_instance()
        text = to_json(dfg, table, deadline)
        with pytest.raises(CheckError, match="not a valid identifier"):
            to_pytest(text, "bad name")

    def test_non_string_nodes_are_rejected(self):
        dfg = DFG(name="ints")
        dfg.add_node(1, op="add")
        table = random_table(dfg, num_types=2, seed=0)
        with pytest.raises(CheckError, match="string node ids"):
            to_json(dfg, table, 5)
