"""Unit tests for the fuzz campaign runner."""

import dataclasses
import json

import pytest

import repro.checkkit.oracles as oracles_mod
from repro.checkkit.runner import run_fuzz
from repro.errors import CheckError


class TestCleanCampaign:
    def test_small_campaign_is_clean(self):
        report = run_fuzz(budget=7, seed=2004)
        assert report.exit_code == 0
        assert report.instances == 7
        assert report.oracle_checks > 0
        assert report.relation_checks > 0
        assert not report.failures
        assert report.describe().endswith("verdict: clean")

    def test_determinism(self):
        a = run_fuzz(budget=7, seed=2004)
        b = run_fuzz(budget=7, seed=2004)
        assert a.describe() == b.describe()

    def test_zero_budget(self):
        report = run_fuzz(budget=0, seed=1)
        assert report.instances == 0
        assert report.exit_code == 0

    def test_spec_restriction_shows_in_report(self):
        report = run_fuzz(budget=2, seed=1, specs=["path"])
        assert report.specs == ("path",)
        assert "specs [path]" in report.describe()

    def test_bad_budget_raises(self):
        with pytest.raises(CheckError, match="budget must be >= 0"):
            run_fuzz(budget=-1, seed=0)

    @pytest.mark.fuzz
    def test_medium_campaign_is_clean(self):
        report = run_fuzz(budget=30, seed=2004)
        assert report.exit_code == 0
        assert report.instances == 30


def _install_kernel_bug(monkeypatch):
    real = oracles_mod.dfg_assign_repeat

    def buggy(dag, table, deadline, **kwargs):
        result = real(dag, table, deadline, **kwargs)
        if kwargs.get("incremental") is False:
            return dataclasses.replace(result, cost=result.cost + 1.0)
        return result

    monkeypatch.setattr(oracles_mod, "dfg_assign_repeat", buggy)


class TestFailingCampaign:
    def test_failures_are_shrunk_and_reported(self, monkeypatch):
        _install_kernel_bug(monkeypatch)
        report = run_fuzz(
            budget=2,
            seed=2004,
            oracle_chain=("reference",),
            relation_chain=(),
        )
        assert report.exit_code == 1
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.kind == "oracle"
            assert "engine cost" in failure.message
            assert failure.shrunk is not None
            assert failure.shrunk.num_nodes <= 8
            doc = json.loads(failure.reproducer)
            assert doc["oracles"] == ["reference"]
        text = report.describe()
        assert "verdict: FAILURES" in text
        assert "[fail] #0" in text

    def test_max_failures_aborts_early(self, monkeypatch):
        _install_kernel_bug(monkeypatch)
        report = run_fuzz(
            budget=10,
            seed=2004,
            oracle_chain=("reference",),
            relation_chain=(),
            max_failures=1,
        )
        assert len(report.failures) == 1
        assert report.stopped_early
        assert report.instances < 10
        assert "aborted after" in report.describe()

    def test_artifacts_written_to_out_dir(self, monkeypatch, tmp_path):
        _install_kernel_bug(monkeypatch)
        report = run_fuzz(
            budget=1,
            seed=2004,
            oracle_chain=("reference",),
            relation_chain=(),
            out_dir=tmp_path,
        )
        (failure,) = report.failures
        assert len(failure.artifact_paths) == 2
        json_path, py_path = failure.artifact_paths
        assert json_path.endswith(".json") and py_path.endswith(".py")
        doc = json.loads(open(json_path, encoding="utf-8").read())
        assert doc["checkkit_reproducer"] == 1
        module = open(py_path, encoding="utf-8").read()
        assert "replay_json" in module

    def test_metamorphic_failures_have_relation_kind(self, monkeypatch):
        import repro.checkkit.metamorphic as metamorphic_mod

        monkeypatch.setattr(
            metamorphic_mod, "_optimal_cost", lambda dag, table, deadline: 7.0
        )
        report = run_fuzz(
            budget=2,
            seed=2004,
            specs=["out_tree"],
            oracle_chain=(),
            relation_chain=("cost_scaling",),
        )
        assert report.exit_code == 1
        assert all(f.kind == "relation" for f in report.failures)


class TestObservability:
    def test_counters_and_spans(self):
        from repro.obs import Tracer, use_tracer

        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            run_fuzz(budget=2, seed=3)
        counters = tracer.metrics.counters
        assert counters["checkkit.instances"].value == 2
        assert counters["checkkit.checks"].value > 0
        names = {span.name for span in tracer.roots}
        assert "checkkit.fuzz" in names
