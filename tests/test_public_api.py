"""Public API surface checks for the open-source release.

Every name advertised in an ``__all__`` must exist, be importable from
the advertised location, and carry a docstring — the contract a
downstream user relies on.
"""

import importlib

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.graph",
    "repro.fu",
    "repro.assign",
    "repro.sched",
    "repro.retiming",
    "repro.sim",
    "repro.obs",
    "repro.suite",
    "repro.report",
    "repro.synthesis",
    "repro.verify",
    "repro.errors",
    "repro.cli",
    "repro.io",
    "repro.serve",
]


@pytest.mark.parametrize("modname", PUBLIC_MODULES)
class TestModuleSurface:
    def test_importable_with_docstring(self, modname):
        mod = importlib.import_module(modname)
        assert mod.__doc__, f"{modname} lacks a module docstring"

    def test_all_names_resolve(self, modname):
        mod = importlib.import_module(modname)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{modname}.__all__ lists missing {name}"

    def test_public_callables_documented(self, modname):
        mod = importlib.import_module(modname)
        undocumented = []
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            # only check functions/classes defined inside this package
            # (type aliases and re-exported builtins carry no docstring)
            if not callable(obj):
                continue
            if not str(getattr(obj, "__module__", "")).startswith("repro"):
                continue
            if not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, f"{modname}: undocumented {undocumented}"


class TestTopLevel:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_quickstart_imports(self):
        """The exact imports the README's quickstart uses."""
        from repro import min_completion_time, synthesize  # noqa: F401
        from repro.fu import random_table  # noqa: F401
        from repro.suite import differential_equation_solver  # noqa: F401

    def test_algorithms_exposed_at_top_level(self):
        import repro

        for name in (
            "path_assign",
            "tree_assign",
            "dfg_assign_once",
            "dfg_assign_repeat",
            "greedy_assign",
            "exact_assign",
        ):
            assert callable(getattr(repro, name))

    def test_errors_catchable_from_top_level(self):
        import repro

        assert issubclass(repro.InfeasibleError, repro.ReproError)

    def test_cli_entry_point_matches_pyproject(self):
        from repro.cli import main

        assert callable(main)


class TestFacadeKeywordOnly:
    """Runtime twin of lintkit RL010: optional knobs are keyword-only.

    A defaulted positional on a documented entry point lets a later
    option-insert silently re-map existing positional call sites; the
    static rule and this test pin the contract from both sides.
    """

    def test_root_facade_defaulted_params_are_keyword_only(self):
        import inspect

        import repro

        offenders = {}
        for name in repro.__all__:
            obj = inspect.unwrap(getattr(repro, name))
            if not inspect.isfunction(obj):
                continue
            sig = inspect.signature(obj)
            bad = [
                p.name
                for p in sig.parameters.values()
                if p.default is not inspect.Parameter.empty
                and p.kind
                in (
                    inspect.Parameter.POSITIONAL_ONLY,
                    inspect.Parameter.POSITIONAL_OR_KEYWORD,
                )
            ]
            if bad:
                offenders[name] = bad
        assert offenders == {}

    def test_strict_api_rejects_legacy_positionals(self):
        """The frozen v1 API rejects legacy positional calls natively."""
        from repro.assign.dfg_expand import dfg_expand
        from repro.graph.dfg import DFG

        dfg = DFG("legacy")
        dfg.add_node("a", "mul")
        with pytest.raises(TypeError, match="1 positional argument"):
            dfg_expand(dfg, 1000)

    def test_call_shape_picks_the_dp_path(self):
        """No entry point takes a DP-path knob; the call shape decides."""
        import inspect

        from repro import assign, report
        from repro.serve import SynthesisService

        entry_points = [
            assign.tree_assign,
            assign.tree_frontier,
            assign.dfg_assign_once,
            assign.dfg_frontier,
            SynthesisService,
            report.run_benchmark_rows,
            report.run_table1,
            report.run_table2,
            report.headline_summary,
            report.robustness_study,
        ]
        for fn in entry_points:
            params = set(inspect.signature(fn).parameters)
            assert not params & {"kernel", "batch", "incremental"}, fn
        for gone in (
            "tree_dp",
            "tree_frontier_batch",
            "dfg_frontier_batch",
            "IncrementalTreeDP",
            "PackedAssignDP",
            "make_tree_engine",
        ):
            assert not hasattr(assign, gone), gone
        for module in (
            "repro.apiutil",
            "repro.assign.dpkernel",
            "repro.assign.incremental",
        ):
            with pytest.raises(ImportError):
                importlib.import_module(module)

    def test_repeat_runs_serially(self):
        """The pin fan-out is gone: `workers` only races the portfolio."""
        import inspect

        from repro import assign
        from repro.assign.dfg_assign import _min_time_choice

        for fn in (assign.dfg_assign_repeat, _min_time_choice):
            assert "workers" not in inspect.signature(fn).parameters, fn


class TestResultSchema:
    """The versioned SynthesisResult JSON document is a pinned surface.

    Downstream consumers (the serve cache, the ``synth --json`` CLI,
    external tooling) key on ``schema_version``; any shape change must
    bump it and update this pin.
    """

    @pytest.fixture(scope="class")
    def result_doc(self):
        import json

        from repro.fu.random_tables import random_table
        from repro.suite.registry import get_benchmark
        from repro.synthesis import synthesize

        dfg = get_benchmark("biquad2").dag()
        table = random_table(dfg, num_types=3, seed=2004)
        result = synthesize(dfg, table, 60)
        return json.loads(result.to_json())

    def test_schema_version_pinned(self, result_doc):
        from repro.synthesis import RESULT_SCHEMA_VERSION

        assert RESULT_SCHEMA_VERSION == 1
        assert result_doc["schema_version"] == 1

    def test_top_level_shape(self, result_doc):
        assert set(result_doc) == {
            "schema_version",
            "cost",
            "completion_time",
            "deadline",
            "algorithm",
            "optimal",
            "assignment",
            "configuration",
            "lower_bound",
            "schedule",
            "timings",
        }

    def test_value_types(self, result_doc):
        assert isinstance(result_doc["cost"], float)
        assert isinstance(result_doc["completion_time"], int)
        assert result_doc["optimal"] is None or isinstance(
            result_doc["optimal"], bool
        )  # tri-state: None = optimality unknown
        assert all(
            isinstance(v, int) for v in result_doc["assignment"].values()
        )
        assert all(isinstance(c, int) for c in result_doc["configuration"])
        for op in result_doc["schedule"].values():
            assert set(op) == {"start", "fu_type", "fu_index"}

    def test_schedule_keys_match_assignment(self, result_doc):
        assert set(result_doc["schedule"]) == set(result_doc["assignment"])


class TestDpMetricsTable:
    """The RL009 literal metric table stays in sync with DPStats."""

    def test_keys_mirror_dpstats_counters(self):
        from repro.assign import DPStats
        from repro.assign.dfg_assign import _DP_METRICS

        assert set(_DP_METRICS) == set(DPStats().as_dict())

    def test_values_match_registered_obs_pattern(self):
        from repro.assign.dfg_assign import _DP_METRICS
        from repro.obs import OBS_NAME_RE

        assert all(OBS_NAME_RE.fullmatch(v) for v in _DP_METRICS.values())
