"""Per-rule fixture tests: each rule has a triggering and a clean fixture.

These are the acceptance gates for the rule catalog — editing any
fixture (or breaking any rule) changes an exact expected finding count.
"""

from .conftest import load_fixture, run_rule


class TestRL001ExceptionTaxonomy:
    def test_bad_fixture_triggers(self):
        mod = load_fixture("rl001_bad.py", module="repro.assign.fixture")
        findings = run_rule("RL001", [mod])
        assert len(findings) == 3
        assert all(f.code == "RL001" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "KeyError" in messages
        assert "ValueError" in messages
        assert "NotAnError" in messages

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl001_clean.py", module="repro.assign.fixture")
        assert run_rule("RL001", [mod]) == []

    def test_taxonomy_crosses_modules(self):
        """A subclass defined in one module is recognized in another."""
        from repro.lintkit import module_from_source

        defs = module_from_source(
            "class ReproError(Exception):\n"
            "    pass\n"
            "class CustomError(ReproError):\n"
            "    pass\n",
            module="repro.errors",
            path="errors.py",
        )
        user = module_from_source(
            "from .errors import CustomError\n"
            "def f():\n"
            "    raise CustomError('x')\n",
            module="repro.graph.user",
            path="user.py",
        )
        assert run_rule("RL001", [defs, user]) == []


class TestRL002FloatEquality:
    def test_bad_fixture_triggers(self):
        mod = load_fixture("rl002_bad.py", module="repro.assign.fixture")
        findings = run_rule("RL002", [mod])
        assert len(findings) == 3
        assert all(f.code == "RL002" for f in findings)

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl002_clean.py", module="repro.assign.fixture")
        assert run_rule("RL002", [mod]) == []

    def test_out_of_scope_module_exempt(self):
        """The same offending source is fine in the report layer."""
        mod = load_fixture("rl002_bad.py", module="repro.report.fixture")
        assert run_rule("RL002", [mod]) == []

    def test_graph_paths_in_scope(self):
        mod = load_fixture("rl002_bad.py", module="repro.graph.paths")
        assert len(run_rule("RL002", [mod])) == 3


class TestRL003PublicApiSync:
    def test_bad_init_triggers(self):
        mod = load_fixture(
            "rl003_bad_init.py", module="repro.badpkg", is_package=True
        )
        findings = run_rule("RL003", [mod])
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "'ghost'" in messages  # phantom __all__ entry
        assert "'helper'" in messages  # unlisted re-export

    def test_clean_init_passes(self):
        mod = load_fixture(
            "rl003_clean_init.py", module="repro.goodpkg", is_package=True
        )
        assert run_rule("RL003", [mod]) == []

    def test_plain_module_only_checks_resolution(self):
        """Non-__init__ modules may import without re-exporting."""
        mod = load_fixture(
            "rl003_clean_init.py", module="repro.goodmod", is_package=False
        )
        assert run_rule("RL003", [mod]) == []

    def test_init_without_all_flagged(self):
        from repro.lintkit import module_from_source

        mod = module_from_source(
            "from .submodule import helper\n",
            module="repro.pkg",
            path="pkg/__init__.py",
            is_package=True,
        )
        findings = run_rule("RL003", [mod])
        assert len(findings) == 1
        assert "no __all__" in findings[0].message


class TestRL004ImportLayering:
    def test_upward_imports_trigger(self):
        mod = load_fixture("rl004_bad_upward.py", module="repro.graph.badmod")
        findings = run_rule("RL004", [mod])
        assert len(findings) == 2
        messages = " | ".join(f.message for f in findings)
        assert "sched" in messages
        assert "report" in messages

    def test_cycle_detected(self):
        mods = [
            load_fixture("rl004_cycle_a.py", module="repro.fu.cycle_a"),
            load_fixture("rl004_cycle_b.py", module="repro.fu.cycle_b"),
        ]
        findings = run_rule("RL004", mods)
        assert len(findings) == 1
        assert "import cycle" in findings[0].message
        assert "cycle_a" in findings[0].message
        assert "cycle_b" in findings[0].message

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl004_clean.py", module="repro.sched.goodmod")
        assert run_rule("RL004", [mod]) == []

    def test_unmapped_segment_flagged(self):
        from repro.lintkit import module_from_source

        mod = module_from_source(
            "from repro.newpkg import thing\n",
            module="repro.report.user",
            path="user.py",
        )
        findings = run_rule("RL004", [mod])
        assert len(findings) == 1
        assert "not mapped to a layer" in findings[0].message


class TestRL005SideEffectHygiene:
    def test_bad_fixture_triggers(self):
        mod = load_fixture("rl005_bad.py", module="repro.sim.fixture")
        findings = run_rule("RL005", [mod])
        assert len(findings) == 3
        messages = " | ".join(f.message for f in findings)
        assert "print()" in messages
        assert "sys.stdout.write()" in messages
        assert "deadline" in messages  # the validated parameter

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl005_clean.py", module="repro.sim.fixture")
        assert run_rule("RL005", [mod]) == []

    def test_presentation_layers_exempt(self):
        for module in ("repro.report.fixture", "repro.cli",
                       "repro.lintkit.cli"):
            mod = load_fixture("rl005_bad.py", module=module)
            assert run_rule("RL005", [mod]) == []


class TestRL006SeededGenerator:
    def test_bad_fixture_triggers(self):
        mod = load_fixture("rl006_bad.py", module="repro.assign.fixture")
        findings = run_rule("RL006", [mod])
        assert len(findings) == 5
        assert all(f.code == "RL006" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "stdlib random" in messages
        assert "np.random.seed" in messages
        assert "np.random.normal" in messages
        assert "numpy.random.rand" in messages

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl006_clean.py", module="repro.assign.fixture")
        assert run_rule("RL006", [mod]) == []

    def test_out_of_scope_layers_exempt(self):
        """Presentation (6+) and substrate (0) layers are not scanned."""
        for module in ("repro.report.fixture", "repro.checkkit.fixture",
                       "repro.obs.fixture", "foreign.module"):
            mod = load_fixture("rl006_bad.py", module=module)
            assert run_rule("RL006", [mod]) == []

    def test_all_numeric_layers_in_scope(self):
        for module in ("repro.graph.fixture", "repro.fu.fixture",
                       "repro.engine.fixture", "repro.sched.fixture",
                       "repro.sim.fixture", "repro.synthesis"):
            mod = load_fixture("rl006_bad.py", module=module)
            assert len(run_rule("RL006", [mod])) == 5

    def test_numpy_random_alias_tracked(self):
        from repro.lintkit import module_from_source

        mod = module_from_source(
            "from numpy import random as npr\n"
            "def f():\n"
            "    return npr.rand()\n",
            module="repro.assign.user",
            path="user.py",
        )
        findings = run_rule("RL006", [mod])
        assert len(findings) == 1
        assert "np.random.rand" in findings[0].message


def _parallel_standin():
    return load_fixture("engine_parallel.py", module="repro.engine.parallel")


class TestRL007SpawnSafety:
    def test_bad_fixture_triggers(self):
        mods = [
            _parallel_standin(),
            load_fixture("rl007_bad.py", module="repro.assign.fixture"),
        ]
        findings = run_rule("RL007", mods)
        assert len(findings) == 5
        assert all(f.code == "RL007" for f in findings)
        messages = " | ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "nested function" in messages
        assert "locally-created object" in messages
        assert "module-level name bound to a lambda" in messages

    def test_clean_fixture_passes(self):
        mods = [
            _parallel_standin(),
            load_fixture("rl007_clean.py", module="repro.assign.fixture"),
        ]
        assert run_rule("RL007", mods) == []

    def test_forwarded_lambda_flagged_at_origin(self):
        """The two-calls-deep lambda is anchored in the fixture module."""
        bad = load_fixture("rl007_bad.py", module="repro.assign.fixture")
        findings = run_rule("RL007", [_parallel_standin(), bad])
        lambda_lines = {
            f.line for f in findings if "lambda" in f.message
        }
        # bad_forwarded's lambda line is distinct from bad_lambda's
        assert len(lambda_lines) >= 2


class TestRL008SharedStateRace:
    def test_bad_fixture_triggers(self):
        mods = [
            _parallel_standin(),
            load_fixture("rl008_bad.py", module="repro.assign.fixture"),
        ]
        findings = run_rule("RL008", mods)
        assert len(findings) == 4
        messages = " | ".join(f.message for f in findings)
        assert "subscript store" in messages
        assert ".append()" in messages
        assert "class 'Config'" in messages
        assert "'global'" in messages

    def test_clean_fixture_passes(self):
        """Writes outside the reachable set (parent_side_reset) pass."""
        mods = [
            _parallel_standin(),
            load_fixture("rl008_clean.py", module="repro.assign.fixture"),
        ]
        assert run_rule("RL008", mods) == []

    def test_spawn_machinery_is_exempt(self):
        """repro.engine.parallel itself may touch its pool registry."""
        from repro.lintkit import module_from_source

        parallel = module_from_source(
            "_POOLS = {}\n"
            "def pmap(fn, items):\n"
            "    _POOLS[id(fn)] = fn\n"
            "    return [fn(x) for x in items]\n",
            module="repro.engine.parallel",
            path="parallel.py",
        )
        user = module_from_source(
            "from .parallel import pmap\n"
            "def work(x):\n"
            "    return x\n"
            "def run(items):\n"
            "    return pmap(work, items)\n",
            module="repro.engine.user",
            path="user.py",
        )
        assert run_rule("RL008", [parallel, user]) == []


class TestRL009ObsHygiene:
    def test_bad_fixture_triggers(self):
        mod = load_fixture("rl009_bad.py", module="repro.assign.fixture")
        findings = run_rule("RL009", [mod])
        assert len(findings) == 6
        messages = " | ".join(f.message for f in findings)
        assert "f-string" in messages
        assert "context manager" in messages
        assert "does not match the naming pattern" in messages
        assert "module constant" in messages
        assert "no literal default" in messages
        assert "unregistered namespace 'rogue'" in messages

    def test_clean_fixture_passes(self):
        mod = load_fixture("rl009_clean.py", module="repro.assign.fixture")
        assert run_rule("RL009", [mod]) == []

    def test_obs_layer_itself_exempt(self):
        mod = load_fixture("rl009_bad.py", module="repro.obs.fixture")
        assert run_rule("RL009", [mod]) == []


class TestRL010ApiContract:
    def _mods(self, impl_fixture):
        return [
            load_fixture("rl010_init.py", module="repro", is_package=True),
            load_fixture(impl_fixture, module="repro.impl"),
        ]

    def test_bad_fixture_triggers(self):
        findings = run_rule("RL010", self._mods("rl010_bad_impl.py"))
        assert len(findings) == 1
        assert "not keyword-only" in findings[0].message
        assert "'deadline', 'algorithm'" in findings[0].message

    def test_clean_fixture_passes(self):
        assert run_rule("RL010", self._mods("rl010_clean_impl.py")) == []

    def test_facade_anchored_at_definition(self):
        findings = run_rule("RL010", self._mods("rl010_bad_impl.py"))
        facade = [f for f in findings if "facade" in f.message]
        assert len(facade) == 1
        assert facade[0].module == "repro.impl"
