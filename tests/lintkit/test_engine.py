"""Engine-level tests: suppressions, discovery, rule selection."""

import pytest

from repro.errors import LintError
from repro.lintkit import (
    discover,
    module_from_path,
    module_from_source,
    resolve_rules,
    run_rules,
)

FLOAT_EQ = "def f(err):\n    return err == 0.0\n"


def _lint(source, module="repro.assign.mod", codes=("RL002",)):
    mod = module_from_source(source, module=module, path="mod.py")
    return run_rules([mod], resolve_rules(list(codes)))


class TestInlineSuppression:
    def test_targeted_ignore_suppresses(self):
        src = "def f(err):\n    return err == 0.0  # lint: ignore[RL002]\n"
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1

    def test_blanket_ignore_suppresses(self):
        src = "def f(err):\n    return err == 0.0  # lint: ignore\n"
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1

    def test_other_code_does_not_suppress(self):
        src = "def f(err):\n    return err == 0.0  # lint: ignore[RL001]\n"
        findings, suppressed = _lint(src)
        assert len(findings) == 1
        assert suppressed == 0

    def test_directive_in_string_is_not_a_suppression(self):
        src = (
            's = "lint: ignore[RL002]"\n'
            "def f(err):\n"
            "    return err == 0.0\n"
        )
        findings, _ = _lint(src)
        assert len(findings) == 1

    def test_multiple_codes_in_one_directive(self):
        src = (
            "def f(err):\n"
            "    return err == 0.0  # lint: ignore[RL001, RL002]\n"
        )
        findings, suppressed = _lint(src)
        assert findings == []
        assert suppressed == 1


class TestDiscovery:
    def test_module_names_from_tree(self, tmp_path):
        pkg = tmp_path / "repro"
        sub = pkg / "assign"
        sub.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text("x = 1\n")
        mods = discover([str(tmp_path / "repro")])
        names = {m.module for m in mods}
        assert names == {"repro", "repro.assign", "repro.assign.mod"}
        init = next(m for m in mods if m.module == "repro.assign")
        assert init.is_package

    def test_single_file(self, tmp_path):
        f = tmp_path / "loose.py"
        f.write_text("x = 1\n")
        info = module_from_path(f)
        assert info.module == "loose"
        assert not info.is_package

    def test_missing_path_is_usage_error(self):
        with pytest.raises(LintError):
            discover(["does/not/exist"])

    def test_syntax_error_is_usage_error(self, tmp_path):
        f = tmp_path / "broken.py"
        f.write_text("def f(:\n")
        with pytest.raises(LintError):
            discover([str(tmp_path)])

    def test_exclude_skips_subtree(self, tmp_path):
        keep = tmp_path / "keep.py"
        keep.write_text("x = 1\n")
        sub = tmp_path / "fixtures"
        sub.mkdir()
        (sub / "skip.py").write_text("y = 2\n")
        mods = discover([str(tmp_path)], exclude=[str(sub)])
        assert [m.module for m in mods] == ["keep"]


class TestRuleSelection:
    def test_all_rules_registered(self):
        codes = [r.code for r in resolve_rules()]
        assert codes == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL009",
            "RL010",
        ]

    def test_select_subset(self):
        codes = [r.code for r in resolve_rules(["RL002", "RL004"])]
        assert codes == ["RL002", "RL004"]

    def test_ignore_subset(self):
        codes = [r.code for r in resolve_rules(None, ["RL003"])]
        assert codes == [
            "RL001",
            "RL002",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
            "RL009",
            "RL010",
        ]

    def test_unknown_code_raises(self):
        with pytest.raises(LintError):
            resolve_rules(["RL999"])
        with pytest.raises(LintError):
            resolve_rules(None, ["BOGUS"])

    def test_select_is_case_insensitive(self):
        codes = [r.code for r in resolve_rules(["rl002"])]
        assert codes == ["RL002"]


class TestMultiLineSuppression:
    """Regression: a directive on a statement's first line covers
    findings anchored at inner nodes on later lines (fixture:
    ``suppress_multiline.py``)."""

    def test_directive_covers_statement_span(self):
        from .conftest import load_fixture

        mod = load_fixture(
            "suppress_multiline.py", module="repro.assign.fixture"
        )
        findings, suppressed = run_rules([mod], resolve_rules(["RL002"]))
        # f() is suppressed despite the == being two lines below the
        # directive; g() (no directive) still fires
        assert suppressed == 1
        assert len(findings) == 1
        assert "def g" in mod.lines[findings[0].line - 1] or findings[0].line > 10

    def test_inline_directive_mid_statement_also_counts(self):
        src = (
            "def f(err):\n"
            "    return (\n"
            "        err\n"
            "        == 0.0  # lint: ignore[RL002]\n"
            "    )\n"
        )
        mod = module_from_source(src, module="repro.assign.m", path="m.py")
        findings, suppressed = run_rules([mod], resolve_rules(["RL002"]))
        assert findings == []
        assert suppressed == 1
