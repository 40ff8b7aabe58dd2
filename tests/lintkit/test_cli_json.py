"""Machine-readable CLI contracts: JSON schema, ``--out``, exit codes.

External tooling (dashboards, diff scripts)
parses these outputs, so their shapes are pinned exactly: loosening a
key here is an API break for consumers that never import this package.
"""

import json

from repro.lintkit.cli import main


def _make_tree(tmp_path, bad=True):
    pkg = tmp_path / "repro"
    sub = pkg / "assign"
    sub.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (sub / "__init__.py").write_text("")
    body = "def f(err):\n    return err == 0.0\n" if bad else "x = 1\n"
    (sub / "mod.py").write_text(body)
    return str(pkg)


class TestJsonSchema:
    def test_finding_object_keys_are_pinned(self, tmp_path, capsys):
        tree = _make_tree(tmp_path)
        assert main([tree, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "findings",
            "count",
            "suppressed_inline",
            "suppressed_baseline",
            "unused_baseline",
        }
        (finding,) = payload["findings"]
        assert set(finding) == {
            "module",
            "path",
            "line",
            "col",
            "code",
            "message",
            "snippet",
            "fingerprint",
        }
        assert finding["code"] == "RL002"
        assert finding["module"] == "repro.assign.mod"
        assert finding["line"] == 2
        assert isinstance(finding["fingerprint"], str)
        assert len(finding["fingerprint"]) == 16

    def test_fingerprint_is_line_number_independent(self, tmp_path, capsys):
        tree = _make_tree(tmp_path)
        assert main([tree, "--format", "json"]) == 1
        first = json.loads(capsys.readouterr().out)["findings"][0]
        mod = tmp_path / "repro" / "assign" / "mod.py"
        mod.write_text("import os  # noqa\n" + mod.read_text())
        assert main([tree, "--format", "json"]) == 1
        second = json.loads(capsys.readouterr().out)["findings"][0]
        assert second["line"] == first["line"] + 1
        assert second["fingerprint"] == first["fingerprint"]

    def test_out_writes_file(self, tmp_path, capsys):
        tree = _make_tree(tmp_path)
        out = tmp_path / "artifacts" / "lint.json"
        assert main([tree, "--format", "json", "--out", str(out)]) == 1
        capsys.readouterr()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["count"] == 1
        assert payload["findings"][0]["code"] == "RL002"


class TestExitCodes:
    def test_zero_when_clean(self, tmp_path, capsys):
        tree = _make_tree(tmp_path, bad=False)
        assert main([tree]) == 0
        capsys.readouterr()

    def test_one_on_findings(self, tmp_path, capsys):
        tree = _make_tree(tmp_path)
        assert main([tree]) == 1
        capsys.readouterr()

    def test_two_on_usage_errors(self, tmp_path, capsys):
        assert main(["no/such/path"]) == 2
        tree = _make_tree(tmp_path)
        assert main([tree, "--select", "RL999"]) == 2
        capsys.readouterr()

    def test_one_on_stale_baseline_even_when_clean(self, tmp_path, capsys):
        tree = _make_tree(tmp_path, bad=False)
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            "[[suppress]]\n"
            'rule = "RL002"\n'
            'module = "repro.assign.gone"\n'
            'snippet = "return err == 0.0"\n'
            'reason = "stale"\n'
        )
        args = [tree, "--baseline", str(baseline)]
        assert main(args) == 0  # warning only, by default
        assert main([*args, "--check-baseline"]) == 1
        capsys.readouterr()


class TestPruneBaseline:
    def test_prune_drops_stale_keeps_used_with_reasons(self, tmp_path, capsys):
        tree = _make_tree(tmp_path)
        baseline = tmp_path / "baseline.toml"
        baseline.write_text(
            "[[suppress]]\n"
            'rule = "RL002"\n'
            'module = "repro.assign.mod"\n'
            'snippet = "return err == 0.0"\n'
            'reason = "legacy comparison, tracked in #42"\n'
            "\n"
            "[[suppress]]\n"
            'rule = "RL002"\n'
            'module = "repro.assign.gone"\n'
            'snippet = "return err == 0.0"\n'
            'reason = "stale"\n'
        )
        args = [tree, "--baseline", str(baseline)]
        assert main([*args, "--prune-baseline"]) == 0
        capsys.readouterr()
        text = baseline.read_text(encoding="utf-8")
        assert "repro.assign.mod" in text
        assert "legacy comparison, tracked in #42" in text
        assert "repro.assign.gone" not in text
        # post-prune: no stale entries left, finding still suppressed
        assert main([*args, "--check-baseline"]) == 0
        capsys.readouterr()
