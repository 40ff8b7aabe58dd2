"""checkkit CLI tests: exit codes, pinned messages, forwarding."""

import pytest

import repro.checkkit.cli as cli_mod
from repro.checkkit.cli import main
from repro.checkkit.runner import FuzzFailure, FuzzReport


class TestExitCodes:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["--budget", "3", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "checkkit fuzz: budget 3, seed 7" in out
        assert out.strip().endswith("verdict: clean")

    def test_negative_budget_exits_two(self, capsys):
        assert main(["--budget", "-1"]) == 2
        assert "error: budget must be >= 0, got -1" in capsys.readouterr().err

    def test_bad_max_failures_exits_two(self, capsys):
        assert main(["--max-failures", "0"]) == 2
        err = capsys.readouterr().err
        assert "error: max-failures must be >= 1, got 0" in err

    def test_unknown_suite_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--suite", "bogus"])
        assert exc.value.code == 2

    def test_failures_exit_one(self, capsys, monkeypatch):
        report = FuzzReport(budget=1, seed=1, specs=("dag",))
        report.instances = 1
        report.failures.append(
            FuzzFailure(
                index=0,
                spec="dag",
                seed=1,
                kind="oracle",
                message="boom",
                shrunk=None,
                reproducer="{}",
                artifact_paths=("out/repro_dag_1.json",),
            )
        )
        monkeypatch.setattr(cli_mod, "run_fuzz", lambda *a, **k: report)
        assert main(["--budget", "1"]) == 1
        out = capsys.readouterr().out
        assert "verdict: FAILURES" in out
        assert "wrote out/repro_dag_1.json" in out


class TestModes:
    def test_list_suites(self, capsys):
        assert main(["--list-suites"]) == 0
        out = capsys.readouterr().out
        assert "generator specs:" in out
        assert "delay_cycle" in out
        assert "oracles:" in out and "\n  reference\n" in out
        assert "metamorphic relations:" in out and "retiming" in out

    def test_replay_prints_the_instance(self, capsys):
        assert main(["--replay", "dag", "7"]) == 0
        assert capsys.readouterr().out.startswith("dag/7:")

    def test_replay_bad_seed_exits_two(self, capsys):
        assert main(["--replay", "dag", "x"]) == 2
        err = capsys.readouterr().err
        assert "error: --replay seed must be an integer, got 'x'" in err

    def test_replay_unknown_spec_exits_two(self, capsys):
        assert main(["--replay", "bogus", "1"]) == 2
        assert "error: unknown generator spec" in capsys.readouterr().err

    def test_suite_restriction(self, capsys):
        assert main(["--budget", "2", "--seed", "1", "--suite", "path"]) == 0
        assert "specs [path]" in capsys.readouterr().out
