"""Unit tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import FORWARDED_COMMANDS, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        parser = build_parser()
        for argv in (
            ["list"],
            ["show", "diffeq"],
            ["assign", "diffeq", "-L", "12"],
            ["synth", "diffeq"],
            ["sweep", "diffeq"],
            ["table1"],
            ["table2"],
            ["headline"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "diffeq" in out and "elliptic" in out

    def test_show(self, capsys):
        assert main(["show", "elliptic"]) == 0
        out = capsys.readouterr().out
        assert "34 nodes" in out
        assert "add" in out

    def test_show_dot(self, capsys):
        assert main(["show", "diffeq", "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_show_unknown_benchmark(self, capsys):
        assert main(["show", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_assign(self, capsys):
        assert main(["assign", "diffeq", "-L", "12", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "system cost" in out
        assert "deadline    : 12" in out

    def test_assign_default_deadline(self, capsys):
        assert main(["assign", "lattice4"]) == 0
        assert "system cost" in capsys.readouterr().out

    def test_assign_explicit_algorithm(self, capsys):
        assert main(["assign", "diffeq", "-a", "greedy"]) == 0
        assert "greedy" in capsys.readouterr().out

    def test_assign_infeasible(self, capsys):
        assert main(["assign", "diffeq", "-L", "1"]) == 1
        assert "error" in capsys.readouterr().err

    def test_synth(self, capsys):
        assert main(["synth", "diffeq", "-L", "14"]) == 0
        out = capsys.readouterr().out
        assert "configuration" in out
        assert "schedule:" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "diffeq", "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert "diffeq" in out and "repeat%" in out

    def test_headline(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "DFG_Assign_Once" in out and "%" in out

    def test_pareto_tree(self, capsys):
        assert main(["pareto", "lattice4", "--horizon", "25"]) == 0
        out = capsys.readouterr().out
        assert "exact (tree DP)" in out
        assert "min cost" in out

    def test_pareto_dag(self, capsys):
        assert main(["pareto", "rls_laguerre", "--horizon", "20"]) == 0
        assert "heuristic" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "elliptic"]) == 0
        assert "34 nodes" in capsys.readouterr().out

    def test_lp(self, capsys):
        assert main(["lp", "diffeq", "-L", "10"]) == 0
        out = capsys.readouterr().out
        assert "Minimize" in out and "Binaries" in out and out.strip().endswith("End")

    @pytest.mark.parametrize("fmt,marker", [
        ("csv", "benchmark,deadline"),
        ("json", '"benchmark"'),
        ("markdown", "| benchmark |"),
    ])
    def test_export_formats(self, capsys, fmt, marker):
        assert main(["export", "diffeq", "--format", fmt, "--count", "2"]) == 0
        assert marker in capsys.readouterr().out

    def test_verify(self, capsys):
        assert main(["verify", "diffeq", "-L", "12"]) == 0
        out = capsys.readouterr().out
        assert "[ok]" in out and "reference simulation" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "fir8", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "impulse response" in out
        assert "matches the reference simulation" in out

    def test_run_exchange_file(self, capsys, tmp_path):
        from repro.fu.random_tables import random_table
        from repro.io import dumps_text
        from repro.suite.registry import get_benchmark

        dfg = get_benchmark("diffeq")
        path = tmp_path / "g.dfg"
        path.write_text(dumps_text(dfg, random_table(dfg.dag(), seed=0)))
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert "system cost" in out

    def test_assign_deadline_below_floor_is_rejected(self, capsys):
        # 2 is achievable as -L for no benchmark; the validation layer
        # must reject it up front and name the feasible minimum.
        assert main(["assign", "diffeq", "-L", "2"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "minimum feasible" in err
        assert "-L" in err

    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        import json

        out = str(tmp_path / "trace.json")
        assert main(["trace", "diffeq", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "trace" in stdout
        doc = json.loads(open(out, encoding="utf-8").read())
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"synthesize", "assign", "schedule", "verify"} <= names
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_trace_text_format(self, capsys, tmp_path):
        out = str(tmp_path / "trace.txt")
        assert main(["trace", "diffeq", "--out", out, "--format", "text"]) == 0
        text = open(out, encoding="utf-8").read()
        assert text.splitlines()[0].startswith("synthesize")

    def test_trace_jsonl_round_trips(self, capsys, tmp_path):
        from repro.obs import from_jsonl

        out = str(tmp_path / "trace.jsonl")
        assert main(["trace", "diffeq", "--out", out, "--format", "jsonl"]) == 0
        roots = from_jsonl(open(out, encoding="utf-8").read())
        assert [r.name for r in roots] == ["synthesize", "verify"]

    def test_run_file_without_rows_uses_seeded_table(self, capsys, tmp_path):
        from repro.io import dumps_text
        from repro.suite.registry import get_benchmark

        path = tmp_path / "g.dfg"
        path.write_text(dumps_text(get_benchmark("diffeq")))
        assert main(["run", str(path), "--seed", "3"]) == 0
        assert "seeded random table" in capsys.readouterr().out


class TestForwardingAudit:
    """Every REMAINDER subcommand must be dispatched before parse_args.

    argparse.REMAINDER drops/steals the forwarded tail when its first
    token is an option (python bug bpo-17050); PR 5 fixed lint/fuzz by
    pre-parse dispatch.  This audit pins the fix structurally: the set
    of REMAINDER subcommands in the parser must exactly equal the
    table-driven FORWARDED_COMMANDS, so adding a forwarding subcommand
    without registering it (or vice versa) fails here, not in the field.
    """

    @staticmethod
    def _remainder_commands():
        parser = build_parser()
        found = set()
        for action in parser._actions:
            if not isinstance(action, argparse._SubParsersAction):
                continue
            for name, sub in action.choices.items():
                if any(a.nargs == argparse.REMAINDER for a in sub._actions):
                    found.add(name)
        return found

    def test_remainder_commands_all_forwarded(self):
        assert self._remainder_commands() == set(FORWARDED_COMMANDS)

    def test_forwarded_commands_have_entry_points(self):
        from repro.cli import _forwarded_main

        for name in FORWARDED_COMMANDS:
            assert callable(_forwarded_main(name))

    def test_lint_flags_forward_even_when_first(self, capsys):
        # leading option in the forwarded tail must reach lintkit (which
        # lints its default path cleanly), not be rejected by the
        # top-level parser as an unknown flag (SystemExit 2, pre-fix)
        assert main(["lint", "--select", "RL001"]) == 0
        assert "finding" in capsys.readouterr().out

    def test_serve_and_batch_flags_forward_even_when_first(self, capsys):
        # same bpo-17050 regression, for the serving subcommands: a
        # leading --help in the tail must reach the forwarded parser
        # (exit 0 with its usage), not the top-level one (exit 2)
        for name in ("serve", "batch"):
            assert main([name, "--help"]) == 0
            assert f"repro-hls {name}" in capsys.readouterr().out


class TestBatchCommand:
    """`repro-hls batch`: one-shot cached batch solving."""

    @pytest.fixture
    def request_file(self, tmp_path):
        import json

        path = tmp_path / "requests.json"
        path.write_text(
            json.dumps(
                {
                    "requests": [
                        {"benchmark": "diffeq", "deadline": 12},
                        {"benchmark": "diffeq", "deadline": 12},
                    ]
                }
            )
        )
        return str(path)

    def test_batch_solves_and_reports_cache(self, capsys, request_file):
        import json

        assert main(["batch", request_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1
        assert doc["batch"] == {"requests": 2, "cached": 0, "failed": 0}
        assert doc["responses"][0]["key"] == doc["responses"][1]["key"]
        assert doc["metrics"]["serve.solves"] == 1.0

    def test_batch_warm_cache_dir(self, capsys, tmp_path, request_file):
        cache = str(tmp_path / "cache")
        assert main(["batch", request_file, "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert main(["batch", request_file, "--cache-dir", cache]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["batch"]["cached"] == 2
        assert doc["metrics"].get("serve.solves", 0.0) == 0.0

    def test_batch_out_file(self, tmp_path, request_file):
        out = tmp_path / "results.json"
        assert main(["batch", request_file, "--out", str(out)]) == 0
        import json

        doc = json.loads(out.read_text())
        assert len(doc["responses"]) == 2

    def test_batch_missing_file_exits_two(self, capsys):
        assert main(["batch", "no-such-file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_batch_failing_request_exits_one(self, capsys, tmp_path):
        import json

        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps([{"benchmark": "diffeq", "deadline": 1}])
        )
        assert main(["batch", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["batch"]["failed"] == 1
        assert doc["responses"][0]["error"]["type"] == "InfeasibleError"


class TestPortfolioSubcommand:
    """Pinned exit codes and output for `repro-hls portfolio`."""

    def test_portfolio_runs_clean(self, capsys):
        assert main(
            ["portfolio", "diffeq", "-L", "12", "--budget", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "portfolio: best cost" in out
        assert "seed (repeat) cost" in out
        assert "optimality gap" in out

    def test_portfolio_flags_before_positional(self, capsys):
        # a regular (non-REMAINDER) subcommand: leading flags parse fine
        assert main(
            ["portfolio", "--budget", "200", "diffeq", "-L", "12"]
        ) == 0
        assert "portfolio: best cost" in capsys.readouterr().out

    def test_portfolio_unknown_benchmark_exits_one(self, capsys):
        assert main(["portfolio", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_portfolio_infeasible_deadline_exits_one(self, capsys):
        assert main(["portfolio", "diffeq", "-L", "2"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "minimum feasible" in err

    def test_portfolio_unknown_solver_exits_one(self, capsys):
        assert main(
            ["portfolio", "diffeq", "-L", "12", "--solvers", "tabu"]
        ) == 1
        assert "unknown portfolio solver" in capsys.readouterr().err

    def test_portfolio_solver_subset(self, capsys):
        assert main(
            ["portfolio", "diffeq", "-L", "12", "--budget", "100",
             "--solvers", "annealing,rank"]
        ) == 0
        out = capsys.readouterr().out
        assert "annealing" in out and "rank" in out
        assert "genetic" not in out


class TestLintSubcommand:
    """`repro-hls lint` forwards to lintkit with its 0/1/2 convention."""

    @staticmethod
    def _tree(tmp_path, bad):
        pkg = tmp_path / "repro"
        sub = pkg / "sched"
        sub.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        body = "def f(c):\n    return c == 0.5\n" if bad else "X = 1\n"
        (sub / "mod.py").write_text(body)
        return str(pkg)

    def test_lint_clean_exits_zero(self, capsys, tmp_path):
        assert main(["lint", self._tree(tmp_path, bad=False)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_lint_findings_exit_one(self, capsys, tmp_path):
        assert main(["lint", self._tree(tmp_path, bad=True)]) == 1
        out = capsys.readouterr().out
        assert "RL002" in out

    def test_lint_json_format_forwarded(self, capsys, tmp_path):
        import json

        assert main(
            ["lint", self._tree(tmp_path, bad=True), "--format", "json"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1

    def test_lint_usage_error_exits_two(self, capsys, tmp_path):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifySubcommand:
    """Pinned exit codes and messages for `repro-hls verify`."""

    def test_verify_clean_exits_zero(self, capsys):
        assert main(["verify", "diffeq", "-L", "12"]) == 0
        out = capsys.readouterr().out
        assert "deadline 12" in out
        assert "[ok]" in out

    def test_verify_infeasible_deadline_exits_one(self, capsys):
        assert main(["verify", "diffeq", "-L", "2"]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert "minimum feasible" in err

    def test_verify_unknown_benchmark_exits_one(self, capsys):
        assert main(["verify", "nope"]) == 1
        assert "error" in capsys.readouterr().err


class TestFuzzSubcommand:
    """`repro-hls fuzz` forwards to checkkit with its 0/1/2 convention."""

    def test_fuzz_clean_exits_zero(self, capsys):
        assert main(["fuzz", "--budget", "2", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "checkkit fuzz: budget 2, seed 5" in out
        assert out.strip().endswith("verdict: clean")

    def test_fuzz_flags_forward_even_when_first(self, capsys):
        # the forwarded tail starts with an option; the top-level parser
        # must not swallow or reject it
        assert main(["fuzz", "--list-suites"]) == 0
        assert "generator specs:" in capsys.readouterr().out

    def test_fuzz_usage_error_exits_two(self, capsys):
        assert main(["fuzz", "--budget", "-1"]) == 2
        assert "error: budget must be >= 0, got -1" in capsys.readouterr().err

    def test_fuzz_replay_round_trips(self, capsys):
        assert main(["fuzz", "--replay", "out_tree", "3"]) == 0
        assert capsys.readouterr().out.startswith("out_tree/3:")
