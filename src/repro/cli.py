"""Command-line interface: ``repro-hls`` (or ``python -m repro``).

Subcommands::

    repro-hls list                      # available benchmark DFGs
    repro-hls show elliptic             # structure summary (+ --dot)
    repro-hls assign elliptic -L 40     # phase 1 on one benchmark
    repro-hls synth elliptic -L 40      # both phases
    repro-hls table1 / table2           # regenerate the paper tables
    repro-hls headline                  # the average-reduction summary
    repro-hls portfolio elliptic -L 40  # metaheuristic race + gap report
    repro-hls lint src/repro            # static-analysis gate (lintkit)
    repro-hls fuzz --budget 200         # differential fuzzing (checkkit)
    repro-hls serve --port 8571         # long-running HTTP/JSON service
    repro-hls batch requests.json       # one-shot cached batch solve

Every command accepts ``--seed`` for the randomized time/cost tables,
defaulting to the seed of record used in EXPERIMENTS.md.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, List, Optional

from .assign import min_completion_time
from .errors import AssignError, ReproError
from .fu.random_tables import random_table
from .graph.io import to_dot
from .report.experiments import (
    DEFAULT_SEED,
    headline_summary,
    render_rows,
    run_benchmark_rows,
    run_table1,
    run_table2,
)
from .report.tables import format_percent
from .suite.registry import benchmark_names, get_benchmark
from .synthesis import ALGORITHMS, synthesize

__all__ = ["main", "build_parser", "FORWARDED_COMMANDS"]

#: Subcommands that own their whole argparse surface and 0/1/2 exit
#: codes.  They use ``argparse.REMAINDER`` tails, which drop/steal the
#: tail when its first token is an option (python bug bpo-17050), so
#: :func:`main` dispatches them *before* parsing.  Every REMAINDER
#: subcommand must be listed here — pinned by an audit test in
#: ``tests/test_cli.py`` so a new forwarding subcommand cannot
#: reintroduce the leading-flag bug.
FORWARDED_COMMANDS = ("lint", "fuzz", "serve", "batch")


def _forwarded_main(name: str) -> Callable[[List[str]], int]:
    """The owning package's CLI entry for a forwarded subcommand."""
    if name == "lint":
        from .lintkit.cli import main as lint_main

        return lint_main
    if name == "fuzz":
        from .checkkit.cli import main as fuzz_main

        return fuzz_main
    if name == "serve":
        from .serve.cli import serve_main

        return serve_main
    if name == "batch":
        from .serve.cli import batch_main

        return batch_main
    raise ReproError(f"no forwarded entry point for {name!r}")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-hls",
        description="Heterogeneous FU assignment & scheduling (IPPS 2004 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark DFGs")

    p_show = sub.add_parser("show", help="describe one benchmark DFG")
    p_show.add_argument("benchmark")
    p_show.add_argument("--dot", action="store_true", help="emit Graphviz DOT")

    for name, help_text in (
        ("assign", "run phase 1 (assignment) on a benchmark"),
        ("synth", "run both phases on a benchmark"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("benchmark")
        p.add_argument(
            "-L",
            "--deadline",
            type=int,
            default=None,
            help="timing constraint (default: 1.3x the minimum feasible)",
        )
        p.add_argument(
            "-a",
            "--algorithm",
            choices=sorted(ALGORITHMS),
            default=None,
            help="phase-1 algorithm (default: auto by graph shape)",
        )
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument(
            "--workers",
            type=int,
            default=0,
            help="processes for the portfolio race (-a portfolio only; "
            "0 = serial, -1 = all cores; results are identical)",
        )
        if name == "synth":
            p.add_argument(
                "--gantt",
                action="store_true",
                help="render the schedule as an ASCII Gantt chart",
            )
            p.add_argument(
                "--json",
                action="store_true",
                help="emit the versioned SynthesisResult JSON document "
                "instead of the human-readable report",
            )

    p_sweep = sub.add_parser("sweep", help="full deadline sweep for one benchmark")
    p_sweep.add_argument("benchmark")
    p_sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sweep.add_argument("--count", type=int, default=6)

    for name in ("table1", "table2"):
        p = sub.add_parser(name, help=f"regenerate the paper's {name}")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--count", type=int, default=6)

    p_head = sub.add_parser("headline", help="average reductions vs greedy")
    p_head.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_pareto = sub.add_parser(
        "pareto", help="cost/latency Pareto frontier of a benchmark"
    )
    p_pareto.add_argument("benchmark")
    p_pareto.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_pareto.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="largest deadline to explore (default: 3x the minimum)",
    )
    p_pareto.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes for the batched sweep's lane fan-out "
        "(0 = serial, -1 = all cores; results are identical)",
    )

    p_prof = sub.add_parser("profile", help="structural fingerprint of a benchmark")
    p_prof.add_argument("benchmark")

    p_lp = sub.add_parser(
        "lp", help="emit the assignment ILP in CPLEX LP format"
    )
    p_lp.add_argument("benchmark")
    p_lp.add_argument("-L", "--deadline", type=int, default=None)
    p_lp.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_exp = sub.add_parser(
        "export", help="export a benchmark's sweep as csv/json/markdown"
    )
    p_exp.add_argument("benchmark")
    p_exp.add_argument(
        "--format", choices=["csv", "json", "markdown"], default="csv"
    )
    p_exp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_exp.add_argument("--count", type=int, default=6)

    p_ver = sub.add_parser(
        "verify",
        help="run the whole algorithm portfolio and cross-check all "
        "consistency relations",
    )
    p_ver.add_argument("benchmark")
    p_ver.add_argument("-L", "--deadline", type=int, default=None)
    p_ver.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p_run = sub.add_parser(
        "run", help="synthesize a user DFG from an exchange-format file"
    )
    p_run.add_argument("file", help="path to a .dfg exchange file (see repro.io.loads_text)")
    p_run.add_argument("-L", "--deadline", type=int, default=None)
    p_run.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="table seed when the file carries no row lines",
    )
    p_run.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes for the portfolio race only; run picks a paper "
        "algorithm, which runs serially (kept for compatibility)",
    )

    p_sim = sub.add_parser(
        "simulate",
        help="synthesize a benchmark, replay its schedule on an impulse, "
        "and check it against the reference evaluation",
    )
    p_sim.add_argument("benchmark")
    p_sim.add_argument("-L", "--deadline", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_sim.add_argument("--iterations", type=int, default=4)

    p_trace = sub.add_parser(
        "trace",
        help="synthesize a benchmark under an enabled tracer and export "
        "the span tree (Chrome trace-event format by default)",
    )
    p_trace.add_argument("benchmark")
    p_trace.add_argument("-L", "--deadline", type=int, default=None)
    p_trace.add_argument(
        "-a",
        "--algorithm",
        choices=sorted(ALGORITHMS),
        default=None,
        help="phase-1 algorithm (default: auto by graph shape)",
    )
    p_trace.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_trace.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes for the portfolio race (-a portfolio only; "
        "0 = serial, -1 = all cores; results are identical)",
    )
    p_trace.add_argument(
        "--out",
        default="trace.json",
        help="output file (default: trace.json)",
    )
    p_trace.add_argument(
        "--format",
        choices=["chrome", "jsonl", "text"],
        default="chrome",
        help="export format (default: chrome, for chrome://tracing / Perfetto)",
    )

    p_port = sub.add_parser(
        "portfolio",
        help="race the metaheuristic portfolio (GA/SA/hybrid/rank/exact) "
        "under one anytime budget",
    )
    p_port.add_argument("benchmark")
    p_port.add_argument("-L", "--deadline", type=int, default=None)
    p_port.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help="seed for the random table AND the solvers' generators",
    )
    p_port.add_argument(
        "--budget",
        type=int,
        default=None,
        help="shared evaluation budget across the race "
        "(default: the portfolio's DEFAULT_EVALUATIONS)",
    )
    p_port.add_argument(
        "--workers",
        type=int,
        default=0,
        help="processes for the solver race (0 = serial, -1 = all "
        "cores; results are identical)",
    )
    p_port.add_argument(
        "--solvers",
        default=None,
        help="comma-separated subset of solvers to race "
        "(default: all of genetic,annealing,hybrid,rank,exact)",
    )

    p_lint = sub.add_parser(
        "lint",
        help="run the lintkit static-analysis rules "
        "(see `repro-hls lint --help`)",
        add_help=False,
    )
    p_lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.lintkit (paths, --select, ...)",
    )

    p_fuzz = sub.add_parser(
        "fuzz",
        help="randomized differential/metamorphic fuzzing "
        "(see `repro-hls fuzz --help`)",
        add_help=False,
    )
    p_fuzz.add_argument(
        "fuzz_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.checkkit "
        "(--budget, --seed, --suite, --out, ...)",
    )

    p_serve = sub.add_parser(
        "serve",
        help="long-running synthesis service with an HTTP/JSON front "
        "(see `repro-hls serve --help`)",
        add_help=False,
    )
    p_serve.add_argument(
        "serve_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.serve "
        "(--host, --port, --workers, --cache-dir, ...)",
    )

    p_batch = sub.add_parser(
        "batch",
        help="one-shot batch solve of a JSON request file "
        "(see `repro-hls batch --help`)",
        add_help=False,
    )
    p_batch.add_argument(
        "batch_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to repro.serve "
        "(file, --out, --workers, --cache-dir, ...)",
    )
    return parser


def _resolve_deadline(dfg, table, requested: Optional[int]) -> int:
    """The effective timing constraint, validated against the floor.

    ``None`` (no ``--deadline`` flag) defaults to 1.3× the minimum
    feasible completion time.  A user-supplied deadline below the floor
    raises :class:`AssignError` naming the feasible minimum, instead of
    letting a DP downstream report an opaque empty curve.
    """
    floor = min_completion_time(dfg, table)
    if requested is None:
        return int(1.3 * floor) + 1
    if requested < floor:
        raise AssignError(
            f"deadline {requested} is below the minimum feasible completion "
            f"time {floor} for this graph/table; rerun with -L {floor} or larger"
        )
    return requested


def _cmd_show(args) -> int:
    dfg = get_benchmark(args.benchmark)
    if args.dot:
        print(to_dot(dfg))
        return 0
    dag = dfg.dag()
    ops = {}
    for n in dfg.nodes():
        ops[dfg.op(n)] = ops.get(dfg.op(n), 0) + 1
    print(f"{dfg.name}: {len(dfg)} nodes, {dfg.num_edges()} edges, "
          f"{dfg.total_delays()} delays")
    print(f"  operations: {dict(sorted(ops.items()))}")
    print(f"  DAG part: {dag.num_edges()} edges, "
          f"{len(dag.roots())} roots, {len(dag.leaves())} leaves")
    return 0


def _cmd_assign(args, both_phases: bool) -> int:
    dfg = get_benchmark(args.benchmark).dag()
    table = random_table(dfg, num_types=3, seed=args.seed)
    deadline = _resolve_deadline(dfg, table, args.deadline)
    result = synthesize(
        dfg, table, deadline, algorithm=args.algorithm, workers=args.workers
    )
    if both_phases and getattr(args, "json", False):
        print(result.to_json(indent=2))
        return 0
    ar = result.assign_result
    print(f"benchmark   : {args.benchmark} ({len(dfg)} nodes)")
    print(f"deadline    : {deadline} (minimum {min_completion_time(dfg, table)})")
    print(f"algorithm   : {ar.algorithm}")
    print(f"system cost : {ar.cost:.2f}")
    print(f"completion  : {ar.completion_time}")
    if both_phases:
        print(f"configuration: {result.configuration.label()} "
              f"(lower bound {result.lower_bound.label()})")
        if getattr(args, "gantt", False):
            from .report.gantt import render_gantt

            print(render_gantt(result.schedule, table, result.assignment))
            return 0
        print("schedule:")
        order = sorted(result.schedule.ops.items(), key=lambda kv: kv[1].start)
        for node, op in order:
            t = table.time(node, op.fu_type)
            print(f"  step {op.start:3d}..{op.start + t - 1:3d}  "
                  f"F{op.fu_type + 1}#{op.fu_index}  {node}")
    else:
        for node in dfg.nodes():
            k = ar.assignment[node]
            print(f"  {node}: F{k + 1} (t={table.time(node, k)}, "
                  f"c={table.cost(node, k):.1f})")
    return 0


def _cmd_pareto(args) -> int:
    from .assign.frontier import dfg_frontier, tree_frontier
    from .graph.classify import is_in_forest, is_out_forest

    dfg = get_benchmark(args.benchmark).dag()
    table = random_table(dfg, num_types=3, seed=args.seed)
    floor = min_completion_time(dfg, table)
    horizon = args.horizon or 3 * floor
    if is_out_forest(dfg) or is_in_forest(dfg):
        frontier = tree_frontier(dfg, table, max_deadline=horizon)
        kind = "exact (tree DP)"
    else:
        frontier = dfg_frontier(
            dfg, table, max_deadline=horizon, workers=args.workers
        )
        kind = "heuristic (DFG_Assign_Repeat)"
    print(f"{args.benchmark}: {kind} cost/latency frontier, "
          f"deadlines {floor}..{horizon}")
    for deadline, cost in frontier:
        print(f"  deadline {deadline:4d}  min cost {cost:.1f}")
    return 0


def _cmd_lp(args) -> int:
    from .assign.ilp_model import build_ilp, to_lp_format

    dfg = get_benchmark(args.benchmark).dag()
    table = random_table(dfg, num_types=3, seed=args.seed)
    deadline = _resolve_deadline(dfg, table, args.deadline)
    model = build_ilp(dfg, table, deadline)
    print(to_lp_format(model, name=f"{args.benchmark}_L{deadline}"))
    return 0


def _cmd_export(args) -> int:
    from .report.export import rows_to_csv, rows_to_json, rows_to_markdown

    rows = run_benchmark_rows(args.benchmark, seed=args.seed, count=args.count)
    writer = {
        "csv": rows_to_csv,
        "json": rows_to_json,
        "markdown": rows_to_markdown,
    }[args.format]
    print(writer(rows))
    return 0


def _cmd_run(args) -> int:
    from .io import loads_text
    from .synthesis import synthesize

    with open(args.file, "r", encoding="utf-8") as fh:
        dfg, table = loads_text(fh.read())
    dag = dfg.dag()
    if table is None:
        table = random_table(dag, num_types=3, seed=args.seed)
        print(f"(no rows in {args.file}; using seeded random table)")
    deadline = _resolve_deadline(dag, table, args.deadline)
    result = synthesize(dfg, table, deadline, workers=args.workers)
    print(f"file        : {args.file} ({dfg.name}, {len(dfg)} nodes)")
    print(f"deadline    : {deadline} (minimum {min_completion_time(dag, table)})")
    print(f"algorithm   : {result.assign_result.algorithm}")
    print(f"system cost : {result.cost:.2f}")
    print(f"configuration: {result.configuration.label()}")
    return 0


def _cmd_simulate(args) -> int:
    from .sim.functional import simulate, simulate_schedule
    from .synthesis import synthesize

    dfg = get_benchmark(args.benchmark)
    dag = dfg.dag()
    table = random_table(dag, num_types=3, seed=args.seed)
    deadline = _resolve_deadline(dag, table, args.deadline)
    result = synthesize(dfg, table, deadline)
    steps = args.iterations
    inputs = {n: [1.0] + [0.0] * (steps - 1) for n in dag.roots()}
    reference = simulate(dfg, steps, inputs=inputs)
    replay = simulate_schedule(
        dfg, table, result.assignment, result.schedule, steps, inputs=inputs
    )
    outputs = dag.leaves()
    print(f"{args.benchmark}: deadline {deadline}, "
          f"configuration {result.configuration.label()}")
    for out in outputs:
        print(f"  impulse response at {out}: "
              f"{[round(x, 3) for x in reference[out]]}")
    if replay == reference:
        print("  schedule replay matches the reference simulation")
        return 0
    print("  MISMATCH between schedule replay and reference!", file=sys.stderr)
    return 1


def _cmd_trace(args) -> int:
    from .obs import (
        Tracer,
        chrome_trace_events,
        render_text,
        to_jsonl,
        use_tracer,
        write_chrome_trace,
    )

    dfg = get_benchmark(args.benchmark)
    dag = dfg.dag()
    table = random_table(dag, num_types=3, seed=args.seed)
    deadline = _resolve_deadline(dag, table, args.deadline)
    tracer = Tracer()
    with use_tracer(tracer):
        result = synthesize(
            dfg, table, deadline, algorithm=args.algorithm, workers=args.workers
        )
        with tracer.span("verify", graph=dfg.name):
            result.verify(dag, table)
    if args.format == "chrome":
        _, n_events = write_chrome_trace(tracer.roots, args.out)
    else:
        text = (
            to_jsonl(tracer.roots)
            if args.format == "jsonl"
            else render_text(tracer.roots)
        )
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        n_events = len(chrome_trace_events(tracer.roots))
    print(f"benchmark   : {args.benchmark} ({len(dag)} nodes)")
    print(f"deadline    : {deadline}")
    print(f"system cost : {result.cost:.2f}")
    phases = ", ".join(
        f"{k} {v * 1e3:.2f}ms"
        for k, v in result.timings.items()
        if k != "total"
    )
    print(f"phase times : {phases} (total "
          f"{result.timings['total'] * 1e3:.2f}ms)")
    counters = tracer.metrics.counters
    if counters:
        print("metrics     : "
              + ", ".join(f"{k}={v.value:g}" for k, v in sorted(counters.items())))
    print(f"wrote {n_events} spans to {args.out} ({args.format}); open Chrome "
          "traces via chrome://tracing or https://ui.perfetto.dev")
    return 0


def _cmd_portfolio(args) -> int:
    from .assign.portfolio import DEFAULT_EVALUATIONS, portfolio_assign

    dfg = get_benchmark(args.benchmark).dag()
    table = random_table(dfg, num_types=3, seed=args.seed)
    deadline = _resolve_deadline(dfg, table, args.deadline)
    solvers = args.solvers.split(",") if args.solvers else None
    result = portfolio_assign(
        dfg,
        table,
        deadline,
        evaluations=(
            args.budget if args.budget is not None else DEFAULT_EVALUATIONS
        ),
        seed=args.seed,
        workers=args.workers,
        solvers=solvers,
    )
    result.best.verify(dfg, table)
    print(f"benchmark   : {args.benchmark} ({len(dfg)} nodes)")
    print(f"deadline    : {deadline} "
          f"(minimum {min_completion_time(dfg, table)})")
    print(result.describe())
    return 0


def _cmd_sweep(args) -> int:
    rows = run_benchmark_rows(args.benchmark, seed=args.seed, count=args.count)
    print(render_rows(rows, title=f"{args.benchmark} (seed {args.seed})"))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    raw = list(sys.argv[1:]) if argv is None else list(argv)
    # Table-driven forwarding (see FORWARDED_COMMANDS): these commands
    # must be dispatched before parse_args so a leading option in the
    # forwarded tail is not swallowed by the top-level parser.
    if raw and raw[0] in FORWARDED_COMMANDS:
        return _forwarded_main(raw[0])(raw[1:])
    args = build_parser().parse_args(raw)
    try:
        if args.command == "list":
            for name in benchmark_names():
                print(name)
            return 0
        if args.command == "show":
            return _cmd_show(args)
        if args.command == "assign":
            return _cmd_assign(args, both_phases=False)
        if args.command == "synth":
            return _cmd_assign(args, both_phases=True)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "table1":
            print(render_rows(
                run_table1(seed=args.seed, count=args.count),
                title=f"Table 1 (seed {args.seed})"))
            return 0
        if args.command == "table2":
            print(render_rows(
                run_table2(seed=args.seed, count=args.count),
                title=f"Table 2 (seed {args.seed})"))
            return 0
        if args.command == "headline":
            summary = headline_summary(seed=args.seed)
            print(f"average reduction vs greedy (seed {args.seed}):")
            print(f"  DFG_Assign_Once  : {format_percent(summary['once'])}")
            print(f"  DFG_Assign_Repeat: {format_percent(summary['repeat'])}")
            return 0
        if args.command == "pareto":
            return _cmd_pareto(args)
        if args.command == "profile":
            from .graph.analysis import profile

            print(profile(get_benchmark(args.benchmark)).describe())
            return 0
        if args.command == "lp":
            return _cmd_lp(args)
        if args.command == "export":
            return _cmd_export(args)
        if args.command == "verify":
            from .verify import certify

            dfg = get_benchmark(args.benchmark).dag()
            table = random_table(dfg, num_types=3, seed=args.seed)
            deadline = _resolve_deadline(dfg, table, args.deadline)
            print(certify(dfg, table, deadline).describe())
            return 0
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "portfolio":
            return _cmd_portfolio(args)
        raise ReproError(f"unhandled command {args.command!r}")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
