"""Swept DP bench: frontiers and incremental pin rounds vs the reference.

Two claims, both checked here:

* **Identical results** — the default `dfg_assign_repeat` and the
  swept `dfg_frontier` reproduce the non-incremental reference path's
  assignments and costs exactly, on every suite graph (the references
  are :func:`repro.checkkit.oracles.reference_repeat` and
  :func:`repro.checkkit.oracles.reference_frontier`).
* **Speed** — the swept frontier is ≥ 5× faster than the per-deadline
  reference on the largest suite graphs (all deadlines run as lanes of
  one batched engine, whose curve cache keeps pin-round refreshes
  near-all-hit).

Runs under pytest (``pytest benchmarks/bench_incremental.py``) or
standalone (``python benchmarks/bench_incremental.py [--quick]``);
quick mode shrinks sweep spans for CI.  Artifact:
``benchmarks/results/bench_incremental.txt``.
"""

from __future__ import annotations

import os
import pathlib
import sys
import time
from typing import Dict, List, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.assign import (
    DPStats,
    dfg_assign_repeat,
    dfg_frontier,
    min_completion_time,
)
from repro.assign.dfg_assign import choose_expansion
from repro.checkkit.oracles import reference_frontier, reference_repeat
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.report.experiments import DEFAULT_SEED
from repro.suite.registry import benchmark_names, get_benchmark

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Speedup the tentpole promises on the largest suite graphs.
MIN_SPEEDUP = 5.0


def _quick() -> bool:
    return os.environ.get("BENCH_INCREMENTAL_QUICK", "") == "1"


def _sweep_cap(tree_size: int, quick: bool) -> int:
    """Deadlines per sweep, bounded so the *reference* stays affordable
    (its cost per deadline grows with the expansion size)."""
    budget = 1_500 if quick else 6_000
    return max(6, budget // max(tree_size, 1))


def _setup(name: str):
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=DEFAULT_SEED)
    expansion = choose_expansion(dfg)
    floor = min_completion_time(dfg, table)
    return dfg, table, expansion, floor


def largest_dags(k: int = 3) -> List[str]:
    """Non-forest suite graphs with the largest expansion trees."""
    sized = []
    for name in benchmark_names():
        dfg = get_benchmark(name).dag()
        if is_out_forest(dfg) or is_in_forest(dfg):
            continue  # trees: Repeat reduces to one Tree_Assign, no pin loop
        sized.append((len(choose_expansion(dfg)), name))
    return [name for _, name in sorted(sized, reverse=True)[:k]]


# ----------------------------------------------------------------------
# equivalence: every suite graph, incremental == reference
# ----------------------------------------------------------------------
def check_equivalence(quick: bool) -> List[str]:
    """Assert identical assignments/costs across the whole registry."""
    lines = []
    for name in benchmark_names():
        dfg, table, expansion, floor = _setup(name)
        span = min(_sweep_cap(len(expansion), quick), floor)
        max_deadline = floor + span
        for deadline in sorted({floor, floor + 1, floor + span // 2, max_deadline}):
            ref = reference_repeat(dfg, table, deadline, expansion=expansion)
            inc = dfg_assign_repeat(dfg, table, deadline, expansion=expansion)
            assert dict(inc.assignment.items()) == dict(ref.assignment.items()), (
                f"{name}@{deadline}: incremental assignment diverged"
            )
            assert inc.cost == ref.cost, f"{name}@{deadline}: cost diverged"
        ref_frontier = reference_frontier(dfg, table, max_deadline=max_deadline)
        swept = dfg_frontier(dfg, table, max_deadline=max_deadline)
        assert swept == ref_frontier, f"{name}: swept frontier diverged"
        lines.append(
            f"{name:>14}: identical over deadlines {floor}..{max_deadline} "
            f"({len(ref_frontier)} knees)"
        )
    return lines


# ----------------------------------------------------------------------
# speed: largest graphs, swept sweep vs per-deadline reference
# ----------------------------------------------------------------------
def measure_speedups(quick: bool) -> Tuple[List[str], Dict[str, float]]:
    names = largest_dags(2 if quick else 3)
    lines, speedups = [], {}
    for name in names:
        dfg, table, expansion, floor = _setup(name)
        max_deadline = floor + min(_sweep_cap(len(expansion), quick), 2 * floor)
        t0 = time.perf_counter()
        ref = reference_frontier(dfg, table, max_deadline=max_deadline)
        ref_s = time.perf_counter() - t0
        stats = DPStats()
        t0 = time.perf_counter()
        swept = dfg_frontier(dfg, table, max_deadline=max_deadline, stats=stats)
        inc_s = time.perf_counter() - t0
        assert swept == ref, f"{name}: swept frontier diverged"
        speedups[name] = ref_s / inc_s
        lines.append(
            f"{name:>14}: tree={len(expansion):<4} "
            f"deadlines={max_deadline - floor + 1:<3} "
            f"ref={ref_s:7.3f}s swept={inc_s:7.3f}s "
            f"speedup={speedups[name]:5.1f}x "
            f"recomputed={stats.nodes_recomputed}/{stats.nodes_visited} "
            f"hit-rate={stats.hit_rate:.1%}"
        )
    return lines, speedups


def _save(lines: List[str]) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_incremental.txt").write_text("\n".join(lines) + "\n")


def _run(quick: bool, traced: bool = False) -> List[str]:
    if traced:
        from repro.obs import Tracer, use_tracer

        tracer = Tracer()
        with use_tracer(tracer):
            eq_lines = check_equivalence(quick)
            sp_lines, speedups = measure_speedups(quick)
        spans = sum(1 for root in tracer.roots for _ in root.walk())
        assert spans > 0, "traced run recorded no spans"
        trace_lines = [
            "",
            "== tracing ==",
            f"spans recorded: {spans}",
            f"metrics: {len(tracer.metrics)} series",
        ]
    else:
        eq_lines = check_equivalence(quick)
        sp_lines, speedups = measure_speedups(quick)
        trace_lines = []
    lines = (
        [f"mode: {'quick' if quick else 'full'}", "", "== speedup =="]
        + sp_lines
        + ["", "== equivalence =="]
        + eq_lines
        + trace_lines
    )
    _save(lines)
    for name, ratio in speedups.items():
        assert ratio >= MIN_SPEEDUP, (
            f"{name}: swept frontier only {ratio:.1f}x faster "
            f"(expected >= {MIN_SPEEDUP}x)"
        )
    return lines


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def test_incremental_equivalence_and_speedup():
    _run(_quick())


if __name__ == "__main__":
    flags = sys.argv[1:]
    unknown = [f for f in flags if f not in ("--quick", "--traced")]
    if unknown:
        sys.exit(
            f"usage: {sys.argv[0]} [--quick] [--traced]"
            f"  (unknown: {' '.join(unknown)})"
        )
    quick = "--quick" in flags
    started = time.perf_counter()
    for line in _run(quick, traced="--traced" in flags):
        print(line)
    print(f"\nOK in {time.perf_counter() - started:.1f}s "
          f"(artifact: {RESULTS_DIR / 'bench_incremental.txt'})")
