"""Benchmark characterization report.

Regenerates the paper's prose description of its benchmark suite as a
table — node counts, operation mixes, tree-ness, duplicated nodes —
plus the derived quantities our extension studies use (path counts,
expansion growth, peak intrinsic parallelism).

Also characterizes the DP engine on deadline sweeps
(:func:`profile_incremental`): per benchmark, the batched
`dfg_frontier`'s summed per-lane node recomputations vs. visits, hit
rate (visits outside the dirty sets), and wall time split between
refresh and traceback, with the per-deadline reference time
(:func:`repro.checkkit.oracles.reference_frontier`) alongside so the
speedup is observable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..assign.assignment import min_completion_time
from ..assign.dfg_expand import choose_expansion
from ..assign.frontier import dfg_frontier
from ..checkkit.oracles import reference_frontier
from ..engine import DPStats
from ..fu.random_tables import random_table
from ..graph.analysis import parallelism_profile, profile
from ..suite.registry import PAPER_BENCHMARKS, get_benchmark
from .tables import format_table

__all__ = [
    "BenchmarkProfile",
    "profile_benchmarks",
    "render_profiles",
    "IncrementalProfile",
    "profile_incremental",
    "render_incremental",
]


@dataclass(frozen=True)
class BenchmarkProfile:
    """One line of the characterization table."""

    name: str
    nodes: int
    shape: str
    ops: str
    duplicated_nodes: int
    chosen_tree_size: int
    peak_parallelism: int


def profile_benchmarks(
    names: Sequence[str] = tuple(PAPER_BENCHMARKS), seed: int = 24
) -> List[BenchmarkProfile]:
    """Characterize each benchmark (with a seeded table for the
    parallelism profile's execution times)."""
    out = []
    for name in names:
        dfg = get_benchmark(name)
        dag = dfg.dag()
        p = profile(dfg)
        expansion = choose_expansion(dag)
        table = random_table(dag, num_types=3, seed=seed)
        par = parallelism_profile(dag, table.min_times(dag.nodes()))
        out.append(
            BenchmarkProfile(
                name=name,
                nodes=p.nodes,
                shape=p.shape,
                ops=", ".join(f"{v}{k[0]}" for k, v in p.ops.items()),
                duplicated_nodes=len(expansion.duplicated_originals()),
                chosen_tree_size=len(expansion),
                peak_parallelism=max(par, default=0),
            )
        )
    return out


#: Default graphs for the incremental-engine profile: the paper's three
#: general DAGs, whose frontier sweeps exercise the pin loop.
DAG_BENCHMARKS = ("diffeq", "rls_laguerre", "elliptic")


@dataclass(frozen=True)
class IncrementalProfile:
    """One line of the incremental-engine characterization table."""

    name: str
    tree_nodes: int
    deadlines: int
    refreshes: int
    tracebacks: int
    nodes_recomputed: int
    nodes_visited: int
    cache_hit_rate: float
    seconds_refresh: float
    seconds_traceback: float
    reference_seconds: Optional[float]

    @property
    def speedup(self) -> Optional[float]:
        """Reference sweep time over swept engine time (if timed)."""
        if self.reference_seconds is None:
            return None
        spent = self.seconds_refresh + self.seconds_traceback
        return self.reference_seconds / spent if spent > 0 else None


def profile_incremental(
    names: Sequence[str] = DAG_BENCHMARKS,
    seed: int = 24,
    num_types: int = 3,
    span: float = 2.0,
    compare: bool = True,
) -> List[IncrementalProfile]:
    """Run the swept `dfg_frontier` per benchmark and collect counters.

    ``span`` scales the sweep horizon (``max_deadline = span · floor``);
    ``compare=False`` skips timing the per-deadline reference loop
    (which dominates the runtime of this report on large graphs).
    """
    out = []
    for name in names:
        dfg = get_benchmark(name).dag()
        table = random_table(dfg, num_types=num_types, seed=seed)
        expansion = choose_expansion(dfg)
        floor = min_completion_time(dfg, table)
        max_deadline = max(floor, int(span * floor))
        stats = DPStats()
        swept = dfg_frontier(dfg, table, max_deadline=max_deadline, stats=stats)
        reference_seconds = None
        if compare:
            t0 = time.perf_counter()
            reference = reference_frontier(dfg, table, max_deadline=max_deadline)
            reference_seconds = time.perf_counter() - t0
            assert reference == swept, f"{name}: swept frontier diverged"
        out.append(
            IncrementalProfile(
                name=name,
                tree_nodes=len(expansion),
                deadlines=max_deadline - floor + 1,
                refreshes=stats.refreshes,
                tracebacks=stats.tracebacks,
                nodes_recomputed=stats.nodes_recomputed,
                nodes_visited=stats.nodes_visited,
                cache_hit_rate=stats.hit_rate,
                seconds_refresh=stats.seconds_refresh,
                seconds_traceback=stats.seconds_traceback,
                reference_seconds=reference_seconds,
            )
        )
    return out


def render_incremental(profiles: Sequence[IncrementalProfile]) -> str:
    """ASCII table of the incremental-engine characterization."""
    return format_table(
        [
            "benchmark",
            "tree",
            "deadlines",
            "refresh",
            "recomputed",
            "visited",
            "hit-rate",
            "dp-time",
            "tb-time",
            "ref-time",
            "speedup",
        ],
        [
            [
                p.name,
                p.tree_nodes,
                p.deadlines,
                p.refreshes,
                p.nodes_recomputed,
                p.nodes_visited,
                f"{p.cache_hit_rate:.1%}",
                f"{p.seconds_refresh:.3f}s",
                f"{p.seconds_traceback:.3f}s",
                "-" if p.reference_seconds is None else f"{p.reference_seconds:.3f}s",
                "-" if p.speedup is None else f"{p.speedup:.1f}x",
            ]
            for p in profiles
        ],
        title="Incremental DP engine (swept dfg_frontier vs per-deadline reference)",
    )


def render_profiles(profiles: Sequence[BenchmarkProfile]) -> str:
    """ASCII table of the characterization."""
    return format_table(
        ["benchmark", "nodes", "shape", "ops", "dup", "tree", "peak-par"],
        [
            [
                p.name,
                p.nodes,
                p.shape,
                p.ops,
                p.duplicated_nodes,
                p.chosen_tree_size,
                p.peak_parallelism,
            ]
            for p in profiles
        ],
        title="Benchmark characterization (paper §7 setup)",
    )
