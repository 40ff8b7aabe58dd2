"""Regenerate the paper's **figures** (worked examples).

* Figures 1–2 — motivational 5-node example: the DP assignment is
  cheaper than a naive/greedy one under the same constraint;
* Figure 3 — two schedules for the optimal assignment: a naive
  one-FU-per-node binding vs Min_R_Scheduling's configuration;
* Figure 5 — Path_Assign DP on the 3-node path;
* Figure 8 — Tree_Assign DP on the 5-node tree;
* Figures 9/11 — DFG_Expand's two critical-path trees of a DFG with
  common nodes.

Artifacts land in ``benchmarks/results/figures.txt``.
"""

import pytest

from repro.assign import greedy_assign, path_assign, tree_assign
from repro.assign.dfg_expand import expansion_candidates
from repro.sched import Configuration, list_schedule, min_resource_schedule
from repro.suite.paper_example import (
    PAPER_EXAMPLE_DEADLINE,
    paper_example_dfg,
    paper_example_table,
    paper_path_example,
)

from conftest import run_once


def test_fig12_motivational_assignments(benchmark, save_result):
    dfg = paper_example_dfg()
    table = paper_example_table()

    def build():
        greedy = greedy_assign(dfg, table, PAPER_EXAMPLE_DEADLINE)
        optimal = tree_assign(dfg, table, PAPER_EXAMPLE_DEADLINE)
        return greedy, optimal

    greedy, optimal = run_once(benchmark, build)
    assert optimal.cost <= greedy.cost
    save_result(
        "fig1_2_assignments",
        f"deadline {PAPER_EXAMPLE_DEADLINE}\n"
        f"Assignment 1 (greedy) : cost {greedy.cost:.0f} "
        f"{dict(greedy.assignment.items())}\n"
        f"Assignment 2 (optimal): cost {optimal.cost:.0f} "
        f"{dict(optimal.assignment.items())}\n"
        f"optimal saves {(greedy.cost - optimal.cost) / greedy.cost:.1%}",
    )


def test_fig3_schedule_configurations(benchmark, save_result):
    dfg = paper_example_dfg()
    table = paper_example_table()
    assignment = tree_assign(dfg, table, PAPER_EXAMPLE_DEADLINE).assignment

    def build():
        naive_counts = [0] * table.num_types
        for node in dfg.nodes():
            naive_counts[assignment[node]] += 1
        naive = list_schedule(
            dfg, table,
            assignment=assignment,
            configuration=Configuration.of(naive_counts),
        )
        smart = min_resource_schedule(
            dfg, table, assignment=assignment, deadline=PAPER_EXAMPLE_DEADLINE
        )
        return naive, smart

    naive, smart = run_once(benchmark, build)
    smart.validate(dfg, table, assignment)
    # Figure 3's point: the Min_R configuration is strictly smaller.
    assert (
        smart.configuration.total_units() < naive.configuration.total_units()
    )
    assert smart.makespan(table) <= PAPER_EXAMPLE_DEADLINE
    save_result(
        "fig3_schedules",
        f"naive binding : {naive.configuration.label()} "
        f"({naive.configuration.total_units()} units)\n"
        f"min-resource  : {smart.configuration.label()} "
        f"({smart.configuration.total_units()} units), "
        f"makespan {smart.makespan(table)}",
    )


def test_fig5_path_dp(benchmark, save_result):
    dfg, table = paper_path_example()

    result = benchmark(path_assign, dfg, table, 8)
    result.verify(dfg, table)
    save_result(
        "fig5_path_dp",
        f"3-node path, deadline 8 -> cost {result.cost:.0f}, "
        f"assignment {dict(result.assignment.items())}",
    )


def test_fig8_tree_dp(benchmark, save_result):
    dfg = paper_example_dfg()
    table = paper_example_table()

    result = benchmark(tree_assign, dfg, table, PAPER_EXAMPLE_DEADLINE)
    result.verify(dfg, table)
    save_result(
        "fig8_tree_dp",
        f"5-node tree, deadline {PAPER_EXAMPLE_DEADLINE} -> "
        f"cost {result.cost:.0f}, "
        f"assignment {dict(result.assignment.items())}",
    )


def test_fig9_11_expansion_trees(benchmark, save_result):
    """Figure 9's DFG has roots, leaves and common nodes; Figures 10–11
    show its two critical-path trees.  We regenerate both and check
    the documented size/duplication behaviour."""
    from repro.graph.dfg import DFG

    dfg = DFG.from_edges(
        [("A", "C"), ("B", "C"), ("C", "E"), ("C", "F"), ("D", "F")],
        name="fig9",
    )

    t_fwd, t_rev = run_once(benchmark, lambda: expansion_candidates(dfg))
    from repro.graph.classify import is_out_forest

    assert is_out_forest(t_fwd.tree) and is_out_forest(t_rev.tree)
    save_result(
        "fig9_11_expansion",
        f"DFG: 6 nodes; forward tree {len(t_fwd)} nodes "
        f"(duplicated {list(map(str, t_fwd.duplicated_originals()))}), "
        f"transposed tree {len(t_rev)} nodes "
        f"(duplicated {list(map(str, t_rev.duplicated_originals()))})",
    )
