#!/usr/bin/env python3
"""Walk through the paper's worked examples (Figures 1–3, 5 and 8).

* Figure 5 — `Path_Assign`'s dynamic-programming table on a 3-node
  simple path, printed budget by budget exactly like the figure;
* Figures 6/8 — `Tree_Assign` on the 5-node tree, with the forest
  cost curve;
* Figures 1–2 — the motivational comparison: a greedy assignment vs
  the optimal one under the same timing constraint;
* Figure 3 — two schedules for the same assignment: a naive
  one-FU-per-node binding vs `Min_R_Scheduling`'s configuration.

Run:  python examples/paper_walkthrough.py
"""

import numpy as np

from repro import greedy_assign, tree_assign
from repro.assign.path_assign import chain_order, path_assign
from repro.engine.kernels import node_step, zero_curve
from repro.sched import Configuration, list_schedule, min_resource_schedule
from repro.suite.paper_example import (
    PAPER_EXAMPLE_DEADLINE,
    paper_path_example,
    paper_tree_example,
)


def show_path_dp() -> None:
    """Figure 5: the DP table of Path_Assign, row per node."""
    dfg, table = paper_path_example()
    deadline = 8
    print(f"=== Path_Assign DP table (deadline {deadline}) ===")
    header = "node | " + " ".join(f"j={j:<4d}" for j in range(deadline + 1))
    print(header)
    curve = zero_curve(deadline)
    for node in chain_order(dfg):
        curve, choice = node_step(curve, table.times(node), table.costs(node))
        cells = []
        for j in range(deadline + 1):
            if np.isfinite(curve[j]):
                cells.append(f"{curve[j]:<4.0f}F{choice[j] + 1}")
            else:
                cells.append("--   ")
        print(f"{node:>4} | " + " ".join(cells))
    result = path_assign(dfg, table, deadline)
    print(f"optimal cost {result.cost:.0f} via " +
          ", ".join(f"{n}->F{result.assignment[n] + 1}"
                    for n in chain_order(dfg)))
    print()


def show_tree_dp() -> None:
    """Figure 8: Tree_Assign on the 5-node tree."""
    dfg, table = paper_tree_example()
    from repro.assign.tree_assign import tree_cost_curve

    deadline = PAPER_EXAMPLE_DEADLINE
    curve = tree_cost_curve(dfg, table, deadline + 4)
    print(f"=== Tree_Assign cost curve for the 5-node tree ===")
    for j, cost in enumerate(curve):
        label = f"{cost:.0f}" if np.isfinite(cost) else "infeasible"
        marker = "  <- paper's deadline" if j == deadline else ""
        print(f"  within {j:2d} steps: {label}{marker}")
    result = tree_assign(dfg, table, deadline)
    print("optimal assignment: " +
          ", ".join(f"{n}->F{result.assignment[n] + 1}"
                    for n in sorted(result.assignment, key=str)))
    print()


def show_motivational_comparison() -> None:
    """Figures 1–2: greedy vs optimal under the same constraint."""
    dfg, table = paper_tree_example()
    deadline = PAPER_EXAMPLE_DEADLINE
    greedy = greedy_assign(dfg, table, deadline)
    optimal = tree_assign(dfg, table, deadline)
    print(f"=== Motivational example (deadline {deadline}) ===")
    print(f"Assignment 1 (greedy) : cost {greedy.cost:.0f}")
    print(f"Assignment 2 (optimal): cost {optimal.cost:.0f}")
    if greedy.cost > optimal.cost:
        print(f"the optimal assignment is "
              f"{(greedy.cost - optimal.cost) / greedy.cost:.0%} cheaper")
    print()


def show_schedules() -> None:
    """Figure 3: two schedules, two configurations, same assignment."""
    dfg, table = paper_tree_example()
    deadline = PAPER_EXAMPLE_DEADLINE
    assignment = tree_assign(dfg, table, deadline).assignment

    naive_counts = [0] * table.num_types
    for node in dfg.nodes():
        naive_counts[assignment[node]] += 1
    naive = list_schedule(
        dfg, table, assignment=assignment,
        configuration=Configuration.of(naive_counts),
    )
    smart = min_resource_schedule(dfg, table, assignment=assignment, deadline=deadline)
    print("=== Figure 3: schedules for the optimal assignment ===")
    print(f"naive binding : {naive.configuration.label()} "
          f"({naive.configuration.total_units()} FUs)")
    print(f"Min_R_Schedule: {smart.configuration.label()} "
          f"({smart.configuration.total_units()} FUs), "
          f"makespan {smart.makespan(table)} <= {deadline}")
    for node, op in sorted(smart.ops.items(), key=lambda kv: kv[1].start):
        t = table.time(node, op.fu_type)
        print(f"  step {op.start}..{op.start + t - 1}  "
              f"F{op.fu_type + 1}#{op.fu_index}  {node}")


if __name__ == "__main__":
    show_path_dp()
    show_tree_dp()
    show_motivational_comparison()
    show_schedules()
