"""Min-max assignment: minimize the *worst* per-node cost.

Section 3 of the paper remarks that the algorithms "still work with
straightforward revisions to deal with any function that computes the
total cost … as long as the function satisfies [the] associativity
property."  This module is that remark made concrete for the ``max``
combiner: minimize the maximum execution cost over all nodes, subject
to the same timing constraint — the natural objective when cost models
peak power or per-module thermal stress rather than total energy.

The DP is the tree DP with both combiners swapped from ``+`` to
``max``:

    D_v[j]    = min over types k of  max(D_{v+}[j − t_k], c_k(v))
    D_{v+}[j] = max over children c of  D_c[j]

Curves stay non-increasing in ``j``, so everything else (traceback,
pseudo-root handling, in-forest transposition) carries over verbatim —
which is precisely the paper's point.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..engine.kernels import NO_CHOICE
from ..errors import InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node
from .assignment import Assignment

__all__ = ["MinMaxResult", "tree_minmax_assign", "max_cost"]

from dataclasses import dataclass


@dataclass(frozen=True)
class MinMaxResult:
    """Outcome of a min-max assignment run."""

    assignment: Assignment
    peak_cost: float
    completion_time: int
    deadline: int

    def verify(self, dfg: DFG, table: TimeCostTable) -> None:
        self.assignment.validate_for(dfg, table)
        actual_peak = max_cost(dfg, table, self.assignment)
        if abs(actual_peak - self.peak_cost) > 1e-9:
            raise InfeasibleError(
                f"reported peak {self.peak_cost} but assignment peaks at "
                f"{actual_peak}"
            )
        if self.assignment.completion_time(dfg, table) > self.deadline:
            raise InfeasibleError("assignment misses its deadline")


def max_cost(dfg: DFG, table: TimeCostTable, assignment: Assignment) -> float:
    """The maximum per-node cost under ``assignment`` (0 for empty)."""
    return max(
        (table.cost(n, assignment[n]) for n in dfg.nodes()), default=0.0
    )


def _minmax_node_step(
    child: np.ndarray, times: np.ndarray, costs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """`node_step` with the max combiner."""
    t = np.asarray(times, dtype=np.int64)
    c = np.asarray(costs, dtype=np.float64)
    size = len(child)
    candidate = np.full((t.size, size), np.inf)
    for k in range(t.size):
        tk = int(t[k])
        if tk < size:
            candidate[k, tk:] = np.maximum(child[: size - tk], c[k])
    choice = np.argmin(candidate, axis=0).astype(np.int16)
    curve = candidate[choice, np.arange(size)]
    choice[~np.isfinite(curve)] = NO_CHOICE
    return curve, choice


def tree_minmax_assign(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
) -> MinMaxResult:
    """Optimal min-max assignment of a tree/forest within ``deadline``.

    Same shape requirements and complexity as
    :func:`~repro.assign.tree_assign.tree_assign`.
    """
    if is_out_forest(tree):
        work = tree
    elif is_in_forest(tree):
        work = tree.transpose()
    else:
        raise NotATreeError(
            f"{tree.name!r} is neither an out-forest nor an in-forest"
        )
    table.validate_for(tree)
    if deadline < 0:
        raise InfeasibleError(f"deadline must be >= 0, got {deadline}")

    curves: Dict[Node, np.ndarray] = {}
    choices: Dict[Node, np.ndarray] = {}
    for node in reverse_topological_order(work):
        children = work.children(node)
        if children:
            base = curves[children[0]].copy()
            for c in children[1:]:
                np.maximum(base, curves[c], out=base)
        else:
            base = np.zeros(deadline + 1)
        curves[node], choices[node] = _minmax_node_step(
            base, table.times(node), table.costs(node)
        )

    roots = work.roots()
    total = curves[roots[0]].copy()
    for r in roots[1:]:
        np.maximum(total, curves[r], out=total)
    if not np.isfinite(total[deadline]):
        from .assignment import min_completion_time

        raise InfeasibleError(
            f"no assignment of {tree.name!r} completes within {deadline}",
            min_feasible=min_completion_time(tree, table),
        )

    mapping: Dict[Node, int] = {}
    stack = [(r, deadline) for r in roots]
    while stack:
        node, budget = stack.pop()
        k = int(choices[node][budget])
        assert k != NO_CHOICE
        mapping[node] = k
        remaining = budget - table.time(node, k)
        for c in work.children(node):
            stack.append((c, remaining))
    assignment = Assignment.of(mapping)
    return MinMaxResult(
        assignment=assignment,
        peak_cost=max_cost(tree, table, assignment),
        completion_time=assignment.completion_time(tree, table),
        deadline=deadline,
    )
