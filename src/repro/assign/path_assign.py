"""`Path_Assign` — optimal assignment for simple paths (paper Fig. 4).

For a chain ``v1 → v2 → … → vn`` the only critical path is the chain
itself, so feasibility is a single knapsack-like budget: choose one
(time, cost) option per node with total time ≤ L minimizing total
cost.  The dynamic program fills, per prefix, the cost curve
``D_i[j] = min cost of v1..vi within total time j`` via

    D_i[j] = min over types k of  D_{i-1}[j - t_k(v_i)] + c_k(v_i)

and reads the answer at ``D_n[L]``.  Pseudo-polynomial: O(n · L · M)
time, O(n · L) space for the traceback choices — exactly the paper's
bound, with the inner L·M loop vectorized in numpy.
"""

from __future__ import annotations

from typing import List

from ..engine.kernels import NO_CHOICE, node_step, zero_curve
from ..errors import InfeasibleError, NotAPathError
from ..fu.table import TimeCostTable
from ..graph.classify import is_simple_path
from ..graph.dfg import DFG, Node
from .assignment import Assignment, min_completion_time
from .result import AssignResult

__all__ = ["path_assign", "chain_order"]


def chain_order(dfg: DFG) -> List[Node]:
    """The nodes of a simple path from its root to its leaf.

    Raises :class:`NotAPathError` when the graph is not a chain.
    """
    if not is_simple_path(dfg):
        raise NotAPathError(
            f"{dfg.name!r} is not a simple path "
            f"(nodes={len(dfg)}, edges={dfg.num_edges()})"
        )
    roots = dfg.roots()
    node = roots[0]
    order = [node]
    while dfg.children(node):
        node = dfg.children(node)[0]
        order.append(node)
    return order


def path_assign(dfg: DFG, table: TimeCostTable, deadline: int) -> AssignResult:
    """Minimum-cost assignment of a simple path within ``deadline``.

    Optimal.  Raises :class:`InfeasibleError` (with the minimum
    achievable completion time attached) when even the all-fastest
    assignment overruns the deadline.
    """
    table.validate_for(dfg)
    order = chain_order(dfg)
    if deadline < 0:
        raise InfeasibleError(
            f"deadline must be >= 0, got {deadline}",
            min_feasible=min_completion_time(dfg, table),
        )

    curve = zero_curve(deadline)
    choices = []
    for node in order:
        curve, choice = node_step(curve, table.times(node), table.costs(node))
        choices.append(choice)

    if choice[deadline] == NO_CHOICE:
        raise InfeasibleError(
            f"no assignment of {dfg.name!r} completes within {deadline}",
            min_feasible=min_completion_time(dfg, table),
        )

    # Traceback from the full budget, last node first.
    mapping = {}
    budget = deadline
    for node, choice in zip(reversed(order), reversed(choices)):
        k = int(choice[budget])
        assert k != NO_CHOICE, "traceback reached an infeasible cell"
        mapping[node] = k
        budget -= table.time(node, k)
    assignment = Assignment.of(mapping)

    result = AssignResult(
        assignment=assignment,
        cost=assignment.total_cost(dfg, table),
        completion_time=assignment.completion_time(dfg, table),
        deadline=deadline,
        algorithm="path_assign",
    )
    return result
