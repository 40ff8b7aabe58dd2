"""`Tree_Assign` — optimal assignment for trees and forests (paper Fig. 7).

Operates on *out-forests*: DAGs where every node has at most one
parent, the shape `DFG_Expand` produces.  In such a graph the subtrees
hanging off the children of a node are disjoint, so cost curves
compose by summation under a shared budget:

    D_{v+}[j] = Σ over children c of  D_c[j]          (parallel subtrees)
    D_v[j]    = min over types k of  D_{v+}[j - t_k(v)] + c_k(v)

Multiple roots are handled exactly like the paper's pseudo root ``vr``
with zero time and cost: the forest curve is the sum of the root
curves, read at the deadline.  Complexity O(n · L · M).

An *in-forest* input (every node ≤ 1 child) is transposed internally —
root→leaf paths of the transpose visit the same node sets, so times,
costs, and feasibility are unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine.kernels import NO_CHOICE, combine_children, node_step, zero_curve
from ..errors import InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node
from ..graph.paths import longest_path_time
from ..obs import current_tracer
from .assignment import Assignment
from .result import AssignResult

__all__ = ["tree_assign", "tree_assign_sweep", "tree_cost_curve"]

#: Maps a tree node to the key under which its table row is stored.
#: Expanded trees pass ``origin_of``; plain trees use the identity.
NodeKey = Callable[[Node], Node]


def _normalize(dfg: DFG) -> DFG:
    """Return ``dfg`` as an out-forest, transposing in-forests.

    The empty graph is a (trivial) forest: zero roots, zero curves to
    combine — both DP entry points handle it explicitly, returning the
    zero curve / the empty assignment.
    """
    if len(dfg) == 0 or is_out_forest(dfg):
        return dfg
    if is_in_forest(dfg):
        return dfg.transpose()
    raise NotATreeError(
        f"{dfg.name!r} is neither an out-forest nor an in-forest; "
        "run DFG_Expand (or dfg_assign_once/_repeat) for general DAGs"
    )


def _curves(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    key: NodeKey,
) -> Tuple[Dict[Node, np.ndarray], Dict[Node, np.ndarray]]:
    """Bottom-up DP pass: per-node cost curves and traceback choices."""
    curves: Dict[Node, np.ndarray] = {}
    choices: Dict[Node, np.ndarray] = {}
    for node in reverse_topological_order(tree):
        children = tree.children(node)
        if children:
            base = combine_children([curves[c] for c in children])
        else:
            base = zero_curve(deadline)
        row = key(node)
        curves[node], choices[node] = node_step(
            base, table.times(row), table.costs(row)
        )
    return curves, choices


def _pass(
    tree: DFG, table: TimeCostTable, horizon: int, key: NodeKey
) -> Tuple[Dict[Node, np.ndarray], np.ndarray]:
    """One Fig. 7 pass at ``horizon``: traceback choices and the forest
    curve (the root curves summed, as under the paper's pseudo root)."""
    curves, choices = _curves(tree, table, horizon, key)
    total = combine_children([curves[r] for r in tree.roots()], deadline=horizon)
    return choices, total


def _validated(
    tree: DFG, table: TimeCostTable, node_key: Optional[NodeKey]
) -> Tuple[DFG, NodeKey]:
    """``tree`` as an out-forest plus its row key, coverage checked."""
    key = node_key or (lambda n: n)
    tree = _normalize(tree)
    for n in tree.nodes():
        table.times(key(n))  # validates coverage eagerly
    return tree, key


def _prepare(
    tree: DFG, table: TimeCostTable, deadline: int, node_key: Optional[NodeKey]
) -> Tuple[DFG, NodeKey]:
    """Validate and normalize the inputs shared by every tree-DP entry."""
    tree, key = _validated(tree, table, node_key)
    if deadline < 0:
        raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
    return tree, key


def _infeasible(
    tree: DFG, table: TimeCostTable, deadline: int, key: NodeKey, name: str
) -> InfeasibleError:
    """The error for an infeasible ``deadline``, carrying the minimum."""
    min_time = longest_path_time(tree, {n: table.min_time(key(n)) for n in tree})
    return InfeasibleError(
        f"no assignment of {name!r} completes within {deadline} "
        f"(minimum possible is {min_time})",
        min_feasible=min_time,
    )


def _traceback(
    tree: DFG,
    table: TimeCostTable,
    choices: Dict[Node, np.ndarray],
    key: NodeKey,
    budget: int,
) -> Dict[Node, int]:
    """Top-down traceback at ``budget``: every root owns the full budget.

    Curves are prefix-identical across deadlines, so one `_curves` pass
    at ``L`` answers this for every ``budget <= L``.
    """
    mapping: Dict[Node, int] = {}
    stack = [(r, budget) for r in tree.roots()]
    while stack:
        node, remaining = stack.pop()
        k = int(choices[node][remaining])
        assert k != NO_CHOICE, f"traceback hit infeasible cell at {node!r}"
        mapping[node] = k
        remaining -= table.time(key(node), k)
        for c in tree.children(node):
            stack.append((c, remaining))
    return mapping


def tree_cost_curve(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    node_key: Optional[NodeKey] = None,
) -> np.ndarray:
    """The forest's full cost curve ``D[0..deadline]``.

    ``D[j]`` is the minimum system cost of an assignment in which every
    root→leaf path finishes within ``j`` (``inf`` = infeasible).  Used
    by tests (monotonicity, agreement with brute force), by
    `tree_frontier`, and by the paper-figure walkthrough example.
    """
    tree, key = _validated(tree, table, node_key)
    return _pass(tree, table, deadline, key)[1]


def tree_assign(
    tree: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    node_key: Optional[NodeKey] = None,
) -> AssignResult:
    """Minimum-cost assignment of a tree/forest within ``deadline``.

    Optimal for out-forests and in-forests (paper Theorem, Section 5.2).
    ``node_key`` redirects table lookups for expanded trees whose nodes
    are copies of original nodes.  The one-deadline case of
    :func:`tree_assign_sweep`: one bottom-up pass of the Fig. 7
    recurrence plus a stack traceback.

    Raises
    ------
    NotATreeError
        If the graph has a node with several parents *and* one with
        several children (i.e. it is a general DAG).
    InfeasibleError
        If even all-fastest misses the deadline; carries the minimum
        achievable completion time.
    """
    (outcome,) = tree_assign_sweep(tree, table, [deadline], node_key=node_key)
    if isinstance(outcome, InfeasibleError):
        raise outcome
    return outcome


def tree_assign_sweep(
    tree: DFG,
    table: TimeCostTable,
    deadlines: Sequence[int],
    *,
    node_key: Optional[NodeKey] = None,
) -> List[Union[AssignResult, InfeasibleError]]:
    """`Tree_Assign` at every deadline of ``deadlines`` from one DP pass.

    Fig. 7 fills ``D_v[j]`` for every budget ``j <= L``, and curves are
    prefix-identical across deadlines, so one pass at the largest
    deadline plus one traceback per deadline answers the whole sweep.
    Entry ``i`` is exactly what ``tree_assign(tree, table,
    deadlines[i])`` returns, or the :class:`InfeasibleError` it raises
    (a negative deadline, or one below the minimum completion time).
    Structural errors (not a tree, a table that misses a node) concern
    every deadline and raise.
    """
    tree, key = _validated(tree, table, node_key)
    horizon = max(deadlines, default=-1)
    out: List[Union[AssignResult, InfeasibleError]] = []
    with current_tracer().span(
        "tree_assign", nodes=len(tree), deadline=horizon
    ):
        if horizon >= 0:
            choices, total = _pass(tree, table, horizon, key)
        for deadline in deadlines:
            if deadline < 0:
                out.append(
                    InfeasibleError(f"deadline must be >= 0, got {deadline}")
                )
            elif not np.isfinite(total[deadline]):
                out.append(_infeasible(tree, table, deadline, key, tree.name))
            else:
                mapping = _traceback(tree, table, choices, key, deadline)
                cost = float(
                    sum(table.cost(key(n), mapping[n]) for n in tree.nodes())
                )
                times = {n: table.time(key(n), mapping[n]) for n in tree.nodes()}
                out.append(
                    AssignResult(
                        assignment=Assignment.of(mapping),
                        cost=cost,
                        completion_time=longest_path_time(tree, times),
                        deadline=deadline,
                        algorithm="tree_assign",
                    )
                )
    return out
