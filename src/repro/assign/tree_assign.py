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

from typing import Callable, Dict, Optional, Tuple

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

__all__ = ["tree_assign", "tree_cost_curve"]

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


def _prepare(
    tree: DFG, table: TimeCostTable, deadline: int, node_key: Optional[NodeKey]
) -> Tuple[DFG, NodeKey]:
    """Validate and normalize the inputs shared by every tree-DP entry."""
    key = node_key or (lambda n: n)
    tree = _normalize(tree)
    for n in tree.nodes():
        table.times(key(n))  # validates coverage eagerly
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
    key = node_key or (lambda n: n)
    tree = _normalize(tree)
    for n in tree.nodes():
        table.times(key(n))  # validates coverage eagerly
    curves, _ = _curves(tree, table, deadline, key)
    return combine_children([curves[r] for r in tree.roots()], deadline=deadline)


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
    are copies of original nodes.  One bottom-up pass of the Fig. 7
    recurrence plus a stack traceback: a single solve has nothing to
    cache, so this is the fastest path for one tree and one deadline
    (see ``docs/performance.md``).

    Raises
    ------
    NotATreeError
        If the graph has a node with several parents *and* one with
        several children (i.e. it is a general DAG).
    InfeasibleError
        If even all-fastest misses the deadline; carries the minimum
        achievable completion time.
    """
    tree, key = _prepare(tree, table, deadline, node_key)
    with current_tracer().span(
        "tree_assign", nodes=len(tree), deadline=deadline
    ):
        curves, choices = _curves(tree, table, deadline, key)
        total = combine_children(
            [curves[r] for r in tree.roots()], deadline=deadline
        )
        if not np.isfinite(total[deadline]):
            raise _infeasible(tree, table, deadline, key, tree.name)
        mapping = _traceback(tree, table, choices, key, deadline)
        cost = float(sum(table.cost(key(n), mapping[n]) for n in tree.nodes()))
        times = {n: table.time(key(n), mapping[n]) for n in tree.nodes()}
        return AssignResult(
            assignment=Assignment.of(mapping),
            cost=cost,
            completion_time=longest_path_time(tree, times),
            deadline=deadline,
            algorithm="tree_assign",
        )
