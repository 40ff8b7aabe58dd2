"""Structural classification of DFGs.

The assignment algorithms have structure-specific fast paths:

* :func:`is_simple_path` — `Path_Assign` applies (optimal, O(n·L·M));
* :func:`is_out_forest` — `Tree_Assign` applies directly (optimal);
* otherwise the general heuristics (`DFG_Assign_Once` / `_Repeat`)
  first run `DFG_Expand`.

Terminology follows the paper with explicit orientation (Section 3 of
DESIGN.md): edges point in the direction of data flow, a *root* has no
parent, a *leaf* has no child, and a *common node* lies on more than
one root→leaf path — equivalently (in a connected DAG) it has more than
one parent, or some ancestor does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .dag import require_acyclic, topological_order
from .dfg import DFG, Node

__all__ = [
    "is_simple_path",
    "is_out_forest",
    "is_out_tree",
    "is_in_forest",
    "common_nodes",
    "multi_parent_nodes",
    "duplication_count",
    "expansion_sizes",
]


def is_simple_path(dfg: DFG) -> bool:
    """True iff the graph is a single chain ``v1 → v2 → … → vn``.

    The empty graph is not a path; a single node is.
    """
    n = len(dfg)
    if n == 0:
        return False
    if dfg.has_cycle():
        return False
    if dfg.num_edges() != n - 1:
        return False
    return all(dfg.in_degree(v) <= 1 and dfg.out_degree(v) <= 1 for v in dfg)


def is_out_forest(dfg: DFG) -> bool:
    """True iff every node has at most one parent (and the graph is acyclic).

    An out-forest is exactly the shape produced by `DFG_Expand`: every
    node lies on paths through a unique parent, so every root→leaf path
    through a node shares its prefix from the root.
    """
    if len(dfg) == 0:
        return False
    if dfg.has_cycle():
        return False
    return all(dfg.in_degree(v) <= 1 for v in dfg)


def is_out_tree(dfg: DFG) -> bool:
    """An out-forest with a single root (connected)."""
    return is_out_forest(dfg) and len(dfg.roots()) == 1


def is_in_forest(dfg: DFG) -> bool:
    """True iff every node has at most one child (transpose of out-forest)."""
    if len(dfg) == 0:
        return False
    if dfg.has_cycle():
        return False
    return all(dfg.out_degree(v) <= 1 for v in dfg)


def multi_parent_nodes(dfg: DFG) -> List[Node]:
    """Nodes with more than one parent, in topological order.

    These are the nodes `DFG_Expand` duplicates when run on ``dfg``.
    """
    require_acyclic(dfg)
    return [v for v in topological_order(dfg) if dfg.in_degree(v) > 1]


def common_nodes(dfg: DFG) -> List[Node]:
    """Nodes lying on more than one root→leaf path, topologically ordered.

    A node is *common* iff the number of root→node prefixes times the
    number of node→leaf suffixes exceeds 1.
    """
    require_acyclic(dfg)
    order = topological_order(dfg)
    up = {}  # number of root->v paths
    for v in order:
        ps = dfg.parents(v)
        up[v] = 1 if not ps else sum(up[p] for p in ps)
    down = {}  # number of v->leaf paths
    for v in reversed(order):
        cs = dfg.children(v)
        down[v] = 1 if not cs else sum(down[c] for c in cs)
    return [v for v in order if up[v] * down[v] > 1]


def duplication_count(dfg: DFG) -> int:
    """How many extra node copies `DFG_Expand` would create on ``dfg``.

    Equal to (number of root→``v`` paths − 1) summed over all nodes:
    after expansion each node exists once per distinct root prefix.
    """
    require_acyclic(dfg)
    up = {}
    total = 0
    for v in topological_order(dfg):
        ps = dfg.parents(v)
        up[v] = 1 if not ps else sum(up[p] for p in ps)
        total += up[v] - 1
    return total


def expansion_sizes(dfg: DFG) -> Tuple[int, int]:
    """Node counts of `DFG_Expand` on ``dfg`` and on its transpose.

    ``len(dfg) + duplication_count(dfg)`` and ``len(dfg) +
    duplication_count(dfg.transpose())``, from one topological order: on
    the transpose a node is copied once per path from it down to a leaf
    of ``dfg``.  Both candidates of `DFG_Assign_Once` step 1 are sized
    without building either tree.
    """
    order = topological_order(dfg)  # raises on a cycle
    parents, children = dfg.parents, dfg.children
    up: Dict[Node, int] = {}
    for v in order:
        paths = 0
        for p in parents(v):
            paths += up[p]
        up[v] = paths or 1  # a root starts one path
    down: Dict[Node, int] = {}
    for v in reversed(order):
        paths = 0
        for c in children(v):
            paths += down[c]
        down[v] = paths or 1  # a leaf ends one path
    return sum(up.values()), sum(down.values())
