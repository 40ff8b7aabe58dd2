"""Orderings and reachability on the DAG part of a DFG.

Everything in this module operates on a :class:`~repro.graph.dfg.DFG`
that is already acyclic (typically the result of :meth:`DFG.dag`); a
cyclic input raises :class:`~repro.errors.CyclicDependencyError`.

The paper's *post-ordering* (Section 5.2) is a linear order in which,
for every edge ``(u, v)``, ``u`` appears before ``v`` — i.e. a plain
topological order.  We expose both directions because `Tree_Assign`
walks the graph leaves-first (reverse topological) while `DFG_Expand`
duplicates bottom-up.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set

from ..errors import CyclicDependencyError, GraphError
from .dfg import DFG, Node, _kahn_order

__all__ = [
    "topological_order",
    "reverse_topological_order",
    "require_acyclic",
    "descendants",
    "ancestors",
    "depth_map",
    "height_map",
]


def require_acyclic(dfg: DFG) -> None:
    """Raise :class:`CyclicDependencyError` unless ``dfg`` is a DAG."""
    if dfg.has_cycle():
        raise CyclicDependencyError(
            f"graph {dfg.name!r} contains cycle {dfg.find_cycle()}; "
            "call .dag() first to drop delayed edges"
        )


def topological_order(dfg: DFG) -> List[Node]:
    """Nodes in an order where every edge goes forward.

    Kahn's algorithm from the roots in node order, so the order is
    deterministic for a given insertion order.
    """
    order = _kahn_order(dfg)
    if len(order) < len(dfg):
        require_acyclic(dfg)
    return list(order)


def reverse_topological_order(dfg: DFG) -> List[Node]:
    """Nodes in an order where every edge goes backward (leaves first)."""
    return list(reversed(topological_order(dfg)))


def _reach(dfg: DFG, node: Node, step: Callable[[Node], List[Node]]) -> Set[Node]:
    """Nodes reachable from ``node`` through ``step``, ``node`` excluded."""
    if node not in dfg:
        raise GraphError(f"unknown node {node!r}")
    seen = {node}
    stack = [node]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(node)
    return seen


def descendants(dfg: DFG, node: Node) -> Set[Node]:
    """All nodes reachable from ``node`` (excluding ``node`` itself)."""
    return _reach(dfg, node, dfg.children)


def ancestors(dfg: DFG, node: Node) -> Set[Node]:
    """All nodes that can reach ``node`` (excluding ``node`` itself)."""
    return _reach(dfg, node, dfg.parents)


def depth_map(dfg: DFG) -> Dict[Node, int]:
    """Hop distance from the farthest root: roots have depth 0.

    ``depth(v) = max(depth(u) + 1 for parents u)``; useful for layered
    displays and as a deterministic tie-breaker in schedulers.
    """
    depth: Dict[Node, int] = {}
    for n in topological_order(dfg):
        ps = dfg.parents(n)
        depth[n] = 0 if not ps else 1 + max(depth[p] for p in ps)
    return depth


def height_map(dfg: DFG) -> Dict[Node, int]:
    """Hop distance to the farthest leaf: leaves have height 0."""
    height: Dict[Node, int] = {}
    for n in reverse_topological_order(dfg):
        cs = dfg.children(n)
        height[n] = 0 if not cs else 1 + max(height[c] for c in cs)
    return height
