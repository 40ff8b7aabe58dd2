"""`DFG_Expand` — extract a critical-path tree from a DAG (paper Fig. 10).

`Tree_Assign` needs every node to lie on paths through a unique parent.
`DFG_Expand` achieves this by walking the DAG bottom-up (leaves first,
reverse topological order) and, at every node ``u`` with ``p > 1``
parents, duplicating the subtree rooted at ``u`` ``p − 1`` times and
re-attaching each parent to its own copy.  By induction the subtree is
already an out-tree when ``u`` is visited, so each copy — and hence the
final graph — has in-degree ≤ 1 everywhere: an out-forest.

The expansion *preserves critical paths*: every root→leaf path of the
original graph appears in the tree (with nodes replaced by copies) and
vice versa, so an assignment is feasible on the tree iff the induced
per-copy assignment is feasible on the original paths.  The price is
size: a node is copied once per distinct root→node path, which can be
exponential on dense DAGs — ``node_limit`` guards against runaway
expansion (the DSP benchmark graphs stay tiny).

Every tree node carries an ``origin`` attribute naming the original
node it duplicates; :class:`ExpandedTree` exposes the bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import GraphError
from ..graph.classify import expansion_sizes
from ..graph.dag import require_acyclic, reverse_topological_order
from ..graph.dfg import DFG, Node

__all__ = [
    "ExpandedTree",
    "dfg_expand",
    "expansion_candidates",
    "choose_expansion",
]


@dataclass(frozen=True)
class ExpandedTree:
    """Result of `DFG_Expand`.

    Attributes
    ----------
    tree:
        The critical-path tree (an out-forest; every in-degree ≤ 1).
    origin:
        Maps each tree node to the original DFG node it copies.
    copies:
        Maps each original node to its tree copies (≥ 1 entry each).
    transposed:
        True when the expansion ran on the transpose of the source
        graph (the `DFG_Assign_Once` step-1 alternative); path-time
        semantics are identical either way.
    """

    tree: DFG
    origin: Dict[Node, Node]
    copies: Dict[Node, List[Node]] = field(default_factory=dict)
    transposed: bool = False

    def origin_of(self, tree_node: Node) -> Node:
        """The original node a tree node stands for."""
        try:
            return self.origin[tree_node]
        except KeyError as exc:
            raise GraphError(f"{tree_node!r} is not a node of this tree") from exc

    def duplicated_originals(self) -> List[Node]:
        """Originals with more than one copy, most-copied first.

        This is the fixing order of `DFG_Assign_Repeat` (Section 5.3:
        "sort the duplicated nodes by the number of copies and fix the
        node with greatest number of copies first"); ties broken by
        original insertion order for determinism.
        """
        dup = [(n, cs) for n, cs in self.copies.items() if len(cs) > 1]
        return [n for n, cs in sorted(dup, key=lambda item: -len(item[1]))]

    def __len__(self) -> int:
        return len(self.tree)


def _fresh_id(base: Node, serial: int) -> Node:
    """Identifier for the ``serial``-th extra copy of ``base``."""
    if isinstance(base, str):
        return f"{base}~{serial}"
    return (base, serial)


def dfg_expand(
    dfg: DFG, *, node_limit: int = 200_000, transposed: bool = False
) -> ExpandedTree:
    """Expand the DAG ``dfg`` into a critical-path out-forest.

    ``transposed`` is a bookkeeping flag recorded on the result (set by
    :func:`expansion_candidates` and :func:`choose_expansion` when they
    feed this function the transpose); it does not change the
    computation.

    Raises :class:`GraphError` if the expansion would exceed
    ``node_limit`` nodes or the input is cyclic.
    """
    require_acyclic(dfg)
    tree = DFG(name=f"{dfg.name}.expanded")
    for n in dfg.nodes():
        tree.add_node(n, op=dfg.op(n), origin=n)
    for u, v, d in dfg.edges():
        if d != 0:
            raise GraphError(
                f"dfg_expand expects a DAG-part graph; edge ({u!r}, {v!r}) "
                f"carries {d} delay(s) — call .dag() first"
            )
        tree.add_edge(u, v, 0)

    serial = 0

    def copy_subtree(root: Node) -> Node:
        """Duplicate the (already tree-shaped) subtree rooted at ``root``."""
        nonlocal serial

        def make_copy(node: Node) -> Node:
            nonlocal serial
            serial += 1
            new = _fresh_id(tree.attr(node, "origin"), serial)
            tree.add_node(new, op=tree.op(node), origin=tree.attr(node, "origin"))
            if len(tree) > node_limit:
                raise GraphError(
                    f"expansion of {dfg.name!r} exceeded node_limit={node_limit}"
                )
            return new

        new_root = make_copy(root)
        stack = [(root, new_root)]  # (template node, its fresh copy)
        while stack:
            template, clone = stack.pop()
            for child in tree.children(template):
                child_clone = make_copy(child)
                tree.add_edge(clone, child_clone, 0)
                stack.append((child, child_clone))
        return new_root

    # Bottom-up sweep over the *original* nodes; copies created along
    # the way already satisfy the in-degree invariant.
    for u in reverse_topological_order(dfg):
        parents = tree.parents(u)
        if len(parents) <= 1:
            continue
        # Keep the first parent on the original; give each further
        # parent its own copy of the subtree.
        for parent in parents[1:]:
            new_u = copy_subtree(u)
            tree.remove_edges(parent, u)
            tree.add_edge(parent, new_u, 0)

    origin = {n: tree.attr(n, "origin") for n in tree.nodes()}
    copies: Dict[Node, List[Node]] = {n: [] for n in dfg.nodes()}
    for n, o in origin.items():
        copies[o].append(n)
    return ExpandedTree(tree=tree, origin=origin, copies=copies, transposed=transposed)


def expansion_candidates(
    dfg: DFG, node_limit: int = 200_000
) -> Tuple[ExpandedTree, ExpandedTree]:
    """The two critical-path trees of step 1: ``(T', T'')``.

    ``T'`` expands the graph itself (duplicating multi-parent nodes
    bottom-up); ``T''`` expands the transpose (equivalently: duplicates
    multi-*child* nodes of the original top-down).  ``T''`` is returned
    in transpose orientation — its root→leaf paths are the original
    leaf→root paths — which is immaterial for path-time feasibility.
    """
    t_fwd = dfg_expand(dfg, node_limit=node_limit)
    t_rev = dfg_expand(dfg.transpose(), node_limit=node_limit, transposed=True)
    return t_fwd, t_rev


def choose_expansion(dfg: DFG, node_limit: int = 200_000) -> ExpandedTree:
    """The smaller of the two candidate trees (ties favor the forward one).

    :func:`~repro.graph.classify.expansion_sizes` predicts both sizes
    exactly, so only the kept tree is built; ``node_limit`` applies to
    that tree alone.
    """
    forward, reverse = expansion_sizes(dfg)
    if forward <= reverse:
        return dfg_expand(dfg, node_limit=node_limit)
    return dfg_expand(dfg.transpose(), node_limit=node_limit, transposed=True)
