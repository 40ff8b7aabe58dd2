"""Data-flow graph (DFG) model.

The paper models a DSP application as a node-weighted directed graph
``G = (V, E, d)`` where ``V`` is the set of operations, ``E`` the set of
data-dependence edges, and ``d(e)`` the number of *delays* (registers)
on edge ``e``.  An edge with zero delays expresses an intra-iteration
precedence; an edge with ``d`` delays expresses a dependence on the
value produced ``d`` iterations earlier (inter-iteration), so a DFG may
be cyclic as long as every cycle carries at least one delay.

Assignment and scheduling operate on the *DAG part* of the DFG — the
subgraph left after removing every edge that carries a delay
(:meth:`DFG.dag`), exactly as prescribed in Section 3 of the paper.

Nodes are arbitrary hashable identifiers (strings in the benchmark
suite).  Each node may carry an operation label (``op``) used by the
benchmark generators to derive per-type execution times and costs, and
the expansion algorithm records provenance through the ``origin``
attribute (which original node a duplicated copy stands for).
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Set, Tuple

from ..errors import CyclicDependencyError, GraphError

__all__ = ["DFG", "Node", "Edge"]

#: Type alias for node identifiers.
Node = Hashable
#: Type alias for ``(u, v, delay)`` edge triples.
Edge = Tuple[Node, Node, int]


class DFG:
    """A data-flow graph with integer edge delays.

    Parameters
    ----------
    name:
        Optional human-readable name (benchmark graphs set this).

    Notes
    -----
    Parallel edges between the same pair of nodes are permitted (they
    occur in unfolded/retimed graphs where the same producer feeds the
    same consumer at several iteration distances).  The graph is kept
    in plain dicts: ``_succ[u][v]`` is the list of delays of the
    parallel edges ``u -> v`` and ``_pred[v][u]`` is the same list.
    Every order is insertion order: nodes as added, targets of ``u`` by
    their first edge from ``u``, sources of ``v`` by their first edge
    into ``v``, parallel edges as added.  Kahn's order is computed once
    and kept until the next structural change (a new node, an added or
    removed edge): the assignment and scheduling passes ask for it many
    times per solve.  The scheduling passes' integer-indexed view
    (:func:`repro.sched.phase2.indexed_dag`) is cached and dropped the
    same way.
    """

    __slots__ = ("_attrs", "_succ", "_pred", "_kahn", "_index", "name")

    def __init__(self, name: str = "dfg"):
        self._attrs: Dict[Node, Dict[str, Any]] = {}
        self._succ: Dict[Node, Dict[Node, List[int]]] = {}
        self._pred: Dict[Node, Dict[Node, List[int]]] = {}
        self._kahn: Optional[List[Node]] = None
        #: :class:`repro.sched.phase2.IndexedDAG` of this graph, if built.
        self._index: Optional[Any] = None
        self.name = name

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node, op: str = "op", **attrs: Any) -> None:
        """Add ``node`` with operation label ``op``.

        Re-adding an existing node updates its attributes in place and
        keeps its position; this is occasionally convenient when
        building graphs programmatically.
        """
        if node is None:
            raise GraphError("node identifier must not be None")
        data = self._attrs.get(node)
        if data is None:
            data = self._attrs[node] = {}
            self._succ[node] = {}
            self._pred[node] = {}
            self._kahn = self._index = None
        data["op"] = op
        data.update(attrs)

    def add_edge(self, u: Node, v: Node, delay: int = 0) -> None:
        """Add a dependence edge ``u -> v`` carrying ``delay`` delays.

        Endpoints that do not exist yet are created with the default
        operation label.
        """
        if delay < 0:
            raise GraphError(f"edge ({u!r}, {v!r}) has negative delay {delay}")
        if u == v and delay == 0:
            raise CyclicDependencyError(
                f"zero-delay self loop on {u!r}: the iteration can never start"
            )
        if u not in self._attrs:
            self.add_node(u)
        if v not in self._attrs:
            self.add_node(v)
        delays = self._succ[u].get(v)
        if delays is None:
            delays = self._succ[u][v] = self._pred[v][u] = []
            self._kahn = self._index = None
        delays.append(int(delay))

    def remove_edges(self, u: Node, v: Node) -> None:
        """Remove every (possibly parallel) edge ``u -> v``; none is fine."""
        if self._succ.get(u, {}).pop(v, None) is not None:
            del self._pred[v][u]
            self._kahn = self._index = None

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node] | Edge],
        name: str = "dfg",
        ops: Optional[Dict[Node, str]] = None,
    ) -> "DFG":
        """Build a DFG from an iterable of ``(u, v)`` or ``(u, v, delay)``.

        ``ops`` optionally maps nodes to operation labels.
        """
        g = cls(name=name)
        if ops:
            for node, op in ops.items():
                g.add_node(node, op=op)
        for e in edges:
            if len(e) == 2:
                u, v = e  # type: ignore[misc]
                d = 0
            else:
                u, v, d = e  # type: ignore[misc]
            g.add_edge(u, v, d)
        return g

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._attrs)

    def __contains__(self, node: Node) -> bool:
        return node in self._attrs

    def __iter__(self) -> Iterator[Node]:
        return iter(self._attrs)

    def nodes(self) -> List[Node]:
        """All node identifiers, in insertion order."""
        return list(self._attrs)

    def edges(self) -> List[Edge]:
        """All edges as ``(u, v, delay)`` triples.

        By source in node order, then by target in the order of its
        first edge from that source, then parallel edges as added.
        """
        return [
            (u, v, d)
            for u, targets in self._succ.items()
            for v, delays in targets.items()
            for d in delays
        ]

    def num_edges(self) -> int:
        return sum(len(delays) for t in self._succ.values() for delays in t.values())

    def _data(self, node: Node) -> Dict[str, Any]:
        try:
            return self._attrs[node]
        except KeyError as exc:
            raise GraphError(f"unknown node {node!r}") from exc

    def op(self, node: Node) -> str:
        """The operation label of ``node``."""
        op: str = self._data(node)["op"]
        return op

    def attr(self, node: Node, key: str, default: Any = None) -> Any:
        """Arbitrary node attribute access (used for expansion provenance)."""
        return self._data(node).get(key, default)

    def set_attr(self, node: Node, key: str, value: Any) -> None:
        self._data(node)[key] = value

    def parents(self, node: Node) -> List[Node]:
        """Distinct predecessors of ``node`` (any delay), by first edge."""
        self._data(node)
        return list(self._pred[node])

    def children(self, node: Node) -> List[Node]:
        """Distinct successors of ``node`` (any delay), by first edge."""
        self._data(node)
        return list(self._succ[node])

    def in_degree(self, node: Node) -> int:
        """Number of distinct parents (parallel edges counted once)."""
        self._data(node)
        return len(self._pred[node])

    def out_degree(self, node: Node) -> int:
        """Number of distinct children (parallel edges counted once)."""
        self._data(node)
        return len(self._succ[node])

    def roots(self) -> List[Node]:
        """Nodes without any parent (sources of the graph)."""
        return [n for n, ps in self._pred.items() if not ps]

    def leaves(self) -> List[Node]:
        """Nodes without any child (sinks of the graph)."""
        return [n for n, cs in self._succ.items() if not cs]

    def total_delays(self) -> int:
        """Sum of delay counts over all edges."""
        return sum(d for _, _, d in self.edges())

    def has_cycle(self) -> bool:
        """Whether the full graph (including delayed edges) is cyclic."""
        return len(_kahn_order(self)) < len(self)

    def find_cycle(self) -> Optional[List[Tuple[Node, Node]]]:
        """One cycle as ``(u, v)`` pairs, or ``None`` if acyclic.

        The witness is the one ``networkx.find_cycle`` reports: the
        first edge back into the current path of a depth-first search
        that starts from each unfinished node in node order and follows
        children in order.
        """
        done: Set[Node] = set()
        for start in self._attrs:
            if start in done:
                continue
            path: List[Tuple[Node, Node]] = []  # edges from start down the stack
            on_path = {start}
            stack = [(start, iter(self._succ[start]))]
            while stack:
                node, children = stack[-1]
                head = next(children, None)  # node ids are never None
                if head is None:
                    stack.pop()
                    on_path.remove(node)
                    done.add(node)
                    if path:
                        path.pop()
                elif head in on_path:
                    path.append((node, head))
                    first = next(i for i, (tail, _) in enumerate(path) if tail == head)
                    return path[first:]
                elif head not in done:
                    path.append((node, head))
                    on_path.add(head)
                    stack.append((head, iter(self._succ[head])))
        return None

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def _pairs(self) -> Iterator[Tuple[Node, Node, List[int]]]:
        """``(u, v, delays)`` per connected pair, in :meth:`edges` order."""
        for u, targets in self._succ.items():
            for v, delays in targets.items():
                yield u, v, delays

    def _rebuild(
        self,
        name: str,
        nodes: Iterable[Node],
        pairs: Iterable[Tuple[Node, Node, List[int]]],
    ) -> "DFG":
        """A new graph: ``nodes`` with copied attributes, then the edges.

        ``pairs`` yields each ``(u, v)`` at most once with a fresh list
        of its delays (empty lists are skipped); adding them in this
        order is adding their edges one by one.
        """
        out = DFG(name=name)
        for n in nodes:
            out._attrs[n] = dict(self._attrs[n])
            out._succ[n] = {}
            out._pred[n] = {}
        for u, v, delays in pairs:
            if delays:
                out._succ[u][v] = out._pred[v][u] = delays
        return out

    def dag(self) -> "DFG":
        """The DAG part: every node, only the zero-delay edges.

        This is the graph the assignment and scheduling phases operate
        on.  Raises :class:`CyclicDependencyError` if a zero-delay cycle
        exists (such a DFG admits no static schedule).
        """
        out = self._rebuild(
            f"{self.name}.dag",
            self._attrs,
            ((u, v, [d for d in ds if d == 0]) for u, v, ds in self._pairs()),
        )
        if out.has_cycle():
            raise CyclicDependencyError(
                f"zero-delay cycle {out.find_cycle()} in {self.name!r}"
            )
        return out

    def transpose(self) -> "DFG":
        """The graph with every edge reversed (delays preserved)."""
        return self._rebuild(
            f"{self.name}.T", self._attrs, ((v, u, list(ds)) for u, v, ds in self._pairs())
        )

    def copy(self, name: Optional[str] = None) -> "DFG":
        """Deep-enough copy (node attribute dicts are shallow-copied).

        Parents of each node come out in edge order (by source, as in
        :meth:`edges`), as a networkx copy would produce them.
        """
        return self._rebuild(
            name or self.name, self._attrs, ((u, v, list(ds)) for u, v, ds in self._pairs())
        )

    def subgraph(self, nodes: Iterable[Node], name: Optional[str] = None) -> "DFG":
        """Copy of the induced subgraph on ``nodes``, in this graph's order."""
        keep = set(nodes)
        for n in keep:
            if n not in self._attrs:
                raise GraphError(f"unknown node {n!r}")
        return self._rebuild(
            name or f"{self.name}.sub",
            (n for n in self._attrs if n in keep),
            ((u, v, list(ds)) for u, v, ds in self._pairs() if u in keep and v in keep),
        )

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DFG(name={self.name!r}, nodes={len(self)}, "
            f"edges={self.num_edges()}, delays={self.total_delays()})"
        )

    def __eq__(self, other: object) -> bool:
        """Structural equality: same nodes, ops, and edge multisets."""
        if not isinstance(other, DFG):
            return NotImplemented
        if set(self.nodes()) != set(other.nodes()):
            return False
        if any(self.op(n) != other.op(n) for n in self.nodes()):
            return False
        return sorted(self.edges(), key=repr) == sorted(other.edges(), key=repr)

    def __hash__(self) -> int:  # DFGs are mutable; identity hash.
        return id(self)


def _kahn_order(dfg: DFG) -> List[Node]:
    """Kahn's order: roots in node order, then each node once its last
    parent is placed, children visited by first edge (networkx's
    topological generations, flattened).  Nodes on or behind a cycle
    never enter it, so it is short exactly when ``dfg`` is cyclic.

    The list is the graph's cached copy: callers must not mutate it.
    """
    if dfg._kahn is not None:
        return dfg._kahn
    indegree = {n: len(ps) for n, ps in dfg._pred.items()}
    order = [n for n, d in indegree.items() if d == 0]
    for node in order:  # grows while iterating: a FIFO queue
        for child in dfg._succ[node]:
            indegree[child] -= 1
            if indegree[child] == 0:
                order.append(child)
    dfg._kahn = order
    return order
