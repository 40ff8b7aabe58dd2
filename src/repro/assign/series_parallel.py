"""Exact assignment for series-parallel DAGs (after Li et al. [13]).

The paper notes that its predecessor work on circuit implementation
(Li, Lim, Agarwal & Sahni) solved the module-selection problem
pseudo-polynomially on *series-parallel* structures.  Trees are not
the only tractable shape: any two-terminal series-parallel DAG admits
an exact O(n·L²·M) dynamic program, which this module provides —
extending certified-optimal coverage beyond `Tree_Assign` to st-DAGs
like diamond meshes and pipelined reduction networks.

Decomposition (single source ``s``, single sink ``t``):

* a node on **every** s→t path is a *bottleneck*; bottlenecks cut the
  graph into a series of segments (composition by **min-plus
  convolution** — the segments split the shared time budget);
* a segment with no interior bottleneck splits into the connected
  components of its strict interior, each a **parallel** branch
  (composition by elementwise sum — branches share the same budget);
* a segment whose interior is connected but has no bottleneck is not
  series-parallel: :class:`NotSeriesParallelError`.

Cost curves carry a traceback closure, so the optimal assignment is
reconstructed exactly as in the path/tree DPs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from ..engine.kernels import NO_CHOICE, node_step, zero_curve
from ..errors import GraphError, InfeasibleError, ReproError
from ..fu.table import TimeCostTable
from ..graph.dag import ancestors, descendants, require_acyclic, topological_order
from ..graph.dfg import DFG, Node
from .assignment import Assignment, min_completion_time
from .result import AssignResult

__all__ = ["NotSeriesParallelError", "sp_assign", "is_two_terminal_sp"]


class NotSeriesParallelError(GraphError):
    """The graph is not a two-terminal series-parallel DAG."""


class _Curve:
    """A cost curve plus the traceback that realizes it."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array

    def reconstruct(self, budget: int, mapping: Dict[Node, int]) -> None:
        raise NotImplementedError


class _ZeroCurve(_Curve):
    """Empty structure: cost 0, no nodes."""

    def __init__(self, deadline: int):
        super().__init__(zero_curve(deadline))

    def reconstruct(self, budget: int, mapping: Dict[Node, int]) -> None:
        pass


class _NodeCurve(_Curve):
    __slots__ = ("array", "node", "choice", "times")

    def __init__(self, node: Node, table: TimeCostTable, deadline: int):
        array, choice = node_step(
            zero_curve(deadline), table.times(node), table.costs(node)
        )
        super().__init__(array)
        self.node = node
        self.choice = choice
        self.times = table.times(node)

    def reconstruct(self, budget: int, mapping: Dict[Node, int]) -> None:
        k = int(self.choice[budget])
        assert k != NO_CHOICE, f"traceback hit infeasible cell at {self.node!r}"
        mapping[self.node] = k


class _SumCurve(_Curve):
    """Parallel branches: same budget, costs add."""

    __slots__ = ("array", "parts")

    def __init__(self, parts: List[_Curve]):
        array = parts[0].array.copy()
        for p in parts[1:]:
            array = array + p.array
        super().__init__(array)
        self.parts = parts

    def reconstruct(self, budget: int, mapping: Dict[Node, int]) -> None:
        for p in self.parts:
            p.reconstruct(budget, mapping)


class _ConvCurve(_Curve):
    """Series composition: min-plus convolution splitting the budget."""

    __slots__ = ("array", "left", "right", "split")

    def __init__(self, left: _Curve, right: _Curve):
        size = len(left.array)
        array = np.full(size, np.inf)
        split = np.zeros(size, dtype=np.int64)
        b = right.array
        for j in range(size):
            totals = left.array[: j + 1] + b[j::-1]
            k = int(np.argmin(totals))
            array[j] = totals[k]
            split[j] = k
        super().__init__(array)
        self.left = left
        self.right = right
        self.split = split

    def reconstruct(self, budget: int, mapping: Dict[Node, int]) -> None:
        j1 = int(self.split[budget])
        self.left.reconstruct(j1, mapping)
        self.right.reconstruct(budget - j1, mapping)


def _conv_all(parts: List[_Curve], deadline: int) -> _Curve:
    if not parts:
        return _ZeroCurve(deadline)
    out = parts[0]
    for p in parts[1:]:
        out = _ConvCurve(out, p)
    return out


class _Decomposer:
    """Recursive series-parallel decomposition into curves."""

    def __init__(self, dfg: DFG, table: TimeCostTable, deadline: int):
        self.dfg = dfg
        self.table = table
        self.deadline = deadline
        self.order = {n: i for i, n in enumerate(topological_order(dfg))}

    def interior_curve(self, source: Node, sink: Node, interior: Set[Node]) -> _Curve:
        """Curve over ``interior`` nodes between (exclusive) endpoints."""
        if not interior:
            return _ZeroCurve(self.deadline)
        bottlenecks = self._bottlenecks(source, sink, interior)
        if bottlenecks:
            # series split at every interior bottleneck, topologically
            pieces: List[_Curve] = []
            prev = source
            for b in sorted(bottlenecks, key=lambda n: self.order[n]):
                seg = self._strict_interior(prev, b, interior)
                pieces.append(self.interior_curve(prev, b, seg))
                pieces.append(_NodeCurve(b, self.table, self.deadline))
                prev = b
            seg = self._strict_interior(prev, sink, interior)
            pieces.append(self.interior_curve(prev, sink, seg))
            return _conv_all(pieces, self.deadline)
        # no interior bottleneck: parallel components
        components = self._components(interior)
        if len(components) == 1:
            raise NotSeriesParallelError(
                f"{self.dfg.name!r}: segment between {source!r} and "
                f"{sink!r} is neither series nor parallel decomposable"
            )
        branches = [
            self.interior_curve(source, sink, comp) for comp in components
        ]
        return _SumCurve(branches)

    # -- helpers ------------------------------------------------------
    def _strict_interior(self, a: Node, b: Node, within: Set[Node]) -> Set[Node]:
        """Nodes of ``within`` lying strictly between ``a`` and ``b``."""
        return {
            n
            for n in within
            if self.order[a] < self.order[n] < self.order[b]
            and n in self._between_cache(a, b)
        }

    def _between_cache(self, a: Node, b: Node) -> Set[Node]:
        return descendants(self.dfg, a) & ancestors(self.dfg, b)

    def _bottlenecks(self, source: Node, sink: Node, interior: Set[Node]) -> List[Node]:
        """Interior nodes lying on every source→sink path through it."""
        out = []
        for v in interior:
            if self._on_all_paths(source, sink, v, interior):
                out.append(v)
        return out

    def _on_all_paths(
        self, source: Node, sink: Node, v: Node, interior: Set[Node]
    ) -> bool:
        """Does removing ``v`` disconnect source from sink (within the
        segment's node set)?"""
        allowed = (interior | {source, sink}) - {v}
        # BFS from source over allowed nodes
        seen = {source}
        frontier = [source]
        while frontier:
            node = frontier.pop()
            for c in self.dfg.children(node):
                if c in allowed and c not in seen:
                    if c == sink:
                        return False
                    seen.add(c)
                    frontier.append(c)
        return True

    def _components(self, interior: Set[Node]) -> List[Set[Node]]:
        """Weakly-connected components of the induced interior."""
        remaining = set(interior)
        components = []
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            frontier = [seed]
            while frontier:
                node = frontier.pop()
                for nb in self.dfg.children(node) + self.dfg.parents(node):
                    if nb in remaining:
                        remaining.discard(nb)
                        comp.add(nb)
                        frontier.append(nb)
            components.append(comp)
        return components


def is_two_terminal_sp(dfg: DFG) -> bool:
    """Whether ``dfg`` is a single-source single-sink series-parallel DAG."""
    if len(dfg) == 0 or dfg.has_cycle():
        return False
    roots, leaves = dfg.roots(), dfg.leaves()
    if len(roots) != 1 or len(leaves) != 1:
        return False
    if len(dfg) == 1:
        return True
    probe = TimeCostTable(1)
    for n in dfg.nodes():
        probe.set_row(n, [1], [0.0])
    try:
        sp_assign(dfg, probe, deadline=len(dfg))
    except NotSeriesParallelError:
        return False
    return True


def sp_assign(dfg: DFG, table: TimeCostTable, deadline: int) -> AssignResult:
    """Optimal assignment for a two-terminal series-parallel DAG.

    O(n · L² · M) — the quadratic factor comes from the min-plus
    convolutions of series composition.  Raises
    :class:`NotSeriesParallelError` for other shapes (including
    multi-source/multi-sink graphs; wrap those yourself if their
    structure warrants it) and :class:`InfeasibleError` when even
    all-fastest misses the deadline.
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    if deadline < 0:
        raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
    roots, leaves = dfg.roots(), dfg.leaves()
    if len(roots) != 1 or len(leaves) != 1:
        raise NotSeriesParallelError(
            f"{dfg.name!r} has {len(roots)} sources and {len(leaves)} sinks; "
            "two-terminal series-parallel needs exactly one of each"
        )
    source, sink = roots[0], leaves[0]

    decomposer = _Decomposer(dfg, table, deadline)
    if source == sink:  # single node
        curve: _Curve = _NodeCurve(source, table, deadline)
    else:
        interior = descendants(dfg, source) & ancestors(dfg, sink)
        covered = interior | {source, sink}
        missing = [n for n in dfg.nodes() if n not in covered]
        if missing:
            raise NotSeriesParallelError(
                f"{dfg.name!r}: nodes {missing[:5]!r} lie on no "
                "source→sink path"
            )
        curve = _conv_all(
            [
                _NodeCurve(source, table, deadline),
                decomposer.interior_curve(source, sink, interior),
                _NodeCurve(sink, table, deadline),
            ],
            deadline,
        )

    if not np.isfinite(curve.array[deadline]):
        raise InfeasibleError(
            f"no assignment of {dfg.name!r} completes within {deadline}",
            min_feasible=min_completion_time(dfg, table),
        )
    mapping: Dict[Node, int] = {}
    curve.reconstruct(deadline, mapping)
    if set(mapping) != set(dfg.nodes()):
        raise ReproError(
            "series-parallel traceback missed nodes "
            f"{set(dfg.nodes()) - set(mapping)!r}"
        )
    assignment = Assignment.of(mapping)
    return AssignResult(
        assignment=assignment,
        cost=assignment.total_cost(dfg, table),
        completion_time=assignment.completion_time(dfg, table),
        deadline=deadline,
        algorithm="sp_assign",
    )
