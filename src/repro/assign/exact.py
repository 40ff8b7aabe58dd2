"""Exact solvers: branch-and-bound and brute force.

Ito et al. solved the heterogeneous assignment problem with an ILP
model; with no ILP solver available offline we provide the same
capability — certified-optimal assignments on small and medium DFGs —
through a depth-first branch-and-bound:

* nodes are decided in topological order, types tried cheapest-first;
* **cost bound**: partial cost plus the sum of remaining per-node
  minimum costs must beat the incumbent;
* **time bound**: the longest path where decided nodes use their
  chosen times and undecided nodes their fastest times must fit the
  deadline (a relaxation, so pruning is safe).

The longest-path relaxation is refreshed incrementally per decision in
O(V+E); with the benchmark-scale graphs (≤ ~40 nodes, M = 3) the
search is instantaneous, and it remains practical well past the sizes
the paper's ILP could handle.  :func:`brute_force_assign` enumerates
all ``M^n`` assignments and exists purely as the ground truth for
property-based tests.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

import numpy as np

from ..errors import InfeasibleError, ReproError
from ..fu.table import TimeCostTable
from ..graph.dag import require_acyclic, topological_order
from ..graph.dfg import DFG, Node
from ..graph.paths import longest_path_time
from .assignment import Assignment, min_completion_time
from .result import AssignResult

__all__ = ["exact_assign", "brute_force_assign", "cost_lower_bound"]


class _BudgetExhausted(Exception):
    """Internal unwind signal: the node budget ran out mid-search."""


def _timing_aware_suffix(
    dfg: DFG, table: TimeCostTable, deadline: int, order: List[Node]
) -> List[float]:
    """Suffix sums of per-node cost floors under the slack-window relaxation.

    Each node must individually fit its slack window even when every
    neighbour runs at its fastest, so the cheapest *eligible* type
    lower-bounds its contribution.  ``suffix[i]`` is the bound over
    ``order[i:]``; ``suffix[0]`` is a valid lower bound on any feasible
    assignment's total cost.
    """
    from ..graph.paths import min_path_to_leaf

    min_times = {n: table.min_time(n) for n in order}
    down = min_path_to_leaf(dfg, min_times)
    tail_min = {n: down[n] - min_times[n] for n in order}
    head_min: Dict[Node, int] = {}
    for n in order:
        parents = dfg.parents(n)
        head_min[n] = max(
            (head_min[p] + min_times[p] for p in parents), default=0
        )
    suffix = [0.0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        n = order[i]
        budget = deadline - head_min[n] - tail_min[n]
        t_row = table.times(n)
        c_row = table.costs(n)
        eligible = [
            float(c_row[k]) for k in range(len(t_row)) if t_row[k] <= budget
        ]
        floor_cost = min(eligible) if eligible else float(c_row.min())
        suffix[i] = suffix[i + 1] + floor_cost
    return suffix


def cost_lower_bound(dfg: DFG, table: TimeCostTable, deadline: int) -> float:
    """Lower bound on the optimal system cost at ``deadline``.

    The branch-and-bound's root bound, exposed so anytime solvers can
    report an optimality gap without running the search.  Raises
    :class:`~repro.errors.InfeasibleError` below the timing floor.
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    floor = min_completion_time(dfg, table)
    if deadline < floor:
        raise InfeasibleError(
            f"no assignment of {dfg.name!r} completes within {deadline} "
            f"(minimum possible is {floor})",
            min_feasible=floor,
        )
    order = topological_order(dfg)
    return _timing_aware_suffix(dfg, table, deadline, order)[0]


def brute_force_assign(
    dfg: DFG, table: TimeCostTable, deadline: int, *, max_nodes: int = 12
) -> AssignResult:
    """Optimal assignment by exhaustive enumeration (test oracle only).

    Refuses graphs larger than ``max_nodes`` — the point of this
    function is to be obviously correct, not fast.
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    nodes = dfg.nodes()
    if len(nodes) > max_nodes:
        raise ReproError(
            f"brute force refused: {len(nodes)} nodes > max_nodes={max_nodes}"
        )
    best_cost = np.inf
    best_mapping: Optional[Dict[Node, int]] = None
    for combo in itertools.product(range(table.num_types), repeat=len(nodes)):
        mapping = dict(zip(nodes, combo))
        times = {n: table.time(n, mapping[n]) for n in nodes}
        if longest_path_time(dfg, times) > deadline:
            continue
        cost = sum(table.cost(n, mapping[n]) for n in nodes)
        if cost < best_cost:
            best_cost = cost
            best_mapping = mapping
    if best_mapping is None:
        raise InfeasibleError(
            f"no assignment of {dfg.name!r} completes within {deadline}",
            min_feasible=min_completion_time(dfg, table),
        )
    assignment = Assignment.of(best_mapping)
    return AssignResult(
        assignment=assignment,
        cost=float(best_cost),
        completion_time=assignment.completion_time(dfg, table),
        deadline=deadline,
        algorithm="brute_force",
        optimal=True,
    )


class _Search:
    """Mutable state of one branch-and-bound run.

    Nodes are decided in topological order, so when node ``v`` is
    visited every ancestor already has its exact time.  The timing
    prune therefore checks only paths through ``v``::

        head(v)   exact longest decided path ending just before v
        tail_min  relaxed longest min-time path hanging below v

    which is O(in-degree) per decision; paths avoiding ``v`` entirely
    were checked when *their* last node was decided, and fully
    undecided paths were cleared by the up-front floor check.
    """

    __slots__ = (
        "dfg",
        "table",
        "deadline",
        "order",
        "head",
        "tail_min",
        "assigned_time",
        "min_cost_suffix",
        "best_cost",
        "best_mapping",
        "mapping",
        "nodes_visited",
        "node_budget",
    )

    def __init__(
        self, dfg: DFG, table: TimeCostTable, deadline: int, node_budget: int
    ):
        self.dfg = dfg
        self.table = table
        self.deadline = deadline
        self.order: List[Node] = topological_order(dfg)
        from ..graph.paths import min_path_to_leaf

        min_times = {n: table.min_time(n) for n in self.order}
        down = min_path_to_leaf(dfg, min_times)
        #: longest min-time path strictly below each node
        self.tail_min: Dict[Node, int] = {
            n: down[n] - min_times[n] for n in self.order
        }
        #: longest decided-time path ending just above each node
        self.head: Dict[Node, int] = {}
        #: chosen execution time of each decided node
        self.assigned_time: Dict[Node, int] = {}
        self.min_cost_suffix = _timing_aware_suffix(
            dfg, table, deadline, self.order
        )
        self.best_cost = np.inf
        self.best_mapping: Optional[Dict[Node, int]] = None
        self.mapping: Dict[Node, int] = {}
        self.nodes_visited = 0
        self.node_budget = node_budget

    def run(self) -> bool:
        """Search to completion; ``False`` if the node budget ran out."""
        try:
            self._dfs(0, 0.0)
        except _BudgetExhausted:
            return False
        return True

    def _dfs(self, index: int, cost_so_far: float) -> None:
        self.nodes_visited += 1
        if self.nodes_visited > self.node_budget:
            raise _BudgetExhausted  # lint: ignore[RL001] — private unwind signal, caught in run()
        if cost_so_far + self.min_cost_suffix[index] >= self.best_cost:
            return
        if index == len(self.order):
            self.best_cost = cost_so_far
            self.best_mapping = dict(self.mapping)
            return
        node = self.order[index]
        parents = self.dfg.parents(node)
        head = max(
            (self.head[p] + self.assigned_time[p] for p in parents),
            default=0,
        )
        self.head[node] = head
        budget = self.deadline - head - self.tail_min[node]
        t_row = self.table.times(node)
        c_row = self.table.costs(node)
        for k in sorted(range(len(c_row)), key=lambda j: (c_row[j], t_row[j])):
            if t_row[k] > budget:
                continue  # some path through node would overrun
            self.mapping[node] = k
            self.assigned_time[node] = int(t_row[k])
            self._dfs(index + 1, cost_so_far + float(c_row[k]))
        self.mapping.pop(node, None)
        self.assigned_time.pop(node, None)


def exact_assign(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    node_budget: int = 2_000_000,
) -> AssignResult:
    """Optimal assignment by branch-and-bound (ILP stand-in), anytime.

    ``node_budget`` caps the number of search-tree nodes visited.  When
    the search completes within budget the result is certified optimal
    (``optimal=True``); when the budget runs out mid-search the best
    feasible incumbent found so far is returned flagged
    ``optimal=False`` instead of being discarded.  Because the search
    is seeded with the greedy solution, a feasible incumbent always
    exists whenever the deadline itself is feasible; an infeasible
    deadline still raises :class:`~repro.errors.InfeasibleError`.
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    floor = min_completion_time(dfg, table)
    if deadline < floor:
        raise InfeasibleError(
            f"no assignment of {dfg.name!r} completes within {deadline} "
            f"(minimum possible is {floor})",
            min_feasible=floor,
        )
    search = _Search(dfg, table, deadline, node_budget)
    # Seed the incumbent with the greedy solution: a finite upper bound
    # from the start makes the cost prune bite immediately.
    from .greedy import greedy_assign

    seed = greedy_assign(dfg, table, deadline)
    search.best_cost = seed.cost
    search.best_mapping = dict(seed.assignment.items())
    completed = search.run()
    if search.best_mapping is None:
        raise ReproError(
            f"branch-and-bound exhausted node budget {node_budget} on "
            f"{dfg.name!r} with no feasible incumbent"
        )
    assignment = Assignment.of(search.best_mapping)
    return AssignResult(
        assignment=assignment,
        cost=float(search.best_cost),
        completion_time=assignment.completion_time(dfg, table),
        deadline=deadline,
        algorithm="exact_bb",
        optimal=completed,
    )
