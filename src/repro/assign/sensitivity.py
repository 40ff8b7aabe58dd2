"""Sensitivity analysis of assignment solutions.

Designer-facing questions the DP machinery can answer cheaply:

* **marginal cost of time** — how much system cost does one more (or
  one less) step of deadline buy?  Read directly off the cost curve /
  frontier instead of re-running anything;
* **node criticality** — which operations are *pinned* (every optimal
  assignment at this deadline uses their fastest type) and which are
  *indifferent* (the choice doesn't affect the optimum)?  Pinned nodes
  are where a designer should shop for a faster library cell; computed
  by re-solving with each node's candidate types individually forbidden
  (one DP per (node, type) on trees — still polynomial).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import InfeasibleError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dfg import DFG, Node
from .assignment import min_completion_time
from .dfg_assign import dfg_assign_repeat
from .tree_assign import tree_assign

__all__ = [
    "MarginalCost",
    "marginal_cost_of_time",
    "NodeSensitivity",
    "node_sensitivity",
]


@dataclass(frozen=True)
class MarginalCost:
    """Cost deltas around one deadline."""

    deadline: int
    cost: float
    tighten_penalty: Optional[float]  # extra cost at deadline − 1 (None: infeasible)
    relax_gain: float  # cost saved at deadline + 1 (≥ 0)


def _solve(dfg: DFG, table: TimeCostTable, deadline: int) -> Optional[float]:
    try:
        if is_out_forest(dfg) or is_in_forest(dfg):
            return tree_assign(dfg, table, deadline).cost
        return dfg_assign_repeat(dfg, table, deadline).cost
    except InfeasibleError:
        return None


def marginal_cost_of_time(
    dfg: DFG, table: TimeCostTable, deadline: int
) -> MarginalCost:
    """Cost now, the penalty of one step less, the gain of one more.

    Exact on trees/forests; heuristic (via `DFG_Assign_Repeat`) on
    general DAGs.  Raises :class:`InfeasibleError` if ``deadline``
    itself is infeasible.
    """
    cost = _solve(dfg, table, deadline)
    if cost is None:
        raise InfeasibleError(
            f"deadline {deadline} infeasible",
            min_feasible=min_completion_time(dfg, table),
        )
    tighter = _solve(dfg, table, deadline - 1) if deadline > 0 else None
    looser = _solve(dfg, table, deadline + 1)
    assert looser is not None  # relaxations stay feasible
    return MarginalCost(
        deadline=deadline,
        cost=cost,
        tighten_penalty=None if tighter is None else tighter - cost,
        relax_gain=max(0.0, cost - looser),
    )


@dataclass(frozen=True)
class NodeSensitivity:
    """One node's role in the optimal solution at a deadline."""

    node: Node
    chosen_type: int
    pinned_fastest: bool  # forbidding its fastest type breaks/raises cost
    regret_per_type: Dict[int, Optional[float]]
    # regret_per_type[k]: extra cost when the node is FORCED to type k
    # (None: forcing k makes the instance infeasible)

    @property
    def indifferent(self) -> bool:
        """True when every feasible forced type achieves the optimum."""
        finite = [r for r in self.regret_per_type.values() if r is not None]
        return bool(finite) and all(abs(r) < 1e-9 for r in finite)


def node_sensitivity(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    nodes: Optional[List[Node]] = None,
) -> List[NodeSensitivity]:
    """Per-node forced-type regrets at ``deadline``.

    For every candidate type ``k`` of every requested node, re-solves
    with the node pinned to ``k`` (`TimeCostTable.with_fixed`) and
    records the cost increase over the unconstrained optimum.  Exact on
    trees; heuristic on DAGs (regrets may then be slightly pessimistic,
    never negative by more than the heuristic's own gap).
    """
    base = _solve(dfg, table, deadline)
    if base is None:
        raise InfeasibleError(
            f"deadline {deadline} infeasible",
            min_feasible=min_completion_time(dfg, table),
        )
    if is_out_forest(dfg) or is_in_forest(dfg):
        baseline_assignment = tree_assign(dfg, table, deadline).assignment
    else:
        baseline_assignment = dfg_assign_repeat(dfg, table, deadline).assignment

    targets = nodes if nodes is not None else dfg.nodes()
    out: List[NodeSensitivity] = []
    for node in targets:
        regrets: Dict[int, Optional[float]] = {}
        for k in range(table.num_types):
            forced = _solve(dfg, table.with_fixed(node, k), deadline)
            regrets[k] = None if forced is None else forced - base
        fastest = table.fastest_type(node)
        others = [
            regrets[k]
            for k in range(table.num_types)
            if k != fastest
        ]
        pinned = all(r is None or r > 1e-9 for r in others) and bool(others)
        out.append(
            NodeSensitivity(
                node=node,
                chosen_type=baseline_assignment[node],
                pinned_fastest=pinned,
                regret_per_type=regrets,
            )
        )
    return out
