"""ASAP and ALAP scheduling (unconstrained resources).

The classical mobility anchors: *as soon as possible* places every
node at the earliest step its zero-delay predecessors allow; *as late
as possible* places it at the latest step that still lets every
descendant finish by the deadline.  Both ignore resource limits —
they exist to bound where a node may go, and `Lower_Bound_R` and
`Min_R_Scheduling` are built directly on them.  These are the
node-keyed forms of the index passes in :mod:`repro.sched.phase2`.

The *mobility* (slack) of a node is ``alap_start − asap_start``; nodes
with zero mobility form the schedule-critical spine.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..errors import ScheduleError
from ..graph.dfg import DFG, Node
from .phase2 import alap_list, asap_list, check_deadline, indexed_dag

__all__ = ["asap_starts", "alap_starts", "mobility"]


def _check(dfg: DFG, times: Mapping[Node, int]) -> None:
    missing = [n for n in dfg.nodes() if n not in times]
    if missing:
        raise ScheduleError(f"missing times for {missing[:5]!r}")
    negative = [n for n in dfg.nodes() if times[n] < 0]
    if negative:
        raise ScheduleError(f"negative times for {negative[:5]!r}")


def asap_starts(dfg: DFG, times: Mapping[Node, int]) -> Dict[Node, int]:
    """Earliest start step per node: ``max(end of parents)``, roots at 0.

    Keyed in topological order.
    """
    _check(dfg, times)
    view = indexed_dag(dfg)
    start = asap_list(view, [times[n] for n in view.nodes])
    return dict(zip(view.nodes, start))


def alap_starts(
    dfg: DFG, times: Mapping[Node, int], deadline: int
) -> Dict[Node, int]:
    """Latest start step per node compatible with ``deadline``.

    ``start(v) = min(start of children) − t(v)``, leaves at
    ``deadline − t(v)``.  Raises :class:`ScheduleError` when the
    deadline is shorter than the critical path (some start would go
    negative) — callers should have checked assignment feasibility
    first.  Keyed in reverse topological order.
    """
    _check(dfg, times)
    check_deadline(deadline)
    view = indexed_dag(dfg)
    start = alap_list(view, [times[n] for n in view.nodes], deadline)
    return {view.nodes[i]: start[i] for i in range(len(view) - 1, -1, -1)}


def mobility(
    dfg: DFG, times: Mapping[Node, int], deadline: int
) -> Dict[Node, int]:
    """Per-node slack ``alap − asap`` (all ≥ 0 for a feasible deadline)."""
    asap = asap_starts(dfg, times)
    alap = alap_starts(dfg, times, deadline)
    return {n: alap[n] - asap[n] for n in dfg.nodes()}
