"""HEFT-style list scheduling — the heterogeneous-computing comparator.

Topcuoglu, Hariri & Wu's HEFT [THW02] is the standard reference point
for scheduling task DAGs on heterogeneous processors: prioritize tasks
by **upward rank** (task's mean execution cost plus the largest rank
among its successors), then place each task, in decreasing rank order,
where it finishes earliest.  This module adapts that recipe to the
paper's model, where phase 1 has already fixed each node's FU *type*
and phase 2 binds FU *instances*:

* the priority list uses upward ranks under **type-averaged** execution
  times — like HEFT's processor-averaged costs, it is independent of
  the particular assignment, so two assignments of the same graph are
  compared under the same order;
* binding is earliest-finish-time over the existing instances of the
  node's assigned type;
* the configuration starts from `Lower_Bound_R` and grows an instance
  only when every existing one would push the node past its ALAP start
  — the same necessity rule as `Min_R_Scheduling`, which keeps the
  result deadline-feasible for every feasible assignment.

Registered as ``scheduler="heft"`` in :func:`repro.synthesis.synthesize`
so benches can pit the paper's scheduler against the classical
heterogeneous list scheduler on identical assignments.  It runs on the
:class:`~repro.sched.phase2.Phase2Frame` of the paper's pair: ranks,
priority and binding are by index, and an index is a topological
position, so it is also the priority's tie-break.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..assign.assignment import Assignment
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node
from ..obs import current_tracer
from .phase2 import IndexedDAG, Phase2Frame, earliest_unit, indexed_dag
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = ["heft_on_frame", "heft_schedule", "upward_ranks"]


def _ranks(view: IndexedDAG, table: TimeCostTable) -> List[float]:
    """Upward ranks by index (see :func:`upward_ranks`)."""
    m = table.num_types
    rank = [0.0] * len(view)
    for i in range(len(view) - 1, -1, -1):
        rank[i] = float(sum(table.times(view.nodes[i]))) / m + max(
            (rank[c] for c in view.children[i]), default=0.0
        )
    return rank


def upward_ranks(dfg: DFG, table: TimeCostTable) -> Dict[Node, float]:
    """THW02 upward ranks under type-averaged execution times.

    ``rank(v) = mean_time(v) + max(rank(c) for children c)`` — the
    length of the longest mean-time path from ``v`` to a leaf.  Higher
    rank means more downstream work, hence higher scheduling priority.
    """
    view = indexed_dag(dfg)
    return dict(zip(view.nodes, _ranks(view, table)))


def heft_schedule(
    dfg: DFG,
    table: TimeCostTable,
    *,
    assignment: Assignment,
    deadline: int,
    initial: Optional[Configuration] = None,
) -> Schedule:
    """Schedule ``assignment`` HEFT-style within ``deadline``.

    Nodes are placed in decreasing upward-rank order (ties broken by
    topological position, keeping the pass deterministic and
    precedence-safe) on the earliest-finishing instance of their
    assigned type; an instance is added only when every existing one
    would start the node after its ALAP step.  Always succeeds for a
    feasible assignment, for the same reason `Min_R_Scheduling` does:
    starting at or before ALAP preserves every descendant's slack.

    ``initial`` overrides the starting configuration (default:
    `Lower_Bound_R`).
    """
    return heft_on_frame(Phase2Frame(dfg, table, assignment, deadline), initial)


def heft_on_frame(
    frame: Phase2Frame, initial: Optional[Configuration] = None
) -> Schedule:
    """:func:`heft_schedule` on an already validated frame."""
    with current_tracer().span(
        "heft_schedule", nodes=len(frame.dfg), deadline=frame.deadline
    ):
        alap = frame.alap()  # raises if infeasible
        #: free_at[j][k] = first step instance k of type j is idle
        free_at: List[List[int]] = [[0] * c for c in frame.initial(initial).counts]
        view = frame.view()
        times, types, parents, nodes = frame.times, frame.types, view.parents, view.nodes
        rank = _ranks(view, frame.table)
        finish = [0] * len(view)
        ops: Dict[Node, ScheduledOp] = {}
        # Decreasing rank is a topological order up to zero-time ties;
        # the index tie-break makes it one unconditionally.
        for i in sorted(range(len(view)), key=lambda i: (-rank[i], i)):
            ready = max((finish[p] for p in parents[i]), default=0)
            units = free_at[types[i]]
            # earliest-finish-time binding: lowest (start, index) wins
            k, start = earliest_unit(units, ready)
            if start > alap[i]:
                # waiting would miss the constraint — grow out of necessity
                k, start = len(units), ready
                units.append(0)
            units[k] = finish[i] = start + times[i]
            ops[nodes[i]] = ScheduledOp(start=start, fu_type=types[i], fu_index=k)
        return Schedule(
            ops=ops,
            configuration=Configuration.of([len(u) for u in free_at]),
            deadline=frame.deadline,
        )
