"""`Min_R_Scheduling` — minimum-resource list scheduling (paper Fig. 14).

Starting from the `Lower_Bound_R` configuration, a revised list
scheduler walks the control steps.  At each step it first schedules
every ready node that has *reached its ALAP deadline* — adding a fresh
FU instance when none of its type is free, because waiting any longer
would miss the timing constraint — and then greedily packs the other
ready nodes onto whatever instances remain free, never growing the
configuration for non-urgent work.  The result is a schedule that
provably meets the deadline together with a configuration that only
ever grew out of necessity.

Priority among non-urgent ready nodes is least-ALAP-first (least
slack), the classical list-scheduling heuristic; ties fall back to
topological order, keeping the whole pipeline deterministic.  The
scheduler itself lives in :mod:`repro.sched.phase2`, next to
`Lower_Bound_R`, with which it shares its ALAP starts.

This module also provides :func:`list_schedule`, a plain
fixed-configuration list scheduler used by the comparison benches
("what makespan would the lower-bound configuration achieve on its
own?"), by rotation scheduling and by the schedule-quality ablations.
It is a second loop over the same :class:`~repro.sched.phase2.Phase2Frame`,
whose deadline is then the assignment's unconstrained makespan.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG
from ..obs import current_tracer

from ..assign.assignment import Assignment
from .phase2 import Phase2Frame, earliest_unit
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = ["min_resource_schedule", "list_schedule"]


def min_resource_schedule(
    dfg: DFG,
    table: TimeCostTable,
    *,
    assignment: Assignment,
    deadline: int,
    initial: Optional[Configuration] = None,
) -> Schedule:
    """Schedule within ``deadline`` using as few FU instances as possible.

    ``initial`` overrides the starting configuration (default:
    `Lower_Bound_R`); passing ``Configuration.of([0]*M)`` shows how much
    the lower bound actually saves (see the ablation bench).

    Always succeeds for a feasible assignment: a node is forced onto a
    (possibly new) instance no later than its ALAP step, and ALAP
    guarantees its parents have finished by then.  See
    :meth:`repro.sched.phase2.Phase2Frame.schedule`.

    Everything after ``table`` is keyword-only.
    """
    return Phase2Frame(dfg, table, assignment, deadline).schedule(initial)


def list_schedule(
    dfg: DFG,
    table: TimeCostTable,
    *,
    assignment: Assignment,
    configuration: Configuration,
    horizon_factor: int = 64,
) -> Schedule:
    """Resource-constrained list scheduling on a *fixed* configuration.

    Least-slack-first priority (slack measured against the assignment's
    unconstrained completion time).  The returned schedule's deadline
    field is its own makespan — callers compare it against the timing
    constraint.  Raises :class:`ScheduleError` if the configuration
    lacks the FU type of any node, or if scheduling overruns
    ``horizon_factor ×`` the sequential total time (a safety net
    against stalls).

    Everything after ``table`` is keyword-only.
    """
    frame = Phase2Frame(dfg, table, assignment)
    counts = configuration.counts
    with current_tracer().span(
        "list_schedule", nodes=len(dfg), configuration=tuple(counts)
    ):
        for n in dfg.nodes():
            j = assignment[n]
            if counts[j] == 0:
                # every node, zero-time ones included, needs an instance
                raise ScheduleError(
                    f"configuration {counts} has no unit of type {j} needed by {n!r}"
                )
        return _list_schedule(frame, configuration, horizon_factor)


def _list_schedule(
    frame: Phase2Frame, configuration: Configuration, horizon_factor: int
) -> Schedule:
    """`list_schedule` body (span-wrapped by the public entry).

    Every step pops the ready nodes least ALAP first and books the
    lowest free instance of each node's type; a node that finds none
    waits for the next step.  A child made ready by a zero-time parent
    also waits for the next step.
    """
    alap = frame.alap()
    view = frame.view()
    times, types, children = frame.times, frame.types, view.children
    n = len(view)
    horizon = max(1, horizon_factor * max(1, sum(times)))
    push, pop = heapq.heappush, heapq.heappop

    free_at: List[List[int]] = [[0] * c for c in configuration.counts]
    waiting = [len(parents) for parents in view.parents]
    ready_at = [0] * n
    #: min-heap of (alap, index) currently ready; index = topo tie
    ready: List[Tuple[int, int]] = [(alap[i], i) for i in range(n) if not waiting[i]]
    heapq.heapify(ready)
    #: step -> nodes whose last parent finishes at that step
    pending: Dict[int, List[int]] = {}
    placed: List[int] = []
    start = [0] * n
    unit = [0] * n

    step = 0
    while len(placed) < n:
        if step > horizon:
            raise ScheduleError(
                f"list scheduling overran horizon {horizon}; "
                f"configuration {configuration.counts} is likely too small"
            )
        for i in pending.pop(step, ()):
            push(ready, (alap[i], i))
        leftovers: List[Tuple[int, int]] = []
        while ready:
            item = pop(ready)
            i = item[1]
            units = free_at[types[i]]
            k, free = earliest_unit(units, step)
            if free > step:
                leftovers.append(item)
                continue
            done = units[k] = step + times[i]
            placed.append(i)
            start[i] = step
            unit[i] = k
            for c in children[i]:
                if ready_at[c] < done:
                    ready_at[c] = done
                waiting[c] -= 1
                if not waiting[c]:
                    if ready_at[c] <= step:
                        leftovers.append((alap[c], c))
                    else:
                        pending.setdefault(ready_at[c], []).append(c)
        for item in leftovers:
            push(ready, item)
        step += 1

    nodes = view.nodes
    return Schedule(
        ops={nodes[i]: ScheduledOp(start[i], types[i], unit[i]) for i in placed},
        configuration=configuration,
        deadline=max((start[i] + times[i] for i in placed), default=0),
    )
