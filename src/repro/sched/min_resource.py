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
slack), the classical list-scheduling heuristic; ties fall back to DFG
insertion order, keeping the whole pipeline deterministic.

This module also provides :func:`list_schedule`, a plain
fixed-configuration list scheduler used by the comparison benches
("what makespan would the lower-bound configuration achieve on its
own?") and by the schedule-quality ablations.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dag import topological_order
from ..graph.dfg import DFG, Node
from ..obs import annotate, current_tracer

from ..assign.assignment import Assignment
from .asap_alap import alap_starts
from .lower_bound import lower_bound_configuration
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = ["min_resource_schedule", "list_schedule"]


class _FUPool:
    """Mutable pool of FU instances with per-instance free times."""

    def __init__(self, counts: List[int]):
        #: free_at[j][i] = first step instance i of type j is idle.
        self.free_at: List[List[int]] = [[0] * c for c in counts]

    def counts(self) -> List[int]:
        return [len(units) for units in self.free_at]

    def acquire(self, fu_type: int, step: int, duration: int) -> Optional[int]:
        """Book the lowest-index free instance; None when all are busy."""
        units = self.free_at[fu_type]
        for i, free in enumerate(units):
            if free <= step:
                units[i] = step + duration
                return i
        return None

    def grow(self, fu_type: int, step: int, duration: int) -> int:
        """Add one instance of ``fu_type`` and book it immediately."""
        self.free_at[fu_type].append(step + duration)
        return len(self.free_at[fu_type]) - 1


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
    guarantees its parents have finished by then.

    Everything after ``table`` is keyword-only.
    """
    assignment.validate_for(dfg, table)
    with current_tracer().span(
        "min_resource_schedule", nodes=len(dfg), deadline=deadline
    ):
        return _min_resource_schedule(dfg, table, assignment, deadline, initial)


def _min_resource_schedule(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
    initial: Optional[Configuration],
) -> Schedule:
    """`min_resource_schedule` body (span-wrapped by the public entry)."""
    times = assignment.execution_times(dfg, table)
    type_of = {n: assignment[n] for n in dfg.nodes()}
    alap = alap_starts(dfg, times, deadline)  # raises if infeasible

    if initial is None:
        initial = lower_bound_configuration(dfg, table, assignment, deadline)
    if initial.num_types != table.num_types:
        raise ScheduleError(
            f"initial configuration has {initial.num_types} types, "
            f"table has {table.num_types}"
        )
    pool = _FUPool(list(initial.counts))

    order = topological_order(dfg)
    tie = {n: i for i, n in enumerate(order)}
    unscheduled_parents: Dict[Node, int] = {
        n: len(dfg.parents(n)) for n in order
    }
    #: per-node max end over already-placed parents (data-ready step)
    ready_at: Dict[Node, int] = {n: 0 for n in order}
    #: min-heap of (alap, tie, node) currently ready
    ready: List[Tuple[int, int, Node]] = []
    #: nodes becoming ready at a future step: step -> [node]
    pending: Dict[int, List[Node]] = {}

    for n in order:
        if unscheduled_parents[n] == 0:
            heapq.heappush(ready, (alap[n], tie[n], n))

    ops: Dict[Node, ScheduledOp] = {}

    def place(node: Node, step: int, force: bool) -> bool:
        j = type_of[node]
        t = times[node]
        idx = pool.acquire(j, step, t)
        if idx is None:
            if not force:
                return False
            idx = pool.grow(j, step, t)
        ops[node] = ScheduledOp(start=step, fu_type=j, fu_index=idx)
        done = step + t
        for c in dfg.children(node):
            ready_at[c] = max(ready_at[c], done)
            unscheduled_parents[c] -= 1
            if unscheduled_parents[c] == 0:
                if ready_at[c] <= step:  # zero-time producer: ready now
                    heapq.heappush(ready, (alap[c], tie[c], c))
                else:
                    pending.setdefault(ready_at[c], []).append(c)
        return True

    for step in range(deadline + 1):
        for node in sorted(pending.pop(step, []), key=lambda n: (alap[n], tie[n])):
            heapq.heappush(ready, (alap[node], tie[node], node))
        if len(ops) == len(order):
            break
        # Alternate the two passes until the step stabilizes: placing a
        # zero-time node can make an urgent successor ready within the
        # same step, which must still be force-placed now.
        while True:
            # Pass 1: urgent nodes (ALAP reached) may grow the pool.
            deferred: List[Tuple[int, int, Node]] = []
            while ready:
                a, t_, node = heapq.heappop(ready)
                if a <= step:
                    placed = place(node, step, force=True)
                    assert placed
                else:
                    deferred.append((a, t_, node))
            # Pass 2: non-urgent nodes fill free instances only.
            deferred.sort()
            for a, t_, node in deferred:
                if not place(node, step, force=False):
                    heapq.heappush(ready, (a, t_, node))
            if not ready or ready[0][0] > step:
                break

    if len(ops) != len(order):  # pragma: no cover - guarded by ALAP proof
        missing = [n for n in order if n not in ops]
        raise ScheduleError(f"scheduler stalled; unplaced: {missing[:5]!r}")

    schedule = Schedule(
        ops=ops,
        configuration=Configuration.of(pool.counts()),
        deadline=deadline,
    )
    annotate(fu_instances=sum(pool.counts()))
    return schedule


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
    lacks a needed FU type entirely or scheduling overruns
    ``horizon_factor ×`` the sequential total time (a safety net
    against zero-count stalls).

    Everything after ``table`` is keyword-only.
    """
    assignment.validate_for(dfg, table)
    with current_tracer().span(
        "list_schedule", nodes=len(dfg), configuration=tuple(configuration.counts)
    ):
        return _list_schedule(dfg, table, assignment, configuration, horizon_factor)


def _list_schedule(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    configuration: Configuration,
    horizon_factor: int,
) -> Schedule:
    """`list_schedule` body (span-wrapped by the public entry)."""
    times = assignment.execution_times(dfg, table)
    type_of = {n: assignment[n] for n in dfg.nodes()}
    for n in dfg.nodes():
        if times[n] > 0 and configuration.counts[type_of[n]] == 0:
            raise ScheduleError(
                f"configuration {configuration.counts} has no unit of type "
                f"{type_of[n]} needed by {n!r}"
            )

    from ..graph.paths import longest_path_time

    unconstrained = longest_path_time(dfg, times)
    alap = alap_starts(dfg, times, unconstrained)
    horizon = max(1, horizon_factor * max(1, sum(times.values())))

    pool = _FUPool(list(configuration.counts))
    order = topological_order(dfg)
    tie = {n: i for i, n in enumerate(order)}
    unscheduled_parents = {n: len(dfg.parents(n)) for n in order}
    ready_at: Dict[Node, int] = {n: 0 for n in order}
    ready: List[Tuple[int, int, Node]] = []
    pending: Dict[int, List[Node]] = {}
    for n in order:
        if unscheduled_parents[n] == 0:
            heapq.heappush(ready, (alap[n], tie[n], n))

    ops: Dict[Node, ScheduledOp] = {}
    step = 0
    while len(ops) < len(order):
        if step > horizon:
            raise ScheduleError(
                f"list scheduling overran horizon {horizon}; "
                f"configuration {configuration.counts} is likely too small"
            )
        for node in sorted(pending.pop(step, []), key=lambda n: (alap[n], tie[n])):
            heapq.heappush(ready, (alap[node], tie[node], node))
        leftovers: List[Tuple[int, int, Node]] = []
        while ready:
            a, t_, node = heapq.heappop(ready)
            j = type_of[node]
            dur = times[node]
            idx = pool.acquire(j, step, dur)
            if idx is None:
                leftovers.append((a, t_, node))
                continue
            ops[node] = ScheduledOp(start=step, fu_type=j, fu_index=idx)
            done = step + dur
            for c in dfg.children(node):
                ready_at[c] = max(ready_at[c], done)
                unscheduled_parents[c] -= 1
                if unscheduled_parents[c] == 0:
                    if ready_at[c] <= step:
                        leftovers.append((alap[c], tie[c], c))
                    else:
                        pending.setdefault(ready_at[c], []).append(c)
        for item in leftovers:
            heapq.heappush(ready, item)
        step += 1

    makespan = max(
        (op.start + times[n] for n, op in ops.items()), default=0
    )
    return Schedule(
        ops=ops, configuration=configuration, deadline=makespan
    )
