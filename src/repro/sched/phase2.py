"""Phase 2 on an integer-indexed DAG: one frame serves every scheduler.

The paper's phase 2 turns one feasible assignment into a resource lower
bound (Fig. 13) and a minimum-resource schedule (Fig. 14).  Both start
from the same inputs — the assigned execution times and the ALAP
starts — so :class:`Phase2Frame` validates an assignment once, derives
its times once and computes ALAP once, and answers both steps from
there.  The other schedulers read the graph through the same frame:
:func:`repro.sched.list_schedule` (with the unconstrained makespan as
the frame's deadline), :func:`repro.sched.heft_schedule`,
:func:`repro.sched.force_directed_schedule` and
:func:`repro.sched.build_schedule_ilp`.
:func:`repro.sched.lower_bound_configuration` and
:func:`repro.sched.min_resource_schedule` are thin wrappers over the
frame; :func:`repro.synthesis.run_phase2` builds one frame and hands it
to whichever scheduler was asked for.

Every pass runs over an :class:`IndexedDAG`: nodes numbered in
topological (Kahn) order with parent and child index lists, built once
per graph and cached on the :class:`~repro.graph.dfg.DFG` until its
structure changes.  Because a node's index *is* its topological
position, the list scheduler's heap keys are ``(alap, index)`` — the
least-ALAP-first priority with the topological tie-break of the
node-keyed formulation, so schedules come out op for op identical.
The ASAP and ALAP occupancy matrices come out of one
:func:`numpy.bincount`.
"""

from __future__ import annotations

import heapq
import sys
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..assign.assignment import Assignment
from ..engine import window_bounds
from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dag import topological_order
from ..graph.dfg import DFG, Node
from ..obs import annotate, current_tracer
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = [
    "IndexedDAG",
    "Phase2Frame",
    "alap_list",
    "asap_list",
    "earliest_unit",
    "indexed_dag",
    "occupancy_matrix",
]

#: :func:`earliest_unit`'s start when a type has no instance at all
NEVER = sys.maxsize


class IndexedDAG:
    """A DAG as integers: index ``i`` is the ``i``-th node in Kahn order.

    ``parents[i]``/``children[i]`` list the distinct neighbours of node
    ``i`` (any delay) by index, in :meth:`DFG.parents` /
    :meth:`DFG.children` order.  Read-only once built.
    """

    __slots__ = ("nodes", "parents", "children")

    def __init__(self, dfg: DFG):
        order = topological_order(dfg)  # raises on a cycle
        index = {node: i for i, node in enumerate(order)}
        self.nodes: List[Node] = order
        self.parents: List[List[int]] = [
            [index[p] for p in dfg.parents(node)] for node in order
        ]
        self.children: List[List[int]] = [
            [index[c] for c in dfg.children(node)] for node in order
        ]

    def __len__(self) -> int:
        return len(self.nodes)


def indexed_dag(dfg: DFG) -> IndexedDAG:
    """The cached :class:`IndexedDAG` of ``dfg`` (built on first use).

    Raises :class:`~repro.errors.CyclicDependencyError` on a cyclic
    graph, like :func:`repro.graph.dag.topological_order`.
    """
    view = dfg._index
    if view is None:
        view = dfg._index = IndexedDAG(dfg)
    return view


def asap_list(view: IndexedDAG, times: Sequence[int]) -> List[int]:
    """Earliest starts by index: ``max(end of parents)``, roots at 0."""
    start = [0] * len(view)
    for i, parents in enumerate(view.parents):
        for p in parents:
            end = start[p] + times[p]
            if end > start[i]:
                start[i] = end
    return start


def alap_list(view: IndexedDAG, times: Sequence[int], deadline: int) -> List[int]:
    """Latest starts by index that still meet ``deadline``.

    Walks the nodes in reverse topological order and raises
    :class:`ScheduleError` at the first one that would have to start
    before step 0.  The caller checks ``deadline >= 0``.
    """
    n = len(view)
    start = [0] * n
    children = view.children
    for i in range(n - 1, -1, -1):
        latest = deadline
        for c in children[i]:
            if start[c] < latest:
                latest = start[c]
        s = latest - times[i]
        if s < 0:
            raise ScheduleError(
                f"deadline {deadline} infeasible: {view.nodes[i]!r} would "
                f"need to start at {s}"
            )
        start[i] = s
    return start


def check_deadline(deadline: int) -> None:
    """ALAP's precondition: a negative deadline admits no schedule."""
    if deadline < 0:
        raise ScheduleError(f"deadline must be >= 0, got {deadline}")


def earliest_unit(units: Sequence[int], step: int) -> Tuple[int, int]:
    """``(k, start)``: the instance on which work ready at ``step`` starts first.

    ``units[k]`` is the first step instance ``k`` of one FU type is
    idle.  The lowest index wins among equal starts, so an instance
    free at ``step`` is the lowest free one.  A type with no instance
    gives ``(-1, NEVER)``.
    """
    best, start = -1, NEVER
    for k, free in enumerate(units):
        if free <= step:
            return k, step
        if free < start:
            best, start = k, free
    return best, start


def occupancy_matrix(
    nodes: Sequence[Node],
    types: Sequence[int],
    times: Sequence[int],
    starts: Sequence[Sequence[int]],
    num_types: int,
    horizon: int,
) -> np.ndarray:
    """``occ[k, j, s]`` = type-``j`` operations of schedule ``k`` running in step ``s``.

    The paper's ``Num[step][type]`` matrix, generalized to multi-cycle
    operations by counting every occupied step, for each row of
    ``starts`` (start steps by node, in ``nodes`` order): one
    ``bincount`` over the flattened ``(schedule, type, step)`` cells of
    every operation.  The first operation (schedule by schedule, in
    ``nodes`` order) that leaves ``[0, horizon)`` raises
    :class:`ScheduleError`.
    """
    t = np.asarray(times, dtype=np.int64)
    s = np.asarray(starts, dtype=np.int64)
    outside = (s < 0) | (s + t > horizon)
    if outside.any():
        k, i = divmod(int(np.argmax(outside)), len(t))
        raise ScheduleError(
            f"{nodes[i]!r} occupies [{s[k, i]}, {s[k, i] + t[i]}) outside "
            f"horizon {horizon}"
        )
    plane = num_types * horizon
    first = np.asarray(types, dtype=np.int64) * horizon + s
    first += np.arange(len(s), dtype=np.int64)[:, None] * plane
    # cell c of an operation is first + c: offsets restart per operation
    offsets = np.arange(int(t.sum()), dtype=np.int64) - np.repeat(np.cumsum(t) - t, t)
    cells = np.repeat(first, t, axis=1) + offsets
    occ = np.bincount(cells.ravel(), minlength=len(s) * plane)
    return occ.reshape(len(s), num_types, horizon)


class Phase2Frame:
    """One assignment's phase 2: validated once, times and ALAP once.

    Construction validates ``assignment`` against ``dfg`` and
    ``table`` (a :class:`~repro.errors.TableError` on a gap or a bad
    type index).  :meth:`view` moves the execution times and FU types
    onto the graph's :class:`IndexedDAG`; :attr:`times`, :attr:`types`,
    :meth:`asap` and :meth:`alap` are what every scheduler reads.
    :meth:`lower_bound` is `Lower_Bound_R`, :meth:`schedule` is
    `Min_R_Scheduling`; both share the ALAP starts, which raise
    :class:`ScheduleError` for an infeasible ``deadline`` before
    anything else is computed.  Without a ``deadline`` the frame's
    deadline is the assignment's unconstrained makespan (the critical
    path), which is what the fixed-configuration list scheduler ranks
    slack against.
    """

    __slots__ = (
        "dfg", "table", "assignment", "_deadline", "_view", "_times", "_types", "_alap",
    )

    def __init__(
        self,
        dfg: DFG,
        table: TimeCostTable,
        assignment: Assignment,
        deadline: Optional[int] = None,
    ):
        assignment.validate_for(dfg, table)
        for node in dfg.nodes():
            if node not in table:
                table.times(node)  # the missing-row TableError
        self.dfg = dfg
        self.table = table
        self.assignment = assignment
        self._deadline = deadline
        self._view: Optional[IndexedDAG] = None
        self._times: List[int] = []
        self._types: List[int] = []
        self._alap: Optional[List[int]] = None

    def view(self) -> IndexedDAG:
        """The graph's indexed view; times and types move onto it."""
        if self._view is None:
            view = indexed_dag(self.dfg)
            mapping, rows = self.assignment.mapping, self.table.times
            self._types = [mapping[n] for n in view.nodes]
            self._times = [
                int(rows(n)[j]) for n, j in zip(view.nodes, self._types)
            ]
            self._view = view
        return self._view

    @property
    def deadline(self) -> int:
        """The timing constraint (default: the unconstrained makespan)."""
        if self._deadline is None:
            times = self.times
            self._deadline = max(map(add, self.asap(), times), default=0)
        return self._deadline

    @property
    def times(self) -> List[int]:
        """Execution times by index (read-only)."""
        self.view()
        return self._times

    @property
    def types(self) -> List[int]:
        """Assigned FU types by index (read-only)."""
        self.view()
        return self._types

    def asap(self) -> List[int]:
        """ASAP starts by index, as a fresh list."""
        return asap_list(self.view(), self._times)

    def alap(self) -> List[int]:
        """ALAP starts by index (read-only); raises :class:`ScheduleError` if infeasible."""
        if self._alap is None:
            deadline = self.deadline
            check_deadline(deadline)
            self._alap = alap_list(self.view(), self._times, deadline)
        return self._alap

    def initial(self, initial: Optional[Configuration]) -> Configuration:
        """``initial``, or :meth:`lower_bound` when it is None.

        Raises :class:`ScheduleError` when its type count is not the
        table's.
        """
        if initial is None:
            initial = self.lower_bound()
        if initial.num_types != self.table.num_types:
            raise ScheduleError(
                f"initial configuration has {initial.num_types} types, "
                f"table has {self.table.num_types}"
            )
        return initial

    # ------------------------------------------------------------------
    def lower_bound(self) -> Configuration:
        """`Lower_Bound_R`: per-type FU lower bounds within the deadline.

        Work ASAP performs in the last ``w`` steps cannot move earlier,
        and work ALAP performs in the first ``w`` steps cannot move
        later, so each forces ``ceil(work / w)`` units of its type (see
        :func:`repro.engine.window_bounds`).  Types the assignment never
        uses get 0.
        """
        with current_tracer().span(
            "lower_bound_configuration", nodes=len(self.dfg), deadline=self.deadline
        ):
            asap = self.asap()
            alap = self.alap()
            occ = occupancy_matrix(
                self.view().nodes,
                self._types,
                self._times,
                [asap, alap],
                self.table.num_types,
                self.deadline,
            )
            bounds = [int(b) for b in window_bounds(occ[0], occ[1])]
            annotate(bound_total=sum(bounds))
            return Configuration.of(bounds)

    def schedule(self, initial: Optional[Configuration] = None) -> Schedule:
        """`Min_R_Scheduling` from ``initial`` (default: :meth:`lower_bound`).

        Walks the control steps.  At each step every ready node that
        has reached its ALAP start is placed, on a fresh instance when
        none of its type is free; then the other ready nodes fill the
        instances still free, least ALAP first, without growing the
        configuration.  The two passes alternate until the step is
        stable, because placing a zero-time node can make an urgent
        successor ready within the same step.
        """
        with current_tracer().span(
            "min_resource_schedule", nodes=len(self.dfg), deadline=self.deadline
        ):
            alap = self.alap()
            schedule = self._list_schedule(alap, self.initial(initial))
            annotate(fu_instances=schedule.configuration.total_units())
            return schedule

    def _list_schedule(self, alap: List[int], initial: Configuration) -> Schedule:
        view = self.view()
        n = len(view)
        times, types, children = self._times, self._types, view.children
        push, pop = heapq.heappush, heapq.heappop
        #: free_at[j][k] = first step instance k of type j is idle
        free_at: List[List[int]] = [[0] * c for c in initial.counts]
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

        def place(i: int, step: int, force: bool) -> bool:
            units = free_at[types[i]]
            k, free = earliest_unit(units, step)
            if free > step:
                if not force:
                    return False
                k = len(units)
                units.append(0)
            t = times[i]
            units[k] = step + t
            placed.append(i)
            start[i] = step
            unit[i] = k
            done = step + t
            for c in children[i]:
                if ready_at[c] < done:
                    ready_at[c] = done
                waiting[c] -= 1
                if not waiting[c]:
                    if ready_at[c] <= step:  # zero-time producer: ready now
                        push(ready, (alap[c], c))
                    else:
                        pending.setdefault(ready_at[c], []).append(c)
            return True

        for step in range(self.deadline + 1):
            for i in pending.pop(step, ()):
                push(ready, (alap[i], i))
            if len(placed) == n:
                break
            while True:
                # Pass 1: urgent nodes (ALAP reached) may grow the pool.
                while ready and ready[0][0] <= step:
                    place(pop(ready)[1], step, True)
                if not ready:
                    break
                # Pass 2: the others fill free instances only, least
                # ALAP first.
                deferred = sorted(ready)
                ready.clear()
                for item in deferred:
                    if not place(item[1], step, False):
                        push(ready, item)
                if not ready or ready[0][0] > step:
                    break

        if len(placed) != n:  # pragma: no cover - guarded by the ALAP proof
            done = set(placed)
            missing = [view.nodes[i] for i in range(n) if i not in done]
            raise ScheduleError(f"scheduler stalled; unplaced: {missing[:5]!r}")
        nodes = view.nodes
        return Schedule(
            ops={
                nodes[i]: ScheduledOp(start[i], types[i], unit[i])
                for i in placed
            },
            configuration=Configuration.of([len(units) for units in free_at]),
            deadline=self.deadline,
        )
