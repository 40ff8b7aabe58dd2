"""Iterative modulo scheduling of cyclic DFGs (software pipelining).

Rotation scheduling shortens one iteration's schedule; *modulo
scheduling* attacks the steady-state directly: find the smallest
initiation interval ``II`` such that iterations can be issued every
``II`` steps under the FU configuration.  The classical framework
(Rau's iterative modulo scheduling, here in its textbook form):

* **ResMII** — resource floor: type-``j`` work per iteration divided
  by the number of type-``j`` units, maximized over types;
* **RecMII** — recurrence floor: for every cycle ``C`` of the DFG,
  ``⌈ Σ_{v∈C} t(v) / Σ_{e∈C} d(e) ⌉`` (delay counts are
  retiming-invariant, so this binds any schedule);
* for each candidate ``II ≥ max(ResMII, RecMII)``, a list scheduler
  places operations in priority order within windows implied by the
  modulo constraint ``start(v) ≥ start(u) + t(u) − d(u,v)·II``,
  reserving the *modulo reservation table* (FU usage counted modulo
  ``II``); bounded backtracking evicts conflicting ops.

The result is a steady-state kernel: one iteration issued every ``II``
steps achieving throughput ``1/II`` — compared against the static
schedule length by the cyclic-scheduling bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node

from ..assign.assignment import Assignment
from ..sched.schedule import Configuration

__all__ = ["ModuloSchedule", "res_mii", "rec_mii", "modulo_schedule"]


@dataclass(frozen=True)
class ModuloSchedule:
    """A steady-state software pipeline.

    ``starts[v]`` is the absolute issue step of iteration 0's instance
    of ``v``; instance ``i`` issues at ``starts[v] + i·II``.
    """

    starts: Dict[Node, int]
    ii: int
    configuration: Configuration

    def stage_count(self, times: Dict[Node, int]) -> int:
        """Pipeline depth in stages (kernel occupancy)."""
        if not self.starts:
            return 0
        span = max(self.starts[v] + times[v] for v in self.starts)
        return -(-span // self.ii)

    def validate(
        self,
        dfg: DFG,
        table: TimeCostTable,
        assignment: Assignment,
    ) -> None:
        """Check modulo precedence and modulo resource constraints."""
        times = assignment.execution_times(dfg, table)
        for u, v, delay in dfg.edges():
            lhs = self.starts[v]
            rhs = self.starts[u] + times[u] - delay * self.ii
            if lhs < rhs:
                raise ScheduleError(
                    f"modulo precedence violated on ({u!r}, {v!r}, d={delay}): "
                    f"{lhs} < {rhs}"
                )
        usage: Dict[Tuple[int, int], int] = {}
        for v in dfg.nodes():
            j = assignment[v]
            for s in range(self.starts[v], self.starts[v] + times[v]):
                key = (j, s % self.ii)
                usage[key] = usage.get(key, 0) + 1
                if usage[key] > self.configuration.counts[j]:
                    raise ScheduleError(
                        f"type F{j + 1} oversubscribed at modulo slot "
                        f"{s % self.ii}"
                    )


def res_mii(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    configuration: Configuration,
) -> int:
    """Resource-constrained lower bound on the initiation interval."""
    times = assignment.execution_times(dfg, table)
    work = [0] * configuration.num_types
    for v in dfg.nodes():
        work[assignment[v]] += times[v]
    bound = 1
    for j, w in enumerate(work):
        if w == 0:
            continue
        if configuration.counts[j] == 0:
            raise ScheduleError(
                f"configuration has no unit of required type F{j + 1}"
            )
        bound = max(bound, -(-w // configuration.counts[j]))
    return bound


def rec_mii(dfg: DFG, table: TimeCostTable, assignment: Assignment) -> int:
    """Recurrence-constrained lower bound: max cycle time/delay ratio.

    Computed by binary search on II using the standard criterion: II is
    recurrence-feasible iff the edge-weighted graph with weights
    ``t(u) − d·II`` has no positive cycle.
    """
    times = assignment.execution_times(dfg, table)
    nodes = dfg.nodes()
    edges = dfg.edges()
    if not edges:
        return 1

    def feasible(ii: int) -> bool:
        # no positive-weight cycle with weights t(u) - d*ii: negate and
        # ask Bellman-Ford (from a virtual source joined to every node)
        # for no negative cycle, keeping the lightest parallel edge
        weight: Dict[Tuple[Node, Node], int] = {}
        for u, v, d in edges:
            w = d * ii - times[u]
            weight[(u, v)] = min(w, weight.get((u, v), w))
        dist = dict.fromkeys(nodes, 0)
        for _ in nodes:
            relaxed = False
            for (u, v), w in weight.items():
                if dist[u] + w < dist[v]:
                    dist[v] = dist[u] + w
                    relaxed = True
            if not relaxed:
                return True
        return False

    lo, hi = 1, max(1, sum(times.values()))
    if feasible(lo):
        return 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


def modulo_schedule(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    configuration: Configuration,
    max_ii: Optional[int] = None,
    budget_factor: int = 8,
) -> ModuloSchedule:
    """Iterative modulo scheduling at the smallest achievable II.

    Tries each candidate II from ``max(ResMII, RecMII)`` upward; within
    one II, a height-priority list scheduler with bounded eviction
    fills the modulo reservation table.  ``max_ii`` defaults to the
    sequential total time (always schedulable); exceeding it raises
    :class:`ScheduleError`.
    """
    assignment.validate_for(dfg, table)
    times = assignment.execution_times(dfg, table)
    floor = max(
        res_mii(dfg, table, assignment, configuration),
        rec_mii(dfg, table, assignment),
    )
    ceiling = max_ii if max_ii is not None else max(1, sum(times.values()))
    for ii in range(floor, ceiling + 1):
        starts = _try_ii(dfg, times, assignment, configuration, ii, budget_factor)
        if starts is not None:
            schedule = ModuloSchedule(
                starts=starts, ii=ii, configuration=configuration
            )
            schedule.validate(dfg, table, assignment)
            return schedule
    raise ScheduleError(
        f"no modulo schedule found up to II={ceiling} "
        f"(floor was {floor}); raise max_ii or the configuration"
    )


def _try_ii(
    dfg: DFG,
    times: Dict[Node, int],
    assignment: Assignment,
    configuration: Configuration,
    ii: int,
    budget_factor: int,
) -> Optional[Dict[Node, int]]:
    """One iterative-modulo-scheduling attempt at a fixed II."""
    nodes = dfg.nodes()
    # height priority: longest zero-delay path to any sink
    from ..graph.dag import reverse_topological_order

    dag = dfg.dag()
    height: Dict[Node, int] = {}
    for n in reverse_topological_order(dag):
        cs = dag.children(n)
        height[n] = times[n] + (max(height[c] for c in cs) if cs else 0)
    order = sorted(nodes, key=lambda n: (-height[n], str(n)))

    starts: Dict[Node, int] = {}
    #: modulo reservation table: (type, slot) -> set of nodes
    mrt: Dict[Tuple[int, int], List[Node]] = {}

    def reserve(v: Node, start: int) -> List[Node]:
        """Place v; return evicted conflicting nodes."""
        evicted: List[Node] = []
        j = assignment[v]
        for s in range(start, start + times[v]):
            key = (j, s % ii)
            bucket = mrt.setdefault(key, [])
            bucket.append(v)
            while len(bucket) > configuration.counts[j]:
                victim = next(x for x in bucket if x != v)
                evicted.append(victim)
                _unreserve(victim)
        starts[v] = start
        return evicted

    def _unreserve(v: Node) -> None:
        if v not in starts:
            return
        j = assignment[v]
        for s in range(starts[v], starts[v] + times[v]):
            bucket = mrt.get((j, s % ii), [])
            if v in bucket:
                bucket.remove(v)
        del starts[v]

    def earliest(v: Node) -> int:
        lo = 0
        for u, w, d in dfg.edges():
            if w != v or u not in starts:
                continue
            lo = max(lo, starts[u] + times[u] - d * ii)
        return max(lo, 0)

    budget = budget_factor * len(nodes)
    worklist = list(order)
    last_try: Dict[Node, int] = {}
    while worklist:
        if budget <= 0:
            return None
        budget -= 1
        v = worklist.pop(0)
        lo = earliest(v)
        if v in last_try and last_try[v] >= lo:
            lo = last_try[v] + 1  # forced forward progress on retry
        start = _first_fit(v, lo, ii, times, assignment, configuration, mrt)
        last_try[v] = start
        evicted = reserve(v, start)
        # successors placed earlier than now allowed must be redone
        for u, w, d in dfg.edges():
            if u == v and w in starts and w != v:
                if starts[w] < starts[v] + times[v] - d * ii:
                    _unreserve(w)
                    evicted.append(w)
        for e in dict.fromkeys(evicted):
            if e not in worklist:
                worklist.append(e)
    return dict(starts)


def _first_fit(
    v: Node,
    lo: int,
    ii: int,
    times: Dict[Node, int],
    assignment: Assignment,
    configuration: Configuration,
    mrt: Dict[Tuple[int, int], List[Node]],
) -> int:
    """First start ≥ lo whose modulo slots have room (≤ lo + ii − 1,
    after which the pattern repeats — then return lo and let eviction
    handle it)."""
    j = assignment[v]
    for start in range(lo, lo + ii):
        ok = True
        for s in range(start, start + times[v]):
            bucket = mrt.get((j, s % ii), [])
            if len(bucket) >= configuration.counts[j]:
                ok = False
                break
        if ok:
            return start
    return lo
