"""Time-indexed ILP model of the minimum-resource scheduling phase.

Completes the Ito-et-al-style exact formulation for phase 2: given a
feasible assignment, the classical time-indexed scheduling ILP decides
start steps and FU counts simultaneously.  As with the assignment ILP
(:mod:`repro.assign.ilp_model`), no solver ships offline, so the value
is (a) an exportable LP file any external solver accepts, and (b) a
checker that proves our schedulers' outputs are feasible points of the
model — i.e. `Min_R_Scheduling` solves (heuristically) exactly the
problem the ILP states.

Formulation (nodes ``v``, types ``j = a(v)`` fixed, steps ``s``)::

    minimize    Σ_j w_j · N_j
    subject to  Σ_{s ∈ frame(v)} y[v,s] = 1                  (place once)
                start(v) = Σ_s s · y[v,s]
                start(v) ≥ start(u) + t(u)    ∀ zero-delay (u,v)
                Σ_v type j occupying step s  ≤ N_j           ∀ j, s
                y[v,s] ∈ {0,1},  N_j ∈ Z≥0

``frame(v)`` is the ASAP..ALAP window, which prunes the variable count
the standard way; the windows, times and types come from the
assignment's :class:`~repro.sched.phase2.Phase2Frame`, and variable
``y_i_s`` names node ``i`` of its topologically indexed view.  Default
weights ``w_j = 1`` minimize total FU count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node

from ..assign.assignment import Assignment
from .phase2 import Phase2Frame
from .schedule import Schedule

__all__ = ["SchedulingILP", "build_schedule_ilp", "check_schedule_solution"]


@dataclass(frozen=True)
class SchedulingILP:
    """The time-indexed scheduling ILP as plain data."""

    binaries: List[str]  # y_v_s
    integers: List[str]  # N_j
    objective: Dict[str, float]
    constraints: List[Tuple[str, Dict[str, float], str, float]]
    deadline: int
    node_order: List[Node] = field(default_factory=list)
    frames: Dict[Node, Tuple[int, int]] = field(default_factory=dict)

    def num_variables(self) -> int:
        return len(self.binaries) + len(self.integers)

    def num_constraints(self) -> int:
        return len(self.constraints)


def _yvar(i: int, s: int) -> str:
    return f"y_{i}_{s}"


def _nvar(j: int) -> str:
    return f"N_{j}"


def build_schedule_ilp(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
    weights: Optional[Sequence[float]] = None,
) -> SchedulingILP:
    """Construct the scheduling ILP for a fixed (feasible) assignment."""
    frame = Phase2Frame(dfg, table, assignment, deadline)
    asap = frame.asap()
    alap = frame.alap()  # raises if infeasible
    m = table.num_types
    if weights is None:
        weights = [1.0] * m
    if len(weights) != m:
        raise ScheduleError(f"need {m} weights, got {len(weights)}")

    order = frame.view().nodes
    times, types = frame.times, frame.types
    index = {n: i for i, n in enumerate(order)}
    frames = {n: (asap[i], alap[i]) for i, n in enumerate(order)}

    binaries = [
        _yvar(i, s) for i in range(len(order)) for s in range(asap[i], alap[i] + 1)
    ]
    integers = [_nvar(j) for j in range(m)]
    objective = {_nvar(j): float(weights[j]) for j in range(m)}

    constraints: List[Tuple[str, Dict[str, float], str, float]] = [
        (f"place_{i}", {_yvar(i, s): 1.0 for s in range(asap[i], alap[i] + 1)}, "=", 1.0)
        for i in range(len(order))
    ]
    # precedence on zero-delay edges: Σ s·y_v − Σ s·y_u ≥ t(u)
    for u, v, delay in dfg.edges():
        if delay != 0:
            continue
        iu, iv = index[u], index[v]
        row: Dict[str, float] = {}
        for s in range(asap[iv], alap[iv] + 1):
            row[_yvar(iv, s)] = row.get(_yvar(iv, s), 0.0) + float(s)
        for s in range(asap[iu], alap[iu] + 1):
            row[_yvar(iu, s)] = row.get(_yvar(iu, s), 0.0) - float(s)
        constraints.append((f"prec_{iu}_{iv}", row, ">=", float(times[iu])))
    # resource usage per type and step
    for j in range(m):
        for step in range(deadline):
            row = {}
            for i, t in enumerate(times):
                if types[i] != j or t == 0:
                    continue
                for s in range(asap[i], alap[i] + 1):
                    if s <= step < s + t:
                        row[_yvar(i, s)] = 1.0
            if not row:
                continue
            row[_nvar(j)] = -1.0
            constraints.append((f"res_{j}_{step}", row, "<=", 0.0))

    return SchedulingILP(
        binaries=binaries,
        integers=integers,
        objective=objective,
        constraints=constraints,
        deadline=deadline,
        node_order=list(order),
        frames=frames,
    )


def check_schedule_solution(
    model: SchedulingILP,
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    schedule: Schedule,
) -> float:
    """Verify ``schedule`` is a feasible point of the model.

    Instantiates ``y`` from the schedule's starts and ``N_j`` from its
    configuration, checks every constraint, and returns the objective
    (the weighted FU count).  Raises :class:`ScheduleError` on the
    first violation — including a start outside its ASAP/ALAP frame.
    """
    index = {n: i for i, n in enumerate(model.node_order)}
    values: Dict[str, float] = {v: 0.0 for v in model.binaries}
    for n in model.node_order:
        start = schedule.ops[n].start
        lo, hi = model.frames[n]
        if not lo <= start <= hi:
            raise ScheduleError(
                f"{n!r}: start {start} outside its frame [{lo}, {hi}]"
            )
        values[_yvar(index[n], start)] = 1.0
    for j, count in enumerate(schedule.configuration.counts):
        values[_nvar(j)] = float(count)

    for cname, row, sense, rhs in model.constraints:
        lhs = sum(coef * values[var] for var, coef in row.items())
        ok = (
            abs(lhs - rhs) < 1e-9
            if sense == "="
            else lhs <= rhs + 1e-9
            if sense == "<="
            else lhs >= rhs - 1e-9
        )
        if not ok:
            raise ScheduleError(
                f"schedule violates ILP constraint {cname}: "
                f"{lhs:g} {sense} {rhs:g}"
            )
    return sum(
        model.objective.get(v, 0.0) * values.get(v, 0.0)
        for v in model.integers
    )
