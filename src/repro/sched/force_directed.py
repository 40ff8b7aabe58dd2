"""Force-directed scheduling (Paulin & Knight), an alternative phase 2.

The paper cites force-directed scheduling ([15]) as the classical
resource-minimizing scheduler for behavioral synthesis; implementing
it alongside `Min_R_Scheduling` lets the benches compare the paper's
deadline-driven list scheduler against the canonical alternative on
identical assignments.

The algorithm, faithful to the original at the level this comparison
needs:

1. compute each operation's time frame ``[ASAP, ALAP]``;
2. build per-FU-type *distribution graphs*: ``DG[j][s]`` sums, over
   type-``j`` operations, the probability of occupying step ``s``
   (uniform over the frame's start positions);
3. repeatedly choose the (operation, start) pair with the lowest
   *force* — the self force (how much the placement raises the DG
   above its frame average) plus the predecessor/successor forces
   induced by the frame truncations the placement implies;
4. fix it, shrink the affected frames, rebuild the DGs, repeat.

After all starts are fixed, instances are bound greedily per type in
start order (interval-graph coloring), and the configuration is the
per-type peak usage.  Complexity O(n² · L) — fine at benchmark scale.

Everything runs on the :class:`~repro.sched.phase2.Phase2Frame` of the
paper's pair: the time frames are index lists seeded from its ASAP and
ALAP starts, and a fix propagates over its indexed view.  Candidates
are tried and the distribution graphs summed in ``dfg.nodes()`` order,
so among equal forces the node first in that order wins.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ScheduleError
from ..fu.table import TimeCostTable
from ..graph.dfg import DFG, Node
from ..obs import add_metric, current_tracer

from ..assign.assignment import Assignment
from .phase2 import Phase2Frame, earliest_unit
from .schedule import Configuration, Schedule, ScheduledOp

__all__ = ["force_directed_on_frame", "force_directed_schedule"]


class _Frames:
    """Mutable time frames [earliest, latest] start per node index."""

    def __init__(self, frame: Phase2Frame):
        self.view = frame.view()
        self.times = frame.times
        self.types = frame.types
        self.latest = list(frame.alap())  # raises if infeasible
        self.earliest = frame.asap()

    def window(self, i: int) -> range:
        return range(self.earliest[i], self.latest[i] + 1)

    def fix(self, i: int, start: int) -> None:
        """Pin node ``i`` at ``start`` and propagate frame truncations."""
        earliest, latest, times = self.earliest, self.latest, self.times
        if not earliest[i] <= start <= latest[i]:
            raise ScheduleError(
                f"{self.view.nodes[i]!r}: start {start} outside frame "
                f"[{earliest[i]}, {latest[i]}]"
            )
        earliest[i] = latest[i] = start
        # forward sweep: children cannot start before parent end
        for v, parents in enumerate(self.view.parents):
            for p in parents:
                floor = earliest[p] + times[p]
                if earliest[v] < floor:
                    earliest[v] = floor
        # backward sweep: parents must finish before children start
        children = self.view.children
        for v in range(len(children) - 1, -1, -1):
            for c in children[v]:
                ceil = latest[c] - times[v]
                if latest[v] > ceil:
                    latest[v] = ceil
        bad = [self.view.nodes[v] for v, e in enumerate(earliest) if e > latest[v]]
        if bad:  # cannot happen for a legal fix inside the frame
            raise ScheduleError(f"frame collapse at {bad[:3]!r}")


def _distribution(
    frames: _Frames, order: List[int], num_types: int, deadline: int
) -> np.ndarray:
    """DG[j][s]: expected number of type-j ops executing in step s."""
    dg = np.zeros((num_types, deadline), dtype=np.float64)
    for i in order:
        window = frames.window(i)
        prob = 1.0 / len(window)
        t = frames.times[i]
        j = frames.types[i]
        for start in window:
            dg[j, start : start + t] += prob
    return dg


def _masses(dg: np.ndarray, j: int, t: int, starts: range) -> List[float]:
    """DG mass a type-``j`` op of ``t`` steps occupies, per start."""
    return [float(dg[j, s : s + t].sum()) for s in starts]


def _self_forces(dg: np.ndarray, frames: _Frames, i: int) -> List[float]:
    """Classic self force per start of node ``i``'s frame: occupancy DG
    mass at the candidate minus the frame-average occupancy mass."""
    masses = _masses(dg, frames.types[i], frames.times[i], frames.window(i))
    average = float(np.mean(masses))
    return [mass - average for mass in masses]


def _neighbor_force(dg: np.ndarray, frames: _Frames, i: int, start: int) -> float:
    """First-order predecessor/successor forces of fixing (node ``i``, start).

    A fix truncates each direct neighbor's frame; the force is the DG
    change the truncation implies, computed per neighbor without
    recursion (the standard practical approximation).
    """
    force = 0.0
    earliest, latest, times = frames.earliest, frames.latest, frames.times
    end = start + times[i]
    for child in frames.view.children[i]:
        new_earliest = max(earliest[child], end)
        if new_earliest > latest[child]:
            return float("inf")  # placement would strand the child
        if new_earliest > earliest[child]:
            force += _window_shift_force(dg, frames, child, new_earliest, latest[child])
    for parent in frames.view.parents[i]:
        new_latest = min(latest[parent], start - times[parent])
        if new_latest < earliest[parent]:
            return float("inf")
        if new_latest < latest[parent]:
            force += _window_shift_force(dg, frames, parent, earliest[parent], new_latest)
    return force


def _window_shift_force(
    dg: np.ndarray, frames: _Frames, i: int, new_lo: int, new_hi: int
) -> float:
    """DG-mass change when node ``i``'s frame shrinks to [new_lo, new_hi]."""
    j, t = frames.types[i], frames.times[i]
    old = _masses(dg, j, t, frames.window(i))
    new = _masses(dg, j, t, range(new_lo, new_hi + 1))
    return float(np.mean(new) - np.mean(old))


def _bind_instances(
    frames: _Frames, order: List[int], num_types: int
) -> Tuple[Dict[Node, ScheduledOp], Configuration]:
    """Greedy interval binding per type (lowest free instance wins)."""
    nodes, starts, times, types = (
        frames.view.nodes, frames.earliest, frames.times, frames.types,
    )
    ops: Dict[Node, ScheduledOp] = {}
    free_at: List[List[int]] = [[] for _ in range(num_types)]
    for i in sorted(order, key=lambda i: (starts[i], str(nodes[i]))):
        units = free_at[types[i]]
        k, free = earliest_unit(units, starts[i])
        if free > starts[i]:
            k = len(units)
            units.append(0)
        units[k] = starts[i] + times[i]
        ops[nodes[i]] = ScheduledOp(start=starts[i], fu_type=types[i], fu_index=k)
    return ops, Configuration.of([len(units) for units in free_at])


def force_directed_schedule(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
) -> Schedule:
    """Schedule within ``deadline`` by force-directed placement.

    Returns a fully bound :class:`Schedule`; raises
    :class:`ScheduleError` if the deadline is below the assignment's
    critical path (no frames exist).
    """
    return force_directed_on_frame(Phase2Frame(dfg, table, assignment, deadline))


def force_directed_on_frame(frame: Phase2Frame) -> Schedule:
    """:func:`force_directed_schedule` on an already validated frame."""
    tracer = current_tracer()
    deadline = frame.deadline
    with tracer.span(
        "force_directed_schedule", nodes=len(frame.dfg), deadline=deadline
    ):
        frames = _Frames(frame)  # raises if infeasible
        index = {n: i for i, n in enumerate(frames.view.nodes)}
        #: node indices in dfg.nodes() order: the tie-break of equal forces
        order = [index[n] for n in frame.dfg.nodes()]
        m = frame.table.num_types

        # zero-mobility nodes are already placed by their frame
        unfixed = [i for i in order if frames.latest[i] > frames.earliest[i]]
        while unfixed:
            dg = _distribution(frames, order, m, deadline)
            best: Optional[Tuple[float, int, int]] = None
            for i in unfixed:
                window = frames.window(i)
                for start, force in zip(window, _self_forces(dg, frames, i)):
                    neighbor = _neighbor_force(dg, frames, i, start)
                    if neighbor == float("inf"):
                        continue
                    # strict: a later node or start wins only on a lower force
                    if best is None or force + neighbor < best[0]:
                        best = (force + neighbor, i, start)
            assert best is not None, "every remaining node lost all placements"
            frames.fix(best[1], best[2])
            if tracer.enabled:
                add_metric("force_directed.placements")
            unfixed = [i for i in order if frames.latest[i] > frames.earliest[i]]

        ops, configuration = _bind_instances(frames, order, m)
        return Schedule(ops=ops, configuration=configuration, deadline=deadline)
