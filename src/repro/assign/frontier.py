"""Cost/latency Pareto frontiers.

The DP cost curves computed by `Tree_Assign` already contain, for free,
the *entire* trade-off between the timing constraint and the minimum
achievable system cost.  This module surfaces that as a first-class
API — the designer's view the paper's tables sample at six points:

* :func:`tree_frontier` — exact frontier for trees/forests (and simple
  paths), straight from one pass of the Fig. 7 recurrence;
* :func:`dfg_frontier` — frontier for general DAGs via
  `DFG_Assign_Repeat` at every distinct deadline (heuristic,
  upper-bounds the true frontier), or via `exact_assign` when
  ``exact=True``.

A frontier is a list of :class:`FrontierPoint` knees — deadlines where
the minimum cost strictly improves, starting at the minimum feasible
completion time — each carrying the witnessing
:class:`~repro.assign.assignment.Assignment`.  Points iterate as
``(deadline, cost)`` pairs, so tuple-era call sites
(``dict(frontier)``, ``for d, c in frontier``) keep working.

The heuristic sweep is one batched solve: every deadline becomes a lane
of :func:`~repro.assign.batch.dfg_assign_repeat_batch`, so all pin
rounds of the whole sweep run in lockstep in a few numpy passes.  Its
per-deadline reference is
:func:`repro.checkkit.oracles.reference_frontier`.  Sweeps publish the
engine counters as ``dp.*`` metrics to the ambient :mod:`repro.obs`
tracer when one is enabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from ..errors import InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest
from ..graph.dfg import DFG
from ..obs import current_tracer
from .assignment import Assignment, min_completion_time
from .batch import BatchJob, dfg_assign_repeat_batch
from .dfg_assign import _emit_dp_metrics
from .exact import exact_assign
from .incremental import DPStats
from .tree_assign import _infeasible, _pass, _prepare, _traceback

__all__ = [
    "FrontierPoint",
    "KNEE_RTOL",
    "tree_frontier",
    "dfg_frontier",
    "frontier_knees",
]

#: Relative improvement below which two costs count as the same knee.
#: Relative (not absolute): frontiers over large cost scales — energy
#: tables in the thousands and beyond — would otherwise record spurious
#: knees from float round-off, while an absolute epsilon larger than the
#: cost quantum would miss real ones on tiny scales.  The ``max(1, |c|)``
#: floor keeps near-zero costs on an absolute footing.
KNEE_RTOL = 1e-9


@dataclass(frozen=True)
class FrontierPoint:
    """One knee of a cost/latency frontier.

    ``assignment`` is the witnessing assignment achieving ``cost``
    within ``deadline`` (``None`` for curve-only frontiers that never
    materialized one).  Iterating yields ``(deadline, cost)`` so the
    tuple-era idioms — ``dict(frontier)``, ``for d, c in frontier``,
    comparison against ``(d, c)`` via ``tuple(point)`` — stay valid.
    """

    deadline: int
    cost: float
    assignment: Optional[Assignment] = None

    def __iter__(self) -> Iterator[Union[int, float]]:
        yield self.deadline
        yield self.cost


def frontier_knees(points: List[Tuple[int, float]]) -> List[Tuple[int, float]]:
    """Collapse a (deadline, cost) series to its strictly-improving knees.

    "Strictly improving" is judged to relative tolerance
    :data:`KNEE_RTOL`, so the scale of the cost axis does not change
    which knees are recorded.
    """
    knees: List[Tuple[int, float]] = []
    for deadline, cost in points:
        if not knees:
            knees.append((deadline, cost))
            continue
        prev = knees[-1][1]
        if cost < prev - KNEE_RTOL * max(1.0, abs(prev)):
            knees.append((deadline, cost))
    return knees


def _knee_points(raw: List[FrontierPoint]) -> List[FrontierPoint]:
    """Keep the :class:`FrontierPoint` at each strictly-improving knee."""
    knees = frontier_knees([(p.deadline, p.cost) for p in raw])
    keep = {deadline for deadline, _ in knees}
    return [p for p in raw if p.deadline in keep]


def tree_frontier(
    tree: DFG,
    table: TimeCostTable,
    *,
    max_deadline: int,
) -> List[FrontierPoint]:
    """Exact Pareto frontier of a tree/forest up to ``max_deadline``.

    One DP pass (O(n · max_deadline · M)) yields every point, because
    the curves are prefix-identical across deadlines; each knee then
    gets its witnessing assignment via an O(n) traceback.  Raises
    :class:`NotATreeError` for general DAGs (matching `tree_assign`'s
    contract — use :func:`dfg_frontier` there) and
    :class:`InfeasibleError`, carrying the minimum feasible completion
    time, when even ``max_deadline`` is infeasible.
    """
    if len(tree) and not (is_out_forest(tree) or is_in_forest(tree)):
        raise NotATreeError(
            f"{tree.name!r} is not a tree/forest; use dfg_frontier"
        )
    with current_tracer().span(
        "tree_frontier", graph=tree.name, nodes=len(tree), max_deadline=max_deadline
    ):
        forest, key = _prepare(tree, table, max_deadline, None)
        choices, curve = _pass(forest, table, max_deadline, key)
        finite = np.isfinite(curve)
        if not finite.any():
            raise _infeasible(forest, table, max_deadline, key, tree.name)
        knees = frontier_knees(
            [(int(j), float(curve[j])) for j in np.flatnonzero(finite)]
        )
        return [
            FrontierPoint(
                deadline=deadline,
                cost=cost,
                assignment=Assignment.of(
                    _traceback(forest, table, choices, key, deadline)
                ),
            )
            for deadline, cost in knees
        ]


def dfg_frontier(
    dfg: DFG,
    table: TimeCostTable,
    *,
    max_deadline: int,
    exact: bool = False,
    stats: Optional[DPStats] = None,
    workers: int = 0,
) -> List[FrontierPoint]:
    """Pareto frontier of a general DAG up to ``max_deadline``.

    Heuristic by default: `DFG_Assign_Repeat` at every deadline from
    the floor to ``max_deadline``, solved as the lanes of one
    :func:`~repro.assign.batch.dfg_assign_repeat_batch` call sharing a
    single expansion; ``exact=True`` certifies each point with
    branch-and-bound instead (small graphs only).  The heuristic
    frontier upper-bounds the true one and is itself monotone by
    construction.  Knees, costs and witnesses equal a per-deadline
    ``dfg_assign_repeat`` loop (pinned against
    :func:`repro.checkkit.oracles.reference_frontier`).

    ``workers`` fans lane chunks out through :func:`~repro.engine.pmap`
    (identical results at any count).  ``stats`` optionally collects
    the summed per-lane engine counters, which are also published as
    ``dp.*`` metrics to the ambient tracer.
    """
    floor = min_completion_time(dfg, table)
    if max_deadline < floor:
        raise InfeasibleError(
            f"max_deadline {max_deadline} below minimum completion {floor}",
            min_feasible=floor,
        )
    tracer = current_tracer()
    with tracer.span(
        "dfg_frontier",
        graph=dfg.name,
        nodes=len(dfg),
        max_deadline=max_deadline,
        exact=exact,
    ):
        deadlines = range(floor, max_deadline + 1)
        if exact:
            results = [exact_assign(dfg, table, d) for d in deadlines]
        else:
            run_stats = stats
            if run_stats is None and tracer.enabled:
                run_stats = DPStats()
            before = run_stats.as_dict() if run_stats is not None else {}
            outcomes = dfg_assign_repeat_batch(
                [BatchJob(dfg, table, d) for d in deadlines], workers=workers
            )
            results = []
            for outcome in outcomes:
                if outcome.error is not None:
                    # Deadlines at/above the floor are feasible on the
                    # expansion tree (same critical paths), so a lane
                    # error here is a bug — surface it.
                    raise outcome.error
                assert outcome.result is not None
                results.append(outcome.result)
                if run_stats is not None:
                    run_stats += outcome.stats
            if tracer.enabled and run_stats is not None:
                _emit_dp_metrics(before, run_stats)
        raw: List[FrontierPoint] = []
        best = np.inf
        best_assignment: Optional[Assignment] = None
        for deadline, result in zip(deadlines, results):
            if result.cost < best:  # enforce frontier monotonicity
                best = result.cost
                best_assignment = result.assignment
            raw.append(FrontierPoint(deadline, float(best), best_assignment))
        return _knee_points(raw)
