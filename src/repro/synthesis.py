"""Two-phase synthesis pipeline — the paper's end-to-end flow.

Phase 1 picks an FU type per operation (minimum system cost within the
timing constraint); phase 2 builds a static schedule and a minimal
configuration for that assignment.  :func:`synthesize` wires the
phases together behind one call and one result object, selecting the
structurally-best assignment algorithm by default:

========================  =======================================
graph shape                default algorithm
========================  =======================================
simple path                `Path_Assign` (optimal)
tree / forest              `Tree_Assign` (optimal)
general DAG                `DFG_Assign_Repeat` (best heuristic)
========================  =======================================

Pass ``algorithm=`` to override (e.g. ``"greedy"`` for the baseline or
``"exact"`` for a certified optimum on small graphs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from .assign import (
    AssignResult,
    dfg_assign_once,
    dfg_assign_repeat,
    downgrade_assign,
    exact_assign,
    portfolio_assign,
    sp_assign,
    greedy_assign,
    path_assign,
    tree_assign,
)
from .engine import Budget
from .assign.assignment import Assignment
from .errors import ReproError
from .fu.table import TimeCostTable
from .graph.classify import is_in_forest, is_out_forest, is_simple_path
from .graph.dfg import DFG
from .obs import MetricsRegistry, Span, current_tracer
from .sched import Configuration, Schedule
from .sched.force_directed import force_directed_on_frame
from .sched.heft import heft_on_frame
from .sched.phase2 import Phase2Frame

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "SynthesisResult",
    "run_phase2",
    "synthesize",
    "ALGORITHMS",
    "auto_algorithm",
]

#: Version stamped into every serialized :class:`SynthesisResult` (and
#: therefore into CLI ``--json`` output and serve responses).  Bump it
#: whenever the emitted shape changes; consumers should reject versions
#: they do not understand.  The shape is pinned in
#: ``tests/test_public_api.py``.
RESULT_SCHEMA_VERSION = 1

def _portfolio_best(
    dfg: DFG, table: TimeCostTable, deadline: int
) -> AssignResult:
    """Phase-1 adapter: race the metaheuristic portfolio, keep the winner."""
    return portfolio_assign(dfg, table, deadline).best


#: Name → phase-1 algorithm; all share the (dfg, table, deadline) call shape.
ALGORITHMS: Dict[str, Callable[[DFG, TimeCostTable, int], AssignResult]] = {
    "path": path_assign,
    "tree": tree_assign,
    "once": dfg_assign_once,
    "repeat": dfg_assign_repeat,
    "greedy": greedy_assign,
    "downgrade": downgrade_assign,
    "sp": sp_assign,
    "exact": exact_assign,
    "portfolio": _portfolio_best,
}


def auto_algorithm(dfg: DFG) -> str:
    """The structurally-appropriate default algorithm name for ``dfg``."""
    if is_simple_path(dfg):
        return "path"
    if is_out_forest(dfg) or is_in_forest(dfg):
        return "tree"
    return "repeat"


@dataclass(frozen=True)
class SynthesisResult:
    """Everything the two-phase flow produces for one DFG.

    Attributes
    ----------
    assign_result:
        Phase-1 outcome (assignment, cost, algorithm used).
    schedule:
        Phase-2 static schedule with concrete FU bindings.
    configuration:
        FU instance counts of the schedule.
    lower_bound:
        `Lower_Bound_R`'s configuration floor, kept for reporting the
        achieved-vs-bound gap.
    timings:
        Wall-clock seconds per phase (``assign``, ``lower_bound``,
        ``schedule``, ``total``) — always collected, tracing or not.
    trace:
        The root :class:`~repro.obs.Span` of this run when an enabled
        tracer was ambient, else ``None``.
    metrics:
        The ambient tracer's :class:`~repro.obs.MetricsRegistry` when
        tracing was enabled, else ``None``.
    """

    assign_result: AssignResult
    schedule: Schedule
    configuration: Configuration
    lower_bound: Configuration
    timings: Mapping[str, float] = field(default_factory=dict)
    trace: Optional[Span] = None
    metrics: Optional[MetricsRegistry] = None

    @property
    def assignment(self):
        return self.assign_result.assignment

    @property
    def cost(self) -> float:
        """Phase-1 system cost (the paper's minimization objective)."""
        return self.assign_result.cost

    def verify(self, dfg: DFG, table: TimeCostTable) -> None:
        """Re-check both phases from first principles."""
        self.assign_result.verify(dfg, table)
        self.schedule.validate(dfg, table, self.assignment)
        if not self.lower_bound.dominates(self.configuration):
            raise ReproError(
                f"configuration {self.configuration.counts} below its own "
                f"lower bound {self.lower_bound.counts}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict of the result (schema ``RESULT_SCHEMA_VERSION``).

        The shape is the v1 wire format shared by ``repro-hls ...
        --json`` and the serve layer's responses, pinned in
        ``tests/test_public_api.py``.  Traces and metrics objects are
        not embedded (export those via :mod:`repro.obs`); per-phase
        wall times are.
        """
        ar = self.assign_result
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "cost": float(ar.cost),
            "completion_time": int(ar.completion_time),
            "deadline": int(ar.deadline),
            "algorithm": ar.algorithm,
            "optimal": ar.optimal,
            "assignment": {str(n): int(t) for n, t in self.assignment.items()},
            "configuration": [int(c) for c in self.configuration.counts],
            "lower_bound": [int(c) for c in self.lower_bound.counts],
            "schedule": {
                str(n): {
                    "start": int(op.start),
                    "fu_type": int(op.fu_type),
                    "fu_index": int(op.fu_index),
                }
                for n, op in self.schedule.ops.items()
            },
            "timings": {k: float(v) for k, v in self.timings.items()},
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        """Serialize :meth:`to_dict` (stable key order)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run_phase2(
    dag: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
    *,
    scheduler: str = "min_resource",
    timings: Optional[Dict[str, float]] = None,
) -> Tuple[Configuration, Schedule]:
    """Phase 2 of the flow: `Lower_Bound_R`, then ``scheduler``.

    Returns ``(lower_bound, schedule)`` for ``assignment`` on the
    acyclic ``dag``.  Both steps run on one
    :class:`~repro.sched.phase2.Phase2Frame`, whichever ``scheduler``
    is asked for: the assignment is validated, its times looked up and
    its ALAP starts computed once.  The steps run in the ``lower_bound`` and
    ``schedule`` spans, and their wall times land in ``timings`` under
    the same names.  :func:`synthesize` calls this after phase 1, and
    the serve layer's batched path calls it with the shared DAG of a
    whole sweep.
    """
    tracer = current_tracer()
    t0 = perf_counter()
    with tracer.span("lower_bound"):
        frame = Phase2Frame(dag, table, assignment, deadline)
        lower = frame.lower_bound()
    t1 = perf_counter()
    with tracer.span("schedule", scheduler=scheduler):
        if scheduler == "min_resource":
            schedule = frame.schedule(lower)
        elif scheduler == "force_directed":
            schedule = force_directed_on_frame(frame)
        elif scheduler == "heft":
            schedule = heft_on_frame(frame, lower)
        else:
            raise ReproError(
                f"unknown scheduler {scheduler!r}; choose 'min_resource', "
                "'force_directed', or 'heft'"
            )
    if timings is not None:
        timings["lower_bound"] = t1 - t0
        timings["schedule"] = perf_counter() - t1
    return lower, schedule


def synthesize(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    algorithm: Optional[str] = None,
    scheduler: str = "min_resource",
    workers: int = 0,
    strategy: str = "paper",
    budget: Optional[Budget] = None,
) -> SynthesisResult:
    """Run the full two-phase flow on the DAG part of ``dfg``.

    This is the **single documented entry point** of the pipeline: the
    CLI's ``assign``/``run``/``trace`` commands all route through it,
    and so should library callers that want both phases.  ``dfg`` may
    be cyclic (a loop-carried DSP graph); assignment and scheduling
    constrain only its zero-delay DAG part, per the paper.

    ``strategy`` selects the phase-1 policy: ``"paper"`` (default)
    keeps the structural auto-selection table above, while
    ``"portfolio"`` races the metaheuristic portfolio
    (:func:`repro.assign.portfolio_assign`) and keeps the winner —
    never worse than `DFG_Assign_Repeat` by construction.  The knob
    conflicts with an explicit ``algorithm=``: pass one or the other.

    ``scheduler`` selects phase 2: ``"min_resource"`` (the paper's
    `Min_R_Scheduling`, default), ``"force_directed"`` (the classical
    Paulin–Knight alternative, for comparison studies), or ``"heft"``
    (the THW02-style heterogeneous list scheduler).

    ``workers`` fans the portfolio race out across processes via
    :func:`repro.engine.pmap` (0 = serial, the default; results are
    identical at any worker count).  It only affects the
    ``"portfolio"`` algorithm; the paper algorithms run serially.

    ``budget`` caps the anytime search when the portfolio runs
    (``algorithm="portfolio"`` or ``strategy="portfolio"``): its
    evaluation allowance (deterministic, the default kind — see
    :class:`repro.engine.Budget`) and/or wall-clock allowance replace
    the portfolio's built-in defaults.  The paper-path algorithms are
    exact dynamic programs with no anytime knob, so ``budget`` is
    ignored there; the serve layer attaches one per request regardless,
    which then binds exactly when the portfolio is selected.

    Per-phase wall times are always recorded in the result's
    ``timings``; under an enabled ambient :class:`~repro.obs.Tracer`
    the result additionally carries the run's root span (``trace``) and
    the tracer's metrics registry (``metrics``).

    Raises
    ------
    InfeasibleError
        When no assignment meets ``deadline``.
    ReproError
        On an unknown ``algorithm`` or ``scheduler`` name.
    """
    dag = dfg.dag()
    if strategy not in ("paper", "portfolio"):
        raise ReproError(
            f"unknown strategy {strategy!r}; choose 'paper' or 'portfolio'"
        )
    if strategy == "portfolio":
        if algorithm is not None and algorithm != "portfolio":
            raise ReproError(
                "strategy='portfolio' conflicts with an explicit "
                f"algorithm={algorithm!r}; pass one or the other"
            )
        algorithm = "portfolio"
    name = algorithm or auto_algorithm(dag)
    try:
        algo = ALGORITHMS[name]
    except KeyError:
        raise ReproError(
            f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}"
        ) from None

    tracer = current_tracer()
    timings: Dict[str, float] = {}
    t_total = perf_counter()
    with tracer.span(
        "synthesize",
        graph=dfg.name,
        deadline=deadline,
        algorithm=name,
        scheduler=scheduler,
    ) as root:
        t0 = perf_counter()
        with tracer.span("assign", algorithm=name, nodes=len(dag)):
            if name == "portfolio" and (budget is not None or workers):
                kwargs: Dict[str, Any] = {"workers": workers}
                if budget is not None and budget.evaluations is not None:
                    kwargs["evaluations"] = budget.evaluations
                if budget is not None and budget.wall_s is not None:
                    kwargs["wall_s"] = budget.wall_s
                assign_result = portfolio_assign(
                    dag, table, deadline, **kwargs
                ).best
            else:
                assign_result = algo(dag, table, deadline)
        timings["assign"] = perf_counter() - t0
        lower, schedule = run_phase2(
            dag,
            table,
            assign_result.assignment,
            deadline,
            scheduler=scheduler,
            timings=timings,
        )
        if tracer.enabled:
            root.attributes["cost"] = assign_result.cost
    timings["total"] = perf_counter() - t_total

    return SynthesisResult(
        assign_result=assign_result,
        schedule=schedule,
        configuration=schedule.configuration,
        lower_bound=lower,
        timings=timings,
        trace=root if tracer.enabled else None,
        metrics=tracer.metrics if tracer.enabled else None,
    )
