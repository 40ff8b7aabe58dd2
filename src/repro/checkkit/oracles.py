"""Differential oracle registry.

Every cross-algorithm consistency relation this reproduction relies on
lives here as a named :class:`Oracle` — the machine version of "did
everything agree where theory says it must".  :func:`run_oracles`
evaluates a chain of oracles over one instance, sharing the expensive
intermediates (the algorithm portfolio, the expansion, the schedules)
through a lazy :class:`OracleContext`, and returns a
:class:`Certificate`; the first violated relation raises
:class:`~repro.errors.CheckError` (or the offending check's own
error).

:data:`CERTIFY_CHAIN` is the historical `verify.certify` portfolio
(:mod:`repro.verify` is now a thin facade over it);
:data:`FUZZ_CHAIN` adds the differential oracles that pin the
incremental engine, the batched sweeps and the indexed phase 2 to their
reference implementations.  :func:`reference_repeat` is the single
reference for `dfg_assign_repeat`, :func:`reference_frontier` the
per-deadline reference for `dfg_frontier`, and :func:`reference_phase2`
the node-keyed reference for :func:`repro.synthesis.run_phase2`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..assign import (
    brute_force_assign,
    dfg_assign_once,
    dfg_assign_repeat,
    dfg_frontier,
    downgrade_assign,
    exact_assign,
    greedy_assign,
    path_assign,
    portfolio_assign,
    tree_assign,
    tree_frontier,
)
from ..assign.assignment import Assignment, min_completion_time
from ..assign.dfg_expand import choose_expansion
from ..assign.dfg_expand import ExpandedTree
from ..assign.frontier import FrontierPoint, _knee_points
from ..assign.ilp_model import build_ilp, check_solution
from ..assign.result import AssignResult
from ..engine import window_bounds
from ..errors import CheckError, ReproError, ScheduleError
from ..fu.table import TimeCostTable
from ..graph.classify import is_in_forest, is_out_forest, is_simple_path
from ..graph.dag import topological_order
from ..graph.dfg import DFG, Node
from ..sched import (
    force_directed_schedule,
    lower_bound_configuration,
    min_resource_schedule,
)
from ..sched.schedule import Configuration, Schedule, ScheduledOp
from ..synthesis import run_phase2

__all__ = [
    "BRUTE_FORCE_LIMIT",
    "CERTIFY_CHAIN",
    "FUZZ_CHAIN",
    "Certificate",
    "Oracle",
    "OracleContext",
    "oracle_names",
    "get_oracle",
    "phase2_outcome",
    "reference_frontier",
    "reference_phase2",
    "reference_repeat",
    "run_oracles",
]

#: brute force is only attempted at or below this node count
BRUTE_FORCE_LIMIT = 10

#: cost agreement tolerance between algorithms that must coincide
_ATOL = 1e-9


@dataclass(frozen=True)
class Certificate:
    """Evidence from one oracle-chain run."""

    deadline: int
    costs: Dict[str, float]
    checks: List[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [f"deadline {self.deadline}"]
        for name, cost in sorted(self.costs.items()):
            lines.append(f"  {name:<12} cost {cost:.2f}")
        lines.extend(f"  [ok] {c}" for c in self.checks)
        return "\n".join(lines)


class OracleContext:
    """Lazily-computed shared state for one instance.

    Oracles pull the portfolio results, the shared expansion, and the
    schedules from here, so a chain never recomputes an intermediate
    two oracles both need.  ``brute_force_limit`` lets the fuzz runner
    lower the exhaustive-search cutoff below the certify default.
    """

    def __init__(
        self,
        dfg: DFG,
        table: TimeCostTable,
        deadline: int,
        brute_force_limit: int = BRUTE_FORCE_LIMIT,
    ):
        self.dfg = dfg
        self.table = table
        self.deadline = int(deadline)
        self.brute_force_limit = int(brute_force_limit)
        self._dag: Optional[DFG] = None
        self._expansion: Optional[ExpandedTree] = None
        self._results: Optional[Dict[str, AssignResult]] = None
        self._exact_skip_note: Optional[str] = None
        self._schedules: Optional[Dict[str, Schedule]] = None

    @property
    def dag(self) -> DFG:
        """The zero-delay DAG part (cached)."""
        if self._dag is None:
            self._dag = self.dfg.dag()
        return self._dag

    @property
    def expansion(self) -> ExpandedTree:
        """The shared `DFG_Expand` tree for the heuristic family."""
        if self._expansion is None:
            self._expansion = choose_expansion(self.dag)
        return self._expansion

    @property
    def results(self) -> Dict[str, AssignResult]:
        """The full portfolio on this instance.

        Always contains ``greedy``/``downgrade``/``once``/``repeat``
        and ``exact`` (anytime: only certified when ``optimal`` is
        true); ``path``/``tree`` when the shape admits the structure
        DPs.
        """
        if self._results is None:
            dag = self.dag
            results = {
                "greedy": greedy_assign(dag, self.table, self.deadline),
                "downgrade": downgrade_assign(dag, self.table, self.deadline),
                "once": dfg_assign_once(
                    dag, self.table, self.deadline, expansion=self.expansion
                ),
                "repeat": dfg_assign_repeat(
                    dag, self.table, self.deadline, expansion=self.expansion
                ),
            }
            results["exact"] = exact_assign(dag, self.table, self.deadline)
            if results["exact"].optimal is not True:
                # Branch-and-bound exhausted its budget — the same scale
                # limit the paper reports for the ILP.  The feasible
                # incumbent stays in the portfolio, but optimality
                # relations are skipped; everything else is certified.
                self._exact_skip_note = (
                    "exact search truncated (budget exceeded at this graph "
                    "size, as for the paper's ILP); incumbent kept"
                )
            if is_simple_path(dag):
                results["path"] = path_assign(dag, self.table, self.deadline)
            if is_out_forest(dag) or is_in_forest(dag):
                results["tree"] = tree_assign(dag, self.table, self.deadline)
            self._results = results
        return self._results

    @property
    def exact_skip_note(self) -> Optional[str]:
        """The skip message when branch-and-bound ran out of budget."""
        _ = self.results  # force portfolio evaluation
        return self._exact_skip_note

    @property
    def costs(self) -> Dict[str, float]:
        return {name: result.cost for name, result in self.results.items()}

    @property
    def schedules(self) -> Dict[str, Schedule]:
        """Both phase-2 schedulers on the `repeat` assignment."""
        if self._schedules is None:
            assignment = self.results["repeat"].assignment
            self._schedules = {
                "min_resource": min_resource_schedule(
                    self.dag,
                    self.table,
                    assignment=assignment,
                    deadline=self.deadline,
                ),
                "force_directed": force_directed_schedule(
                    self.dag,
                    self.table,
                    assignment=assignment,
                    deadline=self.deadline,
                ),
            }
        return self._schedules


@dataclass(frozen=True)
class Oracle:
    """One named consistency relation.

    ``applies`` guards shape/size preconditions; ``run`` returns the
    human-readable check lines for the certificate and raises
    :class:`CheckError` on a violation.
    """

    name: str
    description: str
    applies: Callable[[OracleContext], bool]
    run: Callable[[OracleContext], List[str]]


_ORACLES: Dict[str, Oracle] = {}


def _register(
    name: str,
    description: str,
    applies: Optional[Callable[[OracleContext], bool]] = None,
) -> Callable[[Callable[[OracleContext], List[str]]], Callable[[OracleContext], List[str]]]:
    def wrap(
        fn: Callable[[OracleContext], List[str]]
    ) -> Callable[[OracleContext], List[str]]:
        _ORACLES[name] = Oracle(
            name=name,
            description=description,
            applies=applies or (lambda ctx: True),
            run=fn,
        )
        return fn

    return wrap


def oracle_names() -> List[str]:
    """Every registered oracle, in registration (chain) order."""
    return list(_ORACLES)


def get_oracle(name: str) -> Oracle:
    try:
        return _ORACLES[name]
    except KeyError:
        raise CheckError(
            f"unknown oracle {name!r}; available: {sorted(_ORACLES)}"
        ) from None


def _has_exact(ctx: OracleContext) -> bool:
    """The exact search finished and its cost is a certified optimum."""
    exact = ctx.results.get("exact")
    return exact is not None and exact.optimal is True


def _is_forest(ctx: OracleContext) -> bool:
    return is_out_forest(ctx.dag) or is_in_forest(ctx.dag)


# ----------------------------------------------------------------------
# The historical certify portfolio
# ----------------------------------------------------------------------


@_register(
    "portfolio",
    "every algorithm produces a feasible, self-consistent assignment",
)
def _oracle_portfolio(ctx: OracleContext) -> List[str]:
    checks: List[str] = []
    if ctx.exact_skip_note is not None:
        checks.append(ctx.exact_skip_note)
    for result in ctx.results.values():
        result.verify(ctx.dag, ctx.table)
    checks.append(
        f"{len(ctx.results)} algorithms feasible and self-consistent"
    )
    return checks


@_register(
    "brute_force",
    "branch-and-bound equals exhaustive enumeration (small graphs)",
    applies=lambda ctx: _has_exact(ctx) and len(ctx.dag) <= ctx.brute_force_limit,
)
def _oracle_brute_force(ctx: OracleContext) -> List[str]:
    exact_cost = ctx.costs["exact"]
    bf = brute_force_assign(ctx.dag, ctx.table, ctx.deadline)
    if abs(bf.cost - exact_cost) > _ATOL:
        raise CheckError(
            f"branch-and-bound {exact_cost} != brute force {bf.cost}"
        )
    return ["exact == brute force"]


@_register(
    "structure_dp",
    "the path/tree DPs reach the certified optimum",
    applies=lambda ctx: _has_exact(ctx)
    and ("tree" in ctx.results or "path" in ctx.results),
)
def _oracle_structure_dp(ctx: OracleContext) -> List[str]:
    exact_cost = ctx.costs["exact"]
    for name in ("tree", "path"):
        if name in ctx.costs and abs(ctx.costs[name] - exact_cost) > _ATOL:
            raise CheckError(
                f"{name} DP {ctx.costs[name]} != exact {exact_cost}"
            )
    return ["structure DP == exact"]


@_register(
    "tree_optimal",
    "the DAG heuristics reach the tree-DP optimum on forests",
    applies=lambda ctx: "tree" in ctx.results,
)
def _oracle_tree_optimal(ctx: OracleContext) -> List[str]:
    # on trees the heuristics must reach the DP optimum exactly
    for name in ("once", "repeat"):
        if abs(ctx.costs[name] - ctx.costs["tree"]) > _ATOL:
            raise CheckError(
                f"{name} {ctx.costs[name]} != tree optimum {ctx.costs['tree']}"
            )
    return ["heuristics optimal on the tree-shaped instance"]


@_register(
    "ordering",
    "repeat <= once on a shared expansion; no heuristic beats the optimum",
)
def _oracle_ordering(ctx: OracleContext) -> List[str]:
    if _has_exact(ctx):
        exact_cost = ctx.costs["exact"]
        for name in ("greedy", "downgrade", "once", "repeat"):
            if ctx.costs[name] < exact_cost - _ATOL:
                raise CheckError(
                    f"{name} {ctx.costs[name]} beat the optimum {exact_cost}"
                )
    if ctx.costs["repeat"] > ctx.costs["once"] + _ATOL:
        raise CheckError(
            f"repeat {ctx.costs['repeat']} worse than once "
            f"{ctx.costs['once']} on a shared expansion"
        )
    return ["heuristic ordering: repeat <= once; baselines bounded below"]


@_register(
    "ilp",
    "the ILP model accepts every produced assignment at its own cost",
)
def _oracle_ilp(ctx: OracleContext) -> List[str]:
    model = build_ilp(ctx.dag, ctx.table, ctx.deadline)
    for name, result in ctx.results.items():
        objective = check_solution(model, ctx.dag, ctx.table, result.assignment)
        if abs(objective - result.cost) > _ATOL:
            raise CheckError(
                f"ILP objective {objective} != {name} cost {result.cost}"
            )
    return ["every assignment ILP-feasible at its reported cost"]


@_register(
    "schedulers",
    "both schedulers are valid, within deadline, above Lower_Bound_R",
)
def _oracle_schedulers(ctx: OracleContext) -> List[str]:
    assignment = ctx.results["repeat"].assignment
    lb = lower_bound_configuration(ctx.dag, ctx.table, assignment, ctx.deadline)
    for sched_name, schedule in ctx.schedules.items():
        schedule.validate(ctx.dag, ctx.table, assignment)
        if schedule.makespan(ctx.table) > ctx.deadline:
            raise CheckError(f"{sched_name} overran the deadline")
        if not lb.dominates(schedule.configuration):
            raise CheckError(
                f"{sched_name} configuration {schedule.configuration.counts} "
                f"below lower bound {lb.counts}"
            )
    return ["both schedulers valid, within deadline, above Lower_Bound_R"]


@_register(
    "simulation",
    "replaying each schedule computes the reference evaluation's values",
)
def _oracle_simulation(ctx: OracleContext) -> List[str]:
    # Semantic equivalence: replaying each schedule computes exactly the
    # reference evaluation's values on a shared stimulus.
    from ..sim.functional import simulate, simulate_schedule

    assignment = ctx.results["repeat"].assignment
    iterations = 3
    inputs = {n: [1.0, -2.0, 0.5] for n in ctx.dag.roots()}
    reference = simulate(ctx.dag, iterations, inputs=inputs)
    for sched_name, schedule in ctx.schedules.items():
        replay = simulate_schedule(
            ctx.dag, ctx.table, assignment, schedule, iterations, inputs=inputs
        )
        if replay != reference:
            raise CheckError(
                f"{sched_name} schedule computes different values than the "
                "reference evaluation"
            )
    return ["schedule replay matches the reference simulation"]


# ----------------------------------------------------------------------
# Differential oracles beyond the certify portfolio (fuzz chain)
# ----------------------------------------------------------------------


def reference_repeat(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    expansion: Optional[ExpandedTree] = None,
    fix_order: Optional[List[Node]] = None,
) -> AssignResult:
    """`dfg_assign_repeat` on the reference loop.

    A full `Tree_Assign` recurrence per pin round instead of the
    incremental engine's cached refreshes.  The default
    ``dfg_assign_repeat`` must equal this exactly: same assignment,
    same cost bit for bit.
    """
    return dfg_assign_repeat(
        dfg,
        table,
        deadline,
        expansion=expansion,
        fix_order=fix_order,
        incremental=False,
    )


class _ReferencePool:
    """FU instances with per-instance free times (reference scheduler)."""

    def __init__(self, counts: Sequence[int]):
        self.free_at: List[List[int]] = [[0] * c for c in counts]

    def acquire(self, fu_type: int, step: int, duration: int) -> Optional[int]:
        units = self.free_at[fu_type]
        for i, free in enumerate(units):
            if free <= step:
                units[i] = step + duration
                return i
        return None

    def grow(self, fu_type: int, step: int, duration: int) -> int:
        self.free_at[fu_type].append(step + duration)
        return len(self.free_at[fu_type]) - 1


def _reference_asap(dfg: DFG, times: Dict[Node, int]) -> Dict[Node, int]:
    start: Dict[Node, int] = {}
    for node in topological_order(dfg):
        parents = dfg.parents(node)
        start[node] = max(start[p] + times[p] for p in parents) if parents else 0
    return start


def _reference_alap(
    dfg: DFG, times: Dict[Node, int], deadline: int
) -> Dict[Node, int]:
    if deadline < 0:
        raise ScheduleError(f"deadline must be >= 0, got {deadline}")
    start: Dict[Node, int] = {}
    for node in reversed(topological_order(dfg)):
        latest_end = min((start[c] for c in dfg.children(node)), default=deadline)
        start[node] = latest_end - times[node]
        if start[node] < 0:
            raise ScheduleError(
                f"deadline {deadline} infeasible: {node!r} would need to "
                f"start at {start[node]}"
            )
    return start


def _reference_occupancy(
    dfg: DFG,
    times: Dict[Node, int],
    type_of: Dict[Node, int],
    starts: Dict[Node, int],
    num_types: int,
    horizon: int,
) -> np.ndarray:
    occ = np.zeros((num_types, horizon), dtype=np.int64)
    for node in dfg.nodes():
        s, t = starts[node], times[node]
        if s < 0 or s + t > horizon:
            raise ScheduleError(
                f"{node!r} occupies [{s}, {s + t}) outside horizon {horizon}"
            )
        occ[type_of[node], s : s + t] += 1
    return occ


def reference_phase2(
    dfg: DFG, table: TimeCostTable, assignment: Assignment, deadline: int
) -> Tuple[Configuration, Schedule]:
    """`Lower_Bound_R` then `Min_R_Scheduling` on node-keyed dicts.

    The paper's phase 2 as first written: each step validates the
    assignment and derives times and ALAP on its own, occupancy is one
    slice-add per node, and the list scheduler keys its heap by node.
    :func:`repro.synthesis.run_phase2` (the indexed implementation)
    must equal this exactly: the same lower bound, the same ops in the
    same order, the same configuration, or the same error type and
    message.
    """
    assignment.validate_for(dfg, table)
    times = assignment.execution_times(dfg, table)
    type_of = {n: assignment[n] for n in dfg.nodes()}
    asap = _reference_asap(dfg, times)
    alap = _reference_alap(dfg, times, deadline)
    bounds = window_bounds(
        _reference_occupancy(dfg, times, type_of, asap, table.num_types, deadline),
        _reference_occupancy(dfg, times, type_of, alap, table.num_types, deadline),
    )
    lower = Configuration.of(bounds)

    pool = _ReferencePool(lower.counts)
    order = topological_order(dfg)
    tie = {n: i for i, n in enumerate(order)}
    unscheduled_parents = {n: len(dfg.parents(n)) for n in order}
    ready_at = {n: 0 for n in order}
    ready: List[Tuple[int, int, Node]] = []
    pending: Dict[int, List[Node]] = {}
    for n in order:
        if unscheduled_parents[n] == 0:
            heapq.heappush(ready, (alap[n], tie[n], n))
    ops: Dict[Node, ScheduledOp] = {}

    def place(node: Node, step: int, force: bool) -> bool:
        j, t = type_of[node], times[node]
        idx = pool.acquire(j, step, t)
        if idx is None:
            if not force:
                return False
            idx = pool.grow(j, step, t)
        ops[node] = ScheduledOp(start=step, fu_type=j, fu_index=idx)
        for c in dfg.children(node):
            ready_at[c] = max(ready_at[c], step + t)
            unscheduled_parents[c] -= 1
            if unscheduled_parents[c] == 0:
                if ready_at[c] <= step:
                    heapq.heappush(ready, (alap[c], tie[c], c))
                else:
                    pending.setdefault(ready_at[c], []).append(c)
        return True

    for step in range(deadline + 1):
        for node in sorted(pending.pop(step, []), key=lambda n: (alap[n], tie[n])):
            heapq.heappush(ready, (alap[node], tie[node], node))
        if len(ops) == len(order):
            break
        while True:
            deferred: List[Tuple[int, int, Node]] = []
            while ready:
                a, t_, node = heapq.heappop(ready)
                if a <= step:
                    place(node, step, force=True)
                else:
                    deferred.append((a, t_, node))
            deferred.sort()
            for a, t_, node in deferred:
                if not place(node, step, force=False):
                    heapq.heappush(ready, (a, t_, node))
            if not ready or ready[0][0] > step:
                break
    if len(ops) != len(order):
        raise CheckError(f"reference scheduler stalled at deadline {deadline}")
    counts = [len(units) for units in pool.free_at]
    return lower, Schedule(
        ops=ops, configuration=Configuration.of(counts), deadline=deadline
    )


def phase2_outcome(
    fn: Callable[[], Tuple[Configuration, Schedule]]
) -> Tuple[object, ...]:
    """What a phase-2 call produced, comparable with ``==``.

    ``("ok", lower bound, ops in insertion order, configuration)`` or
    ``("error", exception type name, message)`` for a
    :class:`~repro.errors.ReproError`.
    """
    try:
        lower, schedule = fn()
    except ReproError as exc:
        return ("error", type(exc).__name__, str(exc))
    return (
        "ok",
        lower.counts,
        list(schedule.ops.items()),
        schedule.configuration.counts,
    )


def reference_frontier(
    dfg: DFG, table: TimeCostTable, *, max_deadline: int
) -> List[FrontierPoint]:
    """`dfg_frontier`'s heuristic sweep as a cold per-deadline loop.

    Runs :func:`reference_repeat` independently at every deadline from
    the floor to ``max_deadline`` on one shared expansion and keeps the
    running-best knees.  The batched `dfg_frontier` must equal this
    exactly.
    """
    floor = min_completion_time(dfg, table)
    expansion = choose_expansion(dfg)
    raw: List[FrontierPoint] = []
    best = float("inf")
    witness: Optional[Assignment] = None
    for deadline in range(floor, max_deadline + 1):
        result = reference_repeat(dfg, table, deadline, expansion=expansion)
        if result.cost < best:
            best, witness = result.cost, result.assignment
        raw.append(FrontierPoint(deadline, float(best), witness))
    return _knee_points(raw)


def _require_identical(
    what: str, engine: AssignResult, reference: AssignResult
) -> None:
    """Bit-identity between an engine result and the reference result."""
    if dict(engine.assignment.items()) != dict(reference.assignment.items()):
        raise CheckError(
            f"{what}: engine assignment differs from the reference "
            f"({dict(engine.assignment.items())} != "
            f"{dict(reference.assignment.items())})"
        )
    if engine.cost != reference.cost:
        raise CheckError(
            f"{what}: engine cost {engine.cost!r} != reference cost "
            f"{reference.cost!r} despite identical assignments"
        )


@_register(
    "reference",
    "the incremental DP engine is bit-identical to the reference loop",
)
def _oracle_reference(ctx: OracleContext) -> List[str]:
    engine = ctx.results["repeat"]
    reference = reference_repeat(
        ctx.dag, ctx.table, ctx.deadline, expansion=ctx.expansion
    )
    _require_identical("dfg_assign_repeat", engine, reference)
    checks = ["incremental engine == reference loop (dfg_assign_repeat)"]
    if _is_forest(ctx):
        for point in tree_frontier(ctx.dag, ctx.table, max_deadline=ctx.deadline):
            solo = tree_assign(ctx.dag, ctx.table, point.deadline)
            drift = abs(point.cost - solo.cost)
            if point.assignment != solo.assignment or drift > _ATOL * max(
                1.0, abs(solo.cost)
            ):
                raise CheckError(
                    f"tree_frontier knee ({point.deadline}, {point.cost}) "
                    f"!= tree_assign at that deadline ({solo.cost})"
                )
        checks.append("tree_frontier knees == tree_assign point solves")
    return checks


@_register(
    "phase2",
    "the indexed phase 2 equals the dict-based reference, errors included",
)
def _oracle_phase2(ctx: OracleContext) -> List[str]:
    assignment = ctx.results["repeat"].assignment
    completion = assignment.completion_time(ctx.dag, ctx.table)
    # the request's deadline, the tightest feasible one, and one step
    # short of it (an ALAP error, or the negative-deadline error)
    for deadline in sorted({ctx.deadline, completion, completion - 1}):
        got = phase2_outcome(
            lambda: run_phase2(ctx.dag, ctx.table, assignment, deadline)
        )
        want = phase2_outcome(
            lambda: reference_phase2(ctx.dag, ctx.table, assignment, deadline)
        )
        if got != want:
            raise CheckError(
                f"phase 2 at deadline {deadline}: indexed {got!r} != "
                f"reference {want!r}"
            )
    return ["indexed phase 2 == dict-based reference (tight and infeasible too)"]


@_register(
    "metaheuristics",
    "the portfolio race never loses to DFG_Assign_Repeat and its gap is sound",
)
def _oracle_metaheuristics(ctx: OracleContext) -> List[str]:
    # A small-budget race keeps fuzz throughput; the anytime contract
    # must hold at every budget, so a tight one is the harsher test.
    race = portfolio_assign(
        ctx.dag,
        ctx.table,
        ctx.deadline,
        evaluations=200,
        seed=2004,
        exact_node_budget=5_000,
    )
    race.best.verify(ctx.dag, ctx.table)
    if race.best.cost > ctx.costs["repeat"] + _ATOL:
        raise CheckError(
            f"portfolio {race.best.cost} worse than repeat "
            f"{ctx.costs['repeat']} despite seeding"
        )
    if race.gap < 0:
        raise CheckError(f"negative optimality gap {race.gap}")
    if race.best.cost < race.lower_bound - _ATOL:
        raise CheckError(
            f"portfolio cost {race.best.cost} beat its own lower bound "
            f"{race.lower_bound}"
        )
    checks = ["portfolio <= repeat; gap sound"]
    if race.certified and race.gap > _ATOL:
        raise CheckError(
            f"certified race reports nonzero gap {race.gap}"
        )
    if _has_exact(ctx):
        if race.best.cost < ctx.costs["exact"] - _ATOL:
            raise CheckError(
                f"portfolio {race.best.cost} beat the certified optimum "
                f"{ctx.costs['exact']}"
            )
        checks.append("portfolio bounded below by the certified optimum")
    return checks


@_register(
    "frontier",
    "batched deadline sweeps equal cold per-deadline re-runs",
)
def _oracle_frontier(ctx: OracleContext) -> List[str]:
    horizon = ctx.deadline
    swept = dfg_frontier(ctx.dag, ctx.table, max_deadline=horizon)
    cold = reference_frontier(ctx.dag, ctx.table, max_deadline=horizon)
    if [tuple(p) for p in swept] != [tuple(p) for p in cold]:
        raise CheckError(
            f"dfg_frontier: batched knees {[tuple(p) for p in swept]} != "
            f"cold knees {[tuple(p) for p in cold]}"
        )
    costs = [p.cost for p in swept]
    if any(b > a for a, b in zip(costs, costs[1:])):
        raise CheckError(f"dfg_frontier costs not non-increasing: {costs}")
    return ["batched sweep == cold sweep; frontier non-increasing"]


#: The `verify.certify` chain — the paper's cross-algorithm relations.
CERTIFY_CHAIN: Tuple[str, ...] = (
    "portfolio",
    "brute_force",
    "structure_dp",
    "tree_optimal",
    "ordering",
    "ilp",
    "schedulers",
    "simulation",
)

#: Everything, including the engine/batched/incremental differentials.
FUZZ_CHAIN: Tuple[str, ...] = CERTIFY_CHAIN + (
    "reference",
    "phase2",
    "frontier",
    "metaheuristics",
)


def run_oracles(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    names: Optional[Sequence[str]] = None,
    brute_force_limit: int = BRUTE_FORCE_LIMIT,
) -> Certificate:
    """Evaluate an oracle chain on one instance.

    ``names`` defaults to :data:`CERTIFY_CHAIN`; oracles whose
    ``applies`` precondition fails are skipped silently (e.g. no brute
    force on large graphs).  Raises :class:`CheckError` (or the
    offending check's own error) on the first violated relation.
    """
    ctx = OracleContext(
        dfg, table, deadline, brute_force_limit=brute_force_limit
    )
    checks: List[str] = []
    for name in names if names is not None else CERTIFY_CHAIN:
        oracle = get_oracle(name)
        if not oracle.applies(ctx):
            continue
        checks.extend(oracle.run(ctx))
    return Certificate(deadline=ctx.deadline, costs=dict(ctx.costs), checks=checks)
