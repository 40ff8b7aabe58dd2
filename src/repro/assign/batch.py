"""`DFG_Assign_Repeat` as lockstep lanes of the tree-DP engine.

Every `DFG_Assign_Repeat` solve runs here.  A single
:func:`~repro.assign.dfg_assign.dfg_assign_repeat` call is one lane;
deadline sweeps (`dfg_frontier`), the report tables' constraint
ladders and the serve layer's cache misses are many (graph, table,
deadline) lanes.  Lanes of one graph follow the *same* pin-round
trajectory over the same expansion tree — exactly the shape
:class:`~repro.engine.batch.BatchedTreeDP` vectorizes.  This module
compiles each distinct graph structure into an array-pure *group
bundle* (its :class:`~repro.engine.batch.ForestShape` included), runs
the pin rounds in lockstep across every lane of a group, and
materializes per-lane :class:`~repro.assign.result.AssignResult`\\ s
equal to the reference loop
(:func:`repro.checkkit.oracles.reference_repeat`):

* the round-0 resolution equals `DFG_Assign_Once`'s;
* every pin round chooses the same ``(time, cost, type)``-lexicographic
  minimum copy assignment, mints the same ``("fixed", base, k)``
  version tokens, and re-resolves against the pristine base table;
* costs are the same sequential ``dfg.nodes()``-ordered float sums,
  completions the same integer longest paths, tie-breaks
  (``cost <= best``: latest minimal round wins) identical;
* a lane's :class:`DPStats` and error strings do not depend on the
  other lanes of its batch.

``workers`` fans lane chunks out through :func:`~repro.engine.pmap`;
bundles hold only arrays and the forest shape, so they are pickled by
value and no graph or table object ever crosses the process boundary.
Results are independent of ``workers``.

Entry point: :func:`dfg_assign_repeat_batch` (independent jobs,
per-job error capture).  Every many-lane caller goes through it:
`dfg_frontier` (one graph, every deadline of the sweep a lane), the
report sweeps, and the serve layer's cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import DPStats, pmap
from ..engine.batch import BatchedTreeDP, compile_forest
from ..errors import GraphError, InfeasibleError, ReproError
from ..fu.table import TimeCostTable
from ..graph.dag import require_acyclic
from ..graph.dfg import DFG, Node
from ..obs import add_metric, current_tracer
from .assignment import Assignment
from .dfg_expand import ExpandedTree, choose_expansion
from .result import AssignResult

__all__ = [
    "BatchJob",
    "RepeatOutcome",
    "dfg_assign_repeat_batch",
]


@dataclass(frozen=True)
class BatchJob:
    """One independent (graph, table, deadline) instance of a batch."""

    dfg: DFG
    table: TimeCostTable
    deadline: int


@dataclass(frozen=True)
class RepeatOutcome:
    """Per-job result of :func:`dfg_assign_repeat_batch`.

    Exactly one of ``result``/``error`` is set; ``once`` carries the
    round-0 (`DFG_Assign_Once`-equal) result whenever ``result`` is
    set.  ``stats`` holds the lane's engine counters (zeroed for jobs
    that failed validation before reaching the engine).
    """

    result: Optional[AssignResult]
    error: Optional[ReproError]
    stats: DPStats
    once: Optional[AssignResult] = None


# ---------------------------------------------------------------------------
# Bundle compilation: graphs/tables -> plain arrays


def _compile_structure(
    dfg: DFG, expansion: ExpandedTree, order: Sequence[Node]
) -> Dict[str, Any]:
    """Array-pure view of one graph structure (shared by its lanes).

    Everything the lockstep solver needs about the graph — the compiled
    expansion forest (which also gives the completion times), the copy
    lists, the pin ``order`` and the resolve and cost index structures —
    as numpy arrays over *row* indices (row ``r`` = original node
    ``rows[r]``), plus the row↔node lists used parent-side to
    materialize results.
    """
    shape, nodes, rows = compile_forest(expansion.tree, expansion.origin_of)
    index = {n: i for i, n in enumerate(nodes)}
    row_index = {key: r for r, key in enumerate(rows)}
    nr = len(rows)

    copies = [[index[c] for c in expansion.copies[key]] for key in rows]
    cop_off = [0]
    for c in copies:
        cop_off.append(cop_off[-1] + len(c))
    singles = [r for r, c in enumerate(copies) if len(c) == 1]
    multis = [r for r, c in enumerate(copies) if len(c) > 1]
    # Copies of every multi-copy row, padded with the row's first copy:
    # a repeated (time, cost, type) triple cannot change the minimum.
    width = max([len(copies[r]) for r in multis], default=0)
    multi_copies = [
        copies[r] + [copies[r][0]] * (width - len(copies[r])) for r in multis
    ]
    nodes_perm = [row_index[n] for n in dfg.nodes()]

    def ints(values: Any) -> np.ndarray:
        return np.asarray(values, dtype=np.int64)

    arrays: Dict[str, Any] = {
        "shape": shape,
        "cop_off": ints(cop_off),
        "cop_idx": ints([i for c in copies for i in c]),
        "singles": ints(singles),
        "singles_node": ints([copies[r][0] for r in singles]),
        "multis": ints(multis),
        "multi_copies": ints(multi_copies).reshape(len(multis), width),
        "order_rows": ints([row_index[v] for v in order]),
        "nodes_perm": ints(nodes_perm),
        # ``nodes_perm`` offset by one: column 0 of the solver's cost
        # matrix holds the 0.0 its cost sums start at.
        "perm_first": ints([0] + [r + 1 for r in nodes_perm]),
    }
    return {"arrays": arrays, "rows": rows, "tree_name": expansion.tree.name}


def _table_rows(
    table: TimeCostTable, rows: Sequence[Node]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, costs)`` matrices of ``table`` in row order."""
    m = table.num_types
    t = np.asarray([table.times(key) for key in rows], dtype=np.int64)
    c = np.asarray([table.costs(key) for key in rows], dtype=np.float64)
    return t.reshape(len(rows), m), c.reshape(len(rows), m)


# ---------------------------------------------------------------------------
# The lockstep solver


def _error_tuple(exc: ReproError) -> Tuple[str, str, Optional[int]]:
    """Picklable ``(type, message, min_feasible)`` for a lane error."""
    return (
        type(exc).__name__,
        str(exc),
        getattr(exc, "min_feasible", None),
    )


def _rebuild_error(spec: Tuple[str, str, Optional[int]]) -> ReproError:
    from .. import errors as errors_mod

    etype, message, min_feasible = spec
    cls = getattr(errors_mod, etype, ReproError)
    if cls is InfeasibleError:
        return InfeasibleError(message, min_feasible=min_feasible)
    exc = cls(message)
    assert isinstance(exc, ReproError)
    return exc


def _solve_group(
    arrays: Dict[str, Any], meta: Dict[str, Any]
) -> Dict[str, Any]:
    """Run the `DFG_Assign_Repeat` pin rounds in lockstep over one
    group's lanes.

    ``arrays`` is a compiled structure bundle (see
    :func:`_compile_structure`) plus per-lane base table matrices
    ``base_t_{i}``/``base_c_{i}``; ``meta`` carries ``deadlines``, the
    tree ``name`` and ``lanes`` (caller-side lane ids, returned
    verbatim).
    Returns plain per-lane payloads — best/once choice rows, costs,
    completions, error tuples, stats dicts — for the caller to
    materialize; nothing graph- or table-shaped crosses the boundary.

    Every step of a round — the pin choice, the pin, the refresh, the
    traceback and the re-resolution — is one set of whole-array calls
    over the round's active lanes; the per-lane arrays (``la``,
    ``trace``, ``best_*``, ``once_*``, ``pinned_k``) stay aligned, and
    shrink together when a lane turns infeasible.
    """
    shape = arrays["shape"]
    deadlines: List[int] = list(meta["deadlines"])
    nl = len(deadlines)
    nr = shape.n_rows
    base_t = [arrays[f"base_t_{i}"] for i in range(nl)]
    base_c = [arrays[f"base_c_{i}"] for i in range(nl)]

    stats = [DPStats() for _ in range(nl)]
    engine = BatchedTreeDP(shape, deadlines, name=meta["name"], stats=stats)
    tokens = list(range(nr))
    for lane in range(nl):
        engine.bind_arrays(lane, base_t[lane], base_c[lane], tokens)
    engine.refresh()

    cop_off, cop_idx = arrays["cop_off"], arrays["cop_idx"]
    singles, singles_node = arrays["singles"], arrays["singles_node"]
    multis = arrays["multis"]
    order_rows = arrays["order_rows"]
    # Stacked per-lane base matrices for vectorized gathers; per-lane
    # views above stay the bind payload.
    bt = np.stack(base_t) if nl else np.empty((0, nr, 1), dtype=np.int64)
    bc = np.stack(base_c) if nl else np.empty((0, nr, 1), dtype=np.float64)
    # The scalar tie-break ``min((t[k], c[k], k) for k in copies)`` as
    # ranks: ``by_rank[lane, row]`` lists the types in (time, cost,
    # type) order and ``rank`` inverts it, so the lexicographic minimum
    # over a row's copies is ``by_rank[rank[copy types].min()]``.  Both
    # read the base table, where an unpinned row still has its values.
    # Only rows with several copies and pinned rows read them.
    by_rank = rank = np.empty((nl, nr, 0), dtype=np.int64)
    if multis.size or order_rows.size:
        type_axis = np.broadcast_to(np.arange(bt.shape[2]), bt.shape)
        by_rank = np.lexsort((type_axis, bc, bt), axis=-1)
        rank = np.argsort(by_rank, axis=-1)

    dl = np.asarray(deadlines, dtype=np.int64)
    errors: List[Optional[Tuple[str, str, Optional[int]]]] = [None] * nl

    def walk(la: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Trace ``la`` back at their deadlines: ``(choices, keep)``,
        recording the error of every infeasible lane."""
        chosen, errs = engine.traceback_lanes(la.tolist(), dl[la].tolist())
        keep = np.ones(la.size, dtype=bool)
        for j, err in enumerate(errs):
            if err is not None:
                errors[int(la[j])] = _error_tuple(err)
                keep[j] = False
        return chosen, keep

    la = np.arange(nl, dtype=np.int64)
    trace, keep = walk(la)
    if not keep.all():
        la, trace = la[keep], trace[keep]
    pinned_k = np.zeros((la.size, nr), dtype=np.int64)

    multi_copies = arrays["multi_copies"]
    perm_first = arrays["perm_first"]
    all_rows = np.arange(nr)[None, :]

    def resolve_costs(
        la: np.ndarray, trace: np.ndarray, n_pinned: int, pinned_k: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(choice rows, costs) of `_resolve` for ``la``."""
        out_k = np.zeros((la.size, nr), dtype=np.int64)
        if singles.size:
            out_k[:, singles] = trace[:, singles_node]
        if multis.size:
            ks = trace[:, multi_copies]  # (lanes, multis, width)
            best = rank[la[:, None, None], multis[None, :, None], ks].min(axis=2)
            out_k[:, multis] = by_rank[la[:, None], multis[None, :], best]
        if n_pinned:
            pins = order_rows[:n_pinned]
            out_k[:, pins] = pinned_k[:, pins]
        # Cost sums run in ``dfg.nodes()`` order from 0.0, sequentially
        # (``accumulate``, not the pairwise ``sum``): the scalar float sum.
        vals = np.zeros((la.size, nr + 1), dtype=np.float64)
        vals[:, 1:] = bc[la[:, None], all_rows, out_k]
        costs = np.add.accumulate(vals[:, perm_first], axis=1)[:, -1]
        return out_k, costs

    best_k, best_cost = resolve_costs(la, trace, 0, pinned_k)
    once_k = best_k.copy()
    once_cost = best_cost.copy()
    rounds = 0
    for pin_i, v in enumerate(order_rows.tolist()):
        if not la.size:
            break
        rounds += 1
        # Pin choice reads the *base* table, where row v still equals
        # its work row: the pin order names each row once
        # (``dfg_assign_repeat`` drops repeats from a ``fix_order``).
        # Pinned by the golden and property tests.
        ks = trace[:, cop_idx[cop_off[v] : cop_off[v + 1]]]
        pk = by_rank[la, v, rank[la[:, None], v, ks].min(axis=1)]
        pinned_k[:, v] = pk
        lanes = la.tolist()
        engine.bind_pins(lanes, v, pk.tolist())
        engine.refresh(lanes)
        trace, keep = walk(la)
        if not keep.all():
            la, trace, pinned_k = la[keep], trace[keep], pinned_k[keep]
            best_k, best_cost = best_k[keep], best_cost[keep]
            once_k, once_cost = once_k[keep], once_cost[keep]
            if not la.size:
                break
        cand_k, cand_cost = resolve_costs(la, trace, pin_i + 1, pinned_k)
        upd = cand_cost <= best_cost
        best_k[upd] = cand_k[upd]
        best_cost[upd] = cand_cost[upd]

    active = la.tolist()
    out: Dict[str, Any] = {
        "lanes": list(meta["lanes"]),
        "errors": errors,
        "stats": [s.as_dict() for s in stats],
        "rounds": rounds,
        "active": active,
    }
    if active:
        # Best and round-0 completions in one longest-path pass over the
        # expansion tree, which holds every path of the graph.
        both_k = np.concatenate([best_k, once_k])
        both_la = np.concatenate([la, la])
        both = shape.longest_paths(
            bt[both_la[:, None], all_rows, both_k]
        ).tolist()
        out["best_k"] = best_k
        out["best_cost"] = best_cost.tolist()
        out["best_completion"] = both[: len(active)]
        out["once_k"] = once_k
        out["once_cost"] = once_cost.tolist()
        out["once_completion"] = both[len(active) :]
    return out


def _solve_group_payload(item: Dict[str, Any]) -> Dict[str, Any]:
    """`pmap` worker body: solve one group chunk."""
    return _solve_group(item["arrays"], item["meta"])


# ---------------------------------------------------------------------------
# Result materialization (parent side)


def _result_from_rows(
    compiled: Dict[str, Any],
    choice: np.ndarray,
    cost: float,
    completion: int,
    deadline: int,
    algorithm: str,
) -> AssignResult:
    if completion > deadline:
        raise GraphError(
            f"{algorithm} produced an infeasible assignment "
            f"({completion} > {deadline}); this indicates a bug"
        )
    # In ``dfg.nodes()`` order, like the reference loop's resolution.
    rows = compiled["rows"]
    mapping = {
        rows[r]: int(choice[r]) for r in compiled["arrays"]["nodes_perm"].tolist()
    }
    return AssignResult(
        assignment=Assignment.of(mapping),
        cost=float(cost),
        completion_time=int(completion),
        deadline=deadline,
        algorithm=algorithm,
    )


def _stats_from_dict(payload: Dict[str, float]) -> DPStats:
    stats = DPStats()
    for name, value in payload.items():
        setattr(
            stats,
            name,
            int(value) if not name.startswith("seconds") else float(value),
        )
    return stats


def _lane_outcomes(
    res: Dict[str, Any], compiled: Dict[str, Any], deadlines: Sequence[int]
) -> List[RepeatOutcome]:
    """The :class:`RepeatOutcome` of every lane of one solved chunk."""
    pos = {lane: j for j, lane in enumerate(res["active"])}
    outcomes: List[RepeatOutcome] = []
    for slot, deadline in enumerate(deadlines):
        stats = _stats_from_dict(res["stats"][slot])
        err = res["errors"][slot]
        if err is not None:
            outcomes.append(
                RepeatOutcome(result=None, error=_rebuild_error(err), stats=stats)
            )
            continue
        j = pos[slot]
        best = _result_from_rows(
            compiled,
            res["best_k"][j],
            res["best_cost"][j],
            res["best_completion"][j],
            deadline,
            "dfg_assign_repeat",
        )
        once = _result_from_rows(
            compiled,
            res["once_k"][j],
            res["once_cost"][j],
            res["once_completion"][j],
            deadline,
            "dfg_assign_once",
        )
        outcomes.append(
            RepeatOutcome(result=best, error=None, stats=stats, once=once)
        )
    return outcomes


def _chunk_lanes(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous lane ranges, ≈4 chunks per worker (pmap's default)."""
    if workers <= 0 or n <= 1:
        return [(0, n)] if n else []
    size = max(1, -(-n // (4 * workers)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _group_items(
    compiled: Dict[str, Any],
    tables: Sequence[TimeCostTable],
    deadlines: Sequence[int],
    lanes: Sequence[int],
    workers: int,
) -> List[Dict[str, Any]]:
    """Solver payloads of one group's lanes, chunked for ``workers``.

    Lanes sharing a table *object* share its row matrices.
    """
    binds: List[Tuple[np.ndarray, np.ndarray]] = []
    by_table: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for table in tables:
        if id(table) not in by_table:
            by_table[id(table)] = _table_rows(table, compiled["rows"])
        binds.append(by_table[id(table)])
    items: List[Dict[str, Any]] = []
    for lo, hi in _chunk_lanes(len(lanes), workers):
        arrays = dict(compiled["arrays"])
        for j in range(lo, hi):
            arrays[f"base_t_{j - lo}"], arrays[f"base_c_{j - lo}"] = binds[j]
        meta = {
            "deadlines": list(deadlines[lo:hi]),
            "name": compiled["tree_name"],
            "lanes": list(lanes[lo:hi]),
        }
        items.append({"arrays": arrays, "meta": meta})
    return items


def _dispatch_groups(
    items: List[Dict[str, Any]], *, workers: int
) -> List[Dict[str, Any]]:
    """Run group chunks in-process, or fan them out through ``pmap``.

    With ``workers>0`` each chunk's arrays are pickled by value.
    """
    if workers == 0:
        return [_solve_group_payload(item) for item in items]
    return pmap(
        _solve_group_payload, items, workers=workers, label="engine.batch"
    )


# ---------------------------------------------------------------------------
# Public entry points


def dfg_assign_repeat_batch(
    jobs: Sequence[Union[BatchJob, Tuple[DFG, TimeCostTable, int]]],
    *,
    workers: int = 0,
    node_limit: int = 200_000,
) -> List[RepeatOutcome]:
    """`DFG_Assign_Repeat` over many independent jobs in one batch.

    Jobs sharing a graph *object* share one expansion, one compiled
    bundle, and one tensor block — the serve layer exploits this by
    grouping cache misses by canonical structure.  Per-job failures
    (cyclic graph, coverage, infeasible deadline) are captured in the
    job's :class:`RepeatOutcome` instead of aborting the batch; each
    lane's result, stats, and error string are bit-identical to a
    scalar ``dfg_assign_repeat(dfg, table, deadline)`` call.
    """
    jobs_n: List[BatchJob] = [
        job if isinstance(job, BatchJob) else BatchJob(*job) for job in jobs
    ]
    outcomes: List[Optional[RepeatOutcome]] = [None] * len(jobs_n)
    groups: Dict[int, List[int]] = {}
    for i, job in enumerate(jobs_n):
        groups.setdefault(id(job.dfg), []).append(i)

    tracer = current_tracer()
    with tracer.span("engine.batch", jobs=len(jobs_n), groups=len(groups)):
        add_metric("engine.batch.lanes", float(len(jobs_n)))
        add_metric("engine.batch.groups", float(len(groups)))
        items: List[Dict[str, Any]] = []
        group_compiled: Dict[int, Dict[str, Any]] = {}
        for indices in groups.values():
            dfg = jobs_n[indices[0]].dfg
            valid: List[int] = []
            for i in indices:
                job = jobs_n[i]
                try:
                    require_acyclic(dfg)
                    job.table.validate_for(dfg)
                    if job.deadline < 0:
                        raise InfeasibleError(
                            f"deadline must be >= 0, got {job.deadline}"
                        )
                except ReproError as exc:
                    outcomes[i] = RepeatOutcome(
                        result=None, error=exc, stats=DPStats()
                    )
                else:
                    valid.append(i)
            if not valid:
                continue
            expansion = choose_expansion(dfg, node_limit=node_limit)
            compiled = _compile_structure(
                dfg, expansion, expansion.duplicated_originals()
            )
            group_compiled[id(dfg)] = compiled
            items.extend(
                _group_items(
                    compiled,
                    [jobs_n[i].table for i in valid],
                    [jobs_n[i].deadline for i in valid],
                    valid,
                    workers,
                )
            )

        results = _dispatch_groups(items, workers=workers)
        for res in results:
            rounds = res.get("rounds", 0)
            if rounds:
                add_metric("engine.batch.rounds", float(rounds))
            lanes: List[int] = res["lanes"]
            compiled = group_compiled[id(jobs_n[lanes[0]].dfg)]
            done = _lane_outcomes(
                res, compiled, [jobs_n[i].deadline for i in lanes]
            )
            for i, outcome in zip(lanes, done):
                outcomes[i] = outcome
    final = [o for o in outcomes if o is not None]
    assert len(final) == len(jobs_n), "every job must produce an outcome"
    return final


def _solve_lane(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    expansion: ExpandedTree,
    order: Sequence[Node],
) -> Tuple[DPStats, Union[AssignResult, ReproError]]:
    """One in-process lane: the engine of a ``dfg_assign_repeat`` call.

    ``order`` is the pin order (a ``fix_order`` or the default
    most-copied-first), each node named once; nothing is validated
    here and no ``engine.batch.*`` metric is emitted.  Returns the
    lane's stats and its result or error.
    """
    compiled = _compile_structure(dfg, expansion, order)
    arrays = dict(compiled["arrays"])
    arrays["base_t_0"], arrays["base_c_0"] = _table_rows(table, compiled["rows"])
    res = _solve_group(
        arrays,
        {"deadlines": [deadline], "name": compiled["tree_name"], "lanes": [0]},
    )
    stats = _stats_from_dict(res["stats"][0])
    if res["errors"][0] is not None:
        return stats, _rebuild_error(res["errors"][0])
    return stats, _result_from_rows(
        compiled,
        res["best_k"][0],
        res["best_cost"][0],
        res["best_completion"][0],
        deadline,
        "dfg_assign_repeat",
    )
