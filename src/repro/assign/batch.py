"""Batched `DFG_Assign_Repeat` over stacked lanes.

Deadline sweeps (`dfg_frontier`), the report tables' constraint
ladders and the serve layer's cache misses each solve many
(graph, table, deadline) instances.  Each of those instances is the *same* pin-round trajectory over the same (or a
structurally identical) expansion tree — exactly the shape
:class:`~repro.engine.batch.BatchedTreeDP` vectorizes.  This module
compiles a batch of instances into array-pure *group bundles* (one per
distinct graph structure), replays the `_repeat_rounds` trajectory in
lockstep across every lane of a group, and materializes per-lane
:class:`~repro.assign.result.AssignResult`\\ s that are bit-identical
to the scalar path:

* the round-0 resolution equals `DFG_Assign_Once`'s;
* every pin round chooses the same ``(time, cost, type)``-lexicographic
  minimum copy assignment, mints the same ``("fixed", base, k)``
  version tokens, and re-resolves against the pristine base table;
* costs are the same sequential ``dfg.nodes()``-ordered float sums,
  completions the same integer longest paths, tie-breaks
  (``cost <= best``: latest minimal round wins) identical;
* per-lane :class:`DPStats` equal a dedicated scalar engine driven
  through the same solve (see :mod:`repro.engine.batch` for the exact
  contract), and error strings match the scalar ones.

``workers`` fans lane chunks out through :func:`~repro.engine.pmap`;
bundles being plain arrays, the payload ships through a
:class:`~repro.engine.arena.TableArena` (shared memory, degrade to
pickle) and no graph or table object ever crosses the process
boundary.  Results are independent of ``workers`` and of ``arena``.

Entry point: :func:`dfg_assign_repeat_batch` (independent jobs,
per-job error capture).  Every many-lane caller goes through it:
`dfg_frontier` (one graph, every deadline of the sweep a lane), the
report sweeps, and the serve layer's cache misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..engine import DPStats, PackedForest, pmap
from ..engine.arena import TableArena, payload_refs, resolve_payload
from ..engine.batch import BatchedTreeDP, ForestShape
from ..errors import GraphError, InfeasibleError, ReproError
from ..fu.table import TimeCostTable
from ..graph.dag import require_acyclic, reverse_topological_order
from ..graph.dfg import DFG, Node
from ..obs import add_metric, current_tracer
from .assignment import Assignment
from .dfg_assign import choose_expansion
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


def _compile_structure(dfg: DFG, expansion: Any) -> Dict[str, Any]:
    """Array-pure view of one graph structure (shared by its lanes).

    Everything the lockstep solver needs about the graph — the packed
    expansion forest, the copy lists, the pin order, the resolve and
    cost/completion index structures — as numpy arrays over *row*
    indices (row ``r`` = original node ``rows[r]``), plus the row↔node
    lists used parent-side to materialize results.
    """
    pack = PackedForest(expansion.tree, node_key=expansion.origin_of)
    shape = ForestShape.from_pack(pack)
    rows: List[Node] = list(pack.rows)
    row_index = {key: r for r, key in enumerate(rows)}
    nr = len(rows)

    cop_off = np.zeros(nr + 1, dtype=np.int64)
    cop_idx_parts: List[int] = []
    for r, key in enumerate(rows):
        copies = expansion.copies[key]
        cop_idx_parts.extend(pack.index[c] for c in copies)
        cop_off[r + 1] = len(cop_idx_parts)
    cop_idx = np.asarray(cop_idx_parts, dtype=np.int64)
    counts = np.diff(cop_off)
    singles = np.flatnonzero(counts == 1)
    singles_node = cop_idx[cop_off[singles]] if singles.size else singles
    multis = np.flatnonzero(counts > 1)

    order_rows = np.asarray(
        [row_index[v] for v in expansion.duplicated_originals()],
        dtype=np.int64,
    )
    nodes_perm = np.asarray(
        [row_index[n] for n in dfg.nodes()], dtype=np.int64
    )
    rev_topo = np.asarray(
        [row_index[n] for n in reverse_topological_order(dfg)],
        dtype=np.int64,
    )
    child_off = np.zeros(nr + 1, dtype=np.int64)
    child_parts: List[int] = []
    for r, key in enumerate(rows):
        child_parts.extend(row_index[c] for c in dfg.children(key))
        child_off[r + 1] = len(child_parts)
    arrays: Dict[str, np.ndarray] = {
        "cop_off": cop_off,
        "cop_idx": cop_idx,
        "singles": singles,
        "singles_node": np.asarray(singles_node, dtype=np.int64),
        "multis": multis,
        "order_rows": order_rows,
        "nodes_perm": nodes_perm,
        "rev_topo": rev_topo,
        "dfg_child_off": child_off,
        "dfg_child_idx": np.asarray(child_parts, dtype=np.int64),
        "dfg_roots": np.asarray(
            [row_index[n] for n in dfg.roots()], dtype=np.int64
        ),
    }
    arrays.update(
        {f"shape_{k}": v for k, v in shape.defining_arrays().items()}
    )
    return {"arrays": arrays, "rows": rows, "tree_name": expansion.tree.name}


def _table_rows(
    table: TimeCostTable, rows: Sequence[Node]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(times, costs)`` matrices of ``table`` in row order."""
    m = table.num_types
    t = np.empty((len(rows), m), dtype=np.int64)
    c = np.empty((len(rows), m), dtype=np.float64)
    for r, key in enumerate(rows):
        t[r] = table.times(key)
        c[r] = table.costs(key)
    return t, c


def _shape_from_bundle(arrays: Dict[str, np.ndarray]) -> ForestShape:
    return ForestShape.from_arrays(
        {
            k[len("shape_") :]: v
            for k, v in arrays.items()
            if k.startswith("shape_")
        }
    )


# ---------------------------------------------------------------------------
# The lockstep solver


def _lex_min_k(
    t_mat: np.ndarray, c_mat: np.ndarray, k_mat: np.ndarray
) -> np.ndarray:
    """Lexicographic ``(time, cost, type)`` minimum over the last axis.

    Equals ``min((t[k], c[k], k) for k in row)`` per row of copies —
    the scalar `_min_time_choice` tie-break.  The masked equality
    compares a value against the exact minimum just reduced from the
    same array, so the float comparison is exact by construction.
    """
    tmin = t_mat.min(axis=-1, keepdims=True)
    mask = t_mat == tmin
    c_masked = np.where(mask, c_mat, np.inf)
    cmin = c_masked.min(axis=-1, keepdims=True)
    mask &= c_masked == cmin
    k_masked = np.where(mask, k_mat, np.iinfo(np.int64).max)
    return np.asarray(k_masked.min(axis=-1), dtype=np.int64)


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
    arrays: Dict[str, np.ndarray], meta: Dict[str, Any]
) -> Dict[str, Any]:
    """Replay `_repeat_rounds` in lockstep over one group's lanes.

    ``arrays`` is a compiled structure bundle (see
    :func:`_compile_structure`) plus per-lane base table matrices
    ``base_t_{i}``/``base_c_{i}``; ``meta`` carries ``deadlines``,
    ``names`` and ``lanes`` (caller-side lane ids, returned verbatim).
    Returns plain per-lane payloads — best/once choice rows, costs,
    completions, error tuples, stats dicts — for the caller to
    materialize; nothing graph- or table-shaped crosses the boundary.
    """
    shape = _shape_from_bundle(arrays)
    deadlines: List[int] = list(meta["deadlines"])
    names: List[str] = list(meta["names"])
    nl = len(deadlines)
    nr = shape.n_rows
    base_t = [arrays[f"base_t_{i}"] for i in range(nl)]
    base_c = [arrays[f"base_c_{i}"] for i in range(nl)]

    stats = [DPStats() for _ in range(nl)]
    engine = BatchedTreeDP(
        [shape] * nl, deadlines, names=names, stats=stats
    )
    tokens = list(range(nr))
    for lane in range(nl):
        engine.bind_arrays(lane, base_t[lane], base_c[lane], tokens)
    engine.refresh()

    cop_off, cop_idx = arrays["cop_off"], arrays["cop_idx"]
    singles, singles_node = arrays["singles"], arrays["singles_node"]
    multis = arrays["multis"]
    order_rows = arrays["order_rows"]
    nodes_perm = arrays["nodes_perm"]
    # Stacked per-lane base matrices for vectorized gathers; per-lane
    # views above stay the bind payload (arena-deduped when shared).
    bt = np.stack(base_t) if nl else np.empty((0, nr, 1), dtype=np.int64)
    bc = np.stack(base_c) if nl else np.empty((0, nr, 1), dtype=np.float64)

    errors: List[Optional[Tuple[str, str, Optional[int]]]] = [None] * nl
    trace = np.zeros((nl, shape.n), dtype=np.int64)
    active: List[int] = []
    tb = engine.traceback_all(
        [deadlines[lane] for lane in range(nl)], on_infeasible="mark"
    )
    for lane, res in enumerate(tb):
        if isinstance(res, InfeasibleError):
            errors[lane] = _error_tuple(res)
        else:
            assert isinstance(res, np.ndarray)
            trace[lane] = res
            active.append(lane)

    pinned_k = np.zeros((nl, nr), dtype=np.int64)

    # Copies of every multi-copy row, padded with the row's first copy:
    # a repeated (time, cost, type) triple cannot change the minimum.
    width = int(np.diff(cop_off)[multis].max()) if multis.size else 0
    multi_copies = np.empty((multis.size, width), dtype=np.int64)
    for j, o in enumerate(multis.tolist()):
        copies = cop_idx[cop_off[o] : cop_off[o + 1]]
        multi_copies[j] = copies[0]
        multi_copies[j, : copies.size] = copies
    perm_first = np.zeros(nr + 1, dtype=np.int64)
    perm_first[1:] = nodes_perm + 1  # column 0 holds the 0.0 start

    def resolve_costs(
        lanes: List[int], n_pinned: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(choice rows, costs) of `_resolve` for ``lanes``."""
        la = np.asarray(lanes, dtype=np.int64)
        lane_trace = trace[la]
        out_k = np.zeros((la.size, nr), dtype=np.int64)
        if singles.size:
            out_k[:, singles] = lane_trace[:, singles_node]
        if multis.size:
            ks = lane_trace[:, multi_copies]  # (lanes, multis, width)
            at = (la[:, None, None], multis[None, :, None], ks)
            out_k[:, multis] = _lex_min_k(bt[at], bc[at], ks)
        if n_pinned:
            pins = order_rows[:n_pinned]
            out_k[:, pins] = pinned_k[la][:, pins]
        # Cost sums run in ``dfg.nodes()`` order from 0.0, sequentially
        # (``accumulate``, not the pairwise ``sum``): the scalar float sum.
        vals = np.zeros((la.size, nr + 1), dtype=np.float64)
        vals[:, 1:] = bc[la[:, None], np.arange(nr)[None, :], out_k]
        costs = np.add.accumulate(vals[:, perm_first], axis=1)[:, -1]
        return out_k, costs

    best_k, best_cost = resolve_costs(active, 0)
    once_k = best_k.copy()
    once_cost = best_cost.copy()
    rounds = 0
    for pin_i, v in enumerate(order_rows.tolist()):
        if not active:
            break
        rounds += 1
        la = np.asarray(active, dtype=np.int64)
        copies = cop_idx[cop_off[v] : cop_off[v + 1]]
        ks = trace[la][:, copies]
        # Pin choice reads the *work* table, but row v is unpinned so
        # far, so its work rows equal the base rows exactly.
        pk = _lex_min_k(
            bt[la, v][np.arange(la.size)[:, None], ks],
            bc[la, v][np.arange(la.size)[:, None], ks],
            ks,
        )
        pinned_k[la, v] = pk
        for j, lane in enumerate(active):
            engine.bind_pinned(lane, int(v), int(pk[j]))
        engine.refresh(active)
        active_set = set(active)
        tb = engine.traceback_all(
            [
                deadlines[lane] if lane in active_set else None
                for lane in range(nl)
            ],
            on_infeasible="mark",
        )
        still: List[int] = []
        for lane in active:
            res = tb[lane]
            if isinstance(res, InfeasibleError):
                errors[lane] = _error_tuple(res)
            else:
                assert isinstance(res, np.ndarray)
                trace[lane] = res
                still.append(lane)
        if len(still) != len(active):
            still_set = set(still)
            keep = [j for j, lane in enumerate(active) if lane in still_set]
            best_k, best_cost = best_k[keep], best_cost[keep]
            once_k, once_cost = once_k[keep], once_cost[keep]
        active = still
        if not active:
            break
        cand_k, cand_cost = resolve_costs(active, pin_i + 1)
        upd = cand_cost <= best_cost
        best_k[upd] = cand_k[upd]
        best_cost[upd] = cand_cost[upd]

    def completions(out_k: np.ndarray) -> np.ndarray:
        """Integer longest paths of the chosen assignments (all lanes
        of ``out_k``'s row order = current ``active``)."""
        la = np.asarray(active, dtype=np.int64)
        t_sel = np.take_along_axis(
            bt[la], out_k[:, :, None], axis=2
        )[:, :, 0]
        down = np.zeros((la.size, nr), dtype=np.int64)
        child_off = arrays["dfg_child_off"]
        child_idx = arrays["dfg_child_idx"]
        for r in arrays["rev_topo"].tolist():
            kids = child_idx[child_off[r] : child_off[r + 1]]
            kid_max = down[:, kids].max(axis=1) if kids.size else 0
            down[:, r] = t_sel[:, r] + kid_max
        roots = arrays["dfg_roots"]
        if roots.size == 0:
            return np.zeros(la.size, dtype=np.int64)
        return np.asarray(down[:, roots].max(axis=1), dtype=np.int64)

    out: Dict[str, Any] = {
        "lanes": list(meta["lanes"]),
        "errors": errors,
        "stats": [s.as_dict() for s in stats],
        "rounds": rounds,
        "active": list(active),
    }
    if active:
        out["best_k"] = best_k
        out["best_cost"] = best_cost.tolist()
        out["best_completion"] = completions(best_k).tolist()
        out["once_k"] = once_k
        out["once_cost"] = once_cost.tolist()
        out["once_completion"] = completions(once_k).tolist()
    return out


def _solve_group_payload(item: Dict[str, Any]) -> Dict[str, Any]:
    """`pmap` worker body: resolve arena refs, then solve the chunk."""
    arrays = resolve_payload(item["refs"], item["arrays"])
    return _solve_group(arrays, item["meta"])


# ---------------------------------------------------------------------------
# Result materialization (parent side)


def _result_from_rows(
    rows: Sequence[Node],
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
    mapping = {node: int(choice[r]) for r, node in enumerate(rows)}
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


def _chunk_lanes(n: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous lane ranges, ≈4 chunks per worker (pmap's default)."""
    if workers <= 0 or n <= 1:
        return [(0, n)] if n else []
    size = max(1, -(-n // (4 * workers)))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def _dispatch_groups(
    items: List[Dict[str, Any]], *, workers: int, arena: bool
) -> List[Dict[str, Any]]:
    """Run group chunks serially or via ``pmap`` + shared-memory arena.

    Every item's arrays are pooled into one arena (duplicates stored
    once); the arena is closed after the fan-out returns.  With
    ``workers=0`` the chunks run in-process on the same code path.
    """
    if workers == 0:
        return [_solve_group(item["arrays"], item["meta"]) for item in items]
    pool: Dict[str, np.ndarray] = {}
    for i, item in enumerate(items):
        for k, v in item["arrays"].items():
            pool[f"{i}/{k}"] = v
    shared = TableArena.create(pool) if arena else None
    try:
        payloads: List[Dict[str, Any]] = []
        for i, item in enumerate(items):
            named = {f"{i}/{k}": v for k, v in item["arrays"].items()}
            refs, raw = payload_refs(shared, named)
            payloads.append(
                {
                    "refs": {k.split("/", 1)[1]: r for k, r in refs.items()},
                    "arrays": {k.split("/", 1)[1]: v for k, v in raw.items()},
                    "meta": item["meta"],
                }
            )
        return pmap(
            _solve_group_payload,
            payloads,
            workers=workers,
            label="engine.batch",
        )
    finally:
        if shared is not None:
            shared.close()


# ---------------------------------------------------------------------------
# Public entry points


def dfg_assign_repeat_batch(
    jobs: Sequence[Union[BatchJob, Tuple[DFG, TimeCostTable, int]]],
    *,
    workers: int = 0,
    arena: bool = True,
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
        group_rows: Dict[int, List[Node]] = {}
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
            compiled = _compile_structure(dfg, expansion)
            rows = compiled["rows"]
            group_rows[id(dfg)] = rows
            binds = {}
            by_table: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
            for j, i in enumerate(valid):
                table = jobs_n[i].table
                if id(table) not in by_table:
                    by_table[id(table)] = _table_rows(table, rows)
                binds[f"base_t_{j}"], binds[f"base_c_{j}"] = by_table[id(table)]
            for lo, hi in _chunk_lanes(len(valid), workers):
                arrays = dict(compiled["arrays"])
                for j in range(lo, hi):
                    arrays[f"base_t_{j - lo}"] = binds[f"base_t_{j}"]
                    arrays[f"base_c_{j - lo}"] = binds[f"base_c_{j}"]
                items.append(
                    {
                        "arrays": arrays,
                        "meta": {
                            "deadlines": [
                                jobs_n[i].deadline for i in valid[lo:hi]
                            ],
                            "names": [compiled["tree_name"]] * (hi - lo),
                            "lanes": valid[lo:hi],
                        },
                    }
                )

        results = _dispatch_groups(items, workers=workers, arena=arena)
        for res in results:
            rounds = res.get("rounds", 0)
            if rounds:
                add_metric("engine.batch.rounds", float(rounds))
            active: List[int] = res["active"]
            pos = {lane: j for j, lane in enumerate(active)}
            for slot, i in enumerate(res["lanes"]):
                stats = _stats_from_dict(res["stats"][slot])
                err = res["errors"][slot]
                if err is not None:
                    outcomes[i] = RepeatOutcome(
                        result=None, error=_rebuild_error(err), stats=stats
                    )
                    continue
                job = jobs_n[i]
                rows = group_rows[id(job.dfg)]
                j = pos[slot]
                outcomes[i] = RepeatOutcome(
                    result=_result_from_rows(
                        rows,
                        res["best_k"][j],
                        res["best_cost"][j],
                        res["best_completion"][j],
                        job.deadline,
                        "dfg_assign_repeat",
                    ),
                    error=None,
                    stats=stats,
                    once=_result_from_rows(
                        rows,
                        res["once_k"][j],
                        res["once_cost"][j],
                        res["once_completion"][j],
                        job.deadline,
                        "dfg_assign_once",
                    ),
                )
    final = [o for o in outcomes if o is not None]
    assert len(final) == len(jobs_n), "every job must produce an outcome"
    return final
