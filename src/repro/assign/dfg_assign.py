"""`DFG_Assign_Once` and `DFG_Assign_Repeat` (paper Figs. 11–12).

Both heuristics reduce the general heterogeneous assignment problem to
the tree case:

1. Build two critical-path trees — ``T'`` from the graph and ``T''``
   from its transpose — and keep the smaller one (fewer nodes means
   fewer duplicated decisions, hence results closer to optimal).
2. Run the optimal `Tree_Assign` on the chosen tree.
3. Resolve the copies of each duplicated node back to a single choice.

They differ only in step 3.  **Once** picks, for every duplicated node,
the copy assignment with the minimum execution time (any slower choice
could stretch some path past the deadline; the fastest one provably
cannot, because each tree path already met the deadline with a
greater-or-equal time for that node).  **Repeat** exploits the slack
this creates: it pins duplicated nodes one at a time — most-copied
first, since those touch the most paths — re-running `Tree_Assign`
after each pin so the remaining nodes can spend the freed time on
cheaper types.

On a tree input both heuristics reduce exactly to `Tree_Assign` and are
therefore optimal (no node is duplicated).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..engine import DPStats, PackedTreeDP
from ..errors import GraphError
from ..fu.table import TimeCostTable
from ..graph.classify import expansion_sizes
from ..graph.dag import require_acyclic
from ..graph.dfg import DFG, Node
from ..graph.paths import longest_path_time
from ..obs import add_metric, current_tracer
from .assignment import Assignment
from .dfg_expand import ExpandedTree, dfg_expand
from .result import AssignResult
from .tree_assign import tree_assign

__all__ = [
    "expansion_candidates",
    "choose_expansion",
    "dfg_assign_once",
    "dfg_assign_repeat",
]


#: Fixed metric name per DPStats counter.  A literal table (not an
#: f-string) keeps the metric namespace closed and statically checkable
#: (lintkit RL009); the keys mirror ``DPStats.as_dict()``.
_DP_METRICS: Dict[str, str] = {
    "refreshes": "dp.refreshes",
    "tracebacks": "dp.tracebacks",
    "nodes_visited": "dp.nodes_visited",
    "nodes_recomputed": "dp.nodes_recomputed",
    "cache_hits": "dp.cache_hits",
    "seconds_refresh": "dp.seconds_refresh",
    "seconds_traceback": "dp.seconds_traceback",
}


def _emit_dp_metrics(before: Dict[str, float], stats: DPStats) -> None:
    """Publish ``stats`` deltas since ``before`` as ``dp.*`` counters.

    Called once per public DP entry point (never per refresh), so the
    engine's hot loop carries zero tracing overhead; the ambient
    tracer's counters still end up equal to the ``DPStats`` totals.
    """
    for name, value in stats.as_dict().items():
        delta = value - before.get(name, 0.0)
        if delta:
            add_metric(_DP_METRICS[name], delta)


def expansion_candidates(
    dfg: DFG, node_limit: int = 200_000
) -> Tuple[ExpandedTree, ExpandedTree]:
    """The two critical-path trees of step 1: ``(T', T'')``.

    ``T'`` expands the graph itself (duplicating multi-parent nodes
    bottom-up); ``T''`` expands the transpose (equivalently: duplicates
    multi-*child* nodes of the original top-down).  ``T''`` is returned
    in transpose orientation — its root→leaf paths are the original
    leaf→root paths — which is immaterial for path-time feasibility.
    """
    t_fwd = dfg_expand(dfg, node_limit=node_limit)
    t_rev = dfg_expand(dfg.transpose(), node_limit=node_limit, transposed=True)
    return t_fwd, t_rev


def choose_expansion(dfg: DFG, node_limit: int = 200_000) -> ExpandedTree:
    """The smaller of the two candidate trees (ties favor the forward one).

    :func:`~repro.graph.classify.expansion_sizes` predicts both sizes
    exactly, so only the kept tree is built; ``node_limit`` applies to
    that tree alone.
    """
    forward, reverse = expansion_sizes(dfg)
    if forward <= reverse:
        return dfg_expand(dfg, node_limit=node_limit)
    return dfg_expand(dfg.transpose(), node_limit=node_limit, transposed=True)


def _min_time_choice(
    expansion: ExpandedTree,
    table: TimeCostTable,
    tree_mapping: Dict[Node, int],
    original: Node,
) -> int:
    """Fastest type among a duplicated node's copy assignments.

    Ties broken toward the cheaper cost, then the smaller type index —
    all deterministic.
    """
    best: Optional[Tuple[int, float, int]] = None
    for copy in expansion.copies[original]:
        k = tree_mapping[copy]
        key = (table.time(original, k), table.cost(original, k), k)
        if best is None or key < best:
            best = key
    assert best is not None
    return best[2]


def _resolve(
    dfg: DFG,
    table: TimeCostTable,
    expansion: ExpandedTree,
    tree_mapping: Dict[Node, int],
    pinned: Dict[Node, int],
) -> Assignment:
    """Collapse a tree assignment to the original nodes.

    ``pinned`` overrides (the Repeat fixing record); unpinned originals
    take their single copy's choice, or the min-time choice among
    multiple copies.
    """
    mapping: Dict[Node, int] = {}
    for original in dfg.nodes():
        if original in pinned:
            mapping[original] = pinned[original]
            continue
        copies = expansion.copies[original]
        if len(copies) == 1:
            mapping[original] = tree_mapping[copies[0]]
        else:
            mapping[original] = _min_time_choice(
                expansion, table, tree_mapping, original
            )
    return Assignment.of(mapping)


def _finish(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
    algorithm: str,
) -> AssignResult:
    completion = longest_path_time(dfg, assignment.execution_times(dfg, table))
    if completion > deadline:
        raise GraphError(
            f"{algorithm} produced an infeasible assignment "
            f"({completion} > {deadline}); this indicates a bug"
        )
    return AssignResult(
        assignment=assignment,
        cost=assignment.total_cost(dfg, table),
        completion_time=completion,
        deadline=deadline,
        algorithm=algorithm,
    )


def dfg_assign_once(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    expansion: Optional[ExpandedTree] = None,
    node_limit: int = 200_000,
) -> AssignResult:
    """One-shot tree-based heuristic for general DAGs (paper Fig. 11).

    ``expansion`` lets callers (benchmark sweeps, ablations) reuse or
    override the critical-path tree; by default the smaller of the two
    candidates is built fresh.  The single tree solve is one
    `Tree_Assign` recurrence pass.

    Raises :class:`~repro.errors.InfeasibleError` when no assignment
    meets ``deadline`` (propagated from `Tree_Assign` — the tree has
    the same critical paths, so infeasibility transfers exactly).
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    with current_tracer().span(
        "dfg_assign_once", nodes=len(dfg), deadline=deadline
    ):
        if expansion is None:
            expansion = choose_expansion(dfg, node_limit=node_limit)
        tree_result = tree_assign(
            expansion.tree,
            table,
            deadline,
            node_key=expansion.origin_of,
        )
        assignment = _resolve(
            dfg, table, expansion, dict(tree_result.assignment.items()), pinned={}
        )
        return _finish(dfg, table, assignment, deadline, "dfg_assign_once")


def _repeat_rounds(
    dfg: DFG,
    engine: PackedTreeDP,
    table: TimeCostTable,
    deadline: int,
    expansion: ExpandedTree,
    order: List[Node],
) -> Assignment:
    """The Repeat pin loop on the incremental engine.

    Runs the initial DP plus one refresh per pin; each refresh only
    recomputes the pinned copies' root-paths (everything else is a
    curve-cache hit), and each deadline query is an O(n) traceback.
    Returns the cheapest resolved assignment over all rounds (the
    latest minimal-cost round on ties) — the round-0 resolution is
    exactly `DFG_Assign_Once`'s, so Repeat can never end up worse than
    Once on the shared expansion even when a later pin re-optimization
    shifts other duplicated nodes onto costlier copies.
    """
    work_table = table
    engine.refresh(work_table)
    tree_mapping = engine.traceback_at(deadline)
    pinned: Dict[Node, int] = {}
    best = _resolve(dfg, table, expansion, tree_mapping, pinned)
    best_cost = best.total_cost(dfg, table)
    for v in order:
        pinned[v] = _min_time_choice(expansion, work_table, tree_mapping, v)
        work_table = work_table.with_fixed(v, pinned[v])
        engine.refresh(work_table)
        tree_mapping = engine.traceback_at(deadline)
        candidate = _resolve(dfg, table, expansion, tree_mapping, pinned)
        cost = candidate.total_cost(dfg, table)
        if cost <= best_cost:
            best, best_cost = candidate, cost
    return best


def dfg_assign_repeat(
    dfg: DFG,
    table: TimeCostTable,
    deadline: int,
    *,
    expansion: Optional[ExpandedTree] = None,
    node_limit: int = 200_000,
    fix_order: Optional[List[Node]] = None,
    incremental: bool = True,
    stats: Optional[DPStats] = None,
    kernel: str = "packed",
) -> AssignResult:
    """Iterative-pinning heuristic for general DAGs (paper Fig. 12).

    After the initial `Tree_Assign`, duplicated nodes are pinned one at
    a time to their min-time copy assignment, re-running `Tree_Assign`
    on a table whose pinned rows collapse to the chosen option.  Each
    round's tree solution is resolved against the original table, and
    the cheapest resolution over all rounds wins (the latest round on
    ties).  Round 0 is exactly `DFG_Assign_Once`'s resolution, so the
    final cost is never worse than `DFG_Assign_Once` on the same tree
    by construction — an intermediate re-optimization can shift other
    duplicated nodes onto costlier copies, so the last round alone
    carries no such guarantee; the paper (and our benchmarks) show it
    wins on graphs with many duplications.

    ``fix_order`` overrides the pinning order for ablation studies
    (default: most-copied first).  The re-optimizations run on the
    incremental :class:`~repro.engine.PackedTreeDP`, which recomputes
    only the pinned copies' root-paths per round; ``stats`` optionally
    collects its :class:`DPStats`.  ``incremental=False`` runs the
    reference loop instead — a full `Tree_Assign` recurrence every
    round, with an identical result — which tests reach through
    :func:`repro.checkkit.oracles.reference_repeat`.  ``kernel`` is
    accepted and ignored: there is one incremental engine.
    """
    require_acyclic(dfg)
    table.validate_for(dfg)
    tracer = current_tracer()
    with tracer.span(
        "dfg_assign_repeat",
        nodes=len(dfg),
        deadline=deadline,
        incremental=incremental,
    ):
        if expansion is None:
            expansion = choose_expansion(dfg, node_limit=node_limit)

        order = (
            fix_order if fix_order is not None else expansion.duplicated_originals()
        )
        known = set(expansion.copies)
        for v in order:
            if v not in known:
                raise GraphError(f"fix_order names unknown node {v!r}")

        if incremental:
            run_stats = stats
            if run_stats is None and tracer.enabled:
                run_stats = DPStats()
            before = run_stats.as_dict() if run_stats is not None else {}
            engine = PackedTreeDP(
                expansion.tree,
                deadline,
                node_key=expansion.origin_of,
                stats=run_stats,
            )
            assignment = _repeat_rounds(
                dfg, engine, table, deadline, expansion, order
            )
            if tracer.enabled and run_stats is not None:
                _emit_dp_metrics(before, run_stats)
        else:
            # The reference loop (`reference_repeat`): a full
            # `Tree_Assign` recurrence every round, so equivalence tests
            # compare the engine against the original loop.  The
            # best-over-rounds tracking mirrors _repeat_rounds exactly.
            work_table = table
            tree_result = tree_assign(
                expansion.tree,
                work_table,
                deadline,
                node_key=expansion.origin_of,
            )
            tree_mapping = dict(tree_result.assignment.items())
            pinned: Dict[Node, int] = {}
            assignment = _resolve(dfg, table, expansion, tree_mapping, pinned)
            best_cost = assignment.total_cost(dfg, table)
            for v in order:
                pinned[v] = _min_time_choice(
                    expansion, work_table, tree_mapping, v
                )
                work_table = work_table.with_fixed(v, pinned[v])
                tree_result = tree_assign(
                    expansion.tree,
                    work_table,
                    deadline,
                    node_key=expansion.origin_of,
                )
                tree_mapping = dict(tree_result.assignment.items())
                # Costs/times of pinned nodes are identical in
                # ``work_table`` and ``table`` (the pin copied the chosen
                # entry), so resolving against the original table is exact.
                candidate = _resolve(dfg, table, expansion, tree_mapping, pinned)
                cost = candidate.total_cost(dfg, table)
                if cost <= best_cost:
                    assignment, best_cost = candidate, cost

        return _finish(dfg, table, assignment, deadline, "dfg_assign_repeat")
