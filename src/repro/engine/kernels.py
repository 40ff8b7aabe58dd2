"""Vectorized DP kernels: curve primitives + the packed tree engine.

The curve primitives (:func:`zero_curve`, :func:`combine_children`,
:func:`node_step`, ...) live here so every DP path — the `Tree_Assign`
recurrence and :class:`PackedTreeDP` — shares one implementation of
the O(L·M) inner step.  Bit-identity between the paths follows:
the packed engine calls the *same* `node_step` on the same float64
values and sums child/root curves with the same sequential ``+=`` loop
as `combine_children` (numpy pairwise summation would differ in the
last bit), so every curve, choice, cost, and tie-break agrees with the
reference exactly.

A *cost curve* ``D`` has length ``L+1``; ``D[j]`` is the minimum
system cost of some sub-structure under the condition that every path
through it finishes within ``j`` time units (``inf`` = infeasible),
non-increasing in ``j`` by construction.

:func:`window_bounds` is the vectorized core of `Lower_Bound_R`
(paper Fig. 13), shared with :mod:`repro.sched.lower_bound`.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import InfeasibleError, NotATreeError, TableError
from ..fu.table import TimeCostTable
from ..graph.classify import is_out_forest
from ..graph.dfg import DFG, Node
from .pack import NodeKey, PackedForest, RowBinding
from .stats import DPStats

__all__ = [
    "NO_CHOICE",
    "zero_curve",
    "infeasible_curve",
    "combine_children",
    "node_step",
    "first_feasible_budget",
    "window_bounds",
    "PackedTreeDP",
]

#: Type index stored where no FU type is feasible.
NO_CHOICE = -1


def zero_curve(deadline: int) -> np.ndarray:
    """The curve of an empty structure: cost 0 at every budget."""
    if deadline < 0:
        raise TableError(f"deadline must be >= 0, got {deadline}")
    return np.zeros(deadline + 1, dtype=np.float64)


def infeasible_curve(deadline: int) -> np.ndarray:
    """The curve of an impossible structure: ``inf`` everywhere."""
    if deadline < 0:
        raise TableError(f"deadline must be >= 0, got {deadline}")
    return np.full(deadline + 1, np.inf, dtype=np.float64)


def combine_children(
    curves: Sequence[np.ndarray], deadline: Optional[int] = None
) -> np.ndarray:
    """Sum of child curves (parallel composition under a shared budget).

    With zero children this is the zero curve, which requires an
    explicit ``deadline`` (the length cannot be inferred from nothing):
    callers that may legitimately combine an empty family — a forest
    with no roots, i.e. an empty DFG — pass it; omitting it keeps the
    historical contract of raising on an empty sequence.
    """
    if not curves:
        if deadline is None:
            raise TableError("combine_children needs at least one curve")
        return zero_curve(deadline)
    lengths = {len(c) for c in curves}
    if len(lengths) != 1:
        raise TableError(f"curves of differing deadlines: {sorted(lengths)}")
    out = curves[0].astype(np.float64, copy=True)
    for c in curves[1:]:
        out += c
    return out


def node_step(
    child_curve: np.ndarray,
    times: Sequence[int],
    costs: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Absorb a node on top of its (combined) child curve.

    Returns ``(curve, choice)`` where for every budget ``j``::

        curve[j]  = min over types k with t_k <= j of
                    child_curve[j - t_k] + c_k
        choice[j] = the minimizing k, or NO_CHOICE if none is feasible

    Ties are broken toward the smallest type index, which makes every
    algorithm in this package deterministic.
    """
    t = np.asarray(times, dtype=np.int64)
    c = np.asarray(costs, dtype=np.float64)
    if t.shape != c.shape or t.ndim != 1 or t.size == 0:
        raise TableError(f"bad times/costs shapes: {t.shape} vs {c.shape}")
    if int(t.min()) < 0:
        raise TableError(f"negative execution time in {t}")
    size = len(child_curve)
    # candidate[k, j] = child_curve[j - t_k] + c_k  (inf where j < t_k).
    # Row-at-a-time with `out=` so each row costs one add and no temp;
    # ndarray methods (argmin/any) skip the np.* dispatch wrappers —
    # this is the DP's innermost call, ~30k invocations per sweep.
    candidate = np.empty((t.size, size), dtype=np.float64)
    for k in range(t.size):
        tk = int(t[k])
        if tk < size:
            candidate[k, :tk] = np.inf
            np.add(child_curve[: size - tk], c[k], out=candidate[k, tk:])
        else:
            candidate[k, :] = np.inf
    choice = candidate.argmin(axis=0).astype(np.int16)
    curve = candidate[choice, np.arange(size)]
    choice[~np.isfinite(curve)] = NO_CHOICE
    return curve, choice


def first_feasible_budget(curve: np.ndarray) -> int:
    """Smallest ``j`` with a finite cost, or -1 if fully infeasible.

    Because curves are non-increasing, this is the minimum completion
    time of the structure the curve describes.
    """
    finite = np.isfinite(curve)
    if not finite.any():
        return -1
    return int(np.argmax(finite))


def window_bounds(occ_asap: np.ndarray, occ_alap: np.ndarray) -> np.ndarray:
    """Per-type FU lower bounds from ASAP/ALAP occupancy matrices.

    For each type row: the ALAP schedule forces ``prefix[w]`` units of
    work into the first ``w`` steps (it cannot move later), the ASAP
    schedule forces ``suffix[w]`` units into the last ``w`` (it cannot
    move earlier), and either way at least ``ceil(work / w)`` instances
    are needed.  Vectorized over the ``(type, window)`` plane; the
    integer math matches the per-type python loop it replaced exactly
    (same divisions, same ``ceil``, same ``max``).
    """
    if occ_asap.shape != occ_alap.shape or occ_asap.ndim != 2:
        raise TableError(
            f"occupancy shapes differ: {occ_asap.shape} vs {occ_alap.shape}"
        )
    m, horizon = occ_asap.shape
    if horizon == 0:
        return np.zeros(m, dtype=np.int64)
    windows = np.arange(1, horizon + 1, dtype=np.float64)
    lb_alap = np.ceil(np.cumsum(occ_alap, axis=1) / windows).max(axis=1)
    lb_asap = np.ceil(np.cumsum(occ_asap[:, ::-1], axis=1) / windows).max(axis=1)
    return np.maximum(lb_alap, lb_asap).astype(np.int64)


class PackedTreeDP:
    """Packed-kernel `Tree_Assign` DP over a fixed out-forest.

    The incremental engine behind `dfg_assign_repeat`.  The tree is
    fixed at construction; the *table* varies across :meth:`refresh`
    calls (typically a base table and its ``with_fixed`` derivatives).
    After a refresh, :meth:`traceback_at` answers any budget
    ``j ≤ deadline`` with exactly the assignment `tree_assign` would
    produce at that deadline, because a curve computed at deadline
    ``L`` is prefix-identical to the curve of a fresh DP at ``j``.
    The per-node python loops are array passes over a
    :class:`~repro.engine.pack.PackedForest`:

    * ``refresh`` diffs interned row-version ids against the previous
      bind, marks only the changed rows' nodes plus their root-paths
      dirty (unique parents make the walk O(path)), and recomputes just
      the dirty cache misses; clean nodes keep their dense curve rows
      and count as cache hits.  The cache is keyed by subtree state
      (row version + children's state ids), and ``with_fixed`` mints
      content-stable version tokens, so re-deriving the same pin hits;
    * ``traceback_at`` walks the BFS levels top-down, resolving every
      node of a level with one fancy-indexed gather and scattering the
      remaining budgets to the next level via ``np.repeat``.

    Bit-identity with the `Tree_Assign` recurrence and the
    ``incremental=False`` reference loop is pinned by
    ``tests/properties/test_prop_engine.py`` and gated in
    ``benchmarks/bench_engine.py``.
    """

    def __init__(
        self,
        tree: DFG,
        deadline: int,
        node_key: Optional[NodeKey] = None,
        stats: Optional[DPStats] = None,
    ):
        if len(tree) and not is_out_forest(tree):
            raise NotATreeError(
                f"{tree.name!r} is not an out-forest; PackedTreeDP "
                "requires the DFG_Expand shape (transpose in-forests first)"
            )
        if deadline < 0:
            raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
        self._tree = tree
        self._deadline = int(deadline)
        self._key: NodeKey = node_key or (lambda n: n)
        self._pack = PackedForest(tree, node_key=self._key)
        self._binding = RowBinding(self._pack)
        self.stats = stats if stats is not None else DPStats()
        n = self._pack.n
        size = self._deadline + 1
        self._curves = np.zeros((n, size), dtype=np.float64)
        self._choices = np.full((n, size), NO_CHOICE, dtype=np.int16)
        # Per node: intern table of subtree-state keys -> small id, and
        # the curve cache keyed by that id.
        self._sids: List[Dict[Tuple[object, ...], int]] = [{} for _ in range(n)]
        self._cache: List[Dict[int, Tuple[np.ndarray, np.ndarray]]] = [
            {} for _ in range(n)
        ]
        #: sid currently materialized in the dense rows; None = invalid.
        self._cur_sid: Optional[List[int]] = None
        self._table: Optional[TimeCostTable] = None
        self._total: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def tree(self) -> DFG:
        return self._tree

    @property
    def deadline(self) -> int:
        return self._deadline

    @property
    def pack(self) -> PackedForest:
        """The compiled CSR view (shared, read-only by convention)."""
        return self._pack

    def cache_entries(self) -> int:
        """Total cached (node, subtree-state) curve entries."""
        return sum(len(c) for c in self._cache)

    def clear_cache(self) -> None:
        """Drop every cached curve (the next refresh recomputes all)."""
        for sids in self._sids:
            sids.clear()
        for cache in self._cache:
            cache.clear()
        self._cur_sid = None
        self._binding.reset()

    # ------------------------------------------------------------------
    def _dirty_nodes(self, changed_rows: np.ndarray) -> List[int]:
        """Changed rows' nodes plus their ancestor chains, ascending."""
        pack = self._pack
        if self._cur_sid is None:
            return list(range(pack.n))
        if changed_rows.size == 0:
            return []
        mark = np.isin(pack.row_of, changed_rows)
        parent = pack.parent
        for i in np.flatnonzero(mark).tolist():
            p = int(parent[i])
            while p >= 0 and not mark[p]:
                mark[p] = True
                p = int(parent[p])
        return np.flatnonzero(mark).tolist()

    def refresh(self, table: TimeCostTable) -> "PackedTreeDP":
        """(Re)compute the DP under ``table``, reusing cached subtrees.

        A node is recomputed only when its own row version or any
        descendant's changed since the state was last seen — for a
        ``with_fixed`` pin this is the pinned copies plus their
        root-paths.  Returns ``self`` for chaining.
        """
        t0 = time.perf_counter()
        self.stats.refreshes += 1
        pack = self._pack
        changed = self._binding.bind(table)
        dirty = self._dirty_nodes(changed)
        rv = self._binding.rv
        times = self._binding.times
        costs = self._binding.costs
        assert rv is not None and times is not None and costs is not None
        if self._cur_sid is None:
            self._cur_sid = [-1] * pack.n
        cur_sid = self._cur_sid
        curves, choices = self._curves, self._choices
        children = pack.children_tuples
        # Hoisted python-side lookups: one vectorized rv gather plus
        # plain-int row ids beat per-node numpy scalar indexing in what
        # is the engine's hottest python loop.
        row_list = pack.row_of.tolist()
        rv_node = rv[pack.row_of].tolist()
        sids_all, cache_all = self._sids, self._cache
        recomputed = 0
        for i in dirty:
            kids = children[i]
            state: Tuple[object, ...] = (
                rv_node[i],
                tuple([cur_sid[c] for c in kids]),
            )
            sids = sids_all[i]
            sid = sids.get(state)
            if sid is None:
                sid = sids[state] = len(sids)
            if sid == cur_sid[i]:
                continue  # dense row already holds this state's curve
            cur_sid[i] = sid
            entry = cache_all[i].get(sid)
            if entry is None:
                if kids:
                    base = curves[kids[0]].copy()
                    for c in kids[1:]:
                        base += curves[c]
                else:
                    base = zero_curve(self._deadline)
                ri = row_list[i]
                entry = node_step(base, times[ri], costs[ri])
                cache_all[i][sid] = entry
                recomputed += 1
            curves[i] = entry[0]
            choices[i] = entry[1]
        if dirty or self._total is None:
            roots = pack.roots
            if roots.size:
                total = curves[roots[0]].copy()
                for r in roots[1:].tolist():
                    total += curves[r]
            else:
                total = zero_curve(self._deadline)
            self._total = total
        self._table = table
        self.stats.nodes_visited += pack.n
        self.stats.nodes_recomputed += recomputed
        self.stats.cache_hits += pack.n - recomputed
        self.stats.seconds_refresh += time.perf_counter() - t0
        return self

    # ------------------------------------------------------------------
    def _require_refreshed(self) -> TimeCostTable:
        if self._table is None:
            raise InfeasibleError(
                "PackedTreeDP.refresh(table) must run before queries"
            )
        return self._table

    def total_curve(self) -> np.ndarray:
        """The forest curve ``D[0..deadline]`` of the latest refresh."""
        self._require_refreshed()
        assert self._total is not None
        return self._total

    def min_feasible(self) -> int:
        """Smallest feasible budget of the latest refresh (-1 if none)."""
        return first_feasible_budget(self.total_curve())

    def curve(self, node: Node) -> np.ndarray:
        """The subtree curve of ``node`` from the latest refresh."""
        self._require_refreshed()
        return self._curves[self._pack.index[node]]

    def _raise_infeasible(self, budget: int) -> None:
        from ..graph.paths import longest_path_time

        table, key, tree = self._table, self._key, self._tree
        assert table is not None
        min_time = longest_path_time(
            tree, {n: table.min_time(key(n)) for n in tree}
        )
        raise InfeasibleError(
            f"no assignment of {tree.name!r} completes within {budget} "
            f"(minimum possible is {min_time})",
            min_feasible=min_time,
        )

    def traceback_at(self, budget: int) -> Dict[Node, int]:
        """Optimal tree assignment for any ``budget ≤ deadline``.

        Level-vectorized top-down pass over the cached dense curves;
        the result is identical to a fresh ``tree_assign`` run at
        ``budget`` (curves are prefix-identical across deadlines).

        Raises :class:`InfeasibleError` when no assignment meets
        ``budget``, with the same diagnostics `tree_assign` attaches.
        """
        self._require_refreshed()
        if not 0 <= budget <= self._deadline:
            raise InfeasibleError(
                f"budget {budget} outside the engine's range [0, {self._deadline}]"
            )
        t0 = time.perf_counter()
        self.stats.tracebacks += 1
        assert self._total is not None
        if not np.isfinite(self._total[budget]):
            self._raise_infeasible(budget)
        pack = self._pack
        times = self._binding.times
        assert times is not None
        budgets = np.zeros(pack.n, dtype=np.int64)
        ks = np.zeros(pack.n, dtype=np.int64)
        if pack.roots.size:
            budgets[pack.roots] = budget
        for lvl, kids, lvl_rows, lvl_counts in zip(
            pack.levels, pack.level_children, pack.level_rows, pack.level_counts
        ):
            b = budgets[lvl]
            k = self._choices[lvl, b]
            # valid choices are >= 0, so min == NO_CHOICE detects a hole
            # with a single reduction (no bool temp per level).
            assert int(k.min()) != NO_CHOICE, (
                "traceback hit infeasible cell at "
                f"{pack.nodes[int(lvl[int(np.argmax(k == NO_CHOICE))])]!r}"
            )
            ks[lvl] = k
            if kids.size:
                rem = b - times[lvl_rows, k]
                budgets[kids] = np.repeat(rem, lvl_counts)
        mapping: Dict[Node, int] = dict(zip(pack.nodes, ks.tolist()))
        self.stats.seconds_traceback += time.perf_counter() - t0
        return mapping
