"""The tree-DP engine: one out-forest shape, many stacked lanes.

`Tree_Assign` over a fixed expansion tree is solved here, and only
here.  A *lane* is one (table, deadline) instance of a shared forest
shape: a `DFG_Assign_Repeat` call is one lane, a deadline sweep or a
group of same-structure serve requests is many.  The combine and
node-step passes run over an ``(lane, node, budget)`` tensor in a
handful of numpy calls:

* :func:`compile_forest` — compiles an out-forest once into a
  :class:`ForestShape` plus its node and table-row lists;
* :class:`ForestShape` — the name-free CSR view of one out-forest
  (parent/child arrays, BFS levels, per-node heights, a padded
  children matrix); it pickles by value, so shapes travel to ``pmap``
  workers without any graph object;
* :func:`batched_sweep` — the kernel: children-first combine plus the
  running-min node step for a set of (lane, node) targets, processed
  by height so every pass is one gather/add/where per type;
* :class:`BatchedTreeDP` — the engine: per-lane row bindings (3-D
  time/cost tensors) and :class:`DPStats`, a refresh that recomputes
  exactly each lane's dirty nodes in one :func:`batched_sweep`, and a
  level-vectorized traceback over all lanes at once.

**Bit-identity.** Every float op matches the `Tree_Assign` recurrence
(:mod:`repro.assign.tree_assign`): child curves sum with the same
sequential ``+=`` order as ``combine_children``, the node step adds the
same two operands (``child_curve[j - t_k] + c_k``) as ``node_step`` and
breaks ties toward the smallest type with ``argmin``'s first-occurrence
rule, padded types carry ``time 0 / cost inf`` which can never win, and
padded budgets rely on curves being prefix-identical across deadlines.
A refresh recomputes exactly the nodes of the rows whose version token
changed since the lane's previous refresh, plus their ancestor chains;
pinned rows mint the same ``("fixed", base, k)`` version tokens
``TimeCostTable.with_fixed`` produces.

See ``docs/performance.md`` (The tree-DP engine) for the architecture and
measured numbers; ``tests/engine/test_batch.py``,
``tests/engine/test_kernels.py`` and ``tests/properties/`` pin the
equivalences.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import EngineError, InfeasibleError, NotATreeError, TableError
from ..fu.table import TimeCostTable
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node
from .kernels import NO_CHOICE, dirty_nodes
from .stats import DPStats

__all__ = ["ForestShape", "BatchedTreeDP", "batched_sweep", "compile_forest"]


class ForestShape:
    """Name-free CSR view of one out-forest, shared by many lanes.

    Nodes are numbered children-first (reverse-topological), so every
    child's index is smaller than its parent's.  On top of the CSR
    arrays this precomputes what the kernel needs:

    * ``kids_mat``/``kid_counts`` — an ``(n, max_kids)`` children
      matrix padded with ``-1``, so the combine pass is one gather per
      child position instead of a per-node loop;
    * ``heights``/``by_height`` — leaf distance per node and the node
      sets per height, the sweep's dependency levels (every child of a
      height-``h`` node has height ``< h``);
    * ``levels``/``level_children``/... — the BFS front from the roots
      used by the vectorized traceback: ``level_children[k]`` is the
      concatenation of the children of ``levels[k]`` in CSR order,
      which is exactly ``levels[k + 1]`` — the alignment the
      traceback's ``np.repeat`` scatter relies on.
    """

    __slots__ = (
        "n",
        "n_rows",
        "parent",
        "child_off",
        "child_idx",
        "row_of",
        "roots",
        "kid_counts",
        "kids_mat",
        "heights",
        "by_height",
        "levels",
        "level_children",
        "level_rows",
        "level_counts",
    )

    def __init__(
        self,
        parent: np.ndarray,
        child_off: np.ndarray,
        child_idx: np.ndarray,
        row_of: np.ndarray,
        roots: np.ndarray,
    ):
        self.parent = np.asarray(parent, dtype=np.int64)
        self.child_off = np.asarray(child_off, dtype=np.int64)
        self.child_idx = np.asarray(child_idx, dtype=np.int64)
        self.row_of = np.asarray(row_of, dtype=np.int64)
        self.roots = np.asarray(roots, dtype=np.int64)
        self.n = int(self.parent.size)
        self.n_rows = int(self.row_of.max()) + 1 if self.n else 0

        self.kid_counts = np.diff(self.child_off)
        max_kids = int(self.kid_counts.max()) if self.n else 0
        kids_mat = np.full((self.n, max_kids), -1, dtype=np.int64)
        off_list = self.child_off.tolist()
        for i in range(self.n):
            lo, hi = off_list[i], off_list[i + 1]
            kids_mat[i, : hi - lo] = self.child_idx[lo:hi]
        self.kids_mat = kids_mat

        heights = np.zeros(self.n, dtype=np.int64)
        for i in range(self.n):  # ascending index = children first
            lo, hi = int(self.child_off[i]), int(self.child_off[i + 1])
            if hi > lo:
                heights[i] = 1 + int(heights[self.child_idx[lo:hi]].max())
        self.heights = heights
        hmax = int(heights.max()) + 1 if self.n else 0
        self.by_height = [np.flatnonzero(heights == h) for h in range(hmax)]

        levels: List[np.ndarray] = []
        level_children: List[np.ndarray] = []
        front = self.roots
        while front.size:
            levels.append(front)
            parts = [
                self.child_idx[self.child_off[i] : self.child_off[i + 1]]
                for i in front.tolist()
            ]
            front = (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )
            level_children.append(front)
        self.levels = levels
        self.level_children = level_children
        self.level_rows = [self.row_of[lvl] for lvl in levels]
        self.level_counts = [self.kid_counts[lvl] for lvl in levels]


def compile_forest(
    tree: DFG, node_key: Optional[Callable[[Node], Node]] = None
) -> Tuple[ForestShape, List[Node], List[Node]]:
    """Compile an out-forest into ``(shape, nodes, rows)``.

    ``nodes[i]`` is the tree node numbered ``i`` by the shape;
    ``rows`` are the distinct table-row keys (``node_key(node)``,
    default the node itself) in first-appearance order, so node ``i``
    reads table row ``rows[shape.row_of[i]]``.  Raises
    :class:`~repro.errors.NotATreeError` when a node has several
    parents (transpose in-forests first).
    """
    key = node_key or (lambda n: n)
    nodes: List[Node] = reverse_topological_order(tree)
    index = {n: i for i, n in enumerate(nodes)}
    parent = np.full(len(nodes), -1, dtype=np.int64)
    child_off = [0]
    child_idx: List[int] = []
    row_index: Dict[Node, int] = {}
    row_of: List[int] = []
    for i, node in enumerate(nodes):
        for c in tree.children(node):
            ci = index[c]
            if parent[ci] != -1:
                raise NotATreeError(
                    f"{tree.name!r} is not an out-forest: "
                    f"{c!r} has several parents"
                )
            parent[ci] = i
            child_idx.append(ci)
        child_off.append(len(child_idx))
        row_of.append(row_index.setdefault(key(node), len(row_index)))
    shape = ForestShape(
        parent,
        np.asarray(child_off, dtype=np.int64),
        np.asarray(child_idx, dtype=np.int64),
        np.asarray(row_of, dtype=np.int64),
        np.asarray([index[r] for r in tree.roots()], dtype=np.int64),
    )
    return shape, nodes, list(row_index)


#: Cap on the elements of one ``(targets, types or children, budgets)``
#: block of :func:`batched_sweep`; a larger height pass runs in chunks.
SWEEP_BLOCK = 1 << 20


def batched_sweep(
    shape: ForestShape,
    curves: np.ndarray,
    choices: np.ndarray,
    times: np.ndarray,
    costs: np.ndarray,
    slot_idx: np.ndarray,
    node_idx: np.ndarray,
) -> int:
    """Combine + node-step for the (slot, node) targets, children-first.

    ``curves``/``choices`` are the group's dense ``(lanes, n, budgets)``
    tensors, ``times``/``costs`` the bound ``(lanes, rows, types)``
    tensors.  Targets are processed grouped by node height, so every
    child a target combines is already final (clean, or computed at a
    lower height in an earlier pass); within one height all targets
    are independent.  Returns the number of targets computed.

    Float semantics mirror :func:`~repro.engine.kernels.node_step` and
    ``combine_children`` exactly: child curves accumulate with the same
    sequential ``+=`` (the first child is an assignment, not an add),
    and each type's candidate is the same ``child_curve[j - t_k] + c_k``
    add.  A height pass gathers every child curve at once, then every
    type's shifted curve at once from the combined curves with one
    ``inf`` column prepended (``inf + c_k`` is the ``inf`` of an
    infeasible budget), then takes ``min``/``argmin`` over the type
    axis; ``argmin``'s first-occurrence rule is the smallest-type
    tie-break (tables reject NaN, so no NaN can win it).  Types padded
    with ``time 0 / cost inf`` never win; infeasible budgets come out
    ``inf`` with choice :data:`NO_CHOICE`.
    """
    if node_idx.size == 0:
        return 0
    lanes, n, size = curves.shape
    m = times.shape[2]
    flat_curves = curves.reshape(lanes * n, size)
    # shift[k, j] indexes the inf-padded curve: j - t_k + 1, or 0 (inf).
    budget_axis = np.arange(1, size + 1, dtype=np.int64)
    order = np.argsort(shape.heights[node_idx], kind="stable")
    heights = shape.heights[node_idx][order]
    bounds = np.flatnonzero(np.diff(heights)) + 1
    chunk = max(1, SWEEP_BLOCK // (max(m, shape.kids_mat.shape[1]) * size))
    for part in np.split(order, bounds):
        for lo in range(0, part.size, chunk):
            nodes = node_idx[part[lo : lo + chunk]]
            slots = slot_idx[part[lo : lo + chunk]]
            t_count = nodes.size
            padded = np.zeros((t_count, size + 1), dtype=np.float64)
            padded[:, 0] = np.inf
            kids = shape.kids_mat[nodes]
            if kids.size:
                # Every child curve in one gather; a missing child reads
                # as the zero curve, and ``x + 0.0`` is ``x``, so the sum
                # runs child by child exactly like ``combine_children``.
                gathered = flat_curves[slots[:, None] * n + np.maximum(kids, 0)]
                gathered[kids < 0] = 0.0
                base = padded[:, 1:]
                base[:] = gathered[:, 0]
                for j in range(1, kids.shape[1]):
                    base += gathered[:, j]
            rows = shape.row_of[nodes]
            t = times[slots, rows]
            shift = np.maximum(budget_axis - t[:, :, None], 0)
            shift += (np.arange(t_count, dtype=np.int64) * (size + 1))[
                :, None, None
            ]
            cand = padded.ravel()[shift]
            cand += costs[slots, rows][:, :, None]
            choice = cand.argmin(axis=1).astype(np.int16)
            best = cand.min(axis=1)
            choice[best == np.inf] = NO_CHOICE
            curves[slots, nodes] = best
            choices[slots, nodes] = choice
    return int(node_idx.size)


class BatchedTreeDP:
    """Multi-lane `Tree_Assign` DP over one shared :class:`ForestShape`.

    Each *lane* is one (table, deadline) instance of the shape.  A lane
    is a full incremental engine on its own: the same bind / refresh /
    traceback sequence gives the same curves, choices, dirty sets and
    :class:`DPStats` counters whether it runs alone or next to other
    lanes, while the compute runs batched across lanes via
    :func:`batched_sweep`.

    Binding comes in three forms: :meth:`bind_table` (a
    :class:`~repro.fu.table.TimeCostTable` plus its row keys),
    :meth:`bind_arrays` (pre-extracted matrices + version tokens — the
    worker path, where tables never cross the process boundary), and
    :meth:`bind_pinned` (the ``with_fixed`` pin fast path: O(1) row
    update minting the same ``("fixed", base, k)`` token).  Every lane
    must bind before the first :meth:`refresh`.
    """

    def __init__(
        self,
        shape: ForestShape,
        deadlines: Sequence[int],
        *,
        name: str = "batched",
        stats: Optional[Sequence[Optional[DPStats]]] = None,
    ):
        for d in deadlines:
            if d < 0:
                raise InfeasibleError(f"deadline must be >= 0, got {d}")
        nl = len(deadlines)
        given = list(stats) if stats is not None else [None] * nl
        if len(given) != nl:
            raise EngineError(f"{nl} deadlines but {len(given)} stats slots")
        self.shape = shape
        self.name = name
        self.stats: List[DPStats] = [s if s is not None else DPStats() for s in given]
        self._deadlines = [int(d) for d in deadlines]
        self._size = max(self._deadlines, default=0) + 1
        self._m = 0  # type capacity; fixed at materialization
        self._lane_m: List[int] = [0] * nl
        self._times: Optional[np.ndarray] = None
        self._costs: Optional[np.ndarray] = None
        #: Current version token per (lane, row) — pins derive from these.
        self._tokens: List[List[Hashable]] = [[] for _ in range(nl)]
        #: Rows changed since the lane's last refresh; None = never refreshed.
        self._pending: List[Optional[List[int]]] = [None] * nl
        #: Pre-materialization staging: lane -> (times, costs).
        self._staged: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._curves: Optional[np.ndarray] = None
        self._choices: Optional[np.ndarray] = None
        self._totals: Optional[np.ndarray] = None
        self._refreshed = [False] * nl
        #: Dirty node sets keyed by changed rows (None = every node),
        #: shared across lanes that pin the same rows in lockstep.
        self._dirty_memo: Dict[Optional[Tuple[int, ...]], np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return len(self._deadlines)

    def deadline(self, lane: int) -> int:
        return self._deadlines[lane]

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.n_lanes:
            raise EngineError(f"lane {lane} out of range [0, {self.n_lanes})")

    def _materialize(self) -> None:
        """Allocate the 3-D tensors once every lane has bound."""
        if self._times is not None:
            return
        nl, nr = self.n_lanes, self.shape.n_rows
        if len(self._staged) != nl:
            missing = [lane for lane in range(nl) if lane not in self._staged]
            raise EngineError(
                f"lanes {missing!r} have no bound table; bind every lane "
                "before the first refresh"
            )
        self._m = max(
            [1] + [int(t.shape[1]) for t, _ in self._staged.values()]
        )
        # time 0 / cost inf padding: a padded type's candidate is always
        # inf, so it can never strictly beat a real one.
        self._times = np.zeros((nl, nr, self._m), dtype=np.int64)
        self._costs = np.full((nl, nr, self._m), np.inf, dtype=np.float64)
        for lane, (t, c) in self._staged.items():
            mm = int(t.shape[1])
            self._lane_m[lane] = mm
            self._times[lane, :, :mm] = t
            self._costs[lane, :, :mm] = c
        self._staged.clear()
        n = self.shape.n
        self._curves = np.zeros((nl, n, self._size), dtype=np.float64)
        self._choices = np.full((nl, n, self._size), NO_CHOICE, dtype=np.int16)
        self._totals = np.zeros((nl, self._size), dtype=np.float64)

    # ------------------------------------------------------------------
    def bind_table(
        self, lane: int, table: TimeCostTable, rows: Sequence[Hashable]
    ) -> None:
        """Bind ``table`` to ``lane``; ``rows`` are its row keys in the
        shape's row order (the ``rows`` of :func:`compile_forest`)."""
        self._check_lane(lane)
        nr = self.shape.n_rows
        if len(rows) != nr:
            raise TableError(
                f"lane {lane} forest has {nr} rows but {len(rows)} keys given"
            )
        m = table.num_types
        t = np.empty((nr, m), dtype=np.int64)
        c = np.empty((nr, m), dtype=np.float64)
        tokens: List[Hashable] = []
        for r in range(nr):
            t[r] = table.times(rows[r])
            c[r] = table.costs(rows[r])
            tokens.append(table.row_version(rows[r]))
        self.bind_arrays(lane, t, c, tokens)

    def bind_arrays(
        self,
        lane: int,
        times: np.ndarray,
        costs: np.ndarray,
        tokens: Sequence[Hashable],
    ) -> None:
        """Bind pre-extracted row matrices + version tokens to ``lane``.

        After the first refresh only rows whose token changed since the
        previous bind are updated and marked pending for the next
        refresh.  Any injective token scheme is equivalent — the worker
        path uses plain row indices.
        """
        self._check_lane(lane)
        nr = self.shape.n_rows
        times = np.ascontiguousarray(times, dtype=np.int64)
        costs = np.ascontiguousarray(costs, dtype=np.float64)
        if times.shape != costs.shape or times.ndim != 2 or times.shape[0] != nr:
            raise TableError(
                f"bad bind shapes for lane {lane}: {times.shape} vs "
                f"{costs.shape} (forest has {nr} rows)"
            )
        if len(tokens) != nr:
            raise TableError(
                f"lane {lane}: {len(tokens)} version tokens for {nr} rows"
            )
        if times.size and int(times.min()) < 0:
            raise TableError(f"negative execution time in lane {lane} bind")
        m = int(times.shape[1])
        if self._times is None or self._costs is None:
            self._tokens[lane] = list(tokens)
            self._staged[lane] = (times, costs)
            self._pending[lane] = None  # full first bind
            return
        if m != self._lane_m[lane]:
            raise TableError(
                f"table has {m} FU types but this binding was built for "
                f"{self._lane_m[lane]}"
            )
        old = self._tokens[lane]
        changed = [r for r in range(nr) if tokens[r] != old[r]]
        self._tokens[lane] = list(tokens)
        self._times[lane, :, :m][changed] = times[changed]
        self._costs[lane, :, :m][changed] = costs[changed]
        pend = self._pending[lane]
        if pend is not None:
            pend.extend(changed)

    def bind_pinned(self, lane: int, row: int, fu_type: int) -> None:
        """Pin ``row`` of ``lane`` to ``fu_type`` — the ``with_fixed``
        fast path: one row update, same version token, no table object."""
        self._check_lane(lane)
        if self._times is None or self._costs is None:
            raise EngineError(
                "bind_pinned needs a materialized binding; refresh first"
            )
        nr = self.shape.n_rows
        if not 0 <= row < nr:
            raise EngineError(f"row {row} out of range [0, {nr})")
        m = self._lane_m[lane]
        if not 0 <= fu_type < m:
            raise EngineError(
                f"fu_type {fu_type} out of range [0, {m}) for lane {lane}"
            )
        self._tokens[lane][row] = ("fixed", self._tokens[lane][row], int(fu_type))
        self._times[lane, row, :m] = self._times[lane, row, fu_type]
        self._costs[lane, row, :m] = self._costs[lane, row, fu_type]
        pend = self._pending[lane]
        if pend is not None:
            pend.append(int(row))

    # ------------------------------------------------------------------
    def _dirty(self, lane: int) -> np.ndarray:
        """Dirty nodes of ``lane`` (memoized by changed-row set).

        Every node on the first refresh, else
        :func:`~repro.engine.kernels.dirty_nodes` of the rows changed
        since.  The result depends only on the changed-row set, so
        lanes pinning the same row in lockstep share one array.
        """
        pend = self._pending[lane]
        key = None if pend is None else tuple(sorted(set(pend)))
        memo = self._dirty_memo.get(key)
        if memo is None:
            shape = self.shape
            memo = (
                np.arange(shape.n)
                if key is None
                else dirty_nodes(shape.row_of, shape.parent, key)
            )
            self._dirty_memo[key] = memo
        return memo

    def refresh(self, lanes: Optional[Sequence[int]] = None) -> "BatchedTreeDP":
        """(Re)compute the DP for ``lanes`` (default: every lane).

        Recomputes each lane's dirty nodes — every lane in one
        :func:`batched_sweep` — and rebuilds the root totals of the
        lanes whose curves moved.  Returns ``self`` for chaining.
        """
        t0 = time.perf_counter()
        active = sorted(set(range(self.n_lanes) if lanes is None else lanes))
        if not active:
            return self
        for lane in active:
            self._check_lane(lane)
        self._materialize()
        curves, totals = self._curves, self._totals
        assert curves is not None and totals is not None
        assert self._choices is not None
        assert self._times is not None and self._costs is not None
        n = self.shape.n
        targets: List[np.ndarray] = []
        for lane in active:
            dirty = self._dirty(lane)
            self._pending[lane] = []
            st = self.stats[lane]
            st.refreshes += 1
            st.nodes_visited += n
            st.nodes_recomputed += int(dirty.size)
            st.cache_hits += n - int(dirty.size)
            targets.append(dirty)
        batched_sweep(
            self.shape,
            curves,
            self._choices,
            self._times,
            self._costs,
            np.repeat(active, [d.size for d in targets]),
            np.concatenate(targets),
        )
        roots = self.shape.roots.tolist()
        for lane, dirty in zip(active, targets):
            if self._refreshed[lane] and not dirty.size:
                continue  # nothing moved: the total carries over
            if roots:
                total = curves[lane, roots[0]].copy()
                for r in roots[1:]:
                    total += curves[lane, r]
            else:
                total = np.zeros(self._size, dtype=np.float64)
            totals[lane] = total
            self._refreshed[lane] = True
        share = (time.perf_counter() - t0) / len(active)
        for lane in active:
            self.stats[lane].seconds_refresh += share
        return self

    # ------------------------------------------------------------------
    def _require_refreshed(self, lane: int) -> None:
        self._check_lane(lane)
        if not self._refreshed[lane]:
            raise InfeasibleError(
                "BatchedTreeDP.refresh() must run before queries"
            )

    def total_curve(self, lane: int) -> np.ndarray:
        """The lane's forest curve ``D[0..deadline]`` (prefix view)."""
        self._require_refreshed(lane)
        assert self._totals is not None
        return self._totals[lane, : self._deadlines[lane] + 1]

    def min_feasible(self, lane: int) -> int:
        """Smallest feasible budget of ``lane`` (-1 if none ≤ deadline)."""
        curve = self.total_curve(lane)
        finite = np.isfinite(curve)
        if not finite.any():
            return -1
        return int(np.argmax(finite))

    def min_time(self, lane: int) -> int:
        """Longest root→leaf path under the lane's per-row minimum times.

        The ``minimum possible is ...`` diagnostic of the infeasibility
        error — identical to ``longest_path_time`` over
        ``table.min_time`` per node, computed from the bound tensors.
        """
        self._require_refreshed(lane)
        assert self._times is not None
        shape = self.shape
        if shape.n == 0:
            return 0
        m = self._lane_m[lane]
        tmin = self._times[lane, :, :m].min(axis=1)[shape.row_of]
        down = np.zeros(shape.n, dtype=np.int64)
        for i in range(shape.n):  # ascending = children first
            lo, hi = int(shape.child_off[i]), int(shape.child_off[i + 1])
            best_kid = int(down[shape.child_idx[lo:hi]].max()) if hi > lo else 0
            down[i] = int(tmin[i]) + best_kid
        return int(down[shape.roots].max()) if shape.roots.size else 0

    def infeasible_error(self, lane: int, budget: int) -> InfeasibleError:
        """The `Tree_Assign` recurrence's infeasibility error for ``lane``."""
        min_time = self.min_time(lane)
        return InfeasibleError(
            f"no assignment of {self.name!r} completes within "
            f"{budget} (minimum possible is {min_time})",
            min_feasible=min_time,
        )

    def traceback_all(
        self,
        budgets: Sequence[Optional[int]],
        *,
        on_infeasible: str = "raise",
    ) -> List[Union[np.ndarray, InfeasibleError, None]]:
        """Optimal tree choices for every lane at its budget, batched.

        ``budgets[lane] = None`` skips the lane (entry stays ``None``).
        A budget outside ``[0, deadline]`` raises immediately.  An
        infeasible lane either raises the recurrence-identical
        :class:`InfeasibleError` (``on_infeasible="raise"``, lowest
        lane first) or stores the exception in its slot (``"mark"``) so
        independent jobs in one batch can fail independently; either
        way the lane's traceback counter increments first.

        Feasible lanes get an ``(n,)`` array of type choices in the
        shape's node order: the assignment `tree_assign` gives at that
        budget, because a curve computed at deadline ``L`` is
        prefix-identical to the curve of a fresh DP at any ``j ≤ L``.
        """
        if len(budgets) != self.n_lanes:
            raise EngineError(
                f"{len(budgets)} budgets for {self.n_lanes} lanes"
            )
        if on_infeasible not in ("raise", "mark"):
            raise EngineError(
                f"on_infeasible must be 'raise' or 'mark', got {on_infeasible!r}"
            )
        t0 = time.perf_counter()
        out: List[Union[np.ndarray, InfeasibleError, None]] = [None] * len(
            budgets
        )
        req: List[Tuple[int, int]] = []  # (lane, budget)
        for lane, b in enumerate(budgets):
            if b is None:
                continue
            self._require_refreshed(lane)
            if not 0 <= b <= self._deadlines[lane]:
                raise InfeasibleError(
                    f"budget {b} outside the engine's range "
                    f"[0, {self._deadlines[lane]}]"
                )
            req.append((lane, int(b)))
        if not req:
            return out
        assert self._totals is not None and self._choices is not None
        assert self._times is not None
        feasible: List[Tuple[int, int]] = []
        for lane, b in req:
            self.stats[lane].tracebacks += 1
            if not np.isfinite(self._totals[lane, b]):
                err = self.infeasible_error(lane, b)
                if on_infeasible == "raise":
                    raise err
                out[lane] = err
            else:
                feasible.append((lane, b))
        if feasible:
            shape = self.shape
            col = np.asarray([lane for lane, _ in feasible], dtype=np.int64)[
                :, None
            ]
            budgets_mat = np.zeros((col.size, shape.n), dtype=np.int64)
            ks_mat = np.zeros((col.size, shape.n), dtype=np.int64)
            if shape.roots.size:
                budgets_mat[:, shape.roots] = np.asarray(
                    [b for _, b in feasible], dtype=np.int64
                )[:, None]
            for lvl, kids, lvl_rows, lvl_counts in zip(
                shape.levels,
                shape.level_children,
                shape.level_rows,
                shape.level_counts,
            ):
                b = budgets_mat[:, lvl]
                k = self._choices[col, lvl[None, :], b]
                assert int(k.min()) != NO_CHOICE, (
                    "traceback hit infeasible cell (node "
                    f"{int(lvl[int(np.argmax((k == NO_CHOICE).any(axis=0)))])})"
                )
                ks_mat[:, lvl] = k
                if kids.size:
                    rem = b - self._times[col, lvl_rows[None, :], k]
                    budgets_mat[:, kids] = np.repeat(rem, lvl_counts, axis=1)
            for j, (lane, _) in enumerate(feasible):
                out[lane] = ks_mat[j]
        share = (time.perf_counter() - t0) / len(req)
        for lane, _ in req:
            self.stats[lane].seconds_traceback += share
        return out

    def traceback_at(self, lane: int, budget: int) -> np.ndarray:
        """Single-lane traceback (raises on an infeasible budget)."""
        budgets: List[Optional[int]] = [None] * self.n_lanes
        budgets[lane] = budget
        result = self.traceback_all(budgets, on_infeasible="raise")[lane]
        assert isinstance(result, np.ndarray)
        return result
