"""The tree-DP engine: one out-forest shape, many stacked lanes.

`Tree_Assign` over a fixed expansion tree is solved here, and only
here.  A *lane* is one (table, deadline) instance of a shared forest
shape: a `DFG_Assign_Repeat` call is one lane, a deadline sweep or a
group of same-structure serve requests is many.  Every numpy call of a
refresh or a traceback covers all of its lanes at once:

* :func:`compile_forest` — compiles an out-forest once into a
  :class:`ForestShape` plus its node and table-row lists;
* :class:`ForestShape` — the name-free CSR view of one out-forest
  (parent/child arrays, BFS levels, per-node heights and preorder
  intervals, padded children matrices); it pickles by value, so shapes
  travel to ``pmap`` workers without any graph object;
* :class:`SweepPlan` — the height passes of one dirty set (its nodes,
  rows and children per height), built once per changed-row key by
  :meth:`ForestShape.sweep_plan` and shared by every lane with that key;
* :func:`batched_sweep` — the kernel: children-first combine plus the
  running-min node step of one plan over a set of lanes, about fifteen
  numpy calls per height pass whatever the lane count;
* :class:`BatchedTreeDP` — the engine: per-lane row bindings (3-D
  time/cost tensors) and :class:`DPStats`, a refresh that groups its
  lanes by dirty key and runs one :func:`batched_sweep` per key (lanes
  whose first bind passed the same arrays share their first sweep), a
  multi-lane pin (:meth:`BatchedTreeDP.bind_pins`) and a level-to-level
  traceback over all lanes at once.

**Bit-identity.** Every float op matches the `Tree_Assign` recurrence
(:mod:`repro.assign.tree_assign`): child curves sum in the same
sequential order as ``combine_children`` (the first child is an
assignment, a missing child adds ``0.0``), the node step adds the same
two operands (``child_curve[j - t_k] + c_k``) as ``node_step`` and
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
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import EngineError, InfeasibleError, NotATreeError, TableError
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node
from .kernels import NO_CHOICE
from .stats import DPStats

__all__ = [
    "ForestShape",
    "BatchedTreeDP",
    "batched_sweep",
    "compile_forest",
]


class SweepPlan:
    """The height passes of one dirty node set.

    ``nodes`` are the dirty nodes ordered by height, ``rows`` their
    table rows and ``kids`` their rows of the shape's ``sweep_kids``
    matrix; ``passes`` holds one ``(lo, hi)`` slice of those arrays per
    height that has dirty nodes, lowest height first.  A plan depends
    only on the shape and the changed-row set, so every lane with the
    same changed rows sweeps the same plan.
    """

    __slots__ = ("size", "nodes", "rows", "kids", "passes")

    def __init__(
        self,
        nodes: np.ndarray,
        rows: np.ndarray,
        kids: np.ndarray,
        passes: List[Tuple[int, int]],
    ):
        self.size = int(nodes.size)
        self.nodes = nodes
        self.rows = rows
        self.kids = kids
        self.passes = passes


class ForestShape:
    """Name-free CSR view of one out-forest, shared by many lanes.

    Nodes are numbered children-first (reverse-topological), so every
    child's index is smaller than its parent's.  On top of the CSR
    arrays this precomputes what the engine needs:

    * ``sweep_kids``/``kid_counts`` — an ``(n, max(max_kids, 1))``
      children matrix padded with ``n``, the index of the engine's
      permanent all-zero curve, so a combine never masks;
    * ``heights``/``height_order``/``height_off`` — leaf distance per
      node and the nodes grouped by height (CSR), the sweep's
      dependency levels (every child of a height-``h`` node has height
      ``< h``);
    * ``pre_start``/``pre_end`` — each node's preorder interval: node
      ``x`` is an ancestor-or-self of ``c`` exactly when
      ``pre_start[x] <= pre_start[c] < pre_end[x]``, which makes a
      dirty set a few whole-array calls (:meth:`dirty_mask`);
    * ``bfs_nodes``/``level_off`` — the BFS levels from the roots used
      by the traceback, concatenated (``level_off`` bounds them): level
      ``k + 1`` is exactly the concatenation of the children of level
      ``k`` in CSR order — the alignment the traceback's ``np.repeat``
      relies on.  ``bfs_rows``/``bfs_counts`` are their rows and child
      counts, and ``bfs_inverse`` maps node order back from BFS order.
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
        "sweep_kids",
        "heights",
        "height_order",
        "height_off",
        "pre_start",
        "pre_end",
        "row_seed_off",
        "row_seeds",
        "level_off",
        "bfs_nodes",
        "bfs_rows",
        "bfs_counts",
        "bfs_inverse",
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
        n = self.n = int(self.parent.size)
        self.n_rows = int(self.row_of.max()) + 1 if n else 0

        self.kid_counts = np.diff(self.child_off)
        max_kids = int(self.kid_counts.max()) if n else 0
        edge_parent = np.repeat(np.arange(n, dtype=np.int64), self.kid_counts)
        edge_pos = np.arange(self.child_idx.size) - self.child_off[edge_parent]
        self.sweep_kids = np.full((n, max(max_kids, 1)), n, dtype=np.int64)
        self.sweep_kids[edge_parent, edge_pos] = self.child_idx

        # One pass over plain lists: heights and subtree sizes bottom-up
        # (ascending index = children first), then preorder starts and
        # depths top-down (descending index = parents first).
        par = self.parent.tolist()
        kids = self.child_idx.tolist()
        off = self.child_off.tolist()
        height = [0] * n
        size = [1] * n
        for i, p in enumerate(par):
            if p >= 0:
                size[p] += size[i]
                if height[i] >= height[p]:
                    height[p] = height[i] + 1
        pre = [0] * n
        depth = [0] * n
        nxt = 0
        for r in self.roots.tolist():
            pre[r] = nxt
            nxt += size[r]
        for p in range(n - 1, -1, -1):
            nxt = pre[p] + 1
            d = depth[p] + 1
            for c in kids[off[p] : off[p + 1]]:
                pre[c] = nxt
                depth[c] = d
                nxt += size[c]
        self.heights = np.asarray(height, dtype=np.int64)
        self.height_order = np.argsort(self.heights, kind="stable")
        self.height_off = np.zeros(
            (int(self.heights.max()) + 2) if n else 1, dtype=np.int64
        )
        np.cumsum(np.bincount(self.heights), out=self.height_off[1:])
        self.pre_start = np.asarray(pre, dtype=np.int64)
        self.pre_end = self.pre_start + np.asarray(size, dtype=np.int64)
        # Per row, the preorder starts (+ 1) of its nodes, CSR by row.
        by_row = np.argsort(self.row_of, kind="stable")
        self.row_seeds = self.pre_start[by_row] + 1
        self.row_seed_off = np.zeros(self.n_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.row_of, minlength=self.n_rows),
            out=self.row_seed_off[1:],
        )

        # BFS levels: by depth, then preorder.  Siblings appear in CSR
        # order in the preorder, and same-depth nodes follow their
        # parents' order, so level k + 1 is level k's children in order.
        depths = np.asarray(depth, dtype=np.int64)
        self.bfs_nodes = np.lexsort((self.pre_start, depths))
        self.level_off = np.zeros(
            (int(depths.max()) + 2) if n else 1, dtype=np.int64
        )
        np.cumsum(np.bincount(depths), out=self.level_off[1:])
        self.bfs_rows = self.row_of[self.bfs_nodes]
        self.bfs_counts = self.kid_counts[self.bfs_nodes]
        self.bfs_inverse = np.argsort(self.bfs_nodes)

    def dirty_mask(self, rows: Sequence[int]) -> np.ndarray:
        """Dirty flags of the nodes, in ``height_order``, for changed ``rows``.

        A node is dirty when its subtree holds a node of a changed row:
        exactly the nodes of those rows plus their ancestor chains, the
        nodes whose subtree curve a row change can move.  Counting the
        changed nodes' preorder starts below each position makes that
        one interval test per node.
        """
        off = self.row_seed_off
        hit = np.zeros(self.n + 1, dtype=np.int64)
        if rows:
            hit[
                np.concatenate([self.row_seeds[off[r] : off[r + 1]] for r in rows])
            ] = 1
        below = np.cumsum(hit)
        order = self.height_order
        return below[self.pre_end[order]] > below[self.pre_start[order]]

    def longest_paths(self, row_times: np.ndarray) -> np.ndarray:
        """Longest root→leaf time sum of the forest, one per row of
        ``row_times`` (``(k, n_rows)`` integer times per table row)."""
        if not self.roots.size:
            return np.zeros(row_times.shape[0], dtype=np.int64)
        node_times = row_times[:, self.row_of]
        down = np.zeros((row_times.shape[0], self.n + 1), dtype=np.int64)
        bounds = self.height_off.tolist()
        for lo, hi in zip(bounds, bounds[1:]):  # children first
            nodes = self.height_order[lo:hi]
            down[:, nodes] = node_times[:, nodes] + down[
                :, self.sweep_kids[nodes]
            ].max(axis=2)
        return down[:, self.roots].max(axis=1)

    def sweep_plan(self, rows: Optional[Sequence[int]]) -> SweepPlan:
        """The :class:`SweepPlan` of changed ``rows`` (``None``: every node)."""
        if rows is None:
            nodes = self.height_order
            bounds = self.height_off.tolist()
        else:
            pos = np.flatnonzero(self.dirty_mask(rows))
            nodes = self.height_order[pos]
            bounds = np.searchsorted(pos, self.height_off).tolist()
        passes = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        return SweepPlan(nodes, self.row_of[nodes], self.sweep_kids[nodes], passes)


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
    parent = [-1] * len(nodes)
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
        np.asarray(parent, dtype=np.int64),
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
    plan: SweepPlan,
    lanes: np.ndarray,
    curves: np.ndarray,
    choices: np.ndarray,
    times: np.ndarray,
    costs: np.ndarray,
) -> int:
    """Combine + node-step of ``plan``'s nodes in every lane of ``lanes``.

    ``curves`` is the engine's ``(lanes, n + 1, budgets + 1)`` tensor:
    column 0 is a permanent ``inf`` (the value of a budget below zero)
    and node ``n`` the permanent zero curve a missing child reads.
    ``choices`` is ``(lanes, n + 1, budgets)``, ``times``/``costs`` the
    bound ``(lanes, rows, types)`` tensors.  Targets are the plan's
    nodes times the lanes, flattened node-major with
    ``lane * (n + 1) + node`` indices, and run one height at a time, so
    every child a target combines is already final (clean, or computed
    in an earlier pass); within one height all targets are independent.
    The index arrays and the targets' times and costs are built once
    per call, so a height pass is about fifteen numpy calls however many
    lanes and targets it holds.  Returns the number of targets computed.

    Float semantics mirror :func:`~repro.engine.kernels.node_step` and
    ``combine_children`` exactly.  A pass gathers child ``j`` of every
    target into block ``j`` of one ``(child, target, budget)`` array and
    adds the blocks into the first in child order — the first child
    copied, a missing child adding ``0.0`` — so the first block is the
    combined curve, ``inf`` column included.  Each type's candidate is
    one gather of that sum at ``max(j + 1 - t_k, 0)`` (column 0 reads
    ``inf``, an infeasible budget) plus ``c_k``: the same
    ``child_curve[j - t_k] + c_k`` add.  The minimum over the type axis
    follows, and the choice is the lowest type equal to it —
    ``argmin``'s first-occurrence tie-break, taken one type at a time
    from the last (bindings reject NaN, so every comparison is exact).
    Types padded with ``time 0 / cost inf`` never win.  A budget no
    type can meet comes out ``inf``; its choice is left unspecified,
    since no traceback from a finite total reaches it.  A pass whose
    block exceeds :data:`SWEEP_BLOCK` elements runs in chunks of
    targets.
    """
    n_lanes = int(lanes.size)
    if plan.size == 0 or n_lanes == 0:
        return 0
    n1, width = curves.shape[1], curves.shape[2]
    n_rows, m = times.shape[1], times.shape[2]
    n_kids = plan.kids.shape[1]
    flat_curves = curves.reshape(-1, width)
    flat_choices = choices.reshape(-1, width - 1)
    node_off = lanes * n1
    targets = (plan.nodes[:, None] + node_off).ravel()
    kid_idx = (plan.kids.T[:, :, None] + node_off).reshape(n_kids, -1)
    row_idx = (plan.rows[:, None] + lanes * n_rows).ravel()
    # (type, target, 1): every target's times and costs, gathered once.
    t_all = times.reshape(-1, m)[row_idx].T[:, :, None]
    c_all = costs.reshape(-1, m)[row_idx].T[:, :, None]
    chunk = max(1, SWEEP_BLOCK // (max(m, n_kids) * width))
    widest = min(chunk, max(hi - lo for lo, hi in plan.passes) * n_lanes)
    # Flat offset of each target's row in the combined child curves,
    # and that offset plus ``j + 1`` for every budget ``j``.
    curve_at = np.arange(0, widest * width, width, dtype=np.int64)[:, None]
    budget_at = curve_at + np.arange(1, width, dtype=np.int64)
    for lo, hi in plan.passes:
        for a in range(lo * n_lanes, hi * n_lanes, chunk):
            b = min(a + chunk, hi * n_lanes)
            # (child, target, budget): child j of every target at once;
            # the child sum runs in place into the first block.
            kids = flat_curves[kid_idx[:, a:b]]
            acc = kids[0]
            for j in range(1, n_kids):
                acc += kids[j]
            # (type, target, budget) candidates.
            shift = budget_at[: b - a] - t_all[:, a:b]
            np.maximum(shift, curve_at[: b - a], out=shift)
            cand = acc.ravel()[shift]
            cand += c_all[:, a:b]
            best = np.minimum.reduce(cand, axis=0)
            # argmin's first occurrence, one type at a time from the
            # last: each lower type that ties the minimum takes over.
            choice = np.where(cand[m - 2] == best, m - 2, m - 1) if m > 1 else 0
            for k in range(m - 3, -1, -1):
                choice = np.where(cand[k] == best, k, choice)
            at = targets[a:b]
            flat_curves[at, 1:] = best
            flat_choices[at] = choice
    return plan.size * n_lanes


class BatchedTreeDP:
    """Multi-lane `Tree_Assign` DP over one shared :class:`ForestShape`.

    Each *lane* is one (table, deadline) instance of the shape.  A lane
    is a full incremental engine on its own: the same bind / refresh /
    traceback sequence gives the same curves, choices, dirty sets and
    :class:`DPStats` counters whether it runs alone or next to other
    lanes, while the compute runs batched across lanes via
    :func:`batched_sweep`.

    Binding comes in two forms: :meth:`bind_arrays` (row matrices plus
    version tokens; a rebind updates the rows whose token changed) and
    :meth:`bind_pins` (the ``with_fixed`` pin of one row in many lanes
    at once, minting the same ``("fixed", base, k)`` tokens).  Every
    lane must bind before the first :meth:`refresh`.
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
        #: Sweep plans keyed by changed rows (None = every node), shared
        #: across lanes that pin the same rows in lockstep.
        self._plans: Dict[Optional[Tuple[int, ...]], SweepPlan] = {}

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return len(self._deadlines)

    def deadline(self, lane: int) -> int:
        return self._deadlines[lane]

    def _check_lane(self, lane: int) -> None:
        if not 0 <= lane < self.n_lanes:
            raise EngineError(f"lane {lane} out of range [0, {self.n_lanes})")

    def _materialize(self) -> Dict[int, int]:
        """Allocate the 3-D tensors once every lane has bound.

        Returns, on the call that allocates, the lanes whose first bind
        passed the very same time and cost arrays as a lower lane, each
        mapped to the lowest such lane (empty on later calls): until
        their first refresh such lanes hold identical rows, so that
        refresh can sweep one of them and copy the result.
        """
        if self._times is not None:
            return {}
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
        first: Dict[Tuple[int, int], int] = {}
        twins: Dict[int, int] = {}
        for lane in range(nl):
            t, c = self._staged[lane]
            mm = int(t.shape[1])
            self._lane_m[lane] = mm
            rep = first.setdefault((id(t), id(c)), lane)
            if rep != lane:
                twins[lane] = rep
            self._times[lane, :, :mm] = t
            self._costs[lane, :, :mm] = c
        self._staged.clear()
        n = self.shape.n
        # Column 0 is the inf of a negative budget; node n the zero curve.
        self._curves = np.zeros((nl, n + 1, self._size + 1), dtype=np.float64)
        self._curves[:, :, 0] = np.inf
        self._choices = np.zeros((nl, n + 1, self._size), dtype=np.int16)
        self._totals = np.zeros((nl, self._size), dtype=np.float64)
        return twins

    # ------------------------------------------------------------------
    def bind_arrays(
        self,
        lane: int,
        times: np.ndarray,
        costs: np.ndarray,
        tokens: Sequence[Hashable],
    ) -> None:
        """Bind row matrices + version tokens to ``lane``.

        Row ``r`` of ``times``/``costs`` is the shape's table row ``r``.
        After the first refresh only rows whose token changed since the
        previous bind are updated and marked pending for the next
        refresh.  Any injective token scheme is equivalent: tables pass
        their row versions, the lockstep solver plain row indices.
        Times must be non-negative and costs finite and non-negative,
        as in a :class:`~repro.fu.table.TimeCostTable`.
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
        if costs.size and not (np.isfinite(costs).all() and costs.min() >= 0):
            raise TableError(f"invalid execution cost in lane {lane} bind")
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

    def bind_pins(
        self, lanes: Sequence[int], row: int, fu_types: Sequence[int]
    ) -> None:
        """Pin ``row`` of each of ``lanes`` to its entry of ``fu_types``.

        The ``with_fixed`` pin, for many lanes in one call: every real
        type of the row takes the pinned type's time and cost (padded
        types keep ``time 0 / cost inf``), and each lane's row token
        becomes ``("fixed", base, k)``.  Lanes must be distinct.
        """
        if self._times is None or self._costs is None:
            raise EngineError("bind_pins needs a materialized binding; refresh first")
        nr = self.shape.n_rows
        if not 0 <= row < nr:
            raise EngineError(f"row {row} out of range [0, {nr})")
        lane_list = [int(lane) for lane in lanes]
        type_list = [int(k) for k in fu_types]
        if len(lane_list) != len(type_list):
            raise EngineError(
                f"{len(lane_list)} lanes but {len(type_list)} pinned types"
            )
        if len(set(lane_list)) != len(lane_list):
            raise EngineError(f"lanes {lane_list!r} repeat a lane")
        for lane, k in zip(lane_list, type_list):
            self._check_lane(lane)
            if not 0 <= k < self._lane_m[lane]:
                raise EngineError(
                    f"fu_type {k} out of range [0, {self._lane_m[lane]}) "
                    f"for lane {lane}"
                )
        if not lane_list:
            return
        la = np.asarray(lane_list, dtype=np.int64)
        ks = np.asarray(type_list, dtype=np.int64)
        # Real costs are finite (binds reject the rest): padding is inf.
        real = np.isfinite(self._costs[la, row])
        self._times[la, row] = np.where(real, self._times[la, row, ks][:, None], 0)
        self._costs[la, row] = np.where(
            real, self._costs[la, row, ks][:, None], np.inf
        )
        for lane, k in zip(lane_list, type_list):
            tokens = self._tokens[lane]
            tokens[row] = ("fixed", tokens[row], k)
            pend = self._pending[lane]
            if pend is not None:
                pend.append(row)

    # ------------------------------------------------------------------
    def _plan(self, key: Optional[Tuple[int, ...]]) -> SweepPlan:
        """The sweep plan of changed-row ``key`` (memoized)."""
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = self.shape.sweep_plan(key)
        return plan

    def refresh(self, lanes: Optional[Sequence[int]] = None) -> "BatchedTreeDP":
        """(Re)compute the DP for ``lanes`` (default: every lane).

        Groups the lanes by their changed rows, recomputes each group's
        dirty nodes in one :func:`batched_sweep`, and rebuilds the root
        totals of the lanes whose curves moved.  Returns ``self`` for
        chaining.
        """
        t0 = time.perf_counter()
        active = sorted(set(range(self.n_lanes) if lanes is None else lanes))
        if not active:
            return self
        for lane in active:
            self._check_lane(lane)
        twins = self._materialize()
        curves, totals = self._curves, self._totals
        assert curves is not None and totals is not None
        assert self._choices is not None
        assert self._times is not None and self._costs is not None
        n = self.shape.n
        groups: Dict[Optional[Tuple[int, ...]], List[int]] = {}
        for lane in active:
            pend = self._pending[lane]
            key = None if pend is None else tuple(sorted(set(pend)))
            groups.setdefault(key, []).append(lane)
            self._pending[lane] = []
        moved: List[int] = []
        for key, group in groups.items():
            plan = self._plan(key)
            for lane in group:
                st = self.stats[lane]
                st.refreshes += 1
                st.nodes_visited += n
                st.nodes_recomputed += plan.size
                st.cache_hits += n - plan.size
                if plan.size or not self._refreshed[lane]:
                    moved.append(lane)
                self._refreshed[lane] = True
            # A lane bound to the same arrays as a lane of this sweep
            # copies its curves: both are still their first bind.
            members = set(group)
            copies = [lane for lane in group if twins.get(lane) in members]
            swept = [lane for lane in group if twins.get(lane) not in members]
            batched_sweep(
                plan,
                np.asarray(swept, dtype=np.int64),
                curves,
                self._choices,
                self._times,
                self._costs,
            )
            if copies:
                reps = [twins[lane] for lane in copies]
                curves[copies] = curves[reps]
                self._choices[copies] = self._choices[reps]
        if moved:
            mv = np.asarray(moved, dtype=np.int64)
            roots = self.shape.roots
            if roots.size:
                # Root curves summed in root order, sequentially.
                totals[mv] = np.add.accumulate(
                    curves[mv[:, None], roots, 1:], axis=1
                )[:, -1]
            else:
                totals[mv] = 0.0
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
        m = self._lane_m[lane]
        tmin = self._times[lane, :, :m].min(axis=1)
        return int(self.shape.longest_paths(tmin[None, :])[0])

    def infeasible_error(self, lane: int, budget: int) -> InfeasibleError:
        """The `Tree_Assign` recurrence's infeasibility error for ``lane``."""
        min_time = self.min_time(lane)
        return InfeasibleError(
            f"no assignment of {self.name!r} completes within "
            f"{budget} (minimum possible is {min_time})",
            min_feasible=min_time,
        )

    def traceback_lanes(
        self,
        lanes: Sequence[int],
        budgets: Sequence[int],
    ) -> Tuple[np.ndarray, List[Optional[InfeasibleError]]]:
        """Optimal tree choices of ``lanes`` at their ``budgets``, batched.

        Returns ``(choices, errors)``: row ``j`` of the
        ``(len(lanes), n)`` matrix holds lane ``lanes[j]``'s type
        choices in the shape's node order — the assignment
        `tree_assign` gives at that budget, because a curve computed at
        deadline ``L`` is prefix-identical to the curve of a fresh DP at
        any ``j ≤ L``.  An infeasible lane gets the recurrence-identical
        :class:`InfeasibleError` in ``errors[j]`` (its row holds
        :data:`NO_CHOICE`); its traceback counter still increments.  A
        budget outside ``[0, deadline]`` raises immediately.

        The walk goes level to level from the roots: one gather reads a
        level's choices for every lane, and the remaining budgets pass
        to the next level with one ``np.repeat`` (the BFS order lists
        level ``k + 1`` as level ``k``'s children in CSR order).
        """
        if len(budgets) != len(lanes):
            raise EngineError(f"{len(budgets)} budgets for {len(lanes)} lanes")
        t0 = time.perf_counter()
        shape = self.shape
        lane_list = [int(lane) for lane in lanes]
        budget_list = [int(b) for b in budgets]
        for lane, b in zip(lane_list, budget_list):
            self._require_refreshed(lane)
            if not 0 <= b <= self._deadlines[lane]:
                raise InfeasibleError(
                    f"budget {b} outside the engine's range "
                    f"[0, {self._deadlines[lane]}]"
                )
        out = np.full((len(lane_list), shape.n), NO_CHOICE, dtype=np.int64)
        errors: List[Optional[InfeasibleError]] = [None] * len(lane_list)
        if not lane_list:
            return out, errors
        assert self._totals is not None and self._choices is not None
        assert self._times is not None
        la = np.asarray(lane_list, dtype=np.int64)
        bud = np.asarray(budget_list, dtype=np.int64)
        ok = np.isfinite(self._totals[la, bud])
        flags = ok.tolist()
        for j, lane in enumerate(lane_list):
            self.stats[lane].tracebacks += 1
            if not flags[j]:
                errors[j] = self.infeasible_error(lane, budget_list[j])
        if not all(flags):
            la, bud = la[ok], bud[ok]
        if la.size and shape.n:
            flat_choices = self._choices.reshape(-1)
            flat_times = self._times.reshape(-1)
            # Flat (node, lane) cell starts in BFS order, node-major: a
            # node's choice row and its table row.
            at = (shape.bfs_nodes[:, None] + la * (shape.n + 1)) * self._size
            rows = (shape.bfs_rows[:, None] + la * shape.n_rows) * self._m
            counts = shape.bfs_counts
            bounds = shape.level_off.tolist()
            b = bud[None, :].repeat(bounds[1], axis=0)
            parts, left = [], []
            for lo, hi in zip(bounds, bounds[1:]):
                k = flat_choices[at[lo:hi] + b]
                b = b - flat_times[rows[lo:hi] + k]
                parts.append(k)
                left.append(b)
                if hi < shape.n:
                    b = b.repeat(counts[lo:hi], axis=0)
            # A feasible cell never picks a type slower than its budget;
            # a walk into an infeasible one leaves a negative remainder
            # at some node below it (at the latest at a leaf).
            assert int(np.concatenate(left).min()) >= 0, (
                "traceback hit an infeasible cell"
            )
            out[ok] = np.concatenate(parts)[shape.bfs_inverse].T
        share = (time.perf_counter() - t0) / len(lane_list)
        for lane in lane_list:
            self.stats[lane].seconds_traceback += share
        return out, errors
