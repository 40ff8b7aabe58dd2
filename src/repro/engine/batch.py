"""Batched multi-instance DP: stacked forests and 3-D table bindings.

One :class:`PackedTreeDP` vectorizes *within* a tree but still solves
instances one at a time — a deadline sweep or a batch of near-identical
serve requests pays the per-node python loop once per instance.  This
module stacks many (forest, table, deadline) *lanes* so the combine and
node-step passes run over an ``(instance, node, budget)`` tensor in a
handful of numpy calls:

* :class:`ForestShape` — the name-free CSR view of one out-forest
  (parent/child arrays, BFS levels, per-node heights, a padded
  children matrix) reconstructible from five arrays, so shapes travel
  to ``pmap`` workers without pickling graph objects;
* :class:`BatchedForest` — stacks many :class:`PackedForest`/shapes
  into group-blocked super-forest arrays (lanes sharing a forest share
  one shape and one tensor block);
* :func:`batched_sweep` — the kernel: children-first combine plus the
  running-min node step for a set of (lane, node) targets, processed
  by height so every pass is one gather/add/where per type;
* :class:`BatchedTreeDP` — the engine: per-lane row bindings (3-D
  time/cost tensors), per-lane curve caches and :class:`DPStats`, a
  batched refresh that recomputes only dirty cache misses, and a
  level-vectorized traceback over all lanes at once.

**Bit-identity.** Every float op matches the scalar engine: child
curves sum with the same sequential ``+=`` order, the node step adds
the same two operands (``child_curve[j - t_k] + c_k``) and breaks ties
toward the smallest type with a strict running minimum (equivalent to
``argmin``'s first-occurrence rule), padded types carry ``time 0 /
cost inf`` which can never win, and padded budgets rely on curves
being prefix-identical across deadlines.  Per-lane ``DPStats`` equal a
dedicated :class:`PackedTreeDP` driven through the same
refresh/pin/traceback sequence — the cache probe logic is the same
``(row version, child state)`` interning, lane by lane.  Pinned rows
mint the same content-stable ``("fixed", base, k)`` version tokens
``TimeCostTable.with_fixed`` produces, so cache behavior matches the
scalar pin rounds exactly.

See ``docs/performance.md`` (Batched kernels) for the architecture and
measured numbers; ``tests/engine/test_batch.py`` and
``tests/properties/test_prop_batch.py`` pin the equivalences.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import EngineError, InfeasibleError, TableError
from ..fu.table import TimeCostTable
from .kernels import NO_CHOICE
from .pack import PackedForest
from .stats import DPStats

__all__ = ["ForestShape", "BatchedForest", "BatchedTreeDP", "batched_sweep"]

#: Arrays that fully define a :class:`ForestShape` (the rest is derived).
_SHAPE_FIELDS = ("parent", "child_off", "child_idx", "row_of", "roots")


class ForestShape:
    """Name-free CSR view of one out-forest, shared by many lanes.

    Nodes are numbered children-first (reverse-topological), exactly
    like :class:`~repro.engine.pack.PackedForest`; on top of the CSR
    arrays this precomputes what the batched kernel needs:

    * ``kids_mat``/``kid_counts`` — an ``(n, max_kids)`` children
      matrix padded with ``-1``, so the combine pass is one gather per
      child position instead of a per-node loop;
    * ``heights``/``by_height`` — leaf distance per node and the node
      sets per height, the batched sweep's dependency levels (every
      child of a height-``h`` node has height ``< h``);
    * ``levels``/``level_children``/... — the BFS front from the roots
      used by the vectorized traceback (same alignment contract as
      ``PackedForest``).

    Instances are reconstructible from five arrays
    (:meth:`defining_arrays` / :meth:`from_arrays`), which is how
    compiled batches travel to ``pmap`` workers without pickling any
    graph or table objects.
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
        "kids_tuples",
        "row_list",
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
        child_list = self.child_idx.tolist()
        off_list = self.child_off.tolist()
        kids_tuples: List[Tuple[int, ...]] = []
        for i in range(self.n):
            lo, hi = off_list[i], off_list[i + 1]
            kids_mat[i, : hi - lo] = self.child_idx[lo:hi]
            kids_tuples.append(tuple(child_list[lo:hi]))
        self.kids_mat = kids_mat
        #: Python-native mirrors of ``child_idx``/``row_of`` — the cache
        #: probe loop is pure-python and numpy scalar indexing would
        #: dominate it.
        self.kids_tuples = kids_tuples
        self.row_list: List[int] = self.row_of.tolist()

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

    @classmethod
    def from_pack(cls, pack: PackedForest) -> "ForestShape":
        """The shape of a compiled :class:`PackedForest` (names dropped)."""
        return cls(
            pack.parent, pack.child_off, pack.child_idx, pack.row_of, pack.roots
        )

    def defining_arrays(self) -> Dict[str, np.ndarray]:
        """The five arrays :meth:`from_arrays` rebuilds this shape from."""
        return {name: getattr(self, name) for name in _SHAPE_FIELDS}

    @classmethod
    def from_arrays(cls, arrays: Dict[str, np.ndarray]) -> "ForestShape":
        """Rebuild a shape from :meth:`defining_arrays` output."""
        missing = [name for name in _SHAPE_FIELDS if name not in arrays]
        if missing:
            raise EngineError(f"forest shape arrays missing {missing!r}")
        return cls(*(arrays[name] for name in _SHAPE_FIELDS))


class BatchedForest:
    """Many packed forests stacked into group-blocked CSR arrays.

    Lanes handing in the *same* forest object (a deadline sweep over
    one tree, same-structure serve requests sharing an expansion) are
    grouped: one :class:`ForestShape` and, in :class:`BatchedTreeDP`,
    one tensor block per group.  :meth:`stacked_arrays` concatenates
    the groups into a single CSR super-forest (node/row/root offsets
    applied) — the wire format batched jobs ship to workers.
    """

    def __init__(
        self, packs: Sequence[Union[PackedForest, ForestShape]]
    ) -> None:
        if not packs:
            raise EngineError("BatchedForest needs at least one forest")
        self.shapes: List[ForestShape] = []
        self.lane_group: List[int] = []
        self.lane_slot: List[int] = []
        self.group_lanes: List[List[int]] = []
        seen: Dict[int, int] = {}
        for lane, pack in enumerate(packs):
            gi = seen.get(id(pack))
            if gi is None:
                gi = seen[id(pack)] = len(self.shapes)
                shape = (
                    pack
                    if isinstance(pack, ForestShape)
                    else ForestShape.from_pack(pack)
                )
                self.shapes.append(shape)
                self.group_lanes.append([])
            self.lane_group.append(gi)
            self.lane_slot.append(len(self.group_lanes[gi]))
            self.group_lanes[gi].append(lane)

    @property
    def n_lanes(self) -> int:
        return len(self.lane_group)

    @property
    def n_groups(self) -> int:
        return len(self.shapes)

    def stacked_arrays(self) -> Dict[str, np.ndarray]:
        """One CSR super-forest: group blocks concatenated with offsets.

        ``node_off``/``row_off``/``root_off`` delimit the blocks;
        ``parent``/``child_idx``/``roots`` carry global node indices
        (parents of roots stay ``-1``), ``row_of`` global row indices.
        :meth:`shapes_from_stacked` inverts this exactly.
        """
        node_off = np.zeros(len(self.shapes) + 1, dtype=np.int64)
        row_off = np.zeros(len(self.shapes) + 1, dtype=np.int64)
        root_off = np.zeros(len(self.shapes) + 1, dtype=np.int64)
        child_off_parts: List[np.ndarray] = [np.zeros(1, dtype=np.int64)]
        parent_parts: List[np.ndarray] = []
        child_parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []
        root_parts: List[np.ndarray] = []
        edge_base = 0
        for g, shape in enumerate(self.shapes):
            base = int(node_off[g])
            node_off[g + 1] = base + shape.n
            row_off[g + 1] = row_off[g] + shape.n_rows
            root_off[g + 1] = root_off[g] + shape.roots.size
            shifted_parent = shape.parent.copy()
            shifted_parent[shifted_parent >= 0] += base
            parent_parts.append(shifted_parent)
            child_parts.append(shape.child_idx + base)
            child_off_parts.append(shape.child_off[1:] + edge_base)
            edge_base += int(shape.child_idx.size)
            row_parts.append(shape.row_of + int(row_off[g]))
            root_parts.append(shape.roots + base)

        def _cat(parts: List[np.ndarray]) -> np.ndarray:
            return (
                np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
            )

        return {
            "node_off": node_off,
            "row_off": row_off,
            "root_off": root_off,
            "parent": _cat(parent_parts),
            "child_off": np.concatenate(child_off_parts),
            "child_idx": _cat(child_parts),
            "row_of": _cat(row_parts),
            "roots": _cat(root_parts),
        }

    @staticmethod
    def shapes_from_stacked(
        arrays: Dict[str, np.ndarray],
    ) -> List[ForestShape]:
        """Rebuild the per-group shapes from :meth:`stacked_arrays`."""
        node_off = np.asarray(arrays["node_off"], dtype=np.int64)
        row_off = np.asarray(arrays["row_off"], dtype=np.int64)
        root_off = np.asarray(arrays["root_off"], dtype=np.int64)
        shapes: List[ForestShape] = []
        for g in range(node_off.size - 1):
            lo, hi = int(node_off[g]), int(node_off[g + 1])
            child_off = np.asarray(arrays["child_off"], dtype=np.int64)[
                lo : hi + 1
            ]
            edge_lo = int(child_off[0])
            parent = np.asarray(arrays["parent"], dtype=np.int64)[lo:hi].copy()
            parent[parent >= 0] -= lo
            rlo, rhi = int(root_off[g]), int(root_off[g + 1])
            shapes.append(
                ForestShape(
                    parent=parent,
                    child_off=child_off - edge_lo,
                    child_idx=np.asarray(arrays["child_idx"], dtype=np.int64)[
                        edge_lo : int(child_off[-1])
                    ]
                    - lo,
                    row_of=np.asarray(arrays["row_of"], dtype=np.int64)[lo:hi]
                    - int(row_off[g]),
                    roots=np.asarray(arrays["roots"], dtype=np.int64)[rlo:rhi]
                    - lo,
                )
            )
        return shapes


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


class _Group:
    """Per-group tensors plus per-slot cache/binding bookkeeping."""

    __slots__ = (
        "shape",
        "lanes",
        "deadlines",
        "size",
        "m",
        "lane_m",
        "times",
        "costs",
        "rv",
        "rv_list",
        "tokens",
        "intern",
        "pending",
        "staged",
        "curves",
        "choices",
        "totals",
        "has_total",
        "cur_sid",
        "sids",
        "cache",
        "dirty_memo",
    )

    def __init__(self, shape: ForestShape, lanes: List[int], deadlines: List[int]):
        self.shape = shape
        self.lanes = lanes
        self.deadlines = deadlines
        self.size = max(deadlines) + 1
        nl = len(lanes)
        self.m = 0  # type capacity; fixed at materialization
        self.lane_m: List[int] = [0] * nl
        self.times: Optional[np.ndarray] = None
        self.costs: Optional[np.ndarray] = None
        self.rv: Optional[np.ndarray] = None
        #: Python-list mirror of ``rv`` rows, kept in sync by the bind
        #: paths so the probe loop never pays a per-refresh ``tolist``.
        self.rv_list: List[Optional[List[int]]] = [None] * nl
        #: Current version token per (slot, row) — pins derive from these.
        self.tokens: List[List[Hashable]] = [[] for _ in range(nl)]
        self.intern: List[Dict[Hashable, int]] = [{} for _ in range(nl)]
        self.pending: List[Optional[List[int]]] = [None] * nl
        #: Pre-materialization staging: slot -> (times, costs, rv ids).
        self.staged: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self.curves: Optional[np.ndarray] = None
        self.choices: Optional[np.ndarray] = None
        self.totals: Optional[np.ndarray] = None
        self.has_total = [False] * nl
        self.cur_sid: List[Optional[List[int]]] = [None] * nl
        n = shape.n
        self.sids: List[List[Dict[Hashable, int]]] = [
            [{} for _ in range(n)] for _ in range(nl)
        ]
        self.cache: List[List[Dict[int, Tuple[np.ndarray, np.ndarray]]]] = [
            [{} for _ in range(n)] for _ in range(nl)
        ]
        #: Structural dirty sets shared across slots with equal pending keys.
        self.dirty_memo: Dict[Tuple[object, ...], List[int]] = {}

    def materialize(self) -> None:
        """Allocate the 3-D tensors once every staged lane has bound."""
        if self.times is not None:
            return
        if len(self.staged) != len(self.lanes):
            missing = [
                self.lanes[s]
                for s in range(len(self.lanes))
                if s not in self.staged
            ]
            raise EngineError(
                f"lanes {missing!r} have no bound table; bind every lane "
                "of a group before the first refresh"
            )
        nl, nr = len(self.lanes), self.shape.n_rows
        self.m = max(
            (int(t.shape[1]) for t, _, _ in self.staged.values()), default=1
        )
        self.m = max(self.m, 1)
        # time 0 / cost inf padding: a padded type's candidate is always
        # inf, so it can never strictly beat a real one.
        self.times = np.zeros((nl, nr, self.m), dtype=np.int64)
        self.costs = np.full((nl, nr, self.m), np.inf, dtype=np.float64)
        self.rv = np.zeros((nl, nr), dtype=np.int64)
        for s, (t, c, rv) in sorted(self.staged.items()):
            mm = int(t.shape[1])
            self.lane_m[s] = mm
            self.times[s, :, :mm] = t
            self.costs[s, :, :mm] = c
            self.rv[s] = rv
            self.rv_list[s] = rv.tolist()
        self.staged.clear()
        n = self.shape.n
        self.curves = np.zeros((nl, n, self.size), dtype=np.float64)
        self.choices = np.full((nl, n, self.size), NO_CHOICE, dtype=np.int16)
        self.totals = np.zeros((nl, self.size), dtype=np.float64)


class BatchedTreeDP:
    """Multi-lane `Tree_Assign` DP over stacked packed forests.

    Each *lane* is one (forest, table, deadline) instance; lanes
    sharing a forest object share a group block.  The per-lane contract
    mirrors :class:`~repro.engine.kernels.PackedTreeDP` bit for bit —
    same curves, choices, version-token interning, cache probes and
    :class:`DPStats` counters for the same bind/refresh/traceback
    sequence — while the compute runs batched across lanes via
    :func:`batched_sweep`.

    Binding comes in three forms: :meth:`bind_table` (a
    :class:`~repro.fu.table.TimeCostTable` plus its row keys),
    :meth:`bind_arrays` (pre-extracted matrices + version tokens — the
    worker path, where tables never cross the process boundary), and
    :meth:`bind_pinned` (the ``with_fixed`` pin fast path: O(1) row
    update minting the same ``("fixed", base, k)`` token).  Every lane
    of a group must bind before the group's first :meth:`refresh`.
    """

    def __init__(
        self,
        packs: Sequence[Union[PackedForest, ForestShape]],
        deadlines: Sequence[int],
        *,
        names: Optional[Sequence[str]] = None,
        stats: Optional[Sequence[Optional[DPStats]]] = None,
    ):
        if len(packs) != len(deadlines):
            raise EngineError(
                f"{len(packs)} forests but {len(deadlines)} deadlines"
            )
        for d in deadlines:
            if d < 0:
                raise InfeasibleError(f"deadline must be >= 0, got {d}")
        self._forest = BatchedForest(packs)
        self._deadlines = [int(d) for d in deadlines]
        self._names = (
            list(names) if names is not None else ["batched"] * len(packs)
        )
        if len(self._names) != len(packs):
            raise EngineError(
                f"{len(packs)} forests but {len(self._names)} names"
            )
        given = list(stats) if stats is not None else [None] * len(packs)
        if len(given) != len(packs):
            raise EngineError(
                f"{len(packs)} forests but {len(given)} stats slots"
            )
        self.stats: List[DPStats] = [s if s is not None else DPStats() for s in given]
        self._groups: List[_Group] = [
            _Group(
                self._forest.shapes[g],
                lanes,
                [self._deadlines[lane] for lane in lanes],
            )
            for g, lanes in enumerate(self._forest.group_lanes)
        ]
        self._refreshed = [False] * len(packs)

    # ------------------------------------------------------------------
    @property
    def n_lanes(self) -> int:
        return self._forest.n_lanes

    @property
    def forest(self) -> BatchedForest:
        return self._forest

    def deadline(self, lane: int) -> int:
        return self._deadlines[lane]

    def _slot(self, lane: int) -> Tuple[_Group, int]:
        if not 0 <= lane < self._forest.n_lanes:
            raise EngineError(
                f"lane {lane} out of range [0, {self._forest.n_lanes})"
            )
        return (
            self._groups[self._forest.lane_group[lane]],
            self._forest.lane_slot[lane],
        )

    # ------------------------------------------------------------------
    def bind_table(
        self, lane: int, table: TimeCostTable, rows: Sequence[Hashable]
    ) -> None:
        """Bind ``table`` to ``lane``; ``rows`` are its row keys in the
        forest's row order (``PackedForest.rows``)."""
        grp, _ = self._slot(lane)
        nr = grp.shape.n_rows
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

        Token interning mirrors :class:`~repro.engine.pack.RowBinding`:
        tokens are interned per lane to small ids, and only rows whose
        id changed since the previous bind are marked pending for the
        next refresh.  Any injective token scheme is equivalent — the
        worker path uses plain row indices.
        """
        grp, slot = self._slot(lane)
        nr = grp.shape.n_rows
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
        intern = grp.intern[slot]
        rv_new = np.empty(nr, dtype=np.int64)
        for r in range(nr):
            token = tokens[r]
            rid = intern.get(token)
            if rid is None:
                rid = intern[token] = len(intern)
            rv_new[r] = rid
        grp.tokens[slot] = list(tokens)
        if grp.times is None:
            grp.staged[slot] = (times, costs, rv_new)
            grp.pending[slot] = None  # full first bind
            return
        if m != grp.lane_m[slot]:
            raise TableError(
                f"table has {m} FU types but this binding was built for "
                f"{grp.lane_m[slot]}"
            )
        assert grp.rv is not None
        changed = np.flatnonzero(rv_new != grp.rv[slot])
        grp.times[slot, :, :m][changed] = times[changed]
        grp.costs[slot, :, :m][changed] = costs[changed]
        grp.rv[slot] = rv_new
        grp.rv_list[slot] = rv_new.tolist()
        pend = grp.pending[slot]
        if pend is not None:
            pend.extend(int(r) for r in changed)

    def bind_pinned(self, lane: int, row: int, fu_type: int) -> None:
        """Pin ``row`` of ``lane`` to ``fu_type`` — the ``with_fixed``
        fast path: one row update, same version token, no table object."""
        grp, slot = self._slot(lane)
        if grp.times is None:
            raise EngineError(
                "bind_pinned needs a materialized binding; refresh first"
            )
        nr = grp.shape.n_rows
        if not 0 <= row < nr:
            raise EngineError(f"row {row} out of range [0, {nr})")
        m = grp.lane_m[slot]
        if not 0 <= fu_type < m:
            raise EngineError(
                f"fu_type {fu_type} out of range [0, {m}) for lane {lane}"
            )
        token: Hashable = ("fixed", grp.tokens[slot][row], int(fu_type))
        grp.tokens[slot][row] = token
        intern = grp.intern[slot]
        rid = intern.get(token)
        if rid is None:
            rid = intern[token] = len(intern)
        assert grp.rv is not None
        if rid == int(grp.rv[slot, row]):
            return
        grp.rv[slot, row] = rid
        rv_list = grp.rv_list[slot]
        if rv_list is not None:
            rv_list[row] = rid
        grp.times[slot, row, :m] = grp.times[slot, row, fu_type]
        grp.costs[slot, row, :m] = grp.costs[slot, row, fu_type]
        pend = grp.pending[slot]
        if pend is not None:
            pend.append(int(row))

    # ------------------------------------------------------------------
    def _dirty(self, grp: _Group, slot: int) -> List[int]:
        """Dirty node list for ``slot`` (structurally memoized).

        Same rule as ``PackedTreeDP._dirty_nodes``: everything on the
        first refresh, else the changed rows' nodes plus their ancestor
        chains.  The result depends only on the changed-row set, so
        lanes pinning the same row in lockstep share one computation.
        """
        pend = grp.pending[slot]
        if grp.cur_sid[slot] is None or pend is None:
            return list(range(grp.shape.n))
        if not pend:
            return []
        key: Tuple[object, ...] = tuple(sorted(set(pend)))
        memo = grp.dirty_memo.get(key)
        if memo is not None:
            return memo
        shape = grp.shape
        mark = np.isin(shape.row_of, np.asarray(key, dtype=np.int64))
        parent = shape.parent
        for i in np.flatnonzero(mark).tolist():
            p = int(parent[i])
            while p >= 0 and not mark[p]:
                mark[p] = True
                p = int(parent[p])
        memo = np.flatnonzero(mark).tolist()
        grp.dirty_memo[key] = memo
        return memo

    def refresh(self, lanes: Optional[Sequence[int]] = None) -> "BatchedTreeDP":
        """(Re)compute the DP for ``lanes`` (default: every lane).

        Per lane this is exactly one ``PackedTreeDP.refresh``: probe the
        dirty nodes' caches, copy hits into the dense tensors, compute
        the misses — batched across lanes via :func:`batched_sweep` —
        and rebuild the root totals.  Returns ``self`` for chaining.
        """
        t0 = time.perf_counter()
        wanted = set(range(self.n_lanes)) if lanes is None else set(lanes)
        refreshed: List[int] = []
        for grp in self._groups:
            active = [
                s for s, lane in enumerate(grp.lanes) if lane in wanted
            ]
            if not active:
                continue
            grp.materialize()
            assert grp.rv is not None and grp.curves is not None
            assert grp.choices is not None and grp.totals is not None
            shape = grp.shape
            n = shape.n
            kids_tuples = shape.kids_tuples
            row_list = shape.row_list
            slot_targets: List[int] = []
            node_targets: List[int] = []
            for s in active:
                lane = grp.lanes[s]
                st = self.stats[lane]
                st.refreshes += 1
                dirty = self._dirty(grp, s)
                grp.pending[s] = []
                if grp.cur_sid[s] is None:
                    grp.cur_sid[s] = [-1] * n
                cur_sid = grp.cur_sid[s]
                assert cur_sid is not None
                rv_row = grp.rv_list[s]
                assert rv_row is not None  # set at materialization
                sids_all = grp.sids[s]
                cache_all = grp.cache[s]
                curves_s = grp.curves[s]
                choices_s = grp.choices[s]
                recomputed = 0
                slot_append = slot_targets.append
                node_append = node_targets.append
                # Key shape is free per node (each node owns its dict):
                # a flat (rv, *child sids) tuple — or the bare rv for a
                # leaf — is injective because the arity is fixed, and
                # skips a nested tuple build per probe.  A new sid is
                # always a recompute and a known sid always has a cache
                # entry (every current sid was stored when computed),
                # exactly like the scalar engine — so the counters and
                # the numerics are untouched by the single-lookup form.
                for i in dirty:
                    kids = kids_tuples[i]
                    state: object = (
                        (rv_row[row_list[i]], *[cur_sid[c] for c in kids])
                        if kids
                        else rv_row[row_list[i]]
                    )
                    sids = sids_all[i]
                    sid = sids.get(state)
                    if sid is None:
                        sids[state] = sid = len(sids)
                        cur_sid[i] = sid
                        recomputed += 1
                        slot_append(s)
                        node_append(i)
                    elif sid != cur_sid[i]:
                        cur_sid[i] = sid
                        entry = cache_all[i][sid]
                        curves_s[i] = entry[0]
                        choices_s[i] = entry[1]
                st.nodes_visited += n
                st.nodes_recomputed += recomputed
                st.cache_hits += n - recomputed
                if dirty or not grp.has_total[s]:
                    grp.has_total[s] = False  # rebuilt below
                refreshed.append(lane)
            slots_arr = np.asarray(slot_targets, dtype=np.int64)
            nodes_arr = np.asarray(node_targets, dtype=np.int64)
            assert grp.times is not None and grp.costs is not None
            batched_sweep(
                shape,
                grp.curves,
                grp.choices,
                grp.times,
                grp.costs,
                slots_arr,
                nodes_arr,
            )
            if slot_targets:
                # One fancy-indexed snapshot instead of two .copy() calls
                # per recomputed node; each cache entry is a row view of
                # the snapshot, which nothing else ever writes.
                curves_snap = grp.curves[slots_arr, nodes_arr]
                choices_snap = grp.choices[slots_arr, nodes_arr]
                for j, (s, i) in enumerate(zip(slot_targets, node_targets)):
                    sid = grp.cur_sid[s][i]  # type: ignore[index]
                    grp.cache[s][i][sid] = (curves_snap[j], choices_snap[j])
            roots = shape.roots
            for s in active:
                if grp.has_total[s]:
                    continue
                if roots.size:
                    total = grp.curves[s, int(roots[0])].copy()
                    for r in roots[1:].tolist():
                        total += grp.curves[s, r]
                else:
                    total = np.zeros(grp.size, dtype=np.float64)
                grp.totals[s] = total
                grp.has_total[s] = True
                self._refreshed[grp.lanes[s]] = True
        if refreshed:
            share = (time.perf_counter() - t0) / len(refreshed)
            for lane in refreshed:
                self.stats[lane].seconds_refresh += share
        return self

    # ------------------------------------------------------------------
    def _require_refreshed(self, lane: int) -> Tuple[_Group, int]:
        grp, slot = self._slot(lane)
        if not self._refreshed[lane]:
            raise InfeasibleError(
                "BatchedTreeDP.refresh() must run before queries"
            )
        return grp, slot

    def total_curve(self, lane: int) -> np.ndarray:
        """The lane's forest curve ``D[0..deadline]`` (prefix view)."""
        grp, slot = self._require_refreshed(lane)
        assert grp.totals is not None
        return grp.totals[slot, : self._deadlines[lane] + 1]

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
        grp, slot = self._require_refreshed(lane)
        assert grp.times is not None
        shape = grp.shape
        if shape.n == 0:
            return 0
        m = grp.lane_m[slot]
        tmin = grp.times[slot, :, :m].min(axis=1)[shape.row_of]
        down = np.zeros(shape.n, dtype=np.int64)
        for i in range(shape.n):  # ascending = children first
            lo, hi = int(shape.child_off[i]), int(shape.child_off[i + 1])
            best_kid = int(down[shape.child_idx[lo:hi]].max()) if hi > lo else 0
            down[i] = int(tmin[i]) + best_kid
        return int(down[shape.roots].max()) if shape.roots.size else 0

    def infeasible_error(self, lane: int, budget: int) -> InfeasibleError:
        """The scalar engine's infeasibility error for ``lane``."""
        min_time = self.min_time(lane)
        return InfeasibleError(
            f"no assignment of {self._names[lane]!r} completes within "
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
        A budget outside ``[0, deadline]`` raises immediately, like the
        scalar engine's range check.  An infeasible lane either raises
        the scalar-identical :class:`InfeasibleError`
        (``on_infeasible="raise"``, lowest lane first) or stores the
        exception in its slot (``"mark"``) so independent jobs in one
        batch can fail independently; either way the lane's traceback
        counter increments first, as the scalar engine's would.

        Feasible lanes get an ``(n,)`` array of type choices in packed
        node order, equal to ``PackedTreeDP.traceback_at`` values.
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
        n_traced = 0
        for grp in self._groups:
            req: List[Tuple[int, int]] = []  # (slot, budget)
            for s, lane in enumerate(grp.lanes):
                b = budgets[lane]
                if b is None:
                    continue
                self._require_refreshed(lane)
                if not 0 <= b <= self._deadlines[lane]:
                    raise InfeasibleError(
                        f"budget {b} outside the engine's range "
                        f"[0, {self._deadlines[lane]}]"
                    )
                req.append((s, int(b)))
            if not req:
                continue
            assert grp.totals is not None and grp.choices is not None
            assert grp.times is not None
            feasible: List[Tuple[int, int]] = []
            for s, b in req:
                lane = grp.lanes[s]
                self.stats[lane].tracebacks += 1
                n_traced += 1
                if not np.isfinite(grp.totals[s, b]):
                    err = self.infeasible_error(lane, b)
                    if on_infeasible == "raise":
                        raise err
                    out[lane] = err
                else:
                    feasible.append((s, b))
            if not feasible:
                continue
            shape = grp.shape
            slots = np.asarray([s for s, _ in feasible], dtype=np.int64)
            ns = slots.size
            budgets_mat = np.zeros((ns, shape.n), dtype=np.int64)
            ks_mat = np.zeros((ns, shape.n), dtype=np.int64)
            if shape.roots.size:
                budgets_mat[:, shape.roots] = np.asarray(
                    [b for _, b in feasible], dtype=np.int64
                )[:, None]
            col = slots[:, None]
            for lvl, kids, lvl_rows, lvl_counts in zip(
                shape.levels,
                shape.level_children,
                shape.level_rows,
                shape.level_counts,
            ):
                b = budgets_mat[:, lvl]
                k = grp.choices[col, lvl[None, :], b]
                assert int(k.min()) != NO_CHOICE, (
                    "traceback hit infeasible cell (group node "
                    f"{int(lvl[int(np.argmax((k == NO_CHOICE).any(axis=0)))])})"
                )
                ks_mat[:, lvl] = k
                if kids.size:
                    rem = b - grp.times[col, lvl_rows[None, :], k]
                    budgets_mat[:, kids] = np.repeat(rem, lvl_counts, axis=1)
            for j, (s, _) in enumerate(feasible):
                out[grp.lanes[s]] = ks_mat[j]
        if n_traced:
            share = (time.perf_counter() - t0) / n_traced
            for lane, b in enumerate(budgets):
                if b is not None:
                    self.stats[lane].seconds_traceback += share
        return out

    def traceback_at(self, lane: int, budget: int) -> np.ndarray:
        """Single-lane traceback (raises like the scalar engine)."""
        budgets: List[Optional[int]] = [None] * self.n_lanes
        budgets[lane] = budget
        result = self.traceback_all(budgets, on_infeasible="raise")[lane]
        assert isinstance(result, np.ndarray)
        return result
