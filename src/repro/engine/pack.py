"""CSR packing of out-forests and dense table bindings.

:class:`PackedForest` compiles the *shape* of an out-forest once —
reverse-topological node order, parent/child CSR arrays, BFS levels for
the vectorized traceback, and the mapping from nodes to distinct table
rows.  :class:`RowBinding` compiles the *table*: dense ``(row, type)``
time/cost matrices plus the row-version tokens they hold, updated in
place when a refresh binds a table whose rows mostly match the previous
one (the ``with_fixed`` pin pattern).

Both are pure data carriers; the DP itself lives in
:mod:`repro.engine.kernels`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from ..errors import NotATreeError, TableError
from ..fu.table import TimeCostTable
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node

__all__ = ["PackedForest", "RowBinding"]

#: Maps a tree node to the key under which its table row is stored.
NodeKey = Callable[[Node], Node]


class PackedForest:
    """Immutable CSR view of an out-forest, built once per tree.

    Nodes are numbered in reverse-topological order, so every child's
    index is smaller than its parent's — ascending iteration is a
    children-first sweep.  ``levels``/``level_children`` hold the BFS
    front from the roots down; ``level_children[k]`` is the
    concatenation of the children of ``levels[k]`` in CSR order, which
    is exactly ``levels[k + 1]`` — the alignment the vectorized
    traceback's ``np.repeat`` scatter relies on.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "parent",
        "child_off",
        "child_idx",
        "child_counts",
        "children_tuples",
        "rows",
        "row_of",
        "roots",
        "levels",
        "level_children",
        "level_rows",
        "level_counts",
        "insertion_idx",
    )

    def __init__(self, tree: DFG, node_key: Optional[NodeKey] = None):
        key = node_key or (lambda n: n)
        self.nodes: List[Node] = list(reverse_topological_order(tree))
        self.index: Dict[Node, int] = {n: i for i, n in enumerate(self.nodes)}
        self.n: int = len(self.nodes)

        parent = np.full(self.n, -1, dtype=np.int64)
        child_off = np.zeros(self.n + 1, dtype=np.int64)
        flat_children: List[int] = []
        children_tuples: List[Tuple[int, ...]] = []
        for i, node in enumerate(self.nodes):
            kids = tuple(self.index[c] for c in tree.children(node))
            children_tuples.append(kids)
            flat_children.extend(kids)
            child_off[i + 1] = len(flat_children)
            for c in kids:
                if parent[c] != -1:
                    raise NotATreeError(
                        f"{tree.name!r} is not an out-forest: "
                        f"{self.nodes[c]!r} has several parents"
                    )
                parent[c] = i
        self.parent = parent
        self.child_off = child_off
        self.child_idx = np.asarray(flat_children, dtype=np.int64)
        self.child_counts = np.diff(child_off)
        self.children_tuples = children_tuples

        # Distinct table rows, in first-appearance (reverse-topo) order.
        rows: List[Node] = []
        row_index: Dict[Node, int] = {}
        row_of = np.empty(self.n, dtype=np.int64)
        for i, node in enumerate(self.nodes):
            r = key(node)
            ri = row_index.get(r)
            if ri is None:
                ri = row_index[r] = len(rows)
                rows.append(r)
            row_of[i] = ri
        self.rows = rows
        self.row_of = row_of

        self.roots = np.asarray(
            [self.index[r] for r in tree.roots()], dtype=np.int64
        )
        levels: List[np.ndarray] = []
        level_children: List[np.ndarray] = []
        front = self.roots
        while front.size:
            levels.append(front)
            kids_parts = [
                self.child_idx[child_off[i] : child_off[i + 1]]
                for i in front.tolist()
            ]
            front = (
                np.concatenate(kids_parts)
                if kids_parts
                else np.empty(0, dtype=np.int64)
            )
            level_children.append(front)
        self.levels = levels
        self.level_children = level_children
        # Per-level gathers the traceback would otherwise redo per call.
        self.level_rows = [self.row_of[lvl] for lvl in levels]
        self.level_counts = [self.child_counts[lvl] for lvl in levels]

        self.insertion_idx = np.asarray(
            [self.index[n] for n in tree.nodes()], dtype=np.int64
        )


class RowBinding:
    """Dense per-row time/cost matrices for one :class:`PackedForest`.

    ``bind(table)`` refreshes the matrices against a (possibly derived)
    table and returns the indices of rows whose
    :meth:`~repro.fu.table.TimeCostTable.row_version` changed since the
    previous bind — for a ``with_fixed`` pin that is the single pinned
    row.  Equal tokens guarantee structurally identical rows, so a row
    whose token is unchanged keeps its matrix entries.
    """

    __slots__ = ("_pack", "times", "costs", "tokens")

    def __init__(self, pack: PackedForest):
        self._pack = pack
        self.times: Optional[np.ndarray] = None
        self.costs: Optional[np.ndarray] = None
        self.tokens: Optional[List[Hashable]] = None

    def bind(self, table: TimeCostTable) -> np.ndarray:
        """Update the matrices for ``table``; return changed row indices."""
        rows = self._pack.rows
        nr = len(rows)
        tokens = [table.row_version(key) for key in rows]
        if self.times is None or self.costs is None or self.tokens is None:
            m = table.num_types
            self.times = np.empty((nr, m), dtype=np.int64)
            self.costs = np.empty((nr, m), dtype=np.float64)
            changed = np.arange(nr, dtype=np.int64)
        else:
            if self.times.shape[1] != table.num_types:
                raise TableError(
                    f"table has {table.num_types} FU types but this "
                    f"binding was built for {self.times.shape[1]}"
                )
            old = self.tokens
            changed = np.asarray(
                [r for r in range(nr) if tokens[r] != old[r]], dtype=np.int64
            )
        for r in changed.tolist():
            self.times[r] = table.times(rows[r])
            self.costs[r] = table.costs(rows[r])
        self.tokens = tokens
        return changed

    def reset(self) -> None:
        """Forget the bound table (the next bind repopulates every row)."""
        self.times = None
        self.costs = None
        self.tokens = None
