"""Incremental tree-DP engine: cached cost curves + any-deadline traceback.

`Tree_Assign` is a bottom-up DP over per-node *cost curves*.  Two
observations make it incremental:

1. **A node's curve depends only on its table row and its children's
   curves.**  `DFG_Assign_Repeat` re-runs the whole DP after pinning a
   single original node, but a pin only changes the rows of that node's
   copies — so only those copies and their ancestors (the root-paths)
   need recomputation.  Everything else is a cache hit.
2. **A curve computed at deadline ``L`` answers every budget ``j ≤ L``.**
   ``node_step`` fills budget ``j`` from child entries ``≤ j`` only, so
   the length-``L+1`` curves are prefix-identical to the curves a fresh
   DP at deadline ``j`` would produce — and the traceback at ``j`` is
   identical too.  One `_curves`-equivalent pass therefore serves an
   entire deadline sweep (`dfg_frontier`) through
   :meth:`IncrementalTreeDP.traceback_at`.

The cache is keyed by *subtree state*: an interned id per node derived
from the node's :meth:`~repro.fu.table.TimeCostTable.row_version` token
and the state ids of its children.  Because
:meth:`~repro.fu.table.TimeCostTable.with_fixed` mints content-stable
tokens (same base row + same pin ⇒ same token), re-deriving the same
pinned table at a later sweep step hits the cache even though it is a
distinct object — the property that turns `dfg_frontier`'s ``L`` full
heuristic runs into roughly one DP per distinct pin round.

:class:`DPStats` (now defined in :mod:`repro.engine.stats`, re-exported
here) counts node visits, recomputations, cache hits, and wall time per
stage so the savings are observable
(`repro.report.profiles.profile_incremental`).

Two interchangeable engines implement this contract, selected by the
``kernel`` knob on `dfg_assign_repeat` (via :func:`make_tree_engine`):

* ``"packed"`` (default) — :class:`PackedAssignDP`, the
  :class:`repro.engine.kernels.PackedTreeDP` array engine plus the
  assign-layer ``result_at``;
* ``"python"`` — :class:`IncrementalTreeDP` below, the per-node
  dict-backed reference the packed engine is bit-identical to.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from ..engine import DPStats, PackedTreeDP
from ..engine.kernels import NO_CHOICE, combine_children, first_feasible_budget, node_step
from ..errors import AssignError, InfeasibleError, NotATreeError
from ..fu.table import TimeCostTable
from ..graph.classify import is_out_forest
from ..graph.dag import reverse_topological_order
from ..graph.dfg import DFG, Node
from .assignment import Assignment
from .result import AssignResult

__all__ = [
    "DPStats",
    "IncrementalTreeDP",
    "PackedAssignDP",
    "TreeEngine",
    "KERNELS",
    "make_tree_engine",
]

#: Maps a tree node to the key under which its table row is stored.
NodeKey = Callable[[Node], Node]

#: Valid values of the ``kernel`` knob, in preference order.
KERNELS = ("packed", "python")


class IncrementalTreeDP:
    """Cached `Tree_Assign` DP over a fixed out-forest.

    The tree is fixed at construction; the *table* varies across
    :meth:`refresh` calls (typically a base table and its
    ``with_fixed`` derivatives).  After a refresh,
    :meth:`traceback_at` answers any budget ``j ≤ deadline`` in
    O(n) — no further DP work — with exactly the assignment
    `tree_assign` would produce at that deadline.

    Parameters
    ----------
    tree:
        An out-forest (in-degree ≤ 1 everywhere), e.g. the result of
        `DFG_Expand`, or an empty graph.  In-forests must be transposed
        by the caller (`tree_assign` does).
    deadline:
        Curve length; every queried budget must be ≤ this.
    node_key:
        Redirects table lookups for expanded trees whose nodes are
        copies of original nodes (`ExpandedTree.origin_of`).
    stats:
        Optional externally-owned :class:`DPStats` to accumulate into
        (shared across engines by profiling code).
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
                f"{tree.name!r} is not an out-forest; IncrementalTreeDP "
                "requires the DFG_Expand shape (transpose in-forests first)"
            )
        if deadline < 0:
            raise InfeasibleError(f"deadline must be >= 0, got {deadline}")
        self._tree = tree
        self._deadline = int(deadline)
        self._key: NodeKey = node_key or (lambda n: n)
        self._order: List[Node] = list(reverse_topological_order(tree))
        self._children: Dict[Node, List[Node]] = {
            n: tree.children(n) for n in self._order
        }
        self._roots: List[Node] = tree.roots()
        self.stats = stats if stats is not None else DPStats()
        # Per node: intern table of subtree-state keys -> small id, and
        # the curve cache keyed by that id.
        self._sids: Dict[Node, Dict[Tuple, int]] = {n: {} for n in self._order}
        self._cache: Dict[Node, Dict[int, Tuple[np.ndarray, np.ndarray]]] = {
            n: {} for n in self._order
        }
        # State of the latest refresh.
        self._table: Optional[TimeCostTable] = None
        self._curves: Dict[Node, np.ndarray] = {}
        self._choices: Dict[Node, np.ndarray] = {}
        self._total: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def tree(self) -> DFG:
        return self._tree

    @property
    def deadline(self) -> int:
        return self._deadline

    def cache_entries(self) -> int:
        """Total cached (node, subtree-state) curve entries."""
        return sum(len(c) for c in self._cache.values())

    def clear_cache(self) -> None:
        """Drop every cached curve (the next refresh recomputes all)."""
        for n in self._order:
            self._sids[n].clear()
            self._cache[n].clear()

    # ------------------------------------------------------------------
    def refresh(self, table: TimeCostTable) -> "IncrementalTreeDP":
        """(Re)compute the DP under ``table``, reusing cached subtrees.

        A node is recomputed only when its own row version or any
        descendant's changed since the state was last seen — for a
        ``with_fixed`` pin this is the pinned copies plus their
        root-paths.  Returns ``self`` for chaining.
        """
        t0 = time.perf_counter()
        self.stats.refreshes += 1
        key = self._key
        sid_of: Dict[Node, int] = {}
        curves = self._curves = {}
        choices = self._choices = {}
        recomputed = hits = 0
        for node in self._order:
            children = self._children[node]
            row = key(node)
            state = (
                table.row_version(row),
                tuple(sid_of[c] for c in children),
            )
            sids = self._sids[node]
            sid = sids.get(state)
            if sid is None:
                sid = sids[state] = len(sids)
            sid_of[node] = sid
            entry = self._cache[node].get(sid)
            if entry is None:
                base = combine_children(
                    [curves[c] for c in children], deadline=self._deadline
                )
                entry = node_step(base, table.times(row), table.costs(row))
                self._cache[node][sid] = entry
                recomputed += 1
            else:
                hits += 1
            curves[node], choices[node] = entry
        self._total = combine_children(
            [curves[r] for r in self._roots], deadline=self._deadline
        )
        self._table = table
        self.stats.nodes_visited += len(self._order)
        self.stats.nodes_recomputed += recomputed
        self.stats.cache_hits += hits
        self.stats.seconds_refresh += time.perf_counter() - t0
        return self

    # ------------------------------------------------------------------
    def _require_refreshed(self) -> TimeCostTable:
        if self._table is None:
            raise InfeasibleError(
                "IncrementalTreeDP.refresh(table) must run before queries"
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
        return self._curves[node]

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

        O(n) — reads the cached curves of the latest refresh; the
        result is identical to a fresh ``tree_assign`` run at
        ``budget`` (curves are prefix-identical across deadlines).

        Raises :class:`InfeasibleError` when no assignment meets
        ``budget``, with the same diagnostics `tree_assign` attaches.
        """
        table = self._require_refreshed()
        if not 0 <= budget <= self._deadline:
            raise InfeasibleError(
                f"budget {budget} outside the engine's range [0, {self._deadline}]"
            )
        t0 = time.perf_counter()
        self.stats.tracebacks += 1
        assert self._total is not None
        if not np.isfinite(self._total[budget]):
            self._raise_infeasible(budget)
        key = self._key
        choices = self._choices
        # Top-down traceback: every root independently owns the full
        # budget.  Mirrors tree_assign exactly (same stack order), so
        # assignments agree byte-for-byte with the reference path.
        mapping: Dict[Node, int] = {}
        stack = [(r, budget) for r in self._roots]
        while stack:
            node, b = stack.pop()
            k = int(choices[node][b])
            assert k != NO_CHOICE, f"traceback hit infeasible cell at {node!r}"
            mapping[node] = k
            remaining = b - table.time(key(node), k)
            for c in self._children[node]:
                stack.append((c, remaining))
        self.stats.seconds_traceback += time.perf_counter() - t0
        return mapping

    def result_at(
        self, budget: int, algorithm: str = "tree_assign"
    ) -> AssignResult:
        """An :class:`AssignResult` for ``budget``, like `tree_assign`'s."""
        from ..graph.paths import longest_path_time

        table = self._require_refreshed()
        key = self._key
        mapping = self.traceback_at(budget)
        cost = float(
            sum(table.cost(key(n), mapping[n]) for n in self._tree.nodes())
        )
        times = {n: table.time(key(n), mapping[n]) for n in self._tree.nodes()}
        return AssignResult(
            assignment=Assignment.of(mapping),
            cost=cost,
            completion_time=longest_path_time(self._tree, times),
            deadline=budget,
            algorithm=algorithm,
        )


class PackedAssignDP(PackedTreeDP):
    """The packed engine with assign-layer result materialization.

    :class:`~repro.engine.kernels.PackedTreeDP` is layered below
    ``assign`` and cannot know about :class:`AssignResult`; this
    subclass adds the same :meth:`result_at` surface
    :class:`IncrementalTreeDP` offers, so the two engines are
    drop-in interchangeable everywhere in this package.
    """

    def result_at(
        self, budget: int, algorithm: str = "tree_assign"
    ) -> AssignResult:
        """An :class:`AssignResult` for ``budget``, like `tree_assign`'s."""
        mapping, cost, completion = self.result_fields(budget)
        return AssignResult(
            assignment=Assignment.of(mapping),
            cost=cost,
            completion_time=completion,
            deadline=budget,
            algorithm=algorithm,
        )


#: Either DP engine; both expose refresh/traceback_at/result_at/etc.
TreeEngine = Union[IncrementalTreeDP, PackedAssignDP]


def make_tree_engine(
    tree: DFG,
    deadline: int,
    *,
    node_key: Optional[NodeKey] = None,
    stats: Optional[DPStats] = None,
    kernel: str = "packed",
) -> TreeEngine:
    """Construct the tree-DP engine selected by ``kernel``.

    ``"packed"`` (default) builds the array engine; ``"python"`` the
    dict-backed reference.  Both produce bit-identical curves,
    assignments, costs, errors, and :class:`DPStats` counters — the
    equivalence is pinned by ``tests/properties/test_prop_engine.py``.
    Unknown names raise :class:`~repro.errors.AssignError`.
    """
    if kernel == "packed":
        return PackedAssignDP(tree, deadline, node_key=node_key, stats=stats)
    if kernel == "python":
        return IncrementalTreeDP(tree, deadline, node_key=node_key, stats=stats)
    raise AssignError(
        f"unknown kernel {kernel!r}; choose one of {list(KERNELS)}"
    )
