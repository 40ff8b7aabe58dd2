"""Per-node execution time and cost tables.

For each DFG node ``v`` and FU type index ``j`` the table stores the
integer execution time ``t_j(v)`` and the (float) execution cost
``c_j(v)`` — the paper's ``T(v)`` and ``C(v)`` vectors.  The dynamic
programs iterate over a discrete time axis, so times must be
non-negative integers; costs can be any non-negative reals (energy,
reliability cost ``λ·t``, price, …) since the objective is a plain sum.

The table is deliberately independent of any particular DFG: expansion
creates node *copies* that share the original node's row (looked up via
an ``origin`` key), and `DFG_Assign_Repeat` pins nodes by replacing
their row with a single-choice row (:meth:`TimeCostTable.with_fixed`).
"""

from __future__ import annotations

import itertools
from typing import Dict, Hashable, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import TableError
from ..graph.dfg import DFG, Node

__all__ = ["TimeCostTable", "RowVersion"]

#: Opaque structural version of one table row (hashable, comparable for
#: equality).  Either a fresh integer (minted by :meth:`TimeCostTable.set_row`)
#: or a ``("fixed", base, fu_type)`` tuple derived by
#: :meth:`TimeCostTable.with_fixed` — derived tokens are *content-stable*:
#: pinning the same base row to the same type always yields the same token,
#: no matter when or on which table copy it happens.  The tree-DP engines
#: compare these tokens to find the rows a refresh must recompute.
RowVersion = Hashable

#: Global mint for fresh row versions; never reused, so two rows share a
#: token only when one was copied (structurally unchanged) from the other.
_ROW_VERSIONS = itertools.count()


class TimeCostTable:
    """Execution times and costs for every (node, FU type) pair.

    Parameters
    ----------
    num_types:
        Number of FU types ``M``; every row has exactly this length.
    """

    __slots__ = ("_num_types", "_times", "_costs", "_versions")

    def __init__(self, num_types: int):
        if num_types < 1:
            raise TableError("a table needs at least one FU type")
        self._num_types = int(num_types)
        self._times: Dict[Node, np.ndarray] = {}
        self._costs: Dict[Node, np.ndarray] = {}
        self._versions: Dict[Node, RowVersion] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def set_row(
        self, node: Node, times: Sequence[int], costs: Sequence[float]
    ) -> None:
        """Define (or overwrite) the row for ``node``.

        ``times`` must be non-negative integers (0 is reserved for
        pseudo nodes inserted by the algorithms); ``costs`` must be
        non-negative and finite.
        """
        t = np.asarray(times)
        c = np.asarray(costs, dtype=np.float64)
        if t.shape != (self._num_types,) or c.shape != (self._num_types,):
            raise TableError(
                f"row for {node!r} must have {self._num_types} entries, "
                f"got times={t.shape} costs={c.shape}"
            )
        if not np.issubdtype(t.dtype, np.integer):
            if not np.all(t == np.floor(t)):
                raise TableError(f"non-integer execution time for {node!r}: {t}")
            t = t.astype(np.int64)
        else:
            t = t.astype(np.int64)
        if np.any(t < 0):
            raise TableError(f"negative execution time for {node!r}: {t}")
        if np.any(c < 0) or not np.all(np.isfinite(c)):
            raise TableError(f"invalid execution cost for {node!r}: {c}")
        self._times[node] = t
        self._times[node].setflags(write=False)
        self._costs[node] = c
        self._costs[node].setflags(write=False)
        self._versions[node] = next(_ROW_VERSIONS)

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[Node, Tuple[Sequence[int], Sequence[float]]],
    ) -> "TimeCostTable":
        """Build a table from ``{node: (times, costs)}``.

        All rows are stacked and checked in one numpy pass; only when a
        check fails does it fall back to :meth:`set_row` row by row, so
        the error raised is the one :meth:`set_row` raises for the
        first bad row.
        """
        rows = dict(rows)
        if not rows:
            raise TableError("cannot build a table with no rows")
        first = next(iter(rows.values()))
        table = cls(num_types=len(first[0]))
        try:
            times = np.array([r[0] for r in rows.values()])
            costs = np.array([r[1] for r in rows.values()], dtype=np.float64)
        except (TypeError, ValueError, IndexError):  # malformed rows
            times = costs = np.empty(0)
        shape = (len(rows), table._num_types)
        if (
            times.shape == shape
            and costs.shape == shape
            and np.issubdtype(times.dtype, np.integer)
            and not (times < 0).any()
            and not (costs < 0).any()
            and np.isfinite(costs).all()
        ):
            times = times.astype(np.int64, copy=False)
            times.setflags(write=False)
            costs.setflags(write=False)
            for node, t, c in zip(rows, times, costs):
                table._times[node] = t
                table._costs[node] = c
                table._versions[node] = next(_ROW_VERSIONS)
            return table
        for node, (times_row, costs_row) in rows.items():
            table.set_row(node, times_row, costs_row)
        return table

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    @property
    def num_types(self) -> int:
        """Number of FU types ``M``."""
        return self._num_types

    def __contains__(self, node: Node) -> bool:
        return node in self._times

    def nodes(self) -> Iterable[Node]:
        return self._times.keys()

    def __len__(self) -> int:
        return len(self._times)

    def times(self, node: Node) -> np.ndarray:
        """Read-only vector of execution times for ``node`` (length M)."""
        try:
            return self._times[node]
        except KeyError as exc:
            raise TableError(f"no table row for node {node!r}") from exc

    def costs(self, node: Node) -> np.ndarray:
        """Read-only vector of execution costs for ``node`` (length M)."""
        try:
            return self._costs[node]
        except KeyError as exc:
            raise TableError(f"no table row for node {node!r}") from exc

    def time(self, node: Node, fu_type: int) -> int:
        """``t_j(v)`` with bounds checking on the type index."""
        row = self.times(node)
        if not 0 <= fu_type < self._num_types:
            raise TableError(f"type index {fu_type} out of range [0,{self._num_types})")
        return int(row[fu_type])

    def cost(self, node: Node, fu_type: int) -> float:
        """``c_j(v)`` with bounds checking on the type index."""
        row = self.costs(node)
        if not 0 <= fu_type < self._num_types:
            raise TableError(f"type index {fu_type} out of range [0,{self._num_types})")
        return float(row[fu_type])

    def row_version(self, node: Node) -> RowVersion:
        """Structural version token of the row for ``node``.

        Two equal tokens guarantee structurally identical rows: the
        token survives :meth:`copy` unchanged, is re-minted by
        :meth:`set_row`, and is *derived deterministically* by
        :meth:`with_fixed` — pinning the same base row to the same type
        yields the same token on every call.  Tokens therefore compare
        equal across independently derived table copies, which is how
        the tree-DP engines find the rows a refresh must recompute.
        """
        try:
            return self._versions[node]
        except KeyError as exc:
            raise TableError(f"no table row for node {node!r}") from exc

    def min_time(self, node: Node) -> int:
        """Fastest execution time available for ``node``."""
        return int(self.times(node).min())

    def min_cost(self, node: Node) -> float:
        """Cheapest execution cost available for ``node``."""
        return float(self.costs(node).min())

    def min_times(self, nodes: Optional[Iterable[Node]] = None) -> Dict[Node, int]:
        """``{node: fastest time}`` for ``nodes`` (default: all rows)."""
        keys = self.nodes() if nodes is None else nodes
        return {n: self.min_time(n) for n in keys}

    def fastest_type(self, node: Node) -> int:
        """Type index of the fastest option (lowest cost breaks ties)."""
        t = self.times(node)
        c = self.costs(node)
        candidates = np.flatnonzero(t == t.min())
        return int(candidates[np.argmin(c[candidates])])

    def cheapest_type(self, node: Node) -> int:
        """Type index of the cheapest option (lowest time breaks ties)."""
        t = self.times(node)
        c = self.costs(node)
        candidates = np.flatnonzero(c == c.min())
        return int(candidates[np.argmin(t[candidates])])

    # ------------------------------------------------------------------
    # derivation
    # ------------------------------------------------------------------
    def with_fixed(self, node: Node, fu_type: int) -> "TimeCostTable":
        """A copy in which ``node`` can only be the given type.

        Every entry of the node's row is replaced by the chosen
        (time, cost) pair, so any type the DP picks yields the pinned
        behaviour.  Used by `DFG_Assign_Repeat` to freeze duplicated
        nodes one at a time.
        """
        t = self.time(node, fu_type)
        c = self.cost(node, fu_type)
        out = self.copy()
        base = self._versions[node]
        out.set_row(node, [t] * self._num_types, [c] * self._num_types)
        # Structural token: pinning the same base row to the same type is
        # the same row, whenever and on whichever copy it happens.
        out._versions[node] = ("fixed", base, int(fu_type))
        return out

    def with_row(
        self, node: Node, times: Sequence[int], costs: Sequence[float]
    ) -> "TimeCostTable":
        """A copy with one row added or replaced."""
        out = self.copy()
        out.set_row(node, times, costs)
        return out

    def copy(self) -> "TimeCostTable":
        out = TimeCostTable(self._num_types)
        out._times = dict(self._times)
        out._costs = dict(self._costs)
        out._versions = dict(self._versions)
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate_for(self, dfg: DFG) -> None:
        """Check every node of ``dfg`` has a row; raise otherwise."""
        missing = [n for n in dfg.nodes() if n not in self._times]
        if missing:
            raise TableError(
                f"table missing rows for {len(missing)} node(s) of "
                f"{dfg.name!r}, e.g. {missing[:5]!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TimeCostTable(num_types={self._num_types}, rows={len(self)})"
