"""Counters of the incremental tree-DP engine.

:class:`DPStats` lives in the engine layer so every lane of
:class:`repro.engine.batch.BatchedTreeDP` — the one lane of a
`dfg_assign_repeat` call as much as each lane of a sweep — accumulates
into the same kind of caller-owned object; ``repro.assign`` re-exports
it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["DPStats"]


@dataclass
class DPStats:
    """Counters for the incremental engine (cumulative across refreshes).

    ``nodes_visited`` counts every tree node once per refresh; each
    visit is either a ``nodes_recomputed`` (the node is in the
    refresh's dirty set: a changed row's node or one of its ancestors)
    or a ``cache_hit`` (its curve carries over from the previous
    refresh).  ``seconds_refresh``/``seconds_traceback`` split the wall
    time between the two stages.  A lane reports the same integer
    counters whether it runs alone or batched with other lanes.
    """

    refreshes: int = 0
    tracebacks: int = 0
    nodes_visited: int = 0
    nodes_recomputed: int = 0
    cache_hits: int = 0
    seconds_refresh: float = 0.0
    seconds_traceback: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of node visits that kept their curve (0.0 when unused)."""
        return self.cache_hits / self.nodes_visited if self.nodes_visited else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Counter snapshot, keyed like the ``dp.*`` observability metrics.

        The public DP entry points publish *deltas* of this snapshot to
        the ambient :mod:`repro.obs` tracer, so enabling tracing shows
        exactly the numbers a caller-owned ``DPStats`` would accumulate.
        """
        return {
            "refreshes": float(self.refreshes),
            "tracebacks": float(self.tracebacks),
            "nodes_visited": float(self.nodes_visited),
            "nodes_recomputed": float(self.nodes_recomputed),
            "cache_hits": float(self.cache_hits),
            "seconds_refresh": self.seconds_refresh,
            "seconds_traceback": self.seconds_traceback,
        }

    def __add__(self, other: "DPStats") -> "DPStats":
        return DPStats(
            refreshes=self.refreshes + other.refreshes,
            tracebacks=self.tracebacks + other.tracebacks,
            nodes_visited=self.nodes_visited + other.nodes_visited,
            nodes_recomputed=self.nodes_recomputed + other.nodes_recomputed,
            cache_hits=self.cache_hits + other.cache_hits,
            seconds_refresh=self.seconds_refresh + other.seconds_refresh,
            seconds_traceback=self.seconds_traceback + other.seconds_traceback,
        )

    def __iadd__(self, other: "DPStats") -> "DPStats":
        """Accumulate ``other`` in place, so caller-owned stats fill up."""
        self.__dict__.update(vars(self + other))
        return self
