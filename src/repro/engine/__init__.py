"""Execution engine: the tree-DP engine + deterministic parallelism.

``repro.engine`` is the performance substrate underneath the solver
layers.  It has two halves:

* **The tree-DP engine** — :mod:`~repro.engine.batch` compiles an
  out-forest once into a :class:`ForestShape` (:func:`compile_forest`:
  children-first CSR arrays, BFS levels, heights) and runs
  :class:`BatchedTreeDP`, the one `Tree_Assign` engine: each lane is a
  (table, deadline) instance with dense 3-D time/cost bindings, a
  refresh recomputes exactly each lane's dirty nodes — one
  :func:`batched_sweep` of one sweep plan per set of changed
  rows, shared by the lanes pinning in lockstep — and a level-to-level
  traceback answers every lane at once.  `dfg_assign_repeat` is one lane; sweeps and
  serve misses are many.  :mod:`~repro.engine.kernels` holds the curve
  primitives (`zero_curve`, `combine_children`, `node_step`, ...) of
  the `Tree_Assign` recurrence the engine is bit-identical to, and
  :mod:`~repro.engine.stats` its :class:`DPStats` counters.

* **Deterministic parallelism** — :mod:`~repro.engine.parallel`
  provides :func:`pmap`, a spawn-safe, chunked, order-preserving
  process map with a serial fallback at ``workers=0`` whose results
  are independent of the worker count; :mod:`~repro.engine.budget`
  adds :class:`Budget`, the pre-split evaluation/wall-clock allowance
  that anytime solvers consult when raced through ``pmap``.

Layering: the engine sits beside ``fu`` (layer 2) — it may import
``errors``/``obs``/``graph``/``fu`` and nothing above; the
``assign``/``sched``/``report`` layers build on it (lintkit rule
RL004).  See ``docs/performance.md``.
"""

from .batch import BatchedTreeDP, ForestShape, batched_sweep, compile_forest
from .budget import Budget
from .kernels import (
    NO_CHOICE,
    combine_children,
    first_feasible_budget,
    infeasible_curve,
    node_step,
    window_bounds,
    zero_curve,
)
from .parallel import pmap, resolve_workers, shutdown_pools
from .stats import DPStats

__all__ = [
    "BatchedTreeDP",
    "Budget",
    "DPStats",
    "ForestShape",
    "batched_sweep",
    "compile_forest",
    "shutdown_pools",
    "NO_CHOICE",
    "zero_curve",
    "infeasible_curve",
    "combine_children",
    "node_step",
    "first_feasible_budget",
    "window_bounds",
    "pmap",
    "resolve_workers",
]
