"""Execution engine: packed DP kernels + deterministic parallelism.

``repro.engine`` is the performance substrate underneath the solver
layers.  It has two halves:

* **Packed kernels** — :mod:`~repro.engine.pack` compiles an out-forest
  plus a :class:`~repro.fu.table.TimeCostTable` into CSR-style numpy
  arrays (reverse-topological node index, child offset/index arrays,
  dense per-row ``(type → time, cost)`` matrices, interned row-version
  ids) built once and reused across deadline sweeps and pin rounds;
  :mod:`~repro.engine.kernels` provides the curve primitives
  (`zero_curve`, `combine_children`, `node_step`, ...) shared with the
  `Tree_Assign` recurrence plus :class:`PackedTreeDP`, the incremental
  engine of `dfg_assign_repeat`, bit-identical to the recurrence by
  construction (same `node_step`, same sequential float summation,
  same tie-breaks).

* **Deterministic parallelism** — :mod:`~repro.engine.parallel`
  provides :func:`pmap`, a spawn-safe, chunked, order-preserving
  process map with a serial fallback at ``workers=0`` whose results
  are independent of the worker count; :mod:`~repro.engine.budget`
  adds :class:`Budget`, the pre-split evaluation/wall-clock allowance
  that anytime solvers consult when raced through ``pmap``;
  :mod:`~repro.engine.arena` adds :class:`TableArena`, the
  shared-memory block that ships large read-only arrays to workers as
  tiny :class:`ArenaRef` descriptors instead of pickled copies (with a
  degrade-to-pickle fallback when shm is unavailable).

A third half joined in between: **batched kernels** —
:mod:`~repro.engine.batch` stacks many packed forests into
group-blocked tensors (:class:`BatchedForest`) and solves every
(instance, deadline) lane of a :class:`BatchedTreeDP` in a handful of
numpy passes (:func:`batched_sweep`), bit-identical per lane to
:class:`PackedTreeDP` driven through the same sequence.

Layering: the engine sits beside ``fu`` (layer 2) — it may import
``errors``/``obs``/``graph``/``fu`` and nothing above; the
``assign``/``sched``/``report`` layers build on it (lintkit rule
RL004).  See ``docs/performance.md``.
"""

from .arena import ArenaRef, TableArena, resolve_ref, shm_available
from .batch import BatchedForest, BatchedTreeDP, ForestShape, batched_sweep
from .budget import Budget
from .kernels import (
    NO_CHOICE,
    PackedTreeDP,
    combine_children,
    first_feasible_budget,
    infeasible_curve,
    node_step,
    window_bounds,
    zero_curve,
)
from .pack import PackedForest, RowBinding
from .parallel import pmap, resolve_workers, shutdown_pools
from .stats import DPStats

__all__ = [
    "ArenaRef",
    "BatchedForest",
    "BatchedTreeDP",
    "Budget",
    "DPStats",
    "ForestShape",
    "PackedForest",
    "PackedTreeDP",
    "RowBinding",
    "TableArena",
    "batched_sweep",
    "resolve_ref",
    "shm_available",
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
