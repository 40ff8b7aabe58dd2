"""DP curve primitives shared by the recurrence and the engine.

The curve primitives (:func:`zero_curve`, :func:`combine_children`,
:func:`node_step`, ...) are the `Tree_Assign` recurrence's O(L·M)
inner step.  The tree-DP engine (:mod:`repro.engine.batch`) vectorizes
the same float ops across nodes and lanes — the same sequential ``+=``
child sums (numpy pairwise summation would differ in the last bit), the
same ``child_curve[j - t_k] + c_k`` candidates and the same
smallest-type tie-break — so every curve, choice, cost, and tie-break
agrees with the recurrence exactly.

A *cost curve* ``D`` has length ``L+1``; ``D[j]`` is the minimum
system cost of some sub-structure under the condition that every path
through it finishes within ``j`` time units (``inf`` = infeasible),
non-increasing in ``j`` by construction.

:func:`window_bounds` is the vectorized core of `Lower_Bound_R`
(paper Fig. 13), shared with :mod:`repro.sched.lower_bound`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import TableError

__all__ = [
    "NO_CHOICE",
    "zero_curve",
    "infeasible_curve",
    "combine_children",
    "node_step",
    "first_feasible_budget",
    "window_bounds",
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

