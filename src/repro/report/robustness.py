"""Multi-seed robustness of the headline result.

The paper's percentages come from one random draw of the time/cost
tables; a reproduction should show the conclusion is not an artifact
of the draw.  This study repeats the full Tables-1-and-2 sweep over
many seeds and reports the distribution (mean, standard deviation,
min, max) of the average reductions, plus the fraction of seeds where
each qualitative claim holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Sequence, Tuple

import numpy as np

from ..engine import pmap
from ..errors import ReproError
from .experiments import average_reduction, run_table1, run_table2

__all__ = ["RobustnessSummary", "robustness_study"]


@dataclass(frozen=True)
class RobustnessSummary:
    """Distribution of the headline metrics across seeds."""

    seeds: List[int]
    once_reductions: List[float]
    repeat_reductions: List[float]

    def _stats(self, xs: Sequence[float]):
        arr = np.asarray(xs)
        return float(arr.mean()), float(arr.std()), float(arr.min()), float(arr.max())

    @property
    def once_mean(self) -> float:
        return self._stats(self.once_reductions)[0]

    @property
    def repeat_mean(self) -> float:
        return self._stats(self.repeat_reductions)[0]

    def claim_rates(self) -> dict:
        """Fraction of seeds where each qualitative claim held."""
        n = len(self.seeds)
        return {
            "once_positive": sum(x > 0 for x in self.once_reductions) / n,
            "repeat_positive": sum(x > 0 for x in self.repeat_reductions) / n,
            "repeat_ge_once": sum(
                r >= o - 1e-12
                for o, r in zip(self.once_reductions, self.repeat_reductions)
            )
            / n,
        }

    def describe(self) -> str:
        om, os_, olo, ohi = self._stats(self.once_reductions)
        rm, rs, rlo, rhi = self._stats(self.repeat_reductions)
        rates = self.claim_rates()
        return "\n".join(
            [
                f"{len(self.seeds)} seeds: {self.seeds}",
                f"Once   reduction: mean {om:.1%} ± {os_:.1%} "
                f"(range {olo:.1%} .. {ohi:.1%})",
                f"Repeat reduction: mean {rm:.1%} ± {rs:.1%} "
                f"(range {rlo:.1%} .. {rhi:.1%})",
                f"claims held: once>0 {rates['once_positive']:.0%}, "
                f"repeat>0 {rates['repeat_positive']:.0%}, "
                f"repeat>=once {rates['repeat_ge_once']:.0%}",
            ]
        )


def _seed_reductions(count: int, seed: int) -> Tuple[float, float]:
    """Both headline reductions for one seed (module-level: pickles)."""
    rows = run_table1(seed=seed, count=count) + run_table2(seed=seed, count=count)
    return average_reduction(rows, "once"), average_reduction(rows, "repeat")


def robustness_study(
    seeds: Sequence[int] = tuple(range(10)),
    count: int = 4,
    workers: int = 0,
) -> RobustnessSummary:
    """Repeat the full evaluation over ``seeds`` deadline sweeps of
    ``count`` constraints each.

    Seeds are independent draws, so ``workers`` fans them out across
    processes via :func:`repro.engine.pmap` (0 = serial); the summary
    is identical at any worker count.
    """
    if not seeds:
        raise ReproError("need at least one seed")
    reductions = pmap(
        partial(_seed_reductions, count),
        list(seeds),
        workers=workers,
        label="engine.robustness",
    )
    return RobustnessSummary(
        seeds=list(seeds),
        once_reductions=[o for o, _ in reductions],
        repeat_reductions=[r for _, r in reductions],
    )
