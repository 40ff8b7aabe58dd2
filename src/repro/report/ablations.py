"""Ablation studies over the design choices DESIGN.md calls out.

Three questions the paper leaves implicit, answered empirically:

1. **Tree choice** (`DFG_Assign_Once` step 1): does picking the
   smaller of the two critical-path trees matter, or would always
   expanding forward / always transposed do as well?
2. **Fix order** (`DFG_Assign_Repeat` step 2): the paper pins the
   most-copied node first; how much worse are fewest-first or
   arbitrary orders?
3. **Lower-bound quality**: how close does `Min_R_Scheduling` land to
   `Lower_Bound_R`, and how much resource does starting from the bound
   save versus growing from zero?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..assign import dfg_assign_once, dfg_assign_repeat, min_completion_time
from ..assign.dfg_expand import choose_expansion, expansion_candidates
from ..fu.random_tables import random_table
from ..graph.dfg import DFG
from ..sched import (
    Configuration,
    lower_bound_configuration,
    min_resource_schedule,
)
from ..suite.registry import get_benchmark

__all__ = [
    "TreeChoiceResult",
    "tree_choice_ablation",
    "FixOrderResult",
    "fix_order_ablation",
    "LowerBoundResult",
    "lower_bound_ablation",
]


@dataclass(frozen=True)
class TreeChoiceResult:
    """Costs of Once under the three tree-choice policies."""

    benchmark: str
    deadline: int
    forward_cost: float
    transposed_cost: float
    smaller_cost: float  # the paper's policy

    @property
    def best(self) -> float:
        return min(self.forward_cost, self.transposed_cost)


def tree_choice_ablation(
    name: str, seed: int = 2004, deadlines: Optional[Sequence[int]] = None
) -> List[TreeChoiceResult]:
    """Run Once with forward-only, transposed-only, and smaller trees."""
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=seed)
    if deadlines is None:
        floor = min_completion_time(dfg, table)
        step = max(1, round(0.15 * floor))
        deadlines = [floor + i * step for i in range(4)]
    t_fwd, t_rev = expansion_candidates(dfg)
    out = []
    for deadline in deadlines:
        fwd = dfg_assign_once(dfg, table, deadline, expansion=t_fwd).cost
        rev = dfg_assign_once(dfg, table, deadline, expansion=t_rev).cost
        small = dfg_assign_once(dfg, table, deadline).cost
        out.append(
            TreeChoiceResult(
                benchmark=name,
                deadline=deadline,
                forward_cost=fwd,
                transposed_cost=rev,
                smaller_cost=small,
            )
        )
    return out


@dataclass(frozen=True)
class FixOrderResult:
    """Costs of Repeat under different duplicated-node pinning orders."""

    benchmark: str
    deadline: int
    most_copied_first: float  # the paper's policy
    fewest_copied_first: float
    insertion_order: float


def fix_order_ablation(
    name: str, seed: int = 2004, deadlines: Optional[Sequence[int]] = None
) -> List[FixOrderResult]:
    """Run Repeat with three pinning orders on the same expansion."""
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=seed)
    if deadlines is None:
        floor = min_completion_time(dfg, table)
        step = max(1, round(0.15 * floor))
        deadlines = [floor + i * step for i in range(4)]
    expansion = choose_expansion(dfg)
    most = expansion.duplicated_originals()
    fewest = list(reversed(most))
    insertion = [n for n in dfg.nodes() if len(expansion.copies[n]) > 1]
    out = []
    for deadline in deadlines:
        out.append(
            FixOrderResult(
                benchmark=name,
                deadline=deadline,
                most_copied_first=dfg_assign_repeat(
                    dfg, table, deadline, expansion=expansion, fix_order=most
                ).cost,
                fewest_copied_first=dfg_assign_repeat(
                    dfg, table, deadline, expansion=expansion, fix_order=fewest
                ).cost,
                insertion_order=dfg_assign_repeat(
                    dfg, table, deadline, expansion=expansion, fix_order=insertion
                ).cost,
            )
        )
    return out


@dataclass(frozen=True)
class LowerBoundResult:
    """Configuration sizes: bound vs achieved vs grown-from-zero."""

    benchmark: str
    deadline: int
    bound_units: int
    achieved_units: int
    from_zero_units: int

    @property
    def gap(self) -> int:
        """Extra units `Min_R_Scheduling` needed beyond the bound."""
        return self.achieved_units - self.bound_units


def lower_bound_ablation(
    name: str, seed: int = 2004, deadlines: Optional[Sequence[int]] = None
) -> List[LowerBoundResult]:
    """Quantify the `Lower_Bound_R` gap on a benchmark's sweep."""
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=seed)
    if deadlines is None:
        floor = min_completion_time(dfg, table)
        step = max(1, round(0.15 * floor))
        deadlines = [floor + i * step for i in range(4)]
    out = []
    for deadline in deadlines:
        assignment = dfg_assign_repeat(dfg, table, deadline).assignment
        bound = lower_bound_configuration(dfg, table, assignment, deadline)
        achieved = min_resource_schedule(
            dfg, table, assignment=assignment, deadline=deadline
        ).configuration
        from_zero = min_resource_schedule(
            dfg,
            table,
            assignment=assignment,
            deadline=deadline,
            initial=Configuration.of([0] * table.num_types),
        ).configuration
        out.append(
            LowerBoundResult(
                benchmark=name,
                deadline=deadline,
                bound_units=bound.total_units(),
                achieved_units=achieved.total_units(),
                from_zero_units=from_zero.total_units(),
            )
        )
    return out
