"""`Lower_Bound_R` — resource lower bounds from ASAP/ALAP (paper Fig. 13).

For each FU type the algorithm derives how many instances *any*
schedule meeting the deadline must contain, by averaging unavoidable
work over time windows:

* the ASAP schedule runs every node as early as possible, so work that
  ASAP performs during the **last** ``w`` steps cannot move earlier —
  and the deadline stops it moving later — hence at least
  ``ceil(work / w)`` units are needed;
* symmetrically, work the ALAP schedule performs during the **first**
  ``w`` steps cannot move later, giving ``ceil(work / w)`` again.

The per-type lower bound is the maximum over both families of windows
(the paper's step 6).  "Work" counts occupied steps, which for the
single-cycle operations of the paper reduces to its node counts while
staying correct for multi-cycle operations.

The bound is not always achievable (no window-based bound is), but on
the benchmark suite `Min_R_Scheduling` usually lands on it — the
ablation bench quantifies the residual gap.
"""

from __future__ import annotations

from ..fu.table import TimeCostTable
from ..graph.dfg import DFG

from ..assign.assignment import Assignment
from .phase2 import Phase2Frame
from .schedule import Configuration

__all__ = ["lower_bound_configuration"]


def lower_bound_configuration(
    dfg: DFG,
    table: TimeCostTable,
    assignment: Assignment,
    deadline: int,
) -> Configuration:
    """Per-type FU lower bounds for any schedule within ``deadline``.

    Requires a feasible assignment (ALAP must exist).  Types that the
    assignment never uses get a bound of 0.  See
    :meth:`repro.sched.phase2.Phase2Frame.lower_bound`.
    """
    return Phase2Frame(dfg, table, assignment, deadline).lower_bound()
