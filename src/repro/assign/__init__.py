"""Phase 1 — the heterogeneous assignment problem and its algorithms.

Public surface:

* :class:`Assignment`, :class:`AssignResult` — data types;
* :func:`path_assign`, :func:`tree_assign` (and :func:`tree_assign_sweep`,
  every deadline of a sweep from one pass) — optimal pseudo-polynomial
  DPs for simple paths and trees/forests;
* :func:`dfg_expand`, :func:`dfg_assign_once`, :func:`dfg_assign_repeat`
  — the paper's general-DAG heuristics;
* :func:`greedy_assign` — the comparator baseline;
* :func:`exact_assign`, :func:`brute_force_assign` — certified optima
  (`exact_assign` is anytime: truncated runs keep their incumbent,
  flagged ``optimal=False``);
* :func:`portfolio_assign` — the metaheuristic portfolio (GA / SA /
  hybrid / HEFT-rank / anytime exact) raced under one budget;
* :func:`dfg_assign_repeat_batch` — the batched multi-instance entry point
  over :class:`~repro.engine.batch.BatchedTreeDP`, bit-identical per
  lane to the scalar path;
* :mod:`~repro.assign.knapsack` — the NP-completeness reduction.
"""

from ..engine import DPStats
from .assignment import Assignment, min_completion_time
from .batch import (
    BatchJob,
    RepeatOutcome,
    dfg_assign_repeat_batch,
)
from .dfg_assign import (
    choose_expansion,
    dfg_assign_once,
    dfg_assign_repeat,
    expansion_candidates,
)
from .dfg_expand import ExpandedTree, dfg_expand
from .downgrade import downgrade_assign
from .frontier import FrontierPoint, dfg_frontier, frontier_knees, tree_frontier
from .ilp_model import ILPModel, build_ilp, check_solution, to_lp_format
from .exact import brute_force_assign, cost_lower_bound, exact_assign
from .greedy import greedy_assign
from .portfolio import (
    PORTFOLIO_SOLVERS,
    PortfolioResult,
    SolverStats,
    portfolio_assign,
)
from .knapsack import KnapsackInstance, hap_from_knapsack, solve_knapsack_via_hap
from .minmax import MinMaxResult, max_cost, tree_minmax_assign
from .path_assign import chain_order, path_assign
from .result import AssignResult
from .sensitivity import (
    MarginalCost,
    NodeSensitivity,
    marginal_cost_of_time,
    node_sensitivity,
)
from .series_parallel import (
    NotSeriesParallelError,
    is_two_terminal_sp,
    sp_assign,
)
from .tree_assign import tree_assign, tree_assign_sweep, tree_cost_curve

__all__ = [
    "BatchJob",
    "DPStats",
    "RepeatOutcome",
    "dfg_assign_repeat_batch",
    "marginal_cost_of_time",
    "MarginalCost",
    "node_sensitivity",
    "NodeSensitivity",
    "tree_minmax_assign",
    "MinMaxResult",
    "max_cost",
    "sp_assign",
    "is_two_terminal_sp",
    "NotSeriesParallelError",
    "downgrade_assign",
    "FrontierPoint",
    "tree_frontier",
    "dfg_frontier",
    "frontier_knees",
    "ILPModel",
    "build_ilp",
    "to_lp_format",
    "check_solution",
    "Assignment",
    "AssignResult",
    "min_completion_time",
    "path_assign",
    "chain_order",
    "tree_assign",
    "tree_assign_sweep",
    "tree_cost_curve",
    "dfg_expand",
    "ExpandedTree",
    "expansion_candidates",
    "choose_expansion",
    "dfg_assign_once",
    "dfg_assign_repeat",
    "greedy_assign",
    "exact_assign",
    "brute_force_assign",
    "cost_lower_bound",
    "PORTFOLIO_SOLVERS",
    "PortfolioResult",
    "SolverStats",
    "portfolio_assign",
    "KnapsackInstance",
    "hap_from_knapsack",
    "solve_knapsack_via_hap",
]
