"""Microbenchmarks of the DP kernel — the library's hot loops.

Per the HPC guide: measure before believing.  These pin the cost of
the three curve primitives (`node_step`, `combine_children`, min-plus
convolution) across deadline sizes, so a regression in the vectorized
inner loops shows up as a benchmark delta rather than a mysterious
slowdown of `Tree_Assign`.
"""

import numpy as np
import pytest

from repro.assign.series_parallel import _ConvCurve, _ZeroCurve
from repro.engine.kernels import combine_children, node_step, zero_curve


@pytest.mark.parametrize("deadline", [100, 1000, 10000])
def test_node_step_cost(benchmark, deadline):
    child = zero_curve(deadline)
    times = [1, 3, 7]
    costs = [9.0, 4.0, 1.0]
    curve, choice = benchmark(node_step, child, times, costs)
    assert len(curve) == deadline + 1
    assert choice[deadline] >= 0


@pytest.mark.parametrize("deadline", [1000, 10000])
@pytest.mark.parametrize("fanin", [2, 8])
def test_combine_children_cost(benchmark, deadline, fanin):
    rng = np.random.default_rng(0)
    curves = [rng.random(deadline + 1) for _ in range(fanin)]
    out = benchmark(combine_children, curves)
    assert len(out) == deadline + 1


@pytest.mark.parametrize("deadline", [100, 400])
def test_minplus_convolution_cost(benchmark, deadline):
    """The SP DP's O(L²) step — quadratic by design, bounded here so a
    change in constant factor is visible."""
    rng = np.random.default_rng(1)

    class _Arr(_ZeroCurve):
        def __init__(self, a):
            self.array = a

    a = _Arr(np.sort(rng.random(deadline + 1))[::-1].copy())
    b = _Arr(np.sort(rng.random(deadline + 1))[::-1].copy())
    out = benchmark(_ConvCurve, a, b)
    assert len(out.array) == deadline + 1


@pytest.mark.parametrize("nodes", [100, 1000])
def test_full_tree_dp_cost(benchmark, nodes):
    """End-to-end DP cost on a deep random tree: should scale ~n·L·M."""
    from repro.assign.tree_assign import tree_assign
    from repro.assign.assignment import min_completion_time
    from repro.fu.random_tables import random_table
    from repro.suite.synthetic import random_tree

    tree = random_tree(nodes, seed=3)
    table = random_table(tree, num_types=3, seed=3)
    deadline = min_completion_time(tree, table) + 50
    result = benchmark(tree_assign, tree, table, deadline)
    result.verify(tree, table)
