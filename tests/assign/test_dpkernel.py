"""Unit tests for the vectorized DP kernel."""

import numpy as np
import pytest

from repro.engine.kernels import (
    NO_CHOICE,
    combine_children,
    first_feasible_budget,
    infeasible_curve,
    node_step,
    zero_curve,
)
from repro.errors import TableError


class TestCurves:
    def test_zero_curve(self):
        c = zero_curve(5)
        assert c.shape == (6,)
        assert (c == 0).all()

    def test_infeasible_curve(self):
        c = infeasible_curve(3)
        assert np.isinf(c).all()

    def test_negative_deadline(self):
        with pytest.raises(TableError):
            zero_curve(-1)
        with pytest.raises(TableError):
            infeasible_curve(-1)


class TestNodeStep:
    def test_leaf_node(self):
        curve, choice = node_step(zero_curve(5), [2, 4], [10.0, 3.0])
        # budget < 2: infeasible; 2..3: only type 0; >= 4: type 1 cheaper
        assert np.isinf(curve[0]) and np.isinf(curve[1])
        assert curve[2] == 10.0 and choice[2] == 0
        assert curve[3] == 10.0 and choice[3] == 0
        assert curve[4] == 3.0 and choice[4] == 1
        assert choice[0] == NO_CHOICE

    def test_stacks_on_child_curve(self):
        child, _ = node_step(zero_curve(6), [2, 4], [10.0, 3.0])
        curve, choice = node_step(child, [1, 2], [5.0, 1.0])
        # budget 3: child in 2 (10) + self t=1 c=5 -> 15
        assert curve[3] == 15.0 and choice[3] == 0
        # budget 6: child in 4 (3) + self t=2 c=1 -> 4
        assert curve[6] == 4.0 and choice[6] == 1

    def test_non_increasing(self):
        curve, _ = node_step(zero_curve(10), [3, 7], [8.0, 2.0])
        finite = curve[np.isfinite(curve)]
        assert (np.diff(finite) <= 0).all()

    def test_tie_breaks_to_lowest_index(self):
        curve, choice = node_step(zero_curve(4), [1, 1], [5.0, 5.0])
        assert choice[1] == 0

    def test_zero_time_option(self):
        curve, choice = node_step(zero_curve(3), [0, 2], [7.0, 1.0])
        assert curve[0] == 7.0 and choice[0] == 0
        assert curve[2] == 1.0

    def test_times_beyond_deadline_infeasible(self):
        curve, choice = node_step(zero_curve(2), [5, 9], [1.0, 1.0])
        assert np.isinf(curve).all()
        assert (choice == NO_CHOICE).all()

    def test_bad_shapes(self):
        with pytest.raises(TableError):
            node_step(zero_curve(2), [1, 2], [1.0])
        with pytest.raises(TableError):
            node_step(zero_curve(2), [], [])

    def test_negative_time(self):
        with pytest.raises(TableError):
            node_step(zero_curve(2), [-1], [1.0])


class TestCombineChildren:
    def test_sum(self):
        a = np.array([1.0, 2.0])
        b = np.array([10.0, 20.0])
        assert (combine_children([a, b]) == [11.0, 22.0]).all()

    def test_inf_propagates(self):
        a = np.array([np.inf, 1.0])
        b = np.array([0.0, 0.0])
        out = combine_children([a, b])
        assert np.isinf(out[0]) and out[1] == 1.0

    def test_does_not_mutate_inputs(self):
        a = np.array([1.0])
        combine_children([a, np.array([2.0])])
        assert a[0] == 1.0

    def test_length_mismatch(self):
        with pytest.raises(TableError):
            combine_children([np.zeros(2), np.zeros(3)])

    def test_empty(self):
        with pytest.raises(TableError):
            combine_children([])


class TestFirstFeasibleBudget:
    def test_finds_minimum(self):
        curve, _ = node_step(zero_curve(8), [3, 6], [9.0, 1.0])
        assert first_feasible_budget(curve) == 3

    def test_fully_infeasible(self):
        assert first_feasible_budget(infeasible_curve(4)) == -1

    def test_zero_budget(self):
        assert first_feasible_budget(zero_curve(3)) == 0
