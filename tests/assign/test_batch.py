"""Batched assignment entry points vs their scalar counterparts.

``dfg_assign_repeat_batch`` and the ``dfg_frontier`` sweep built on it
promise *bit-identity* with per-job scalar calls — same assignments,
costs, ``DPStats`` integer counters, and error strings — plus
independence across jobs (one failing lane never poisons its batch).
The batched engine's forest frontiers match per-job ``tree_frontier``.  Hand-picked suite graphs keep these fast; the
exhaustive every-benchmark sweep is in
``tests/properties/test_prop_batch.py``.
"""

from __future__ import annotations

import copy

import pytest

from repro.assign import (
    BatchJob,
    dfg_assign_once,
    dfg_assign_repeat,
    dfg_assign_repeat_batch,
    dfg_frontier,
    min_completion_time,
)
from repro.assign.frontier import tree_frontier
from repro.checkkit.oracles import reference_frontier
from repro.engine import DPStats
from repro.errors import InfeasibleError, ReproError
from repro.fu.random_tables import random_table
from repro.graph.dfg import DFG
from repro.suite.registry import get_benchmark

from ..conftest import batched_tree_frontiers


def _instance(name: str, seed: int = 24):
    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=seed)
    return dfg, table, min_completion_time(dfg, table)


def _same_result(got, want) -> None:
    assert dict(got.assignment.items()) == dict(want.assignment.items())
    assert got.cost == want.cost
    assert got.completion_time == want.completion_time
    assert got.algorithm == want.algorithm


def _int_counters(stats) -> dict:
    # Work counters only: the seconds_* fields are wall-clock.
    counters = {
        k: v
        for k, v in stats.as_dict().items()
        if not k.startswith("seconds")
    }
    assert counters  # guard against the filter going vacuous
    return counters


def test_repeat_batch_matches_scalar_results_and_stats():
    dfg, table, floor = _instance("elliptic")
    deadlines = [floor, floor + 3, floor + 7]
    outcomes = dfg_assign_repeat_batch(
        [BatchJob(dfg, table, d) for d in deadlines]
    )
    for deadline, outcome in zip(deadlines, outcomes):
        assert outcome.error is None
        stats = DPStats()
        scalar = dfg_assign_repeat(dfg, table, deadline, stats=stats)
        _same_result(outcome.result, scalar)
        _same_result(outcome.once, dfg_assign_once(dfg, table, deadline))
        assert _int_counters(outcome.stats) == _int_counters(stats)


def _arbitrary_table(dfg, seed):
    """Non-monotone rows with fractional costs: the float sum order and
    every copy's choice in the (time, cost, type) resolve matter."""
    import random

    from repro.fu.table import TimeCostTable

    rng = random.Random(seed)
    table = TimeCostTable(3)
    for node in dfg.nodes():
        table.set_row(
            node,
            [rng.randint(1, 6) for _ in range(3)],
            [rng.randint(0, 40) / 10 for _ in range(3)],
        )
    return table


@pytest.mark.parametrize("name,seed", [("dct8", 9), ("fft3", 27), ("fft3", 5)])
def test_repeat_batch_matches_scalar_on_arbitrary_tables(name, seed):
    # dct8 and fft3 duplicate nodes into different copy counts, so the
    # padded gather over multi-copy rows sees rows narrower than others.
    dfg = get_benchmark(name).dag()
    table = _arbitrary_table(dfg, seed)
    floor = min_completion_time(dfg, table)
    deadlines = list(range(floor, floor + 8, 2))
    outcomes = dfg_assign_repeat_batch(
        [BatchJob(dfg, table, d) for d in deadlines]
    )
    for deadline, outcome in zip(deadlines, outcomes):
        _same_result(outcome.result, dfg_assign_repeat(dfg, table, deadline))


def test_repeat_batch_accepts_plain_tuples_and_empty():
    assert dfg_assign_repeat_batch([]) == []
    dfg, table, floor = _instance("diffeq")
    (outcome,) = dfg_assign_repeat_batch([(dfg, table, floor + 2)])
    assert outcome.error is None
    _same_result(outcome.result, dfg_assign_repeat(dfg, table, floor + 2))


def test_failing_lane_is_isolated_with_scalar_error_string():
    dfg, table, floor = _instance("rls_laguerre")
    bad = floor - 1
    outcomes = dfg_assign_repeat_batch(
        [BatchJob(dfg, table, bad), BatchJob(dfg, table, floor + 2)]
    )
    assert isinstance(outcomes[0].error, InfeasibleError)
    assert outcomes[0].result is None
    with pytest.raises(ReproError) as scalar_exc:
        dfg_assign_repeat(dfg, table, bad)
    assert str(outcomes[0].error) == str(scalar_exc.value)
    assert outcomes[1].error is None
    _same_result(
        outcomes[1].result, dfg_assign_repeat(dfg, table, floor + 2)
    )


def test_mixed_structures_in_one_batch():
    jobs, expected = [], []
    for name in ("diffeq", "elliptic"):
        dfg, table, floor = _instance(name)
        for d in (floor, floor + 4):
            jobs.append(BatchJob(dfg, table, d))
            expected.append(dfg_assign_repeat(dfg, table, d))
    outcomes = dfg_assign_repeat_batch(jobs)
    for outcome, want in zip(outcomes, expected):
        assert outcome.error is None
        _same_result(outcome.result, want)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("shared_table", [False, True])
def test_repeat_batch_invariant_to_workers_and_arena(workers, shared_table):
    # The "arena" axis is how lane tables travel: one table object shared
    # by every lane (bound once per chunk, the deduplication the removed
    # shared-memory arena also did) or an equal copy per lane.
    dfg, table, floor = _instance("diffeq")
    deadlines = [floor, floor - 1, floor + 3, floor + 5]
    outcomes = dfg_assign_repeat_batch(
        [
            BatchJob(dfg, table if shared_table else copy.deepcopy(table), d)
            for d in deadlines
        ],
        workers=workers,
    )
    baseline = dfg_assign_repeat_batch(
        [BatchJob(dfg, table, d) for d in deadlines]
    )
    for got, want in zip(outcomes, baseline):
        assert (got.error is None) == (want.error is None)
        if want.error is not None:
            assert str(got.error) == str(want.error)
            assert type(got.error) is type(want.error)
        else:
            _same_result(got.result, want.result)
            _same_result(got.once, want.once)
        assert _int_counters(got.stats) == _int_counters(want.stats)


def test_dfg_frontier_batch_matches_scalar_sweep():
    dfg, table, floor = _instance("elliptic")
    horizon = floor + 8
    stats = DPStats()
    swept = dfg_frontier(dfg, table, max_deadline=horizon, stats=stats)
    assert swept == reference_frontier(dfg, table, max_deadline=horizon)
    assert stats.tracebacks > 0


def test_dfg_frontier_batch_infeasible_horizon():
    dfg, table, floor = _instance("diffeq")
    with pytest.raises(InfeasibleError, match="below minimum completion"):
        dfg_frontier(dfg, table, max_deadline=floor - 1)


def test_tree_frontier_batch_matches_scalar_per_job():
    jobs, expected = [], []
    for name in ("lattice4", "fir8"):
        dfg, table, floor = _instance(name)
        jobs.append((dfg, table, floor + 10))
        expected.append(tree_frontier(dfg, table, max_deadline=floor + 10))
    assert batched_tree_frontiers(jobs) == expected


def test_repeat_batch_cyclic_job_carries_scalar_error():
    cyclic = DFG.from_edges(
        [("a", "b"), ("b", "c"), ("c", "a")], name="cyclic3"
    )
    acyclic, table, floor = _instance("diffeq")
    cyclic_table = random_table(acyclic, num_types=3, seed=24)
    outcomes = dfg_assign_repeat_batch(
        [
            BatchJob(cyclic, cyclic_table, 10),
            BatchJob(acyclic, table, floor + 2),
        ]
    )
    assert outcomes[0].error is not None
    with pytest.raises(ReproError) as scalar_exc:
        dfg_assign_repeat(cyclic, cyclic_table, 10)
    assert str(outcomes[0].error) == str(scalar_exc.value)
    assert type(outcomes[0].error) is type(scalar_exc.value)
    assert outcomes[1].error is None
