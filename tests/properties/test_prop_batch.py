"""Batched-path bit-identity over the full suite + random instances.

The batched engine is an execution-layer optimization, so its contract
is total: for *every* registered benchmark and for arbitrary random
instances, the batched paths must reproduce the scalar paths — the
packed engine and the reference loop — bit for bit: assignments,
costs, frontier knees, ``DPStats`` work counters, and the exact error
strings of infeasible lanes.  Shared-memory arenas and
process pools must be invisible at this level too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.assign import (
    BatchJob,
    dfg_assign_repeat,
    dfg_assign_repeat_batch,
    dfg_frontier,
    min_completion_time,
)
from repro.assign.frontier import frontier_knees, tree_frontier
from repro.checkkit.oracles import reference_frontier
from repro.engine import DPStats
from repro.errors import ReproError
from repro.fu.random_tables import random_table
from repro.graph.classify import is_in_forest, is_out_forest
from repro.suite.registry import benchmark_names, get_benchmark

from ..conftest import batched_tree_frontiers
from .strategies import dags, tables_for, trees

SEED = 2004
SLACK = 6


def _instance(name):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=SEED)
    return dag, table, min_completion_time(dag, table)


def _counters(stats: DPStats) -> dict:
    counters = {
        k: v
        for k, v in stats.as_dict().items()
        if not k.startswith("seconds")
    }
    assert counters  # guard against the filter going vacuous
    return counters


def _assert_outcome_matches_scalar(outcome, dfg, table, deadline):
    scalar_stats = DPStats()
    try:
        scalar = dfg_assign_repeat(dfg, table, deadline, stats=scalar_stats)
    except ReproError as exc:
        assert outcome.result is None
        assert type(outcome.error) is type(exc)
        assert str(outcome.error) == str(exc)
        return
    assert outcome.error is None, outcome.error
    assert dict(outcome.result.assignment.items()) == dict(
        scalar.assignment.items()
    )
    assert outcome.result.cost == scalar.cost
    assert outcome.result.completion_time == scalar.completion_time
    assert _counters(outcome.stats) == _counters(scalar_stats)


@pytest.mark.parametrize("name", benchmark_names())
def test_batched_frontier_matches_packed_and_python(name):
    dag, table, floor = _instance(name)
    horizon = floor + SLACK
    batched = dfg_frontier(dag, table, max_deadline=horizon)
    packed = [
        (deadline, dfg_assign_repeat(dag, table, deadline).cost)
        for deadline in range(floor, horizon + 1)
    ]
    python = reference_frontier(dag, table, max_deadline=horizon)
    assert [tuple(p) for p in batched] == frontier_knees(packed)
    assert [tuple(p) for p in batched] == [tuple(p) for p in python]


@pytest.mark.parametrize("name", benchmark_names())
def test_batched_repeat_matches_scalar_per_benchmark(name):
    dag, table, floor = _instance(name)
    deadlines = [floor - 1, floor, floor + 3]
    outcomes = dfg_assign_repeat_batch(
        [BatchJob(dag, table, d) for d in deadlines]
    )
    for deadline, outcome in zip(deadlines, outcomes):
        _assert_outcome_matches_scalar(outcome, dag, table, deadline)


@pytest.mark.parametrize("name", benchmark_names())
def test_tree_frontier_batch_matches_scalar_per_benchmark(name):
    dag, table, floor = _instance(name)
    if not (is_out_forest(dag) or is_in_forest(dag)):
        pytest.skip(f"{name} is not tree-shaped")
    horizon = floor + SLACK
    (batched,) = batched_tree_frontiers([(dag, table, horizon)])
    assert batched == tree_frontier(dag, table, max_deadline=horizon)


@settings(max_examples=25, deadline=None)
@given(data=dags(max_nodes=7).flatmap(
    lambda d: tables_for(d).map(lambda t: (d, t))
))
def test_batched_repeat_matches_scalar_on_random_dags(data):
    dfg, table = data
    floor = min_completion_time(dfg, table)
    deadlines = [floor - 1, floor, floor + 2]
    outcomes = dfg_assign_repeat_batch(
        [BatchJob(dfg, table, d) for d in deadlines]
    )
    for deadline, outcome in zip(deadlines, outcomes):
        _assert_outcome_matches_scalar(outcome, dfg, table, deadline)


@settings(max_examples=25, deadline=None)
@given(data=trees(max_nodes=7).flatmap(
    lambda d: tables_for(d).map(lambda t: (d, t))
))
def test_batched_tree_frontier_matches_scalar_on_random_trees(data):
    tree, table = data
    horizon = min_completion_time(tree, table) + 4
    (batched,) = batched_tree_frontiers([(tree, table, horizon)])
    assert batched == tree_frontier(tree, table, max_deadline=horizon)


@pytest.mark.parametrize("arena", [False, True])
def test_workers_and_arena_are_invisible(arena):
    # One pool spin-up keeps the property affordable; per-knob coverage
    # of workers x arena lives in tests/assign/test_batch.py.
    jobs, baseline = [], []
    for name in ("diffeq", "elliptic"):
        dag, table, floor = _instance(name)
        for d in (floor - 1, floor + 2):
            jobs.append(BatchJob(dag, table, d))
    baseline = dfg_assign_repeat_batch(jobs)
    parallel = dfg_assign_repeat_batch(jobs, workers=2, arena=arena)
    for got, want in zip(parallel, baseline):
        if want.error is not None:
            assert type(got.error) is type(want.error)
            assert str(got.error) == str(want.error)
        else:
            assert got.error is None
            assert dict(got.result.assignment.items()) == dict(
                want.result.assignment.items()
            )
            assert got.result.cost == want.result.cost
        assert _counters(got.stats) == _counters(want.stats)
