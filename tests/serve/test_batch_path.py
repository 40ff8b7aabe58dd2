"""The batched solve path: payload parity, fallbacks, pool lifecycle.

``solve_canonical_batch`` exists so a deadline sweep hits the batched
DP engine once instead of running a solve per job — but its *contract*
is that nobody can tell: every payload's ``result``/``error`` parts are
byte-identical to ``solve_canonical_job`` on the same job, and the
``dp.*`` work counters match integer for integer (only the wall-clock
``dp.seconds_*`` metrics may differ).  These tests pin that, the
tree sweeps, the fallback lanes (explicit algorithms, the portfolio,
infeasible and malformed jobs) and their ``workers`` fan-out, and the ``close()`` pool shutdown
regression.
"""

from __future__ import annotations

import json

from repro.engine.parallel import _POOLS, shutdown_pools
from repro.fu.random_tables import random_table
from repro.report.experiments import DEFAULT_SEED
from repro.serve import (
    Request,
    SynthesisService,
    prepare,
    solve_canonical_batch,
    solve_canonical_job,
)
from repro.suite.registry import get_benchmark


def _instance(name: str):
    from repro.assign import min_completion_time

    dfg = get_benchmark(name).dag()
    table = random_table(dfg, num_types=3, seed=DEFAULT_SEED)
    return dfg, table, min_completion_time(dfg, table)


def _jobs(requests):
    return [prepare(request, default_evaluations=400).job for request in requests]


def _solve_one(job):
    """``solve_canonical_job`` on a job dict, through its JSON form."""
    return json.loads(solve_canonical_job(json.dumps(job)))


def _assert_payload_parity(batched_payloads, jobs):
    per_job_payloads = [_solve_one(job) for job in jobs]
    assert len(batched_payloads) == len(per_job_payloads)
    for batched, per_job in zip(batched_payloads, per_job_payloads):
        assert json.dumps(batched.get("result"), sort_keys=True) == json.dumps(
            per_job.get("result"), sort_keys=True
        )
        assert batched.get("error") == per_job.get("error")
        b_counters = batched["counters"]
        p_counters = per_job["counters"]
        assert b_counters.keys() == p_counters.keys()
        for name in p_counters:
            if name.startswith("dp.seconds"):
                continue  # wall-clock, legitimately differs
            assert b_counters[name] == p_counters[name], name


def test_sweep_batch_payloads_match_per_job():
    dfg, table, floor = _instance("elliptic")
    jobs = _jobs(
        Request(dfg, table, deadline=floor + i) for i in range(4)
    )
    _assert_payload_parity(solve_canonical_batch(jobs), jobs)


def test_mixed_batch_falls_back_per_lane():
    elliptic, e_table, e_floor = _instance("elliptic")  # batchable repeat
    tree, t_table, t_floor = _instance("fir8")  # tree: one-lane sweep
    jobs = _jobs(
        [
            Request(elliptic, e_table, deadline=e_floor + 2),
            Request(tree, t_table, deadline=t_floor + 2),
            Request(elliptic, e_table, deadline=e_floor - 1),  # infeasible
            Request(  # explicit algorithm: scalar fallback
                elliptic, e_table, deadline=e_floor + 2, algorithm="once"
            ),
            Request(elliptic, e_table, deadline=e_floor + 4),
        ]
    )
    batched = solve_canonical_batch(jobs)
    _assert_payload_parity(batched, jobs)
    infeasible = batched[2]
    assert infeasible["error"]["type"] == "InfeasibleError"
    assert batched[3]["result"]["algorithm"] != batched[0]["result"]["algorithm"]


def test_batch_is_empty_safe_and_order_preserving():
    assert solve_canonical_batch([]) == []
    dfg, table, floor = _instance("diffeq")
    jobs = _jobs(
        Request(dfg, table, deadline=floor + i) for i in (3, 0, 1)
    )
    batched = solve_canonical_batch(jobs)
    costs = [payload["result"]["cost"] for payload in batched]
    want = [_solve_one(job)["result"]["cost"] for job in jobs]
    assert costs == want


def _cacheable(payload):
    """A payload as the service caches it: wall-clock counters dropped."""
    payload = dict(payload)
    payload.pop("counters")
    return json.dumps(payload, sort_keys=True)


def test_fallback_jobs_fan_out_with_identical_payloads():
    elliptic, e_table, e_floor = _instance("elliptic")  # batched lane
    tree, t_table, t_floor = _instance("fir8")
    diffeq, d_table, d_floor = _instance("diffeq")
    jobs = _jobs(
        [
            # explicit non-paper algorithm: per-job fallback
            Request(tree, t_table, deadline=t_floor + 2, algorithm="greedy"),
            Request(elliptic, e_table, deadline=e_floor + 1),
            Request(diffeq, d_table, deadline=d_floor + 3, strategy="portfolio"),
        ]
    )
    serial = solve_canonical_batch(jobs, workers=0)
    shutdown_pools()
    fanned = solve_canonical_batch(jobs, workers=2)
    # the greedy and portfolio jobs went through a worker pool
    assert _POOLS
    shutdown_pools()
    assert [_cacheable(t) for t in fanned] == [_cacheable(t) for t in serial]
    _assert_payload_parity(serial, jobs)


def _sweep_requests(count: int = 4):
    # Several batchable lanes over a general DAG: a 1-item solve (or a
    # tree-shaped fallback) runs serially and spawns no pool.
    dfg, table, floor = _instance("elliptic")
    return [Request(dfg, table, deadline=floor + i) for i in range(count)]


def test_service_close_shuts_down_worker_pools():
    shutdown_pools()  # start clean: other tests may have left pools
    service = SynthesisService(workers=2)
    service.solve_batch(_sweep_requests())
    assert _POOLS, "workers=2 solve should have spawned a pool"
    service.close()
    assert not _POOLS, "close() must shut down engine worker pools"
    service.close()  # idempotent


def test_service_context_manager_closes_pools():
    shutdown_pools()
    with SynthesisService(workers=2) as service:
        service.solve_batch(_sweep_requests())
        assert _POOLS
    assert not _POOLS
