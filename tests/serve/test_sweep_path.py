"""The serve miss path does per-instance work once per distinct instance.

A deadline sweep of one instance is the common POST shape.  These tests
pin what the service shares across such a POST and that nobody can tell:

* the loader hands equal instance documents one DFG/table pair (and
  relabeled twins their own);
* the service runs ``canonical_order`` once per distinct pair per batch;
* tree sweeps run one Fig. 7 pass, and every payload stays
  byte-identical to :func:`solve_canonical_job` run per job (trees,
  DAGs, an infeasible ``min - 1`` deadline, a transposed in-forest and
  mixed schedulers);
* a job that crashes becomes its own error entry, uncached, and a
  result under a wall-clock budget is answered but not cached.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json

import pytest

import repro.io
import repro.serve.jobs as jobs
from repro.assign import min_completion_time
from repro.checkkit.metamorphic import relabel_instance
from repro.fu.random_tables import random_table
from repro.io import instance_to_dict
from repro.serve import (
    Request,
    SynthesisService,
    prepare,
    requests_from_doc,
    solve_canonical_batch,
    solve_canonical_job,
)
from repro.serve.jobs import relabel_payload
from repro.serve.service import DEFAULT_BUDGET_EVALUATIONS
from repro.suite.registry import get_benchmark


def _instance(name, seed=2004):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=seed)
    return dag, table, min_completion_time(dag, table)


def _sweep_docs(name, seed=2004, schedulers=("min_resource",)):
    """One instance at ``min - 1`` and seven feasible deadlines."""
    dag, table, floor = _instance(name, seed)
    instance = instance_to_dict(dag, table)
    deadlines = [floor - 1] + [floor + 2 * k for k in range(7)]
    return [
        {
            "instance": instance,
            "deadline": d,
            "scheduler": schedulers[k % len(schedulers)],
            "label": f"{name}.{k}",
        }
        for k, d in enumerate(deadlines)
    ]


def _content(payload):
    """A payload as the service caches it (counters dropped)."""
    payload = dict(payload)
    payload.pop("counters")
    return json.dumps(payload, sort_keys=True)


# ----------------------------------------------------------------------
# loader


class TestLoaderReuse:
    def test_equal_instance_documents_share_one_pair(self):
        docs = _sweep_docs("diffeq")
        # A fresh (equal, not identical) document object per request.
        docs = [json.loads(json.dumps(doc)) for doc in docs]
        requests = requests_from_doc({"requests": docs})
        assert len({id(r.dfg) for r in requests}) == 1
        assert len({id(r.table) for r in requests}) == 1
        assert [r.deadline for r in requests] == [d["deadline"] for d in docs]

    def test_relabeled_twins_do_not_share(self):
        dag, table, floor = _instance("diffeq")
        twin_dag, twin_table, _ = relabel_instance(dag, table, 5)
        docs = [
            {"instance": instance_to_dict(dag, table), "deadline": floor},
            {"instance": instance_to_dict(twin_dag, twin_table), "deadline": floor},
        ]
        first, second = requests_from_doc(docs)
        assert first.dfg is not second.dfg
        assert first.table is not second.table

    def test_reuse_is_previous_request_only(self):
        a = _sweep_docs("diffeq")[1]
        b = _sweep_docs("lattice4")[1]
        ra1, rb, ra2 = requests_from_doc([a, b, a])
        assert ra1.dfg is not ra2.dfg  # b came in between
        assert rb.dfg is not ra1.dfg

    def test_benchmark_form_shares_on_equal_triple(self):
        docs = [
            {"benchmark": "diffeq", "seed": 3, "deadline": 20},
            {"benchmark": "diffeq", "seed": 3, "deadline": 24},
            {"benchmark": "diffeq", "seed": 4, "deadline": 24},
        ]
        first, second, third = requests_from_doc(docs)
        assert first.dfg is second.dfg and first.table is second.table
        assert third.table is not second.table


# ----------------------------------------------------------------------
# canonicalization


def _count_canonical_order(monkeypatch):
    calls = []
    original = jobs.canonical_order

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(jobs, "canonical_order", counted)
    monkeypatch.setattr(repro.io, "canonical_order", counted)
    return calls


def test_canonical_order_runs_once_per_distinct_instance(monkeypatch):
    calls = _count_canonical_order(monkeypatch)
    docs = _sweep_docs("diffeq") + _sweep_docs("lattice4") + _sweep_docs("diffeq")
    service = SynthesisService()
    service.solve_batch(requests_from_doc(docs))
    assert len(calls) == 3  # diffeq, lattice4, diffeq again (a new pair)
    calls.clear()
    service.solve_batch(requests_from_doc(docs))  # the memo is per batch
    assert len(calls) == 3


def test_memoized_keys_equal_fresh_keys():
    requests = requests_from_doc(_sweep_docs("elliptic"))
    memo = {}
    shared = [
        prepare(r, default_evaluations=DEFAULT_BUDGET_EVALUATIONS, memo=memo)
        for r in requests
    ]
    fresh = [
        prepare(r, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
        for r in requests
    ]
    assert [j.key for j in shared] == [j.key for j in fresh]
    assert [j.job for j in shared] == [j.job for j in fresh]
    assert [j.order for j in shared] == [j.order for j in fresh]


def test_spliced_key_is_the_hash_of_the_sorted_job():
    # prepare() writes each instance once and splices the deadline in;
    # the key must still be sha256 over the whole job, keys sorted.
    requests = requests_from_doc(_sweep_docs("lattice4"))
    requests.append(dataclasses.replace(requests[0], deadline=None))
    for request in requests:
        job = prepare(request, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
        text = json.dumps(job.job, sort_keys=True, separators=(",", ":"))
        assert job.key == hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# payload parity


def _jobs(docs):
    return [
        prepare(r, default_evaluations=DEFAULT_BUDGET_EVALUATIONS).job
        for r in requests_from_doc(docs)
    ]


SWEEPS = [
    ("diffeq", ("min_resource",)),  # a tree
    ("lattice4", ("min_resource",)),  # an in-forest: solved transposed
    ("lattice8", ("min_resource", "heft", "force_directed")),
    ("elliptic", ("min_resource", "force_directed")),  # a general DAG
]


@pytest.mark.parametrize("name,schedulers", SWEEPS)
def test_sweep_payloads_byte_identical_to_per_job(name, schedulers):
    jobs = _jobs(_sweep_docs(name, schedulers=schedulers))
    batched = solve_canonical_batch(jobs)
    per_job = [json.loads(solve_canonical_job(json.dumps(job))) for job in jobs]
    assert [_content(p) for p in batched] == [_content(p) for p in per_job]
    first = batched[0]
    assert first["error"]["type"] == "InfeasibleError"
    if name == "lattice4":
        assert ".T'" in first["error"]["message"]


def test_mixed_post_byte_identical_through_the_service():
    docs = (
        _sweep_docs("diffeq")
        + _sweep_docs("elliptic", seed=9)
        + [dict(_sweep_docs("lattice8")[3], algorithm="tree")]
        + [dict(_sweep_docs("lattice8")[4], algorithm="repeat")]
        + [dict(_sweep_docs("diffeq")[2], strategy="portfolio")]
    )
    requests = requests_from_doc(docs)
    responses = SynthesisService().solve_batch(requests)
    for request, response in zip(requests, responses):
        job = prepare(request, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
        want = json.loads(solve_canonical_job(json.dumps(job.job)))
        want.pop("counters")
        want = relabel_payload(want, job.order)
        assert response.key == job.key
        assert json.dumps(response.result, sort_keys=True) == json.dumps(
            want.get("result"), sort_keys=True
        )
        assert response.error == want.get("error")


def test_tree_sweep_runs_one_pass(monkeypatch):
    tree_module = importlib.import_module("repro.assign.tree_assign")
    passes = []
    original = tree_module._pass

    def counted(tree, table, horizon, key):
        passes.append(horizon)
        return original(tree, table, horizon, key)

    monkeypatch.setattr(tree_module, "_pass", counted)
    docs = _sweep_docs("lattice8")
    SynthesisService().solve_batch(requests_from_doc(docs))
    assert passes == [max(d["deadline"] for d in docs)]


# ----------------------------------------------------------------------
# what is not cached


def test_a_crashing_job_fails_alone_and_is_not_cached(monkeypatch):
    docs = _sweep_docs("diffeq") + _sweep_docs("elliptic")
    requests = requests_from_doc(docs)
    doomed = requests[3].deadline
    healthy = SynthesisService().solve_batch(requests)

    original = jobs.run_phase2  # the sweep's per-job step

    def flaky(dag, table, assignment, deadline, **kwargs):
        if len(dag) == len(requests[3].dfg) and deadline == doomed:
            raise RuntimeError("solver fell over")  # lint: ignore[RL001]
        return original(dag, table, assignment, deadline, **kwargs)

    monkeypatch.setattr(jobs, "run_phase2", flaky)
    service = SynthesisService()
    responses = service.solve_batch(requests)
    assert responses[3].error == {
        "type": "RuntimeError",
        "message": "solver fell over",
    }
    for k, (got, want) in enumerate(zip(responses, healthy)):
        if k != 3:
            assert got.to_dict() == want.to_dict()
    assert service.cache.get(responses[3].key) is None

    monkeypatch.setattr(jobs, "run_phase2", original)
    solves = service.metrics()["serve.solves"]
    (retry,) = service.solve_batch([requests[3]])
    assert service.metrics()["serve.solves"] == solves + 1
    assert not retry.cached and retry.ok
    assert retry.to_dict() == healthy[3].to_dict()


def test_a_crashing_shared_pass_fails_only_its_lanes(monkeypatch):
    docs = _sweep_docs("diffeq") + _sweep_docs("elliptic")
    requests = requests_from_doc(docs)
    healthy = SynthesisService().solve_batch(requests)

    def broken(*args, **kwargs):
        raise RuntimeError("sweep fell over")  # lint: ignore[RL001]

    monkeypatch.setattr(jobs, "tree_assign_sweep", broken)
    responses = SynthesisService().solve_batch(requests)
    assert all(r.error["type"] == "RuntimeError" for r in responses[:8])
    assert [r.to_dict() for r in responses[8:]] == [
        r.to_dict() for r in healthy[8:]
    ]


def test_wall_clock_budget_results_are_not_cached():
    dag, table, floor = _instance("diffeq")
    request = Request(
        dag, table, deadline=floor + 2, strategy="portfolio", budget_wall_s=1.0
    )
    service = SynthesisService()
    first = service.solve_batch([request, request])
    assert service.metrics()["serve.solves"] == 1  # in-batch dedupe stays
    second = service.solve_batch([request])
    assert service.metrics()["serve.solves"] == 2
    assert not second[0].cached and not first[0].cached
    assert service.cache.get(first[0].key) is None
