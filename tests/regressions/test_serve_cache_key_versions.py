"""A persisted result cache stops answering for an older solver.

Reproducer: the serve cache key used to be sha256 over the canonical
``{"instance", "knobs"}`` job only.  A ``ResultCache`` directory filled
before a solver fix therefore kept answering the same requests with the
old results, and one filled before a ``RESULT_SCHEMA_VERSION`` bump
answered with entries the reader rejected as a ``ServeError``.  The key
now also hashes ``RESULT_SCHEMA_VERSION`` and ``SOLVER_VERSION``: an
entry written under the old key format is a miss, the request is solved
afresh, and bumping either version moves every key.
"""

import copy
import hashlib
import json

import pytest

from repro.fu.random_tables import random_table
from repro.serve import (
    DEFAULT_BUDGET_EVALUATIONS,
    Request,
    ResultCache,
    SynthesisService,
    prepare,
)
from repro.serve import jobs
from repro.suite.registry import get_benchmark


@pytest.fixture
def request_():
    dfg = get_benchmark("diffeq").dag()
    return Request(dfg, random_table(dfg, num_types=3, seed=7), deadline=14)


def _legacy_key(request):
    """The cache key of ``request`` as the unversioned format wrote it."""
    prepared = prepare(request, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
    job = prepared.job
    legacy = {"instance": job["instance"], "knobs": job["knobs"]}
    text = json.dumps(legacy, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fresh_payload(request):
    service = SynthesisService()
    (response,) = service.solve_batch([request])
    assert response.ok and not response.cached
    return service.cache.get(response.key), response


def _solve_against(cache_dir, request):
    service = SynthesisService(cache=ResultCache(path=str(cache_dir)))
    (response,) = service.solve_batch([request])
    return service, response


def test_stale_answer_under_the_old_key_is_a_miss(tmp_path, request_):
    payload, fresh = _fresh_payload(request_)
    stale = copy.deepcopy(payload)
    stale["result"]["cost"] = payload["result"]["cost"] + 100.0
    ResultCache(path=str(tmp_path)).put(_legacy_key(request_), stale)

    service, response = _solve_against(tmp_path, request_)
    assert not response.cached
    assert response.result == fresh.result
    assert service.metrics()["serve.solves"] == 1.0


def test_old_schema_entry_under_the_old_key_is_a_miss(tmp_path, request_):
    payload, fresh = _fresh_payload(request_)
    old = copy.deepcopy(payload)
    old["result"]["schema_version"] = 0
    ResultCache(path=str(tmp_path)).put(_legacy_key(request_), old)

    _, response = _solve_against(tmp_path, request_)
    assert response.ok and not response.cached
    assert response.result == fresh.result


def test_a_version_bump_moves_the_key(monkeypatch, request_):
    before = prepare(request_, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
    monkeypatch.setattr(jobs, "SOLVER_VERSION", jobs.SOLVER_VERSION + 1)
    bumped = prepare(request_, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
    monkeypatch.setattr(
        jobs, "RESULT_SCHEMA_VERSION", jobs.RESULT_SCHEMA_VERSION + 1
    )
    both = prepare(request_, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
    assert len({before.key, bumped.key, both.key}) == 3
