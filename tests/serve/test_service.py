"""SynthesisService: dedupe, cache identity, determinism, telemetry.

The acceptance gates of the serving layer live here:

* resubmitting an identical batch is served **entirely** from cache —
  zero solver invocations, verified through the ``serve.solves`` and
  ``dp.*`` counters, not timing;
* relabeled (isomorphic) instances share one cache entry, with
  responses translated back to each caller's node labels;
* responses are byte-identical at any worker count.
"""

from __future__ import annotations

import pytest

from repro.checkkit.metamorphic import relabel_instance
from repro.serve import (
    Client,
    Request,
    ResultCache,
    SynthesisService,
    prepare,
    submit_batch,
)
from repro.serve import cache as cache_module
from repro.serve import service as service_module
from repro.serve.service import DEFAULT_BUDGET_EVALUATIONS

from ..conftest import make_table


@pytest.fixture
def chain_request(chain3, chain3_table):
    return Request(chain3, chain3_table, deadline=12)


def _dp_counters(service):
    return {
        k: v for k, v in service.metrics().items() if k.startswith("dp.")
    }


class TestCacheIdentity:
    def test_duplicate_requests_collapse_to_one_solve(self, chain_request):
        service = SynthesisService()
        responses = service.solve_batch([chain_request] * 3)
        assert service.metrics()["serve.solves"] == 1.0
        assert [r.key for r in responses] == [responses[0].key] * 3
        assert [r.result for r in responses] == [responses[0].result] * 3

    def test_warm_batch_does_zero_solver_work(self, wide_dag):
        request = Request(wide_dag, make_table(wide_dag, seed=2), 16)
        service = SynthesisService()
        cold = service.solve_batch([request])
        solves = service.metrics()["serve.solves"]
        dp_before = _dp_counters(service)
        assert dp_before, "wide_dag must exercise the DP counters"
        warm = service.solve_batch([request])
        assert warm[0].cached and not cold[0].cached
        assert service.metrics()["serve.solves"] == solves
        assert _dp_counters(service) == dp_before
        assert warm[0].result == cold[0].result

    def test_relabeled_twin_shares_entry_with_translated_labels(
        self, chain3, chain3_table
    ):
        twin_dfg, twin_table, mapping = relabel_instance(
            chain3, chain3_table, seed=11
        )
        service = SynthesisService()
        (orig,) = service.solve_batch([Request(chain3, chain3_table, 12)])
        (twin,) = service.solve_batch([Request(twin_dfg, twin_table, 12)])
        assert twin.cached, "isomorphic twin must hit the original's entry"
        assert twin.key == orig.key
        assert twin.result["cost"] == orig.result["cost"]
        # same decisions, each under its caller's own labels
        for old, new in mapping.items():
            assert (
                twin.result["assignment"][str(new)]
                == orig.result["assignment"][str(old)]
            )
        assert set(twin.result["schedule"]) == {
            str(n) for n in twin_dfg.nodes()
        }

    def test_perturbed_table_misses(self, chain3, chain3_table):
        perturbed = chain3_table.with_row(
            "b",
            [t + 1 for t in chain3_table.times("b")],
            list(chain3_table.costs("b")),
        )
        service = SynthesisService()
        service.solve_batch([Request(chain3, chain3_table, 12)])
        (second,) = service.solve_batch([Request(chain3, perturbed, 12)])
        assert not second.cached
        assert service.metrics()["serve.solves"] == 2.0

    def test_default_budget_and_explicit_default_share_entry(
        self, chain3, chain3_table
    ):
        implicit = prepare(
            Request(chain3, chain3_table, 12),
            default_evaluations=DEFAULT_BUDGET_EVALUATIONS,
        )
        explicit = prepare(
            Request(
                chain3,
                chain3_table,
                12,
                budget_evaluations=DEFAULT_BUDGET_EVALUATIONS,
            ),
            default_evaluations=DEFAULT_BUDGET_EVALUATIONS,
        )
        assert implicit.key == explicit.key

    def test_different_knobs_get_different_entries(self, chain3, chain3_table):
        base = Request(chain3, chain3_table, 12)
        other = Request(chain3, chain3_table, 12, scheduler="force_directed")
        service = SynthesisService()
        responses = service.solve_batch([base, other])
        assert responses[0].key != responses[1].key
        assert service.metrics()["serve.solves"] == 2.0


class TestDeterminism:
    def test_workers_do_not_change_responses(self, diamond, wide_dag):
        reqs = [
            Request(diamond, make_table(diamond, seed=1), 14),
            Request(wide_dag, make_table(wide_dag, seed=2), 16),
            Request(
                diamond,
                make_table(diamond, seed=1),
                14,
                strategy="portfolio",
                budget_evaluations=300,
            ),
        ]
        serial = SynthesisService(workers=0).solve_batch(reqs)
        sharded = SynthesisService(workers=2).solve_batch(reqs)
        assert [r.result for r in serial] == [r.result for r in sharded]
        assert [r.key for r in serial] == [r.key for r in sharded]

    def test_cached_and_fresh_payloads_identical(self, chain_request):
        cold_service = SynthesisService()
        (cold,) = cold_service.solve_batch([chain_request])
        (warm,) = cold_service.solve_batch([chain_request])
        assert cold.result == warm.result


class TestErrorCaching:
    def test_infeasible_deadline_is_a_cached_error(self, chain3, chain3_table):
        service = SynthesisService()
        bad = Request(chain3, chain3_table, deadline=1)
        (first,) = service.solve_batch([bad])
        assert not first.ok and first.result is None
        assert first.error["type"] == "InfeasibleError"
        assert "within 1" in first.error["message"]
        (second,) = service.solve_batch([bad])
        assert second.cached and second.error == first.error
        assert service.metrics()["serve.solves"] == 1.0
        assert service.metrics()["serve.errors"] == 1.0

    def test_error_does_not_poison_good_requests(self, chain3, chain3_table):
        service = SynthesisService()
        responses = service.solve_batch(
            [
                Request(chain3, chain3_table, deadline=1),
                Request(chain3, chain3_table, deadline=12),
            ]
        )
        assert not responses[0].ok
        assert responses[1].ok
        assert responses[1].result["schema_version"] == 1


class TestDiskCache:
    def test_persists_across_service_instances(self, tmp_path, chain_request):
        cache_dir = str(tmp_path / "cache")
        first = SynthesisService(cache=ResultCache(path=cache_dir))
        (cold,) = first.solve_batch([chain_request])
        assert not cold.cached

        second = SynthesisService(cache=ResultCache(path=cache_dir))
        (warm,) = second.solve_batch([chain_request])
        assert warm.cached
        assert warm.result == cold.result
        assert second.metrics().get("serve.solves", 0.0) == 0.0

    def test_corrupt_entry_degrades_to_miss(self, tmp_path, chain_request):
        cache_dir = tmp_path / "cache"
        service = SynthesisService(cache=ResultCache(path=str(cache_dir)))
        (cold,) = service.solve_batch([chain_request])
        (entry,) = cache_dir.glob("*.json")
        entry.write_text("{corrupt")
        fresh = SynthesisService(cache=ResultCache(path=str(cache_dir)))
        (resp,) = fresh.solve_batch([chain_request])
        assert not resp.cached
        assert resp.result == cold.result


class TestClientFutures:
    def test_submit_batch_resolves_futures(self, chain_request):
        client = Client()
        futures = client.submit_batch([chain_request, chain_request])
        assert all(f.done() for f in futures)
        first, second = (f.result() for f in futures)
        assert first.result == second.result

    def test_flush_empties_queue(self, chain_request):
        client = Client()
        client.submit(chain_request)
        assert len(client) == 1
        responses = client.flush()
        assert len(client) == 0 and len(responses) == 1
        assert client.flush() == []

    def test_service_and_kwargs_are_exclusive(self):
        with pytest.raises(TypeError, match="not both"):
            Client(SynthesisService(), workers=2)

    def test_module_level_submit_batch(self, chain_request):
        futures = submit_batch([chain_request])
        assert futures[0].result().ok


class TestTelemetry:
    def test_serve_counters_present(self, chain_request):
        service = SynthesisService()
        service.solve_batch([chain_request, chain_request])
        metrics = service.metrics()
        assert metrics["serve.requests"] == 2.0
        assert metrics["serve.solves"] == 1.0
        assert metrics["serve.cache.misses"] == 1.0
        assert metrics["serve.cache.stores"] == 1.0
        service.solve_batch([chain_request])
        assert service.metrics()["serve.cache.hits"] >= 1.0

    def test_worker_dp_counters_merged(self, wide_dag):
        service = SynthesisService()
        service.solve_batch([Request(wide_dag, make_table(wide_dag, seed=2), 16)])
        assert any(k.startswith("dp.") for k in service.metrics())


class TestRetention:
    def test_memory_tier_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 2)
        cache = ResultCache()
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # a hit makes "a" most recent
        cache.put("c", {"v": 3})  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == {"v": 1}
        assert cache.get("c") == {"v": 3}
        assert len(cache) == 2

    def test_evicted_key_still_served_from_disk(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_module, "MEMORY_ENTRIES", 1)
        cache = ResultCache(str(tmp_path))
        # disk reads accept only answers: a dict with a result or error
        cache.put("a", {"result": {"v": 1}})
        cache.put("b", {"result": {"v": 2}})  # "a" leaves the memory tier only
        assert "a" not in cache._memory
        assert cache.get("a") == {"result": {"v": 1}}
        assert list(cache._memory) == ["a"]

    def test_trace_roots_bounded_counters_kept(self, chain_request, monkeypatch):
        bounded, unbounded = SynthesisService(), SynthesisService()
        monkeypatch.setattr(service_module, "RETAINED_TRACES", 3)
        for _ in range(3 + 4):
            bounded.solve_batch([chain_request])
        monkeypatch.setattr(service_module, "RETAINED_TRACES", 100)
        for _ in range(3 + 4):
            unbounded.solve_batch([chain_request])
        assert len(bounded.tracer.roots) == 3
        assert len(unbounded.tracer.roots) == 7
        assert all(root.name == "serve.batch" for root in bounded.tracer.roots)

        def content(metrics):
            return {k: v for k, v in metrics.items() if "seconds" not in k}

        assert content(bounded.metrics()) == content(unbounded.metrics())
        assert bounded.metrics()["serve.requests"] == 7.0


class TestCanonicalizeOnce:
    def test_prepare_runs_canonical_order_once(self, chain_request, monkeypatch):
        import repro.io
        import repro.serve.jobs as jobs

        calls = []

        def counted(where, fn):
            def call(*args, **kwargs):
                calls.append(where)
                return fn(*args, **kwargs)

            return call

        for where, module in (("jobs", jobs), ("io", repro.io)):
            wrapped = counted(where, module.canonical_order)
            monkeypatch.setattr(module, "canonical_order", wrapped)
        job = prepare(chain_request, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
        assert calls == ["jobs"]
        assert sorted(job.order) == ["a", "b", "c"]
