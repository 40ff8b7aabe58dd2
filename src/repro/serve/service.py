"""The synthesis service: dedupe, cache, shard, respond.

:class:`SynthesisService` turns batches of
:class:`~repro.serve.jobs.Request` into
:class:`~repro.serve.jobs.Response` objects:

1. every request is canonicalized (:func:`repro.serve.jobs.prepare`)
   into a relabel-invariant cache key under an explicit per-request
   :class:`~repro.engine.Budget` (evaluation budgets by default —
   deterministic at any worker count);
2. keys are looked up in the content-addressed
   :class:`~repro.serve.cache.ResultCache`; duplicate keys within one
   batch collapse to a single job;
3. the remaining misses are solved by
   :func:`~repro.serve.jobs.solve_canonical_batch`: `DFG_Assign_Repeat`
   misses as lanes of one batched engine run, the rest sharded across
   the persistent :func:`repro.engine.pmap` pools (``workers=0`` =
   serial, identical results at any count);
4. results land in the cache and every response is translated back to
   its caller's node labels.

The service owns a dedicated :class:`~repro.obs.Tracer`: each batch
runs under it, so ``serve.*`` spans/metrics and the solver-side
``dp.*``/``engine.*`` counters (merged from the workers' private
tracers) are always available through :meth:`SynthesisService.metrics`
— this is the signal the "warm batch does zero solver work" acceptance
gate reads.

:class:`Client` layers a future-based submission API on top, and
:func:`submit_batch` is the one-call convenience wrapper.
"""

from __future__ import annotations

import json
from concurrent.futures import Future
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine import shutdown_pools
from ..obs import Tracer, use_tracer
from .cache import ResultCache
from .jobs import (
    PreparedJob,
    Request,
    Response,
    prepare,
    relabel_payload,
    solve_canonical_batch,
)

__all__ = [
    "DEFAULT_BUDGET_EVALUATIONS",
    "SynthesisService",
    "Client",
    "submit_batch",
]

#: Default per-request evaluation allowance (matches the portfolio's
#: default race budget, so ``strategy="portfolio"`` requests behave
#: like a direct :func:`repro.assign.portfolio_assign` call).
DEFAULT_BUDGET_EVALUATIONS = 4000


class SynthesisService:
    """Batch solver with content-addressed dedupe and pmap sharding.

    Parameters
    ----------
    workers:
        Process count for sharding cache misses (0 = serial; responses
        are identical at any count).
    cache:
        The result cache (default: fresh in-memory
        :class:`ResultCache`; pass one with a ``path`` for
        persistence).
    default_evaluations:
        Evaluation allowance attached to requests that specify no
        budget of their own.
    tracer:
        Telemetry sink (default: a private enabled
        :class:`~repro.obs.Tracer`).
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        cache: Optional[ResultCache] = None,
        default_evaluations: int = DEFAULT_BUDGET_EVALUATIONS,
        tracer: Optional[Tracer] = None,
    ):
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache()
        self.default_evaluations = default_evaluations
        self.tracer = tracer if tracer is not None else Tracer()

    # ------------------------------------------------------------------
    def solve_batch(self, requests: Sequence[Request]) -> List[Response]:
        """Solve a batch; responses align with ``requests`` by index."""
        with use_tracer(self.tracer):
            with self.tracer.span(
                "serve.batch", requests=len(requests), workers=self.workers
            ):
                return self._solve_batch_locked(list(requests))

    def _solve_batch_locked(self, requests: List[Request]) -> List[Response]:
        tracer = self.tracer
        tracer.add_metric("serve.requests", float(len(requests)))

        prepared: List[PreparedJob] = []
        with tracer.span("serve.canonicalize", requests=len(requests)):
            for request in requests:
                prepared.append(
                    prepare(
                        request,
                        default_evaluations=self.default_evaluations,
                    )
                )

        # Cache lookup + in-batch dedupe: one job per missing key, in
        # first-appearance order (deterministic).
        payloads: Dict[str, Dict[str, Any]] = {}
        cached_keys: set = set()
        misses: List[PreparedJob] = []
        for job in prepared:
            if job.key in payloads:
                continue
            hit = self.cache.get(job.key)
            if hit is not None:
                payloads[job.key] = hit
                cached_keys.add(job.key)
            else:
                payloads[job.key] = {}  # placeholder; filled below
                misses.append(job)

        if misses:
            tracer.add_metric("serve.solves", float(len(misses)))
            with tracer.span(
                "serve.solve", items=len(misses), workers=self.workers
            ):
                raw = solve_canonical_batch(
                    [job.job_json for job in misses], workers=self.workers
                )
            for job, text in zip(misses, raw):
                payload = json.loads(text)
                self._merge_counters(payload.pop("counters", {}))
                if payload.get("error") is not None:
                    tracer.add_metric("serve.errors")
                self.cache.put(job.key, payload)
                payloads[job.key] = payload

        responses: List[Response] = []
        for job in prepared:
            payload = relabel_payload(payloads[job.key], job.order)
            responses.append(
                Response(
                    key=job.key,
                    cached=job.key in cached_keys,
                    result=payload.get("result"),
                    error=payload.get("error"),
                    label=job.request.label,
                )
            )
        return responses

    def _merge_counters(self, counters: Dict[str, float]) -> None:
        """Fold a worker's private counters into the service tracer.

        Counter *names* originate from vetted literals at their emission
        sites (RL009 checks those); here they are data being aggregated,
        so they go straight into the registry rather than through
        ``add_metric``.
        """
        for name, value in counters.items():
            self.tracer.metrics.counter(name).inc(float(value))

    def metrics(self) -> Dict[str, float]:
        """Snapshot of every counter the service has accumulated."""
        return {
            name: counter.value
            for name, counter in sorted(self.tracer.metrics.counters.items())
        }

    def close(self) -> None:
        """Release pooled resources (idempotent).

        Shuts down the persistent :func:`~repro.engine.pmap` worker
        pools this service dispatched through.  The pools are a
        process-wide cache shared with any other ``pmap`` caller — the
        next parallel call simply starts fresh ones — so closing a
        service never leaks worker processes into test suites or
        long-lived hosts (also covered by ``atexit``, but an explicit
        close releases them immediately).
        """
        shutdown_pools()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Client:
    """Future-based submission API over a :class:`SynthesisService`.

    :meth:`submit` returns a :class:`concurrent.futures.Future`
    immediately; :meth:`flush` solves everything pending as **one
    batch** (maximizing dedupe and pmap sharding) and resolves the
    futures.  :meth:`submit_batch` is submit-all-then-flush.
    """

    def __init__(self, service: Optional[SynthesisService] = None, **kwargs: Any):
        if service is not None and kwargs:
            raise TypeError(  # lint: ignore[RL001]
                "pass either a service or service kwargs, not both"
            )
        self.service = service if service is not None else SynthesisService(**kwargs)
        self._pending: List[Tuple[Request, "Future[Response]"]] = []

    def submit(self, request: Request) -> "Future[Response]":
        """Queue one request; resolved at the next :meth:`flush`."""
        future: "Future[Response]" = Future()
        self._pending.append((request, future))
        return future

    def submit_batch(
        self, requests: Sequence[Request]
    ) -> List["Future[Response]"]:
        """Queue a batch and flush: returns already-resolved futures."""
        futures = [self.submit(request) for request in requests]
        self.flush()
        return futures

    def flush(self) -> List[Response]:
        """Solve all pending requests as one batch; resolve futures."""
        if not self._pending:
            return []
        pending, self._pending = self._pending, []
        try:
            responses = self.service.solve_batch([r for r, _ in pending])
        except BaseException as exc:
            for _, future in pending:
                future.set_exception(exc)
            raise
        for (_, future), response in zip(pending, responses):
            future.set_result(response)
        return responses

    def __len__(self) -> int:
        return len(self._pending)


def submit_batch(
    requests: Sequence[Request],
    *,
    service: Optional[SynthesisService] = None,
    **kwargs: Any,
) -> List["Future[Response]"]:
    """Solve ``requests`` as one deduplicated batch; return futures.

    The one-call form of the programmatic API::

        from repro.serve import Request, submit_batch

        futures = submit_batch([Request(dfg, table, deadline=40)])
        result = futures[0].result()   # already resolved

    Pass ``service=`` to reuse a warm service (and its cache) across
    calls, or service kwargs (``workers=``, ``cache=``, ...) to build a
    throwaway one.
    """
    return Client(service=service, **kwargs).submit_batch(requests)
