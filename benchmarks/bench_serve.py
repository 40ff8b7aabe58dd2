"""Serving-layer bench: cold vs warm batch latency through the cache.

Three claims, all gated:

* **Warm speedup** — resubmitting an identical batch to a warm
  :class:`repro.serve.SynthesisService` is >= 5x faster than the cold
  submission, because every request is served from the
  content-addressed cache without touching a solver
  (``serve.solves`` delta 0, checked via the service counters, not
  timing).
* **Cache rate** — the second submission is >= 90% cache hits (here:
  100%, since the batch is identical; the gate leaves room for a
  future eviction policy).
* **Batched cold path** — an all-miss batch of same-structure repeat
  requests (a deadline sweep per benchmark, the shape a synthesis
  service actually sees) solves >= 1.5x faster through the service's
  structure-grouped batching than through a per-job
  :func:`~repro.serve.solve_canonical_job` loop, with byte-identical
  responses.

The batch mixes benchmark instances, duplicate requests (in-batch
dedupe), and relabeled isomorphic twins (canonical-key sharing), so
the warm number measures the canonicalization + lookup path, not a
trivial replay.  Requests run under the portfolio strategy with a real
evaluation budget — the workload a serving cache exists for; with the
paper heuristics alone, solves on suite-sized graphs are so cheap that
canonicalization would dominate both sides of the ratio.

Runs under pytest (``pytest benchmarks/bench_serve.py``) or standalone
(``python benchmarks/bench_serve.py [--quick]``).  Artifacts:
``benchmarks/results/bench_serve.txt`` and ``BENCH_serve.json`` at the
repo root.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from typing import Any, List, Tuple

_HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE.parent / "src"))
sys.path.insert(0, str(_HERE))

from conftest import write_bench_json  # noqa: E402

from repro.checkkit.metamorphic import relabel_instance
from repro.fu.random_tables import random_table
from repro.report.experiments import DEFAULT_SEED
from repro.serve import (
    DEFAULT_BUDGET_EVALUATIONS,
    Request,
    SynthesisService,
    prepare,
    solve_canonical_job,
)
from repro.serve.jobs import relabel_payload
from repro.suite.registry import get_benchmark

RESULTS_DIR = _HERE / "results"

#: Warm (all-cache) batch must beat the cold batch by at least this much.
MIN_WARM_SPEEDUP = 5.0

#: Fraction of the resubmitted batch that must come from cache.
MIN_CACHE_RATE = 0.90

#: Cold all-miss speedup of the structure-grouped batched solve path
#: over per-job solving (measured at ~2.3x on the reference box; the
#: gate leaves headroom for noise).
MIN_BATCHED_COLD_SPEEDUP = 1.5

_BATCH_SWEEP_BENCHMARKS = ("fft4", "dct8")

_FULL_BENCHMARKS = ("diffeq", "biquad2", "fir8", "elliptic", "lattice4")
_QUICK_BENCHMARKS = ("diffeq", "biquad2")


def _quick() -> bool:
    return os.environ.get("BENCH_SERVE_QUICK", "") == "1"


def build_batch(quick: bool) -> List[Request]:
    """Benchmarks + duplicates + relabeled twins, as one batch."""
    batch: List[Request] = []
    for i, name in enumerate(
        _QUICK_BENCHMARKS if quick else _FULL_BENCHMARKS
    ):
        dfg = get_benchmark(name).dag()
        table = random_table(dfg, num_types=3, seed=DEFAULT_SEED)
        evaluations = 400 if quick else 1200
        request = Request(
            dfg,
            table,
            deadline=_default_deadline(dfg, table),
            strategy="portfolio",
            budget_evaluations=evaluations,
        )
        twin_dfg, twin_table, _ = relabel_instance(dfg, table, seed=50 + i)
        batch.extend(
            [
                request,
                request,  # exact duplicate: in-batch dedupe
                Request(  # isomorphic twin: canonical-key sharing
                    twin_dfg,
                    twin_table,
                    request.deadline,
                    strategy="portfolio",
                    budget_evaluations=evaluations,
                ),
            ]
        )
    return batch


def _default_deadline(dfg, table) -> int:
    from repro.assign import min_completion_time

    return int(1.3 * min_completion_time(dfg, table)) + 1


def run_cold_warm(quick: bool) -> Tuple[List[str], float, float, float]:
    batch = build_batch(quick)
    service = SynthesisService()

    started = time.perf_counter()
    cold = service.solve_batch(batch)
    cold_s = time.perf_counter() - started
    solves_after_cold = service.metrics()["serve.solves"]

    started = time.perf_counter()
    warm = service.solve_batch(batch)
    warm_s = time.perf_counter() - started

    assert [r.result for r in warm] == [r.result for r in cold], (
        "warm responses diverged from cold"
    )
    assert service.metrics()["serve.solves"] == solves_after_cold, (
        "warm batch invoked a solver"
    )
    cache_rate = sum(1 for r in warm if r.cached) / len(warm)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")

    lines = [
        f"batch       : {len(batch)} requests "
        f"({int(solves_after_cold)} unique after dedupe + twins)",
        f"cold batch  : {cold_s * 1e3:8.1f} ms ({int(solves_after_cold)} solves)",
        f"warm batch  : {warm_s * 1e3:8.1f} ms (0 solves)",
        f"speedup     : {speedup:8.1f}x (gate >= {MIN_WARM_SPEEDUP}x)",
        f"cache rate  : {cache_rate * 100:7.1f}% (gate >= {MIN_CACHE_RATE * 100:.0f}%)",
    ]
    return lines, cold_s, warm_s, cache_rate


def build_sweep_batch(quick: bool) -> List[Request]:
    """Deadline sweeps over a few benchmarks: all misses, shared
    structures — the workload the batched solve path exists for.

    The sweep length is the same in quick mode: with fewer lanes per
    structure there is too little work to amortize and the measurement
    stops separating the two paths; the whole section costs a few
    seconds either way.
    """
    del quick
    count = 8
    batch: List[Request] = []
    for name in _BATCH_SWEEP_BENCHMARKS:
        dfg = get_benchmark(name).dag()
        table = random_table(dfg, num_types=3, seed=DEFAULT_SEED)
        floor = _default_deadline(dfg, table)
        batch.extend(
            Request(dfg, table, deadline=floor + 2 * i) for i in range(count)
        )
    return batch


def solve_per_job(requests: List[Request]) -> List[Tuple[Any, Any]]:
    """The unbatched baseline: canonicalize, solve and relabel each
    request on its own, one `solve_canonical_job` call per job."""
    out = []
    for request in requests:
        job = prepare(request, default_evaluations=DEFAULT_BUDGET_EVALUATIONS)
        payload = relabel_payload(
            json.loads(solve_canonical_job(job.job_json)), job.order
        )
        out.append((payload.get("result"), payload.get("error")))
    return out


def run_batched_cold(quick: bool) -> Tuple[List[str], float]:
    """Cold all-miss sweep: the service's batched path vs per-job solves.

    A fresh service (empty cache) and the per-job loop get identical
    request lists; timed interleaved, best of 2, so box noise hits both
    paths alike.  The responses must match field-for-field — batching
    is a solve-path optimization, not a semantic change.
    """
    per_job_s = batched_s = float("inf")
    per_job: List[Tuple[Any, Any]] = []
    batched = []
    for _ in range(2):
        requests = build_sweep_batch(quick)
        started = time.perf_counter()
        per_job = solve_per_job(requests)
        per_job_s = min(per_job_s, time.perf_counter() - started)
        with SynthesisService() as service:
            requests = build_sweep_batch(quick)
            started = time.perf_counter()
            batched = service.solve_batch(requests)
            batched_s = min(batched_s, time.perf_counter() - started)
    assert [(r.result, r.error) for r in batched] == per_job, (
        "batched cold responses diverged from per-job responses"
    )
    speedup = per_job_s / batched_s if batched_s > 0 else float("inf")
    lines = [
        f"cold sweep  : {len(per_job)} repeat requests over "
        f"{len(_BATCH_SWEEP_BENCHMARKS)} structures",
        f"  per-job   : {per_job_s * 1e3:8.1f} ms",
        f"  batched   : {batched_s * 1e3:8.1f} ms",
        f"  speedup   : {speedup:8.1f}x (gate >= {MIN_BATCHED_COLD_SPEEDUP}x)",
    ]
    return lines, speedup


def _run(quick: bool) -> List[str]:
    lines, cold_s, warm_s, cache_rate = run_cold_warm(quick)
    batched_lines, batched_speedup = run_batched_cold(quick)
    lines = lines + batched_lines
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "bench_serve.txt").write_text("\n".join(lines) + "\n")
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    write_bench_json(
        "serve",
        wall_s=cold_s + warm_s,
        speedup=round(speedup, 2),
        config={
            "quick": quick,
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "cache_rate": round(cache_rate, 3),
            "batched_cold_speedup": round(batched_speedup, 2),
        },
    )
    assert cache_rate >= MIN_CACHE_RATE, (
        f"only {cache_rate * 100:.0f}% of the resubmitted batch came from "
        f"cache (expected >= {MIN_CACHE_RATE * 100:.0f}%)"
    )
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm batch only {speedup:.1f}x faster than cold "
        f"(expected >= {MIN_WARM_SPEEDUP}x)"
    )
    assert batched_speedup >= MIN_BATCHED_COLD_SPEEDUP, (
        f"batched cold path only {batched_speedup:.1f}x faster than "
        f"per-job solving (expected >= {MIN_BATCHED_COLD_SPEEDUP}x)"
    )
    return lines


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def test_serve_cold_vs_warm():
    _run(_quick())


if __name__ == "__main__":
    flags = sys.argv[1:]
    unknown = [f for f in flags if f != "--quick"]
    if unknown:
        sys.exit(f"usage: {sys.argv[0]} [--quick]  (unknown: {' '.join(unknown)})")
    started = time.perf_counter()
    for line in _run("--quick" in flags):
        print(line)
    print(f"\nOK in {time.perf_counter() - started:.1f}s "
          f"(artifacts: {RESULTS_DIR / 'bench_serve.txt'}, BENCH_serve.json)")
