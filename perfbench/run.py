"""The repository's benchmark: one command, every metric, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``serve_cold``: ``POST /v1/batch`` deadline sweeps of fresh instances;
* ``serve_warm``: ``POST /v1/batch`` relabeled twins of a solved corpus;
* ``synth``: one caller looping ``repro.synthesize`` over the registry
  corpus.  It prints the same metrics but is not listed in
  ``BENCHMARK.json``: its figures follow the host's CPU speed, which
  drifts by more than any bound the benchmark may set.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures an untraced run, then a traced run of the same
length, and prints the per-layer metrics (on ``synth`` it also logs the
median latency of each registry graph).  The last line of standard
output is the JSON result; progress goes to standard error.
"""

from time import perf_counter

T_START = perf_counter()  # set-up is timed from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: Set-up is timed in this many processes (this one and fresh children)
#: and reported as their median.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument(
        "--workload", required=True, choices=["serve_cold", "serve_warm", "synth"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="set up, print the set-up time and exit (one set-up sample)",
    )
    return parser.parse_args(argv)


def _child_setup_s(args: argparse.Namespace) -> float:
    """One set-up sample from a fresh process, interpreter start included."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--setup-only",
    ]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _end_to_end(run, setup_s: float, rss_mb: float) -> Dict[str, float]:
    ms = [1000.0 * latency for latency in run.latencies]
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": _percentile(ms, 90),
        "items_per_s": run.items_per_s,
        "peak_rss_mb": rss_mb,
    }


def _measure(workload, seconds: float, min_ops: int, checker):
    """One untraced measurement, every answer checked.

    Returns the run and the peak RSS in MB reached before the deferred
    checks, which allocate on their own.
    """
    deferred: list = []
    settle = deferred.append if workload.serve else checker
    run = workload.measure(seconds, min_ops, settle)
    rss_mb = _peak_rss_mb()
    for op in deferred:
        checker(op)
    return run, rss_mb


def _traced(workload, args, min_ops: int, checker) -> Dict[str, float]:
    """An untraced run, then a traced one of the same length: per-layer metrics.

    The traced run's answers are checked after the tracing is removed,
    so the checks leave no spans or counts behind.
    """
    import corpus
    import layers
    from repro.obs import to_jsonl, use_tracer

    plain, _ = _measure(workload, args.seconds, min_ops, checker)
    layer = layers.LayerTracer()
    service = workload.harness.service if workload.serve else None
    before = service.metrics() if service else {}
    deferred: list = []
    layer.install(service)
    try:
        if workload.serve:
            traced = workload.measure(
                args.seconds, min_ops, deferred.append, span=layer.client_span
            )
        else:
            with use_tracer(layer.tracer):
                traced = workload.measure(args.seconds, min_ops, deferred.append)
    finally:
        layer.uninstall()
    for op in deferred:
        checker(op)
    counters = {n: c.value for n, c in layer.tracer.metrics.counters.items()}
    if service:
        for name, value in service.metrics().items():
            counters[name] = counters.get(name, 0.0) + value - before.get(name, 0.0)
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans.write_text(to_jsonl(layer.tracer.roots))
    log(f"wrote {len(layer.tracer.roots)} span trees to {spans}")
    if not workload.serve:
        by_graph: Dict[str, List[float]] = defaultdict(list)
        for tag, latency in zip(plain.tags, plain.latencies):
            by_graph[tag].append(1000.0 * latency)
        for graph in corpus.GRAPHS:
            log(f"synth {graph}: median {statistics.median(by_graph[graph]):.4g} ms")
    return layers.per_layer_metrics(
        layer,
        counters,
        items=traced.items,
        ops=len(traced.latencies),
        plain_items_per_s=plain.items_per_s,
        traced_items_per_s=traced.items_per_s,
    )


def main(
    argv: Optional[List[str]] = None,
    *,
    min_ops: Optional[int] = None,
    setup_samples: int = SETUP_SAMPLES,
) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        log(f"no repro sources under {SRC}; run from a full checkout")
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import drive

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if min_ops is None:
        min_ops = drive.MIN_OPS
    workload = drive.make(args.workload, args.seed)
    checker = drive.Checker(workload, log)
    try:
        workload.setup()
        setup_s = perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics = _traced(workload, args, min_ops, checker)
            wanted = spec["per_layer"]
        else:
            samples = [setup_s]
            samples += [_child_setup_s(args) for _ in range(setup_samples - 1)]
            log(f"set-up samples (s): {[round(s, 3) for s in samples]}")
            run, rss_mb = _measure(workload, args.seconds, min_ops, checker)
            metrics = _end_to_end(run, statistics.median(samples), rss_mb)
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    if set(metrics) != {m["name"] for m in wanted}:
        raise RuntimeError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {[m['name'] for m in wanted]}"
        )
    for name, value in metrics.items():
        log(f"{args.workload} {name} = {value:.6g}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
