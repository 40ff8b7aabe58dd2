"""Shared helpers for the benchmark harness.

Every bench regenerates one table or figure of the paper (or one of
the extension studies in DESIGN.md).  Besides being timed by
pytest-benchmark, each bench writes its rendered artifact to
``benchmarks/results/<name>.txt`` so the numbers quoted in
EXPERIMENTS.md can be re-checked after any run of::

    pytest benchmarks/ --benchmark-only

Each saved artifact also drops a machine-readable ``BENCH_<name>.json``
at the repo root (bench name, wall seconds, optional speedup, config)
so CI can print a run's headline numbers without parsing the rendered
text.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def write_bench_json(
    name: str,
    *,
    wall_s: Optional[float] = None,
    speedup: Optional[float] = None,
    config: Optional[Dict[str, Any]] = None,
) -> pathlib.Path:
    """Emit ``BENCH_<name>.json`` at the repo root and return its path."""
    path = REPO_ROOT / f"BENCH_{name}.json"
    payload = {
        "bench": name,
        "wall_s": wall_s,
        "speedup": speedup,
        "config": config or {},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session")
def save_result():
    """Persist a rendered table/figure under benchmarks/results/.

    Also emits the ``BENCH_<name>.json`` sidecar; benches that know
    their wall time / speedup can call :func:`write_bench_json`
    directly with richer fields — the later write wins.
    """
    RESULTS_DIR.mkdir(exist_ok=True)

    def _save(name: str, text: str) -> None:
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        # wall_s stays None here: the fixture only sees the rendered
        # text, not the generation; pytest-benchmark owns the timing.
        write_bench_json(name, config={"artifact": str(path)})

    return _save


def run_once(benchmark, fn):
    """Time a multi-second artifact generation: best of 3 after a warmup.

    Historically a single cold round; the warmup round takes the
    one-time costs (imports, numpy dispatch caches) out of the quoted
    number and the 3 measured rounds let pytest-benchmark report a
    stable minimum.
    """
    return benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
