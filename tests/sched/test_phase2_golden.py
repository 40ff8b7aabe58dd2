"""Golden digests of the full two-phase flow across the registry.

Every row is one ``synthesize`` call: a registry graph, a seeded
random table, a deadline at 1.0×, 1.3× or 2.0× the graph's minimum
completion time (rounded up), and the ``min_resource`` or ``heft``
scheduler.  The stored value is the sha256 of the result's
``to_dict()`` without ``timings``, so any change to a phase-1
assignment, a lower bound, a configuration or a single scheduled op
moves a digest.  The digests were recorded before phase 2 moved onto
the indexed DAG view, so the test checks the rewrite against the code
it replaced.

Regenerate (only after a deliberate result change, together with a
``SOLVER_VERSION`` bump) with::

    PYTHONPATH=src python tests/sched/test_phase2_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro import synthesize
from repro.assign.assignment import min_completion_time
from repro.fu.random_tables import random_table
from repro.suite.registry import benchmark_names, get_benchmark

DATA = pathlib.Path(__file__).with_name("data") / "phase2_golden.json"

SEEDS = (2004, 7)
#: deadline factors in tenths: ceil(f / 10 × floor) in exact integers
FACTORS = (10, 13, 20)
SCHEDULERS = ("min_resource", "heft")


def _row_id(graph: str, seed: int, factor: int, scheduler: str) -> str:
    return f"{graph}/seed{seed}/x{factor / 10:.1f}/{scheduler}"


def _digest(graph: str, seed: int, factor: int, scheduler: str) -> str:
    dfg = get_benchmark(graph)
    table = random_table(dfg, num_types=3, seed=seed)
    floor = min_completion_time(dfg.dag(), table)
    deadline = -(-factor * floor // 10)
    doc = synthesize(dfg, table, deadline, scheduler=scheduler).to_dict()
    del doc["timings"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows():
    for graph in benchmark_names():
        for seed in SEEDS:
            for factor in FACTORS:
                for scheduler in SCHEDULERS:
                    yield graph, seed, factor, scheduler


def _golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_row():
    assert sorted(_golden()) == sorted(_row_id(*row) for row in _rows())


@pytest.mark.parametrize("graph", benchmark_names())
def test_phase2_golden(graph):
    golden = _golden()
    for row in _rows():
        if row[0] != graph:
            continue
        assert _digest(*row) == golden[_row_id(*row)], _row_id(*row)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_phase2_golden.py --write")
    DATA.parent.mkdir(exist_ok=True)
    digests = {_row_id(*row): _digest(*row) for row in _rows()}
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DATA}")
