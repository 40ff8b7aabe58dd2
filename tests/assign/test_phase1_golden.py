"""Golden digests of phase 1 (`DFG_Assign_Repeat`) across the registry.

Every row is one ``dfg_assign_repeat`` call: a registry graph, a seeded
random table, and a deadline at 1.0×, 1.3× or 2.0× the graph's minimum
completion time (rounded up).  The stored value is the sha256 of the
assignment, cost, completion time and the integer ``DPStats`` counters
(refreshes, tracebacks, nodes visited, nodes recomputed, cache hits),
so any change to a pin round, a tie-break or the engine's dirty-set
accounting moves a digest.  The same digest must come out of the
``dfg_assign_repeat_batch`` lane of each row, so the scalar and the
batched engine are pinned to one another as well.  The digests were
recorded before the tree-DP engines dropped their subtree-state cache.

Regenerate (only after a deliberate result change, together with a
``SOLVER_VERSION`` bump) with::

    PYTHONPATH=src python tests/assign/test_phase1_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.assign import DPStats, dfg_assign_repeat
from repro.assign.assignment import min_completion_time
from repro.assign.batch import dfg_assign_repeat_batch
from repro.fu.random_tables import random_table
from repro.suite.registry import benchmark_names, get_benchmark

DATA = pathlib.Path(__file__).with_name("data") / "phase1_golden.json"

SEEDS = (2004, 7)
#: deadline factors in tenths: ceil(f / 10 × floor) in exact integers
FACTORS = (10, 13, 20)
COUNTERS = ("refreshes", "tracebacks", "nodes_visited", "nodes_recomputed", "cache_hits")


def _row_id(graph: str, seed: int, factor: int) -> str:
    return f"{graph}/seed{seed}/x{factor / 10:.1f}"


def _instance(graph: str, seed: int, factor: int):
    dag = get_benchmark(graph).dag()
    table = random_table(dag, num_types=3, seed=seed)
    floor = min_completion_time(dag, table)
    return dag, table, -(-factor * floor // 10)


def _hash(result, stats: DPStats) -> str:
    doc = {
        "assignment": sorted([str(node), k] for node, k in result.assignment.items()),
        "cost": result.cost,
        "completion": result.completion_time,
        "stats": {name: getattr(stats, name) for name in COUNTERS},
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _digest(graph: str, seed: int, factor: int) -> str:
    dfg, table, deadline = _instance(graph, seed, factor)
    stats = DPStats()
    result = dfg_assign_repeat(dfg, table, deadline, stats=stats)
    return _hash(result, stats)


def _rows(graph=None):
    for name in benchmark_names() if graph is None else [graph]:
        for seed in SEEDS:
            for factor in FACTORS:
                yield name, seed, factor


def _golden():
    return json.loads(DATA.read_text(encoding="utf-8"))


def test_golden_covers_every_row():
    assert sorted(_golden()) == sorted(_row_id(*row) for row in _rows())


@pytest.mark.parametrize("graph", benchmark_names())
def test_phase1_golden(graph):
    golden = _golden()
    for row in _rows(graph):
        assert _digest(*row) == golden[_row_id(*row)], _row_id(*row)


@pytest.mark.parametrize("graph", benchmark_names())
def test_phase1_golden_batch_lanes(graph):
    """All rows of one graph as lanes of one batch (one shared DFG)."""
    golden = _golden()
    rows = list(_rows(graph))
    dag = get_benchmark(graph).dag()
    jobs = []
    for row in rows:
        _, table, deadline = _instance(*row)
        jobs.append((dag, table, deadline))
    outcomes = dfg_assign_repeat_batch(jobs)
    for row, outcome in zip(rows, outcomes):
        assert outcome.error is None, _row_id(*row)
        assert _hash(outcome.result, outcome.stats) == golden[_row_id(*row)], _row_id(*row)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_phase1_golden.py --write")
    DATA.parent.mkdir(exist_ok=True)
    digests = {_row_id(*row): _digest(*row) for row in _rows()}
    DATA.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {DATA}")
