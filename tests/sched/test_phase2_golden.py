"""Golden digests of the full two-phase flow across the registry.

Every row is a registry graph, a seeded random table and a deadline at
1.0×, 1.3× or 2.0× the graph's minimum completion time (rounded up),
with one phase-2 consumer:

* ``min_resource``, ``heft`` or ``force_directed``: one ``synthesize``
  call with that scheduler; the stored value is the sha256 of the
  result's ``to_dict()`` without ``timings``, so any change to a
  phase-1 assignment, a lower bound, a configuration or a single
  scheduled op moves a digest;
* ``list_schedule``: the fixed-configuration list scheduler on the
  row's `DFG_Assign_Repeat` assignment and its `Lower_Bound_R`
  configuration, hashing the ops (in placement order) and the makespan;
* ``ilp``: the time-indexed scheduling ILP of the same assignment,
  hashing its binaries, constraints, frames and node order.

The ``min_resource`` and ``heft`` digests were recorded before phase 2
moved onto the indexed DAG view, the others before the remaining
schedulers moved onto the same frame, so the test checks each rewrite
against the code it replaced.

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
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.fu.random_tables import random_table
from repro.sched import build_schedule_ilp, list_schedule, lower_bound_configuration
from repro.suite.registry import benchmark_names, get_benchmark

DATA = pathlib.Path(__file__).with_name("data") / "phase2_golden.json"

SEEDS = (2004, 7)
#: deadline factors in tenths: ceil(f / 10 × floor) in exact integers
FACTORS = (10, 13, 20)
SCHEDULERS = ("min_resource", "heft", "force_directed", "list_schedule", "ilp")


def _row_id(graph: str, seed: int, factor: int, scheduler: str) -> str:
    return f"{graph}/seed{seed}/x{factor / 10:.1f}/{scheduler}"


def _digest(graph: str, seed: int, factor: int, scheduler: str) -> str:
    dfg = get_benchmark(graph)
    table = random_table(dfg, num_types=3, seed=seed)
    dag = dfg.dag()
    floor = min_completion_time(dag, table)
    deadline = -(-factor * floor // 10)
    if scheduler == "list_schedule":
        doc = _list_schedule_doc(dag, table, deadline)
    elif scheduler == "ilp":
        doc = _ilp_doc(dag, table, deadline)
    else:
        doc = synthesize(dfg, table, deadline, scheduler=scheduler).to_dict()
        del doc["timings"]
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _list_schedule_doc(dag, table, deadline):
    assignment = dfg_assign_repeat(dag, table, deadline).assignment
    configuration = lower_bound_configuration(dag, table, assignment, deadline)
    schedule = list_schedule(
        dag, table, assignment=assignment, configuration=configuration
    )
    return {
        "ops": [
            [repr(node), op.start, op.fu_type, op.fu_index]
            for node, op in schedule.ops.items()
        ],
        "makespan": schedule.deadline,
    }


def _ilp_doc(dag, table, deadline):
    assignment = dfg_assign_repeat(dag, table, deadline).assignment
    model = build_schedule_ilp(dag, table, assignment, deadline)
    return {
        "binaries": model.binaries,
        "constraints": [
            list(constraint) for constraint in model.constraints
        ],
        "frames": [[repr(n), *model.frames[n]] for n in model.node_order],
        "node_order": [repr(n) for n in model.node_order],
    }


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
