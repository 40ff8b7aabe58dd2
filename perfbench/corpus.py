"""Seeded inputs of the three workloads.

Every function here is a pure function of its arguments: the same
workload seed always yields the same instances, deadlines, visiting
order and request documents.  The program under test only ever sees
these generated inputs (as Python objects for ``synth``, as inline
``repro.io`` instance JSON for the serve workloads).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

from repro.assign import min_completion_time
from repro.checkkit.metamorphic import relabel_instance
from repro.fu.random_tables import random_table
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG
from repro.io import instance_to_dict
from repro.suite.registry import benchmark_names, get_benchmark

#: Every registry benchmark takes part in ``synth`` and ``serve_warm``.
GRAPHS: List[str] = benchmark_names()

#: ``synth`` tables come from a fixed pool per graph so that every
#: phase-1 cost a run can meet is listed in ``expected_costs.json``.
TABLE_POOL = 4
TABLES_PER_GRAPH = 2
#: Deadline of a pool entry, as a multiple of ``min_completion_time``.
DEADLINE_FACTORS: Dict[str, float] = {"tight": 1.0, "x1.3": 1.3, "x2": 2.0}
EXPECTED_COSTS = Path(__file__).resolve().parent / "expected_costs.json"

#: ``serve_cold`` rounds visit each graph once per round: two general
#: DAGs (batched `DFG_Assign_Repeat` engine) and two trees (per-job
#: `Tree_Assign`), so both solve paths of the service run.
COLD_GRAPHS: List[str] = ["elliptic", "rls_laguerre", "diffeq", "lattice8"]
COLD_SWEEP = 8
#: Share of cold POSTs whose first deadline is ``min - 1`` (infeasible).
COLD_INFEASIBLE_SHARE = 0.25

#: ``serve_warm``: per graph one table at these deadline factors.
WARM_FACTORS: Tuple[float, ...] = (1.0, 1.3, 1.6, 2.0)
WARM_BATCH = 4


def pool_table_seed(k: int) -> int:
    """Table seed of pool entry ``k`` (the same for every graph)."""
    return 2004 + k


def deadline_for(dag: DFG, table: TimeCostTable, factor: float) -> int:
    tight = min_completion_time(dag, table)
    return max(tight, int(factor * tight))


@dataclass(frozen=True)
class SynthItem:
    """One ``synthesize`` call of the ``synth`` workload."""

    graph: str
    pool: int
    kind: str
    dag: DFG
    table: TimeCostTable
    deadline: int

    @property
    def key(self) -> str:
        """Row of ``expected_costs.json`` holding this item's cost."""
        return f"{self.graph}/{self.pool}/{self.kind}"


def pool_items(graph: str, pool: int) -> List[SynthItem]:
    """The three deadline kinds of one (graph, pool table) entry."""
    dag = get_benchmark(graph).dag()
    table = random_table(dag, num_types=3, seed=pool_table_seed(pool))
    return [
        SynthItem(graph, pool, kind, dag, table, deadline_for(dag, table, f))
        for kind, f in DEADLINE_FACTORS.items()
    ]


def synth_corpus(seed: int) -> List[SynthItem]:
    """Every graph with ``TABLES_PER_GRAPH`` pool tables, three deadlines."""
    rng = random.Random(seed)
    items: List[SynthItem] = []
    for graph in GRAPHS:
        for pool in sorted(rng.sample(range(TABLE_POOL), TABLES_PER_GRAPH)):
            items.extend(pool_items(graph, pool))
    return items


def load_expected_costs() -> Dict[str, float]:
    with open(EXPECTED_COSTS, "r", encoding="utf-8") as fh:
        return {key: float(cost) for key, cost in json.load(fh).items()}


@dataclass(frozen=True)
class ServeRequest:
    """One request of a POST, kept with the instance it was built from."""

    dag: DFG
    table: TimeCostTable
    deadline: int
    label: str
    #: Deadline below ``min_completion_time``: the answer must be the
    #: ``InfeasibleError`` entry.
    infeasible: bool = False

    def to_doc(self) -> Dict[str, object]:
        return {
            "instance": instance_to_dict(self.dag, self.table),
            "deadline": self.deadline,
            "label": self.label,
        }


def post_body(requests: List[ServeRequest]) -> bytes:
    return json.dumps({"requests": [r.to_doc() for r in requests]}).encode()


def cold_post(seed: int, index: int) -> List[ServeRequest]:
    """POST ``index`` of ``serve_cold``: a deadline sweep of a fresh instance.

    Rounds of ``len(COLD_GRAPHS)`` POSTs visit every cold graph once in
    a seeded order; each POST draws a table nobody asked for before, so
    every request misses the cache.  Negative indices are the set-up's
    warm-up POSTs.
    """
    rounds = random.Random(f"cold-order/{seed}/{index // len(COLD_GRAPHS)}")
    graphs = list(COLD_GRAPHS)
    rounds.shuffle(graphs)
    graph = graphs[index % len(COLD_GRAPHS)]
    rng = random.Random(f"cold/{seed}/{index}")
    dag = get_benchmark(graph).dag()
    table = random_table(dag, num_types=3, seed=rng.randrange(2**32))
    tight = min_completion_time(dag, table)
    step = max(1, tight // COLD_SWEEP)
    deadlines = [tight + k * step for k in range(COLD_SWEEP)]
    if rng.random() < COLD_INFEASIBLE_SHARE:
        deadlines[0] = tight - 1
    return [
        ServeRequest(dag, table, d, f"cold{index}.{k}", infeasible=d < tight)
        for k, d in enumerate(deadlines)
    ]


def warm_corpus(seed: int) -> List[ServeRequest]:
    """The solved corpus of ``serve_warm``: every graph, one seeded table."""
    rng = random.Random(f"warm/{seed}")
    out: List[ServeRequest] = []
    for graph in GRAPHS:
        dag = get_benchmark(graph).dag()
        table = random_table(dag, num_types=3, seed=rng.randrange(2**32))
        for k, factor in enumerate(WARM_FACTORS):
            out.append(
                ServeRequest(
                    dag, table, deadline_for(dag, table, factor), f"{graph}.{k}"
                )
            )
    return out


def warm_fill_posts(corpus: List[ServeRequest]) -> List[List[ServeRequest]]:
    """The set-up POSTs that solve the corpus once: one sweep per graph."""
    return [
        corpus[i : i + len(WARM_FACTORS)]
        for i in range(0, len(corpus), len(WARM_FACTORS))
    ]


def warm_post(seed: int, index: int, corpus: List[ServeRequest]) -> List[ServeRequest]:
    """POST ``index`` of ``serve_warm``: fresh relabeled twins of corpus entries.

    Passes of ``len(corpus) / WARM_BATCH`` POSTs visit every corpus
    entry once in a seeded order.
    """
    per_pass = len(corpus) // WARM_BATCH
    order = list(range(len(corpus)))
    random.Random(f"warm-order/{seed}/{index // per_pass}").shuffle(order)
    start = (index % per_pass) * WARM_BATCH
    originals = [corpus[i] for i in order[start : start + WARM_BATCH]]
    twins = []
    for slot, entry in enumerate(originals):
        relabel_seed = random.Random(f"twin/{seed}/{index}/{slot}").randrange(2**32)
        dag, table, _ = relabel_instance(entry.dag, entry.table, relabel_seed)
        twins.append(
            ServeRequest(dag, table, entry.deadline, f"warm{index}.{slot}")
        )
    return twins
