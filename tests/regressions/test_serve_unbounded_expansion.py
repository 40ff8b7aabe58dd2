"""The serve loader bounds the DP's tree, not only the request's graph.

Reproducer (shrunk): a layered DAG, consecutive layers of two nodes
fully connected, then a chain.  Its node count is small, but
`DFG_Expand` copies a node once per root path in either orientation,
so both candidate trees are exponential in the layer count.  The
original 2000-node instance (17 layers, a 1966-node chain) passed the
loader's node limit and expands to 129,105,918 tree nodes.  The loader
now rejects, with a ``ServeError`` (HTTP 400) and before any DP work:

* an instance whose smaller expansion exceeds ``MAX_EXPANSION`` nodes;
* a request whose expansion x (deadline + 1) exceeds ``MAX_DP_CELLS``.

Every registry graph at twice its minimum completion time still loads.
"""

import pytest

from repro.assign import min_completion_time
from repro.errors import ServeError
from repro.fu.random_tables import random_table
from repro.graph.classify import expansion_sizes
from repro.graph.dfg import DFG
from repro.io import instance_to_dict
from repro.serve.loader import (
    MAX_DP_CELLS,
    MAX_EXPANSION,
    request_from_dict,
    requests_from_doc,
)
from repro.suite.registry import benchmark_names, get_benchmark


def layered(layers: int, chain: int) -> DFG:
    dag = DFG(name=f"layered{layers}")
    for k in range(1, layers):
        for u in (f"l{k - 1}a", f"l{k - 1}b"):
            for v in (f"l{k}a", f"l{k}b"):
                dag.add_edge(u, v, 0)
    prev = [f"l{layers - 1}a", f"l{layers - 1}b"]
    for j in range(chain):
        for u in prev:
            dag.add_edge(u, f"c{j}", 0)
        prev = [f"c{j}"]
    return dag


def _doc(dag: DFG, deadline: int):
    table = random_table(dag, num_types=2, seed=1)
    return {"instance": instance_to_dict(dag, table), "deadline": deadline}


def test_exponential_expansion_rejected():
    dag = layered(18, 4)
    assert len(dag) == 40
    assert min(expansion_sizes(dag)) > MAX_EXPANSION
    with pytest.raises(ServeError, match=f"the limit is {MAX_EXPANSION}"):
        request_from_dict(_doc(dag, 100))


def test_dp_cells_bound_the_deadline_on_a_duplicating_dag():
    dag = layered(12, 3)
    size = min(expansion_sizes(dag))
    assert size <= MAX_EXPANSION and size * 10_001 > MAX_DP_CELLS
    with pytest.raises(ServeError, match="DP cells"):
        request_from_dict(_doc(dag, 10_000))
    assert request_from_dict(_doc(dag, 100)).deadline == 100


def test_rejection_comes_per_request_in_a_sweep():
    dag = layered(12, 3)
    doc = _doc(dag, 100)
    with pytest.raises(ServeError, match="DP cells"):
        requests_from_doc([doc, dict(doc, deadline=10_000)])


@pytest.mark.parametrize("name", benchmark_names())
def test_registry_graphs_load_at_twice_their_floor(name):
    dag = get_benchmark(name).dag()
    table = random_table(dag, num_types=3, seed=2004)
    deadline = 2 * min_completion_time(dag, table)
    assert request_from_dict({"benchmark": name, "deadline": deadline})
    inline = {"instance": instance_to_dict(dag, table), "deadline": deadline}
    assert request_from_dict(inline).deadline == deadline
