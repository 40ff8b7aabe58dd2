"""`expansion_sizes` predicts `DFG_Expand`, so `choose_expansion` builds one tree.

`choose_expansion` compares the two predicted sizes and expands only the
orientation it keeps.  Pinned on every registry graph and on hypothesis
DAGs: each predicted size equals the node count of the tree
`expansion_candidates` builds, and the kept tree is the one the
build-both rule (smaller tree, ties to the forward one) keeps.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.assign.dfg_assign import dfg_assign_once
from repro.assign.dfg_expand import choose_expansion, expansion_candidates
from repro.errors import GraphError
from repro.fu.random_tables import random_table
from repro.graph.classify import duplication_count, expansion_sizes
from repro.graph.dfg import DFG
from repro.suite.registry import benchmark_names, get_benchmark

from .strategies import dags

SETTINGS = dict(max_examples=80, deadline=None)


def _check(dag):
    forward, reverse = expansion_sizes(dag)
    assert forward == len(dag) + duplication_count(dag)
    assert reverse == len(dag) + duplication_count(dag.transpose())
    t_fwd, t_rev = expansion_candidates(dag)
    assert (forward, reverse) == (len(t_fwd), len(t_rev))
    kept = t_fwd if len(t_fwd) <= len(t_rev) else t_rev
    chosen = choose_expansion(dag)
    assert chosen.transposed == kept.transposed
    assert chosen.tree == kept.tree
    assert chosen.origin == kept.origin
    assert chosen.copies == kept.copies


@pytest.mark.parametrize("name", benchmark_names())
def test_sizes_and_choice_on_registry(name):
    _check(get_benchmark(name).dag())


@settings(**SETTINGS)
@given(dags(max_nodes=9, max_parents=3))
def test_sizes_and_choice_on_hypothesis_dags(dag):
    _check(dag)


def test_discarded_orientation_may_overflow_node_limit():
    # Three roots into a hub, the hub into a 6-node chain: the forward
    # tree copies the hub and its chain once per root (3 * 7 + 3 = 24
    # nodes); the transpose is a tree (10 nodes) and is kept.
    dag = DFG(name="fan_in")
    for i in range(3):
        dag.add_edge(f"r{i}", "hub", 0)
    prev = "hub"
    for j in range(6):
        dag.add_edge(prev, f"c{j}", 0)
        prev = f"c{j}"
    assert expansion_sizes(dag) == (24, 10)
    with pytest.raises(GraphError, match="node_limit"):
        expansion_candidates(dag, node_limit=12)
    chosen = choose_expansion(dag, node_limit=12)
    assert chosen.transposed and len(chosen) == 10
    table = random_table(dag, num_types=2, seed=3)
    assert dfg_assign_once(dag, table, 60, node_limit=12).cost >= 0
