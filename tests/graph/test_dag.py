"""Unit tests for DAG orderings and reachability."""

import pytest

from repro.errors import CyclicDependencyError
from repro.graph.dag import (
    ancestors,
    depth_map,
    descendants,
    height_map,
    require_acyclic,
    reverse_topological_order,
    topological_order,
)
from repro.graph.dfg import DFG


class TestTopologicalOrder:
    def test_respects_edges(self, diamond):
        order = topological_order(diamond)
        pos = {n: i for i, n in enumerate(order)}
        for u, v, _ in diamond.edges():
            assert pos[u] < pos[v]

    def test_covers_all_nodes(self, diamond):
        assert set(topological_order(diamond)) == set(diamond.nodes())

    def test_reverse_is_reversed(self, diamond):
        assert reverse_topological_order(diamond) == list(
            reversed(topological_order(diamond))
        )

    def test_cyclic_rejected(self):
        cyc = DFG.from_edges([("a", "b", 0), ("b", "a", 0)])
        with pytest.raises(CyclicDependencyError):
            topological_order(cyc)

    def test_require_acyclic_message_mentions_dag(self):
        cyc = DFG.from_edges([("a", "b", 0), ("b", "a", 1)])
        with pytest.raises(CyclicDependencyError, match="dag"):
            require_acyclic(cyc)

    def test_isolated_nodes_included(self):
        dfg = DFG()
        dfg.add_node("lonely")
        assert topological_order(dfg) == ["lonely"]

    def test_cached_order_follows_structural_changes(self):
        dfg = DFG.from_edges([("b", "c"), ("a", "c")])
        assert topological_order(dfg) == ["b", "a", "c"]
        topological_order(dfg).clear()  # callers get their own list
        assert topological_order(dfg) == ["b", "a", "c"]
        dfg.add_edge("a", "b")
        assert topological_order(dfg) == ["a", "b", "c"]
        dfg.add_node("z")
        assert topological_order(dfg) == ["a", "z", "b", "c"]
        dfg.add_node("z", op="mul")  # attributes only: same order
        assert topological_order(dfg) == ["a", "z", "b", "c"]
        dfg.remove_edges("a", "b")
        assert topological_order(dfg) == ["b", "a", "z", "c"]
        dfg.add_edge("c", "b", 0)
        with pytest.raises(CyclicDependencyError):
            topological_order(dfg)


class TestReachability:
    def test_descendants(self, diamond):
        assert descendants(diamond, "a") == {"b", "c", "d"}
        assert descendants(diamond, "d") == set()

    def test_ancestors(self, diamond):
        assert ancestors(diamond, "d") == {"a", "b", "c"}
        assert ancestors(diamond, "a") == set()

    def test_unknown_node(self, diamond):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            descendants(diamond, "zzz")
        with pytest.raises(GraphError):
            ancestors(diamond, "zzz")


class TestDepthHeight:
    def test_depth_map(self, diamond):
        d = depth_map(diamond)
        assert d == {"a": 0, "b": 1, "c": 1, "d": 2}

    def test_height_map(self, diamond):
        h = height_map(diamond)
        assert h == {"a": 2, "b": 1, "c": 1, "d": 0}

    def test_depth_plus_height_bounded_by_longest_chain(self, diamond):
        d, h = depth_map(diamond), height_map(diamond)
        longest = max(d[n] + h[n] for n in diamond.nodes())
        assert longest == 2
        # every node lies on some maximal chain in a diamond
        assert all(d[n] + h[n] == longest for n in diamond.nodes())
