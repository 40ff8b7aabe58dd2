"""The in-house graph layer against networkx as an oracle.

Every order that feeds a tie-break somewhere in the solvers (node
order, edge order, parent/child order, topological order) must be the
one a ``networkx.MultiDiGraph`` built by the same calls produces, and
the cycle witnesses in ``CyclicDependencyError`` messages must match
``networkx.find_cycle``.  networkx is a test-only dependency; these
tests skip without it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.assignment import Assignment
from repro.errors import CyclicDependencyError
from repro.fu.table import TimeCostTable
from repro.graph.dag import (
    ancestors,
    descendants,
    require_acyclic,
    topological_order,
)
from repro.graph.dfg import DFG
from repro.retiming.modulo import rec_mii
from repro.suite.registry import benchmark_names, get_benchmark

nx = pytest.importorskip("networkx")

SETTINGS = dict(max_examples=150, deadline=None)


def _to_nx(calls):
    """Replay recorded ``add_node``/``add_edge`` calls on a MultiDiGraph."""
    g = nx.MultiDiGraph()
    for kind, args in calls:
        if kind == "node":
            node, op = args
            g.add_node(node, op=op)
        else:
            u, v, d = args
            for n in (u, v):  # DFG.add_edge creates endpoints as op "op"
                if n not in g:
                    g.add_node(n, op="op")
            g.add_edge(u, v, delay=d)
    return g


def _nx_edges(g):
    return [(u, v, d["delay"]) for u, v, d in g.edges(data=True)]


def _nx_cycle(g):
    try:
        return [e[:2] for e in nx.find_cycle(g)]
    except nx.NetworkXNoCycle:
        return None


def _nx_zero_delay(g):
    h = nx.MultiDiGraph()
    h.add_nodes_from(g.nodes(data=True))
    h.add_edges_from((u, v, d) for u, v, d in g.edges(data=True) if d["delay"] == 0)
    return h


def _assert_same(dfg: DFG, g) -> None:
    """Every inspection order of ``dfg`` equals networkx's on ``g``."""
    assert dfg.nodes() == list(g.nodes)
    assert [dfg.op(n) for n in dfg.nodes()] == [g.nodes[n]["op"] for n in g.nodes]
    assert dfg.edges() == _nx_edges(g)
    assert dfg.num_edges() == g.number_of_edges()
    for n in g.nodes:
        assert dfg.parents(n) == list(g.predecessors(n))
        assert dfg.children(n) == list(g.successors(n))
        assert descendants(dfg, n) == nx.descendants(g, n)
        assert ancestors(dfg, n) == nx.ancestors(g, n)
    assert dfg.roots() == [n for n in g.nodes if g.in_degree(n) == 0]
    assert dfg.leaves() == [n for n in g.nodes if g.out_degree(n) == 0]
    assert dfg.has_cycle() == (not nx.is_directed_acyclic_graph(g))
    assert dfg.find_cycle() == _nx_cycle(g)
    if nx.is_directed_acyclic_graph(g):
        assert topological_order(dfg) == list(nx.topological_sort(g))
    else:
        with pytest.raises(CyclicDependencyError) as exc:
            topological_order(dfg)
        assert str(_nx_cycle(g)) in str(exc.value)
        with pytest.raises(CyclicDependencyError):
            require_acyclic(dfg)


def _check_derived(dfg: DFG, g) -> None:
    _assert_same(dfg, g)
    _assert_same(dfg.copy(), g.copy())
    _assert_same(dfg.transpose(), g.reverse(copy=True))
    zero = _nx_zero_delay(g)
    if nx.is_directed_acyclic_graph(zero):
        _assert_same(dfg.dag(), zero)
    else:
        with pytest.raises(CyclicDependencyError) as exc:
            dfg.dag()
        assert f"zero-delay cycle {_nx_cycle(zero)} in " in str(exc.value)


@st.composite
def dfg_calls(draw, max_nodes: int = 7, max_edges: int = 14):
    """A sequence of graph-building calls: parallel, delayed, cyclic."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = [f"v{i}" for i in draw(st.permutations(range(n)))]
    calls = []
    for name in names[: draw(st.integers(min_value=0, max_value=n))]:
        calls.append(("node", (name, draw(st.sampled_from(["add", "mul"])))))
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.sampled_from(names))
        v = draw(st.sampled_from(names))
        d = draw(st.integers(min_value=0, max_value=2))
        if u == v and d == 0:
            d = 1
        calls.append(("edge", (u, v, d)))
    return calls


def _build(calls) -> DFG:
    dfg = DFG(name="hyp")
    for kind, args in calls:
        if kind == "node":
            dfg.add_node(args[0], op=args[1])
        else:
            dfg.add_edge(*args)
    return dfg


@given(dfg_calls())
@settings(**SETTINGS)
def test_hypothesis_graphs_match_networkx(calls):
    _check_derived(_build(calls), _to_nx(calls))


@given(dfg_calls(), st.data())
@settings(**SETTINGS)
def test_remove_edges_matches_networkx(calls, data):
    dfg, g = _build(calls), _to_nx(calls)
    edges = dfg.edges()
    if not edges:
        return
    u, v, _ = data.draw(st.sampled_from(edges))
    dfg.remove_edges(u, v)
    while g.has_edge(u, v):
        g.remove_edge(u, v)
    dfg.add_edge(v, u, 1)
    g.add_edge(v, u, delay=1)
    _assert_same(dfg, g)


@pytest.fixture
def recorder(monkeypatch):
    """Record every add_node/add_edge call per DFG object."""
    log = {}
    add_node, add_edge = DFG.add_node, DFG.add_edge

    def rec_node(self, node, op="op", **attrs):
        log.setdefault(id(self), []).append(("node", (node, op)))
        add_node(self, node, op, **attrs)

    def rec_edge(self, u, v, delay=0):
        log.setdefault(id(self), []).append(("edge", (u, v, delay)))
        add_edge(self, u, v, delay)

    monkeypatch.setattr(DFG, "add_node", rec_node)
    monkeypatch.setattr(DFG, "add_edge", rec_edge)
    return log


@pytest.mark.parametrize("name", benchmark_names())
def test_registry_graphs_match_networkx(name, recorder):
    dfg = get_benchmark(name)
    g = _to_nx(recorder[id(dfg)])
    recorder.clear()
    _check_derived(dfg, g)


def _nx_rec_mii(g, times):
    """The former networkx formulation of RecMII (test oracle)."""
    if g.number_of_edges() == 0:
        return 1

    def feasible(ii):
        h = nx.DiGraph()
        h.add_nodes_from(g.nodes)
        for u, v, d in _nx_edges(g):
            w = -(times[u] - d * ii)
            if h.has_edge(u, v):
                w = min(w, h[u][v]["weight"])
            h.add_edge(u, v, weight=w)
        return not nx.negative_edge_cycle(h)

    lo, hi = 1, max(1, sum(times.values()))
    if feasible(lo):
        return 1
    while lo < hi:
        mid = (lo + hi) // 2
        if feasible(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


@given(dfg_calls(), st.data())
@settings(**SETTINGS)
def test_rec_mii_matches_networkx(calls, data):
    dfg, g = _build(calls), _to_nx(calls)
    table = TimeCostTable(1)
    for n in dfg.nodes():
        table.set_row(n, [data.draw(st.integers(min_value=0, max_value=5))], [1.0])
    assignment = Assignment.uniform(dfg, 0)
    times = assignment.execution_times(dfg, table)
    assert rec_mii(dfg, table, assignment) == _nx_rec_mii(g, times)


def test_delayed_cycle_rec_mii_is_ratio():
    dfg = DFG.from_edges([("a", "b", 0), ("b", "a", 2)])
    table = TimeCostTable.from_rows({"a": ([3], [1.0]), "b": ([4], [1.0])})
    assert rec_mii(dfg, table, Assignment.uniform(dfg, 0)) == 4  # ceil(7 / 2)
