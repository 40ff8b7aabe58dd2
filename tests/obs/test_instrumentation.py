"""Instrumentation wiring: spans from the solver layers, DPStats parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign import DPStats
from repro.assign.assignment import min_completion_time
from repro.assign.dfg_assign import dfg_assign_repeat
from repro.assign.frontier import dfg_frontier, tree_frontier
from repro.fu.random_tables import random_table
from repro.obs import Tracer, use_tracer
from repro.suite.registry import get_benchmark
from repro.synthesis import synthesize

from ..properties.strategies import dag_with_table


@pytest.fixture
def diffeq():
    dfg = get_benchmark("diffeq").dag()
    table = random_table(dfg, num_types=3, seed=7)
    deadline = min_completion_time(dfg, table) + 3
    return dfg, table, deadline


class TestSynthesizeSpans:
    def test_phase_spans_nest_under_synthesize(self, diffeq):
        dfg, table, deadline = diffeq
        tracer = Tracer()
        with use_tracer(tracer):
            result = synthesize(dfg, table, deadline)
        assert [r.name for r in tracer.roots] == ["synthesize"]
        root = tracer.roots[0]
        phases = [c.name for c in root.children]
        assert phases == ["assign", "lower_bound", "schedule"]
        assert root.attributes["deadline"] == deadline
        assert root.attributes["cost"] == pytest.approx(result.cost)
        # the solver's own span nests below the assign phase
        assert root.find("tree_assign") or root.find("dfg_assign_repeat")
        assert root.find("min_resource_schedule") is not None
        assert root.find("lower_bound_configuration") is not None

    def test_result_carries_trace_and_metrics(self, diffeq):
        dfg, table, deadline = diffeq
        tracer = Tracer()
        with use_tracer(tracer):
            result = synthesize(dfg, table, deadline)
        assert result.trace is tracer.roots[0]
        assert result.metrics is tracer.metrics
        for phase in ("assign", "lower_bound", "schedule", "total"):
            assert result.timings[phase] >= 0.0
        assert result.timings["total"] >= result.timings["assign"]

    def test_disabled_tracer_yields_no_trace_but_timings(self, diffeq):
        dfg, table, deadline = diffeq
        result = synthesize(dfg, table, deadline)
        assert result.trace is None
        assert result.metrics is None
        assert set(result.timings) == {"assign", "lower_bound", "schedule", "total"}

    def test_traced_and_untraced_agree(self, diffeq):
        dfg, table, deadline = diffeq
        plain = synthesize(dfg, table, deadline)
        with use_tracer(Tracer()):
            traced = synthesize(dfg, table, deadline)
        assert traced.cost == pytest.approx(plain.cost)
        assert dict(traced.assignment.items()) == dict(plain.assignment.items())
        assert traced.configuration.counts == plain.configuration.counts


class TestFrontierSpans:
    def test_tree_frontier_emits_span(self):
        dfg = get_benchmark("lattice4").dag()
        table = random_table(dfg, num_types=3, seed=0)
        floor = min_completion_time(dfg, table)
        tracer = Tracer()
        with use_tracer(tracer):
            tree_frontier(dfg, table, max_deadline=floor + 10)
        assert tracer.roots[0].name == "tree_frontier"
        assert tracer.roots[0].attributes["max_deadline"] == floor + 10

    def test_dfg_frontier_emits_dp_metrics(self, diffeq):
        dfg, table, _ = diffeq
        floor = min_completion_time(dfg, table)
        tracer = Tracer()
        with use_tracer(tracer):
            dfg_frontier(dfg, table, max_deadline=floor + 5)
        assert tracer.roots[0].name == "dfg_frontier"
        assert tracer.metrics.counter("dp.refreshes").value > 0
        assert tracer.metrics.counter("dp.tracebacks").value > 0


class TestMetricsMatchDPStats:
    @settings(max_examples=30, deadline=None)
    @given(pair=dag_with_table(max_nodes=6), span=st.integers(0, 4))
    def test_dp_counters_equal_stats(self, pair, span):
        dfg, table = pair
        floor = min_completion_time(dfg, table)
        stats = DPStats()
        tracer = Tracer()
        with use_tracer(tracer):
            dfg_frontier(dfg, table, max_deadline=floor + span, stats=stats)
        for name, value in stats.as_dict().items():
            counter = tracer.metrics.counters.get(f"dp.{name}")
            recorded = counter.value if counter is not None else 0.0
            assert recorded == pytest.approx(value), name

    def test_repeat_is_one_lane_without_batch_metrics(self):
        """A `dfg_assign_repeat` call runs one engine lane: its own span,
        `dp.*` counters equal to its stats, no `engine.*` telemetry."""
        dfg = get_benchmark("elliptic").dag()
        table = random_table(dfg, num_types=3, seed=7)
        deadline = min_completion_time(dfg, table) + 3
        stats = DPStats()
        tracer = Tracer()
        with use_tracer(tracer):
            dfg_assign_repeat(dfg, table, deadline, stats=stats)
        assert [r.name for r in tracer.roots] == ["dfg_assign_repeat"]
        assert tracer.roots[0].find("engine.batch") is None
        assert not [n for n in tracer.metrics.counters if n.startswith("engine.")]
        assert stats.refreshes > 1
        for name, value in stats.as_dict().items():
            counter = tracer.metrics.counters.get(f"dp.{name}")
            recorded = counter.value if counter is not None else 0.0
            assert recorded == pytest.approx(value), name
