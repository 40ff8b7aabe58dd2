"""Unit tests for the plain-text DFG exchange format."""

import pytest

from repro.errors import GraphError
from repro.fu.random_tables import random_table
from repro.io import dumps_text, loads_text
from repro.suite.registry import PAPER_BENCHMARKS, get_benchmark


class TestRoundtrip:
    @pytest.mark.parametrize("name", PAPER_BENCHMARKS)
    def test_graph_roundtrip(self, name):
        dfg = get_benchmark(name)
        back, table = loads_text(dumps_text(dfg))
        assert back == dfg
        assert table is None

    def test_table_roundtrip(self):
        dfg = get_benchmark("diffeq")
        table = random_table(dfg, num_types=3, seed=1)
        back, back_table = loads_text(dumps_text(dfg, table))
        assert back == dfg
        assert back_table is not None
        for n in dfg.nodes():
            assert list(back_table.times(n)) == list(table.times(n))
            assert list(back_table.costs(n)) == list(table.costs(n))

    def test_delays_roundtrip(self):
        dfg = get_benchmark("biquad2")
        back, _ = loads_text(dumps_text(dfg))
        assert back == dfg
        assert back.total_delays() == dfg.total_delays()

    def test_file_roundtrip(self, tmp_path):
        dfg = get_benchmark("diffeq")
        table = random_table(dfg, num_types=2, seed=2)
        path = tmp_path / "x.dfg"
        path.write_text(dumps_text(dfg, table), encoding="utf-8")
        back, back_table = loads_text(path.read_text(encoding="utf-8"))
        assert back == dfg
        assert back_table.num_types == 2


class TestParsing:
    def test_comments_and_blanks(self):
        dfg, table = loads_text(
            """
            # a comment
            dfg demo

            node a mul   # trailing comment
            edge a b
            """
        )
        assert dfg.name == "demo"
        assert dfg.op("a") == "mul"
        assert dfg.op("b") == "op"  # implicit node
        assert table is None

    def test_edge_with_delay(self):
        dfg, _ = loads_text("edge a b 3")
        assert dfg.edges() == [("a", "b", 3)]

    def test_rows_build_table(self):
        _, table = loads_text(
            "node a\nrow a times 1 2 costs 9 4\n"
        )
        assert table.num_types == 2
        assert table.time("a", 1) == 2


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "bogus directive",
            "dfg",  # missing name
            "node",  # missing id
            "edge a",  # missing dst
            "edge a b x",  # bad delay
            "row a costs 1 times 1",  # sections out of order
            "row a times 1 2 costs 1",  # length mismatch
        ],
    )
    def test_malformed_lines(self, text):
        with pytest.raises(GraphError, match="line 1"):
            loads_text(text)

    def test_rows_disagree_on_types(self):
        with pytest.raises(GraphError, match="FU type count"):
            loads_text(
                "node a\nnode b\n"
                "row a times 1 costs 1\n"
                "row b times 1 2 costs 1 2\n"
            )

    def test_row_for_unknown_node(self):
        with pytest.raises(GraphError, match="unknown nodes"):
            loads_text("node a\nrow a times 1 costs 1\nrow z times 1 costs 1\n")

    def test_missing_rows_for_some_nodes(self):
        with pytest.raises(GraphError, match="missing"):
            loads_text("node a\nnode b\nrow a times 1 costs 1\n")

    def test_dumps_requires_table_coverage(self):
        from repro.fu.table import TimeCostTable
        from repro.graph.dfg import DFG
        from repro.errors import TableError

        dfg = DFG.from_edges([("a", "b")])
        table = TimeCostTable.from_rows({"a": ([1], [1.0])})
        with pytest.raises(TableError):
            dumps_text(dfg, table)


class TestEndToEnd:
    def test_loaded_graph_synthesizes(self, tmp_path):
        from repro.assign.assignment import min_completion_time
        from repro.synthesis import synthesize

        dfg = get_benchmark("lattice4")
        table = random_table(dfg, num_types=3, seed=3)
        path = tmp_path / "l4.dfg"
        path.write_text(dumps_text(dfg, table), encoding="utf-8")
        loaded, loaded_table = loads_text(path.read_text(encoding="utf-8"))
        deadline = min_completion_time(loaded.dag(), loaded_table) + 3
        result = synthesize(loaded, loaded_table, deadline)
        result.verify(loaded.dag(), loaded_table)
