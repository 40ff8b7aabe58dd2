"""Unit tests for time/cost tables."""

import numpy as np
import pytest

from repro.errors import TableError
from repro.fu.table import TimeCostTable
from repro.graph.dfg import DFG


@pytest.fixture
def table():
    return TimeCostTable.from_rows(
        {
            "a": ([1, 2, 3], [9.0, 5.0, 2.0]),
            "b": ([2, 2, 5], [7.0, 7.0, 1.0]),
        }
    )


class TestConstruction:
    def test_from_rows(self, table):
        assert table.num_types == 3
        assert len(table) == 2
        assert "a" in table and "c" not in table

    def test_empty_rejected(self):
        with pytest.raises(TableError):
            TimeCostTable.from_rows({})

    def test_zero_types_rejected(self):
        with pytest.raises(TableError):
            TimeCostTable(0)

    def test_row_length_mismatch(self):
        t = TimeCostTable(3)
        with pytest.raises(TableError):
            t.set_row("x", [1, 2], [1.0, 2.0, 3.0])

    def test_negative_time_rejected(self):
        t = TimeCostTable(2)
        with pytest.raises(TableError):
            t.set_row("x", [-1, 2], [1.0, 2.0])

    def test_fractional_time_rejected(self):
        t = TimeCostTable(2)
        with pytest.raises(TableError):
            t.set_row("x", [1.5, 2], [1.0, 2.0])

    def test_integer_valued_float_time_accepted(self):
        t = TimeCostTable(2)
        t.set_row("x", [1.0, 2.0], [1.0, 2.0])
        assert t.time("x", 0) == 1

    def test_negative_cost_rejected(self):
        t = TimeCostTable(2)
        with pytest.raises(TableError):
            t.set_row("x", [1, 2], [-1.0, 2.0])

    def test_nan_cost_rejected(self):
        t = TimeCostTable(2)
        with pytest.raises(TableError):
            t.set_row("x", [1, 2], [float("nan"), 2.0])

    def test_zero_time_allowed_for_pseudo_nodes(self):
        t = TimeCostTable(2)
        t.set_row("pseudo", [0, 0], [0.0, 0.0])
        assert t.min_time("pseudo") == 0


class TestAccess:
    def test_time_cost(self, table):
        assert table.time("a", 1) == 2
        assert table.cost("b", 2) == 1.0

    def test_rows_read_only(self, table):
        with pytest.raises(ValueError):
            table.times("a")[0] = 99

    def test_out_of_range_type(self, table):
        with pytest.raises(TableError):
            table.time("a", 3)
        with pytest.raises(TableError):
            table.cost("a", -1)

    def test_unknown_node(self, table):
        with pytest.raises(TableError):
            table.times("zzz")

    def test_min_time_cost(self, table):
        assert table.min_time("a") == 1
        assert table.min_cost("a") == 2.0

    def test_min_times_map(self, table):
        assert table.min_times() == {"a": 1, "b": 2}
        assert table.min_times(["b"]) == {"b": 2}

    def test_fastest_type_tie_breaks_on_cost(self, table):
        # b: times (2,2,5) tie between types 0 and 1, costs equal -> index 0
        assert table.fastest_type("b") == 0

    def test_cheapest_type(self, table):
        assert table.cheapest_type("a") == 2

    def test_cheapest_tie_breaks_on_time(self):
        t = TimeCostTable.from_rows({"x": ([5, 2], [3.0, 3.0])})
        assert t.cheapest_type("x") == 1


class TestDerivation:
    def test_with_fixed_pins_all_entries(self, table):
        fixed = table.with_fixed("a", 1)
        assert list(fixed.times("a")) == [2, 2, 2]
        assert list(fixed.costs("a")) == [5.0, 5.0, 5.0]
        # original untouched
        assert list(table.times("a")) == [1, 2, 3]

    def test_with_row_replaces(self, table):
        t2 = table.with_row("a", [9, 9, 9], [1.0, 1.0, 1.0])
        assert t2.min_time("a") == 9
        assert table.min_time("a") == 1

    def test_copy_independent(self, table):
        c = table.copy()
        c.set_row("c", [1, 1, 1], [1.0, 1.0, 1.0])
        assert "c" not in table


class TestRowVersions:
    def test_copy_preserves_versions(self, table):
        c = table.copy()
        assert c.row_version("a") == table.row_version("a")

    def test_set_row_remints(self, table):
        before = table.row_version("a")
        table.set_row("a", [1, 2, 3], [9.0, 5.0, 1.0])
        assert table.row_version("a") != before

    def test_with_fixed_tokens_are_content_stable(self, table):
        # Deriving the same pin twice — even via an intermediate copy —
        # yields the same token; the incremental DP engine's cross-sweep
        # cache hits depend on this.
        once = table.with_fixed("a", 1)
        again = table.copy().with_fixed("a", 1)
        assert once.row_version("a") == again.row_version("a")
        assert once.row_version("b") == table.row_version("b")

    def test_with_fixed_tokens_differ_by_type(self, table):
        assert (
            table.with_fixed("a", 0).row_version("a")
            != table.with_fixed("a", 1).row_version("a")
        )

    def test_distinct_rows_have_distinct_versions(self, table):
        assert table.row_version("a") != table.row_version("b")

    def test_missing_row_raises(self, table):
        with pytest.raises(TableError, match="no table row"):
            table.row_version("nope")


class TestValidation:
    def test_validate_for_ok(self, table):
        dfg = DFG.from_edges([("a", "b")])
        table.validate_for(dfg)  # must not raise

    def test_validate_for_missing(self, table):
        dfg = DFG.from_edges([("a", "zzz")])
        with pytest.raises(TableError, match="zzz"):
            table.validate_for(dfg)


def _per_row(rows):
    """The reference path: one ``set_row`` per row."""
    table = TimeCostTable(num_types=len(next(iter(rows.values()))[0]))
    for node, (times, costs) in rows.items():
        table.set_row(node, times, costs)
    return table


class TestFromRowsFastPath:
    GOOD = {"a": ([1, 2], [3.0, 1.0]), "b": ([4, 0], [0.0, 2.5])}

    @pytest.mark.parametrize(
        "bad",
        [
            {"b": ([4, -1], [0.0, 2.5])},  # negative time
            {"b": ([4, 2.5], [0.0, 2.5])},  # non-integer time
            {"b": ([4, 2], [float("nan"), 2.5])},  # NaN cost
            {"b": ([4, 2], [0.0, -2.5])},  # negative cost
            {"b": ([4, 2, 7], [0.0, 2.5, 1.0])},  # ragged row
            {"b": ([4], [0.0, 2.5])},  # ragged times only
        ],
    )
    def test_same_error_as_per_row_path(self, bad):
        rows = {**self.GOOD, **bad}
        with pytest.raises(TableError) as reference:
            _per_row(rows)
        with pytest.raises(TableError) as fast:
            TimeCostTable.from_rows(rows)
        assert type(fast.value) is type(reference.value)
        assert str(fast.value) == str(reference.value)

    def test_integral_float_times_accepted_like_set_row(self):
        rows = {"a": ([1.0, 2.0], [3.0, 1.0])}
        table = TimeCostTable.from_rows(rows)
        assert table.times("a").dtype == np.int64
        assert table.times("a").tolist() == [1, 2]

    def test_same_table_as_per_row_path(self):
        fast, reference = TimeCostTable.from_rows(self.GOOD), _per_row(self.GOOD)
        assert list(fast.nodes()) == list(reference.nodes())
        for node in self.GOOD:
            assert fast.times(node).dtype == reference.times(node).dtype
            assert fast.times(node).tolist() == reference.times(node).tolist()
            assert fast.costs(node).tolist() == reference.costs(node).tolist()
            assert not fast.times(node).flags.writeable
            assert not fast.costs(node).flags.writeable
        assert fast.row_version("a") != fast.row_version("b")
