"""The serve loader rejects oversized requests before building them.

Reproducer: ``{"benchmark": "diffeq", "deadline": 10**9}`` used to be
accepted, and its solve allocated ``deadline + 1`` floats per node per
lane until the process ran out of memory.  The loader now raises
``ServeError`` (HTTP 400) for a deadline above ``MAX_DEADLINE``, a
``num_types`` above ``MAX_TYPES`` (the seeded table loops over every
type of every node) or an inline instance above ``MAX_NODES`` nodes.  Only the loader runs here;
the builders are replaced by tripwires, so a rejected request provably
builds no graph and no table, and no solve can start.
"""

import pytest

from repro.errors import ServeError
from repro.serve import loader
from repro.serve.loader import MAX_DEADLINE, MAX_NODES, MAX_TYPES, request_from_dict


@pytest.fixture
def tripwires(monkeypatch):
    def tripped(*args, **kwargs):
        pytest.fail("the loader built part of a rejected request")

    monkeypatch.setattr(loader, "random_table", tripped)
    monkeypatch.setattr(loader, "instance_from_dict", tripped)
    monkeypatch.setattr(loader, "min_completion_time", tripped)


def test_huge_deadline_rejected(tripwires):
    with pytest.raises(ServeError, match="exceeds the limit"):
        request_from_dict({"benchmark": "diffeq", "deadline": 10**9})


def test_deadline_just_above_limit_rejected(tripwires):
    with pytest.raises(ServeError, match=str(MAX_DEADLINE)):
        request_from_dict({"benchmark": "diffeq", "deadline": MAX_DEADLINE + 1})


def test_non_integer_deadline_rejected(tripwires):
    with pytest.raises(ServeError, match="must be an integer"):
        request_from_dict({"benchmark": "diffeq", "deadline": "soon"})


def test_huge_type_count_rejected(tripwires):
    with pytest.raises(ServeError, match=f"num_types {MAX_TYPES + 1} exceeds"):
        request_from_dict({"benchmark": "diffeq", "num_types": MAX_TYPES + 1})


def test_non_integer_seed_rejected(tripwires):
    with pytest.raises(ServeError, match="seed must be an integer"):
        request_from_dict({"benchmark": "diffeq", "seed": "x", "deadline": 12})


def test_inline_instance_deadline_rejected(tripwires):
    instance = {"schema_version": 1, "nodes": [], "edges": [], "deadline": 10**9}
    with pytest.raises(ServeError, match="exceeds the limit"):
        request_from_dict({"instance": instance})


def test_too_many_inline_nodes_rejected(tripwires):
    nodes = [{"id": f"n{i}", "op": "add"} for i in range(MAX_NODES + 1)]
    instance = {"schema_version": 1, "nodes": nodes, "edges": []}
    with pytest.raises(ServeError, match="nodes; the limit is"):
        request_from_dict({"instance": instance, "deadline": 10})


def test_deadline_at_limit_accepted():
    request = request_from_dict({"benchmark": "diffeq", "deadline": MAX_DEADLINE})
    assert request.deadline == MAX_DEADLINE
