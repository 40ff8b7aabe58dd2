"""A corrupt disk-cache entry is a miss, never an answer or a 500.

Reproducer: ``ResultCache.get`` caught only ``OSError`` and
``json.JSONDecodeError`` when it read ``<key>.json``.  Three entry files
slipped through:

* a file cut inside a multi-byte UTF-8 character raised
  ``UnicodeDecodeError``, which failed the whole POST, and every later
  POST for the same key;
* a file holding ``[1, 2]`` came back as a hit, and the service then
  failed on ``payload.get``;
* a file holding ``{}`` was served as an answer with neither a
  ``result`` nor an ``error``.

Each is now a miss: the service solves the request afresh and the new
payload overwrites the entry.

A second reproducer: the miss left the corrupt file in place, so with a
``{}`` entry on disk ``len(cache)`` (the ``cache_entries`` of
``/v1/health``) was 1 while ``get`` answered ``None``.  A lookup that
reads a corrupt file now deletes it; a missing file stays a plain miss.
"""

import json

import pytest

from repro.fu.random_tables import random_table
from repro.serve import Request, ResultCache, SynthesisService
from repro.suite.registry import get_benchmark

ENTRY = json.dumps({"result": {"note": "é"}}, ensure_ascii=False).encode("utf-8")
CORRUPT = {
    "cut_utf8": ENTRY[: ENTRY.index("é".encode("utf-8")) + 1],  # inside "é"
    "json_list": b"[1, 2]",
    "empty_object": b"{}",
}


@pytest.fixture
def request_():
    dfg = get_benchmark("diffeq").dag()
    return Request(dfg, random_table(dfg, num_types=3, seed=7), deadline=14)


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupt_entry_is_a_miss(tmp_path, name):
    (tmp_path / "k.json").write_bytes(CORRUPT[name])
    assert ResultCache(str(tmp_path)).get("k") is None


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupt_entry_is_dropped_on_read(tmp_path, name):
    entry = tmp_path / "k.json"
    entry.write_bytes(CORRUPT[name])
    cache = ResultCache(str(tmp_path))
    assert len(cache) == 1
    assert cache.get("k") is None
    assert not entry.exists()
    assert len(cache) == 0 and list(cache.keys()) == []


def test_absent_entry_is_a_plain_miss(tmp_path):
    cache = ResultCache(str(tmp_path))
    assert cache.get("k") is None
    assert len(cache) == 0


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_service_solves_past_a_corrupt_entry(tmp_path, request_, name):
    fresh = SynthesisService()
    (want,) = fresh.solve_batch([request_])
    (tmp_path / f"{want.key}.json").write_bytes(CORRUPT[name])

    service = SynthesisService(cache=ResultCache(str(tmp_path)))
    (got,) = service.solve_batch([request_])
    assert not got.cached and got.ok
    assert got.result == want.result
    # the solve overwrote the corrupt file with a readable entry
    (again,) = SynthesisService(cache=ResultCache(str(tmp_path))).solve_batch(
        [request_]
    )
    assert again.cached and again.result == want.result
