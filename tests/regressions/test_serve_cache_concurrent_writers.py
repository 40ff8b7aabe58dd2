"""Two writers of one disk-cache key do not break each other's write.

Reproducer: ``ResultCache.put`` used to write every entry through the
same ``<key>.json.tmp`` file.  Two processes sharing one cache
directory (``repro-hls batch`` next to ``repro-hls serve``) can store
the same key at once; when the second writer renamed the shared temp
file into place first, the first writer's ``os.replace`` found no file
and its solved request became a ``ServeError``.  The race is replayed
deterministically: writer B stores the key while writer A is inside its
``json.dump``.  Each writer now has a temp file of its own.
"""

import json
import types

from repro.serve import ResultCache
from repro.serve import cache as cache_module


def test_reentrant_writer_of_the_same_key(tmp_path, monkeypatch):
    path = str(tmp_path)
    first, second = ResultCache(path), ResultCache(path)
    payload_a = {"result": {"writer": "a"}}
    payload_b = {"result": {"writer": "b"}}
    real_dump = json.dump
    interleaved = []

    def dump(obj, fh, **kwargs):
        if not interleaved:
            interleaved.append(True)
            second.put("k", payload_b)  # B finishes while A is writing
        real_dump(obj, fh, **kwargs)

    monkeypatch.setattr(
        cache_module, "json", types.SimpleNamespace(dump=dump, load=json.load)
    )
    first.put("k", payload_a)  # raised ServeError: [Errno 2] ... k.json.tmp

    assert interleaved
    assert sorted(p.name for p in tmp_path.iterdir()) == ["k.json"]
    assert ResultCache(path).get("k") == payload_a  # the last rename wins
