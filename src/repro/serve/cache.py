"""Content-addressed result cache for the serve layer.

Entries are keyed on the request's canonical hash (see
:func:`repro.serve.jobs.prepare`): sha256 over the relabel-invariant
canonical instance JSON, the solver knobs, and the result-schema and
solver versions.  A key means one (instance, knobs) equivalence class
as answered by one solver release; bumping
:data:`~repro.serve.jobs.SOLVER_VERSION` (or the result schema) moves
every key, so a persisted tier never serves an answer from an older
solver, and its stale files are simply never read again.  Values are
the label-free canonical payloads returned by
:func:`~repro.serve.jobs.solve_canonical_job`; each request translates
them back to its own node names, which is how two differently-labelled
isomorphic requests share one entry.

The cache is two-tier: an in-process LRU of at most
:data:`MEMORY_ENTRIES` payloads always, plus an optional directory of
``<key>.json`` files for persistence across processes (``repro-hls
batch`` runs, service restarts).  The directory is not bounded, so a
key evicted from memory is still a hit when it is set.  Disk reads
populate the memory tier; a file that is unreadable is a miss, and one
that is not UTF-8 JSON or not a dict holding a ``result`` or an
``error`` is a miss that also deletes the file.  Every
lookup emits ``serve.cache.hits`` / ``serve.cache.misses`` counters to
the ambient tracer, every write ``serve.cache.stores`` — the metrics
the warm-batch acceptance gate is measured with.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from collections import OrderedDict
from typing import Any, Dict, Iterator, Optional

from ..errors import ServeError
from ..obs import add_metric

__all__ = ["MEMORY_ENTRIES", "ResultCache"]

#: Payloads the memory tier holds; the least recently used goes first.
MEMORY_ENTRIES = 1024


def _is_payload(value: Any) -> bool:
    """Whether ``value`` is an answer: a dict with a result or an error."""
    return isinstance(value, dict) and (
        value.get("result") is not None or value.get("error") is not None
    )


class ResultCache:
    """Two-tier (memory + optional directory) content-addressed cache."""

    def __init__(self, path: Optional[str] = None):
        self._memory: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self._path = path
        if path is not None:
            try:
                os.makedirs(path, exist_ok=True)
            except OSError as exc:
                raise ServeError(
                    f"cannot create cache directory {path!r}: {exc}"
                ) from exc

    @property
    def path(self) -> Optional[str]:
        """Directory of the persistent tier (``None`` = memory only)."""
        return self._path

    def _file(self, key: str) -> str:
        assert self._path is not None
        return os.path.join(self._path, f"{key}.json")

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The payload stored under ``key``, or ``None`` on a miss."""
        payload = self._memory.get(key)
        if payload is not None:
            self._memory.move_to_end(key)
        elif self._path is not None:
            path = self._file(key)
            opened = False
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    opened = True
                    payload = json.load(fh)
            except (OSError, ValueError):  # incl. JSON and UTF-8 decode errors
                payload = None
            if _is_payload(payload):
                self._remember(key, payload)
            else:
                if opened:
                    # A corrupt file would still count in len(); drop it.
                    # A writer racing in between loses its entry, so a
                    # later lookup misses: never a wrong answer.
                    with contextlib.suppress(FileNotFoundError):
                        os.unlink(path)
                payload = None
        if payload is None:
            add_metric("serve.cache.misses")
            return None
        add_metric("serve.cache.hits")
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` in both tiers."""
        self._remember(key, payload)
        if self._path is not None:
            target = self._file(key)
            try:
                # A temp file of this writer's own: another process
                # storing the same key must not rename it away first.
                fd, tmp = tempfile.mkstemp(
                    dir=self._path, prefix=f"{key}.", suffix=".tmp"
                )
                try:
                    with os.fdopen(fd, "w", encoding="utf-8") as fh:
                        # mkstemp's 0600 would hide the entry from other users
                        os.fchmod(fh.fileno(), 0o644)
                        json.dump(payload, fh, sort_keys=True)
                    os.replace(tmp, target)  # atomic: no partial reads
                except BaseException:
                    with contextlib.suppress(OSError):
                        os.unlink(tmp)
                    raise
            except OSError as exc:
                raise ServeError(
                    f"cannot persist cache entry to {target!r}: {exc}"
                ) from exc
        add_metric("serve.cache.stores")

    def _remember(self, key: str, payload: Dict[str, Any]) -> None:
        """Put ``payload`` in the memory tier as most recent; evict LRU."""
        self._memory[key] = payload
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)

    def __len__(self) -> int:
        keys = set(self._memory)
        if self._path is not None:
            try:
                keys.update(
                    name[: -len(".json")]
                    for name in os.listdir(self._path)
                    if name.endswith(".json")
                )
            except OSError:
                pass
        return len(keys)

    def keys(self) -> Iterator[str]:
        seen = set(self._memory)
        if self._path is not None:
            try:
                for name in sorted(os.listdir(self._path)):
                    if name.endswith(".json"):
                        seen.add(name[: -len(".json")])
            except OSError:
                pass
        return iter(sorted(seen))

    def clear(self) -> None:
        """Drop the memory tier and delete persisted entries."""
        self._memory.clear()
        if self._path is not None:
            try:
                for name in os.listdir(self._path):
                    if name.endswith(".json"):
                        os.unlink(os.path.join(self._path, name))
            except OSError:
                pass
