"""Deterministic, spawn-safe parallel map.

:func:`pmap` is the package's single parallelism primitive: an
order-preserving process map whose results are — by construction —
independent of the worker count.  ``workers=0`` (the default
everywhere) runs serially in-process, byte-identical to the historical
single-process behavior; ``workers=N`` fans the items out to a
persistent pool of ``N`` spawn-context workers in contiguous chunks
and reassembles the results in input order.

The spawn context (never fork) keeps the workers safe on every
platform and free of inherited locks; it also means ``fn`` and the
items must be picklable — module-level functions, or
``functools.partial`` of one.  Pools are cached per worker count and
reused for the life of the process, so per-call overhead after the
first use is pickling only; :func:`shutdown_pools` tears them down
(registered via ``atexit``).

Obs integration: every call opens an ``engine.pmap`` span (callers
override the label) and publishes ``engine.pmap.items`` /
``engine.pmap.chunks`` counters to the ambient tracer.
"""

from __future__ import annotations

import atexit
import math
import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import Any, Callable, Dict, Iterable, List, Tuple, TypeVar

from ..errors import EngineError
from ..obs import add_metric, current_tracer

__all__ = ["pmap", "resolve_workers", "shutdown_pools"]

T = TypeVar("T")
R = TypeVar("R")

_POOLS: Dict[int, ProcessPoolExecutor] = {}


def resolve_workers(workers: int) -> int:
    """Validate and normalize a worker-count request.

    ``0`` means serial, ``-1`` means one worker per CPU; anything else
    must be a positive count.  Raises :class:`EngineError` otherwise,
    before any pool is touched.
    """
    if workers == -1:
        return os.cpu_count() or 1
    if workers < 0:
        raise EngineError(
            f"workers must be >= 0 (or -1 for one per CPU), got {workers}"
        )
    return int(workers)


def _pool(workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=workers, mp_context=get_context("spawn")
        )
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Shut down every cached worker pool (idempotent)."""
    while _POOLS:
        _, pool = _POOLS.popitem()
        pool.shutdown(wait=True, cancel_futures=True)


atexit.register(shutdown_pools)


def _run_chunk(payload: Tuple[Callable[[Any], Any], List[Any]]) -> List[Any]:
    """Worker-side body: apply ``fn`` to one contiguous chunk, in order."""
    fn, chunk = payload
    return [fn(item) for item in chunk]


def pmap(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int = 0,
    chunk_size: int = 0,
    label: str = "engine.pmap",
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order; results are
    independent of ``workers``.

    ``workers=0`` (or a single item) runs serially in-process.
    Otherwise items are split into contiguous chunks (``chunk_size=0``
    picks ``ceil(n / (4 * workers))`` so each worker sees ~4 chunks)
    and dispatched to the persistent spawn pool; exceptions raised by
    ``fn`` propagate to the caller unchanged in either mode.
    """
    seq = list(items)
    n_workers = resolve_workers(workers)
    if chunk_size < 0:
        raise EngineError(f"chunk_size must be >= 0, got {chunk_size}")
    tracer = current_tracer()
    with tracer.span(label, items=len(seq), workers=n_workers):
        add_metric("engine.pmap.items", float(len(seq)))
        if n_workers == 0 or len(seq) <= 1:
            return [fn(item) for item in seq]
        size = chunk_size or max(1, math.ceil(len(seq) / (4 * n_workers)))
        chunks = [seq[i : i + size] for i in range(0, len(seq), size)]
        add_metric("engine.pmap.chunks", float(len(chunks)))
        payloads = [(fn, chunk) for chunk in chunks]
        pool = _pool(n_workers)
        try:
            nested = list(pool.map(_run_chunk, payloads))
        except BaseException:
            # A broken pool stays broken; drop it so the next call
            # starts fresh, then let the original error surface.
            if getattr(pool, "_broken", False):
                _POOLS.pop(n_workers, None)
            raise
        return [result for chunk in nested for result in chunk]
