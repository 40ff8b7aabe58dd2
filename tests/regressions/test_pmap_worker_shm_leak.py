"""Batched fan-outs leave no shared memory open in the worker processes.

Reproducer: ``dfg_assign_repeat_batch(..., workers=N)`` used to ship its
lane tables through a ``/dev/shm`` block.  The parent unlinked each
block after its call, but every worker kept its attachment, one mapping
and two file descriptors per call, for the life of the pool.  A
long-running ``repro-hls serve --workers N`` thus leaked a mapping and
two fds per fanned-out cache miss until a worker hit its fd limit.
The lanes now travel by value, so after any number of calls each
worker holds no ``/dev/shm`` descriptor.
"""

import os
import time

import pytest

from repro.assign import BatchJob, dfg_assign_repeat_batch, min_completion_time
from repro.engine import pmap
from repro.fu.random_tables import random_table
from repro.suite.registry import get_benchmark

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
)

CALLS = 20
LANES = 8
WORKERS = 2


def _shm_fds(_item: int):
    """``(pid, open fds into /dev/shm)`` of the worker running this item.

    The short sleep keeps one worker from draining every probe item, so
    each pool worker reports at least once.
    """
    time.sleep(0.05)
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the fd listdir itself used, closed since
            continue
        count += target.startswith("/dev/shm/")
    return os.getpid(), count


def test_batched_fan_out_leaves_no_shm_in_workers():
    dag = get_benchmark("elliptic").dag()
    table = random_table(dag, num_types=3, seed=2004)
    floor = min_completion_time(dag, table)
    jobs = [BatchJob(dag, table, floor + d) for d in range(LANES)]
    for _ in range(CALLS):
        outcomes = dfg_assign_repeat_batch(jobs, workers=WORKERS)
        assert all(o.error is None for o in outcomes)
    per_worker = {}
    for pid, count in pmap(_shm_fds, range(4 * WORKERS), workers=WORKERS):
        per_worker[pid] = max(count, per_worker.get(pid, 0))
    assert os.getpid() not in per_worker  # the probe ran in the pool
    assert per_worker and set(per_worker.values()) == {0}, per_worker
