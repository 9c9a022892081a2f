"""Forked worker processes for independent pieces of work.

`imap(fn, items)` yields fn(item) in input order, computed by a pool of
forked worker processes: one per core this process may run on, at most
MAX_WORKERS and at most one per item.  The workers inherit fn and the
items from the fork, so closures and meshes with their caches reach
them unpickled; only the results come back pickled.  With fewer than
two workers, or off Linux (where fork is not known to be safe), it is
`map`.  The callers decide whether a piece of work is worth a fork.

Fork, not spawn: spawned workers would need fn and the items pickled,
the mesh caches with them, or would rebuild them.  No Python thread
runs at the fork, and OpenBLAS stops its own threads around one.
"""

from __future__ import annotations

import os
import sys
from collections import deque

# Workers at most: two is the only count whose speed has been measured
# (on two cores, with one BLAS thread and with OpenBLAS's default).
MAX_WORKERS = 2

_job = None     # (fn, items) in a worker process


def _cores():
    """The cores this process may run on; 1 where fork is not safe."""
    if not sys.platform.startswith("linux"):
        return 1
    return len(os.sched_getaffinity(0))


def _start(fn, items):
    global _job
    _job = fn, items


def _run(k):
    fn, items = _job
    return fn(items[k])


def imap(fn, items):
    """fn of each item, in order; see the module docstring.

    At most 2 × workers items are handed out beyond the one being
    yielded, so this process holds at most 2 × workers + 1 results
    however slowly they are consumed.  An exception raised by fn is
    raised here; a worker that dies raises `BrokenProcessPool`.  Either
    way, and when the caller stops early, the workers are stopped: none
    outlives the call."""
    items = list(items)
    workers = min(_cores(), MAX_WORKERS, len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                               initializer=_start, initargs=(fn, items))
    futures = deque()
    try:
        for k in range(len(items)):
            futures.append(pool.submit(_run, k))
            if len(futures) > 2 * workers:
                yield futures.popleft().result()
        while futures:
            yield futures.popleft().result()
    except BaseException:
        # the executor waits for running work at shutdown: stop it first
        for process in list(pool._processes.values()):
            process.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)
