"""Forked worker processes for work that never calls BLAS: `forked_map` runs
a function over items, one worker per usable core, and yields the results in
item order.
"""

import os
from itertools import islice
from typing import Sequence


def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forked_map(fn, items: Sequence):
    """Yield fn(item) for each item, in item order, each computed in a worker
    process forked from this one: one worker per usable core and never more
    than the items, joined when the results run out.

    At most two items per worker are submitted ahead of the caller, so the
    results waiting to be read stay few. An exception in fn is raised here
    after the items not yet started are cancelled. A worker that dies (a
    signal, the out-of-memory killer) raises ChildProcessError, an OSError.

    fn and every item are pickled to the workers. Fork, not spawn: spawn
    would re-import numpy and offlang in every worker. fn must not call BLAS:
    a BLAS thread pool alive at the fork (Python 3.12+ warns of it) can
    deadlock the child.
    """
    # imported here, so the commands that start no pool do not pay about 15 ms at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(len(items), _usable_cores())
    todo = iter(items)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
            ahead = [pool.submit(fn, item) for item in islice(todo, 2 * workers)]
            try:
                while ahead:
                    result = ahead.pop(0).result()
                    ahead += [pool.submit(fn, item) for item in islice(todo, 1)]
                    yield result
            finally:
                for future in ahead:
                    future.cancel()
    except BrokenProcessPool as exc:
        raise ChildProcessError("a worker process died before its work was done "
                                "(killed by a signal, or by the out-of-memory killer)") from exc
