"""Forked worker processes. `forked_map` runs a function over items, one
process per usable core, and yields the results in item order.
`forked_helper` runs one function in one forked process that keeps its state
between calls, beside the caller, under the gate `forked_map(calls_blas=True)`
uses: at least two usable cores and a single OS thread.

Both import `multiprocessing` only when they fork, so the commands that fork
nothing do not pay about 15 ms at start-up.
"""

import os
import sys
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Sequence

def _usable_cores() -> int:
    """The number of cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_os_thread() -> bool:
    """Whether this process runs a single OS thread; never true off Linux."""
    try:
        return sys.platform == "linux" and len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no /proc mounted
        return False


# the function the workers of the current pool run, set in each worker by the
# pool's initializer: a fork copies it, so it is never pickled
_worker_fn = None


def _install(fn) -> None:
    global _worker_fn
    _worker_fn = fn


def _call(item):
    return _worker_fn(item)


def _worker_died() -> ChildProcessError:
    return ChildProcessError("a worker process died before its work was done "
                             "(killed by a signal, or by the out-of-memory killer)")


def forked_map(fn, items: Sequence, *, calls_blas: bool = False):
    """Yield fn(item) for each item, in item order.

    The items are computed in worker processes forked from this one, one
    worker per usable core and never more than the items, while the caller
    only collects. Without `calls_blas`, fn must call no BLAS: a BLAS thread
    pool alive at the fork (Python 3.12+ warns of it) can deadlock the child.

    With `calls_blas`, the caller computes item 0 itself, by which time a BLAS
    that starts its threads on first use has started them. The rest go to the
    workers only if at least two would run and the process runs a single OS
    thread, as it does under a one-thread BLAS: a multi-threaded BLAS already
    spreads the work over the cores, and workers beside it would oversubscribe
    them. Otherwise the caller computes the rest too.

    The workers are joined when the results run out. At most two items per
    worker are submitted ahead of the caller, so the results waiting to be read
    stay few. An exception in fn is raised here after the items not yet
    started are cancelled. A worker that dies (a signal, the out-of-memory
    killer) raises ChildProcessError, an OSError.

    fn reaches the workers through the fork, not pickled, so its closure may
    hold anything; the items and the results are pickled. Fork, not spawn:
    spawn would re-import numpy and offlang in every worker.
    """
    if not items:
        return
    if calls_blas:
        yield fn(items[0])
        items = items[1:]
    workers = min(len(items), _usable_cores())
    if calls_blas and (workers < 2 or not _one_os_thread()):
        yield from map(fn, items)
    else:
        yield from _pooled(fn, items, workers)


def _pooled(fn, items: Sequence, workers: int):
    """forked_map's results of `items`, all computed by `workers` forked workers."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    unsent = iter(items)
    try:
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                 initializer=_install, initargs=(fn,)) as pool:
            ahead = deque()
            try:
                for _ in range(len(items)):
                    ahead.extend(pool.submit(_call, item) for item in islice(unsent, 2 * workers - len(ahead)))
                    yield ahead.popleft().result()
            finally:
                for future in ahead:
                    future.cancel()
    except BrokenProcessPool as exc:
        raise _worker_died() from exc


@contextmanager
def forked_helper(fn):
    """Yield a `Helper` that runs fn in one process forked from this one, or
    None where `forked_map(calls_blas=True)` would compute in the caller:
    fewer than two usable cores, or another OS thread alive. Enter it only
    after the process's first BLAS call, so that a BLAS that starts its
    threads on first use has started them.

    fn reaches the helper through the fork, not pickled, and keeps its state
    there between calls; each message and result is pickled over a Pipe, so
    the caller starts no thread. On exit the helper is ended and joined,
    whatever it was doing.
    """
    if _usable_cores() < 2 or not _one_os_thread():
        yield None
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, helper_conn = context.Pipe()
    process = context.Process(target=_serve, args=(fn, helper_conn, conn), daemon=True)
    process.start()
    helper_conn.close()
    try:
        yield Helper(conn)
    finally:
        process.terminate()
        process.join()
        conn.close()


def _serve(fn, conn, caller_conn) -> None:
    """The helper's loop: reply to each message with (False, fn(message)), or
    (True, the exception fn raised); it ends when the caller's end closes."""
    caller_conn.close()  # the fork's copy, which would keep the pipe open past the caller
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return
        try:
            reply = (False, fn(message))
        except Exception as exc:
            reply = (True, exc)
        conn.send(reply)


class Helper:
    """The caller's end of a `forked_helper`: `send` a message, work in the
    meantime, then `recv` fn's result. A helper that died raises
    ChildProcessError, an OSError; an exception in fn is raised again here."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError as exc:  # the helper's end is closed
            raise _worker_died() from exc

    def recv(self):
        try:
            failed, result = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise _worker_died() from exc
        if failed:
            raise result
        return result
