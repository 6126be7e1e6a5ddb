"""Forked worker processes. `forked_map` runs a function over items, one
process per usable core, and yields the results in item order.
`forked_helper` runs one function in one forked process that keeps its state
between calls, beside the caller, under the gate `forked_map(calls_blas=True)`
uses: at least two usable cores and a single OS thread.

Every forked process starts in `_forked`: a `_serve` loop on its own Pipe
that ends when the caller's end closes, also when the caller is killed. Only
a fork imports `multiprocessing`, sparing the others about 15 ms at start-up.
"""

import os
import pickle
import sys
from contextlib import contextmanager
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


def _worker_died() -> ChildProcessError:
    return ChildProcessError("a worker process died before its work was done "
                             "(killed by a signal, or by the out-of-memory killer)")


def forked_map(fn, items: Sequence, *, calls_blas: bool = False):
    """Yield fn(item) for each item, in item order.

    The items are computed in worker processes forked from this one, one
    worker per usable core and never more than the items, while the caller
    only collects. Without `calls_blas`, fn must call no BLAS: a BLAS thread
    pool alive at the fork (Python 3.12+ warns of it) can deadlock the child.

    With `calls_blas`, the caller computes item 0 itself, so that a profiler
    of this process alone (perfbench's tracer) times one item. The rest go to
    the workers only if at least two would run and the process runs a single
    OS thread, as under a one-thread BLAS: a multi-threaded BLAS already
    spreads the work over the cores, and workers beside it would
    oversubscribe them. Otherwise the caller computes the rest too.

    Item i goes to worker i mod n, at most two items per worker ahead of the
    caller, which writes them into the worker's pipe without waiting: an item
    must pickle to far less than half a pipe's buffer (208 KiB by default on
    Linux), so send a row range, not the rows; a result may be of any size.
    The workers are ended and joined when the results run out or the caller
    stops reading. An exception in fn is raised here; a worker that dies (a
    signal, the out-of-memory killer) raises ChildProcessError, an OSError.

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
    ahead = 2 * workers
    with _forked(fn, workers) as helpers:
        for i, item in enumerate(items[:ahead]):
            helpers[i % workers].send(item)
        for i in range(len(items)):
            result = helpers[i % workers].recv()
            if i + ahead < len(items):
                helpers[i % workers].send(items[i + ahead])
            yield result


@contextmanager
def forked_helper(fn):
    """Yield a `Helper` that runs fn in one process forked from this one, or
    None where `forked_map(calls_blas=True)` would compute in the caller:
    fewer than two usable cores, or another OS thread alive.

    fn reaches the helper through the fork, not pickled, and keeps its state
    there between calls; each message and result is pickled over a Pipe, so
    the caller starts no thread. On exit the helper is ended and joined.
    """
    if _usable_cores() < 2 or not _one_os_thread():
        yield None
        return
    with _forked(fn, 1) as (helper,):
        yield helper


@contextmanager
def _forked(fn, n: int):
    """Yield n `Helper`s, each the caller's end of a Pipe to a process forked
    from this one that runs `_serve(fn)`; on exit end and join them all."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    callers, processes = [], []
    try:
        for _ in range(n):
            caller, conn = context.Pipe()
            callers.append(caller)
            process = context.Process(target=_serve, args=(fn, conn, callers), daemon=True)
            process.start()
            processes.append(process)
            conn.close()  # the child's end, so that a dead child reads as EOF here
        yield [Helper(caller) for caller in callers]
    finally:
        for process in processes:
            process.terminate()
            process.join()
        for caller in callers:
            caller.close()


def _serve(fn, conn, callers) -> None:
    """A forked process's loop: reply to each message with (False,
    fn(message)), or (True, the exception fn raised); it ends when the
    caller's end closes."""
    for caller in callers:  # every caller end forked so far: a copy left open here keeps its pipe open
        caller.close()
    try:
        while True:
            message = conn.recv()
            try:
                reply = pickle.dumps((False, fn(message)))
            except Exception as exc:  # raised by fn, or by pickling its result
                reply = pickle.dumps((True, exc))
            conn.send_bytes(reply)
    except (EOFError, OSError):  # the caller's end closed (OSError: with replies unread)
        return


class Helper:
    """The caller's end of a forked process: `send` a message, work in the
    meantime, then `recv` fn's result. A process that died raises
    ChildProcessError, an OSError; an exception in fn is raised again here."""

    def __init__(self, conn):
        self._conn = conn

    def send(self, message) -> None:
        try:
            self._conn.send(message)
        except OSError as exc:  # the process's end is closed
            raise _worker_died() from exc

    def recv(self):
        try:
            failed, result = self._conn.recv()
        except (EOFError, OSError) as exc:
            raise _worker_died() from exc
        if failed:
            raise result
        return result
