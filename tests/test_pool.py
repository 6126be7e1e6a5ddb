import multiprocessing
import os
import threading

import pytest

from offlang import pool
from offlang.pool import forked_map


@pytest.fixture
def two_cores_one_thread(monkeypatch):
    """The forked paths open as they would on 2 cores under a one-thread BLAS."""
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)


@pytest.mark.parametrize("calls_blas", [False, True])
def test_fn_reaches_the_workers_without_pickling(two_cores_one_thread, calls_blas):
    lock = threading.Lock()  # a lock cannot be pickled, nor can this closure

    def square(x):
        with lock:
            return x * x, os.getpid()

    results = list(forked_map(square, range(7), calls_blas=calls_blas))
    assert [value for value, _ in results] == [x * x for x in range(7)]
    # with calls_blas the caller computes item 0, else none
    in_caller = [pid == os.getpid() for _, pid in results]
    assert in_caller == [calls_blas and x == 0 for x in range(7)]
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("bad", [0, 3], ids=["caller's item", "worker's item"])
def test_calls_blas_error_is_raised_and_leaves_no_worker(two_cores_one_thread, bad):
    def fail_at(x):
        if x == bad:
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match=f"^item {bad}$"):
        list(forked_map(fail_at, range(9), calls_blas=True))
    assert not multiprocessing.active_children()
