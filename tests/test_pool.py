import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from offlang import pool
from offlang.pool import forked_helper, forked_map


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


def test_a_result_that_cannot_be_pickled_raises_its_error_not_a_dead_worker(two_cores_one_thread):
    with pytest.raises(TypeError, match="pickle"):
        list(forked_map(lambda _: threading.Lock(), range(3)))
    assert not multiprocessing.active_children()


def test_the_helper_keeps_its_state_and_reaches_fn_without_pickling(two_cores_one_thread):
    lock = threading.Lock()  # a lock cannot be pickled, nor can this closure
    seen = []

    def remember(x):
        with lock:
            seen.append(x)
            return list(seen), os.getpid()

    with forked_helper(remember) as helper:
        for x in range(3):
            helper.send(x)
            assert helper.recv()[0] == list(range(x + 1))
        assert seen == []  # the state lives in the helper
        helper.send(3)
        assert helper.recv()[1] != os.getpid()
    assert not multiprocessing.active_children()


def test_the_helper_opens_only_on_two_cores_and_one_os_thread(monkeypatch):
    monkeypatch.setattr(pool, "_usable_cores", lambda: 1)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)
    with forked_helper(abs) as helper:
        assert helper is None
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: False)
    with forked_helper(abs) as helper:
        assert helper is None
    assert not multiprocessing.active_children()


def test_an_error_in_the_helper_is_raised_and_it_serves_on(two_cores_one_thread):
    def invert(x):
        return 1 / x

    with forked_helper(invert) as helper:
        helper.send(0)
        with pytest.raises(ZeroDivisionError):
            helper.recv()
        helper.send(4)
        assert helper.recv() == 0.25
    assert not multiprocessing.active_children()


def test_a_dead_helper_raises_child_process_error(two_cores_one_thread):
    with pytest.raises(ChildProcessError, match="^a worker process died before its work was done"):
        with forked_helper(lambda _: os.kill(os.getpid(), signal.SIGKILL)) as helper:
            helper.send(None)
            helper.recv()
    with forked_helper(lambda _: os.kill(os.getpid(), signal.SIGKILL)) as helper:
        helper.send(None)
        with pytest.raises(ChildProcessError):
            helper.recv()
        with pytest.raises(ChildProcessError):  # its end of the pipe is closed
            helper.send(None)
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_the_helper_ends_when_its_caller_is_killed():
    script = """
import os, signal
from offlang import pool
pool._usable_cores = lambda: 2
pool._one_os_thread = lambda: True
with pool.forked_helper(abs) as helper:
    helper.send(-1)
    assert helper.recv() == 1
    print(__import__("multiprocessing").active_children()[0].pid, flush=True)
    os.kill(os.getpid(), signal.SIGKILL)
"""
    src = str(Path(pool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == -signal.SIGKILL, done.stderr
    status = Path(f"/proc/{int(done.stdout)}/status")

    def ended():
        try:
            return "zombie" in status.read_text()
        except FileNotFoundError:
            return True

    deadline = time.monotonic() + 30
    while not ended() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert ended()  # it saw its caller's end of the pipe close, and returned


def _ended(pid: int) -> bool:
    try:
        return "zombie" in Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return True


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_the_workers_end_when_their_caller_is_killed(tmp_path):
    script = """
import multiprocessing, os, signal, time
from offlang import pool
pool._usable_cores = lambda: 2

def slow(x):
    time.sleep(0.2 if x else 0)
    return x

results = pool.forked_map(slow, range(6))
assert next(results) == 0
print(*[child.pid for child in multiprocessing.active_children()], flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""
    src = str(Path(pool.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    # files, not pipes: workers that outlive the child would hold a pipe open and block run()
    with out.open("w") as stdout, err.open("w") as stderr:
        done = subprocess.run([sys.executable, "-c", script], env=env, stdout=stdout, stderr=stderr, timeout=60)
    assert done.returncode == -signal.SIGKILL, err.read_text()
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2

    deadline = time.monotonic() + 30
    while not all(map(_ended, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    alive = [pid for pid in pids if not _ended(pid)]
    for pid in alive:  # leave no orphan behind, also when the test fails
        os.kill(pid, signal.SIGKILL)
    assert alive == []  # each saw its caller's end of the pipe close, and returned
    assert err.read_text() == ""  # quietly


def test_results_larger_than_a_pipe_come_back_in_order(two_cores_one_thread):
    """A worker's 1 MB result fills its pipe until the caller reads it, while
    the caller keeps two items per worker ahead: the window must not deadlock."""
    def deadlocked(*_):
        raise TimeoutError("forked_map deadlocked")

    previous = signal.signal(signal.SIGALRM, deadlocked)
    signal.alarm(60)
    try:
        results = list(forked_map(lambda x: bytes([x]) * 2**20, range(12)))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert results == [bytes([x]) * 2**20 for x in range(12)]
    assert not multiprocessing.active_children()
