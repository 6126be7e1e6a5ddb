"""Training with the BiLSTM's backward direction in a forked helper
(`pool.forked_helper`, which `model.train` opens on entry where the gate of
forked inference holds: two or more usable cores and a single OS thread, as
under the one-thread BLAS the CLI pins). The parameters and the history keep
the serial bytes, and no process outlives `train`."""

import dataclasses
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from offlang import model, nn, pool
from offlang.model import ModelError, TrainConfig, train, transfer

from test_cli import write_config
from test_model import SMALL, random_examples, small_params

_TEST_PROCESS = os.getpid()


@pytest.fixture
def helpers(monkeypatch):
    """What each `forked_helper` that train enters yields: a Helper, or None."""
    opened = []
    real = model.forked_helper

    @contextmanager
    def recording(fn):
        with real(fn) as helper:
            opened.append(helper)
            yield helper

    monkeypatch.setattr(model, "forked_helper", recording)
    return opened


@pytest.fixture
def two_cores_one_thread(monkeypatch):
    """The helper opens as it would on 2 cores under a one-thread BLAS."""
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)


def train_bytes(params, examples, config):
    best, history = train(params, examples[:40], examples[40:], config)
    return [p.values.tobytes() for p in best.all_params()], history


def serial_and_helper(monkeypatch, make_params, examples, config):
    """(serial run, run with the helper's gate patched open), each as train_bytes."""
    with monkeypatch.context() as patch:
        patch.setattr(pool, "_usable_cores", lambda: 1)
        serial = train_bytes(make_params(), examples, config)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)
    return serial, train_bytes(make_params(), examples, config)


CONFIG = TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=3)


@pytest.mark.parametrize("arch, k, changes", [
    (SMALL, 1, {}),
    (dataclasses.replace(SMALL, output_units=3, use_user_count=True), 3, {}),
    (SMALL, 1, {"weight_decay": 1e-3}),  # the full Adam update
    (SMALL, 1, {"loss": "soft_f1"}),
], ids=["task a", "task c user count", "weight decay", "soft f1"])
def test_the_helper_keeps_the_serial_bytes(monkeypatch, helpers, arch, k, changes):
    examples = random_examples(arch, 12, 48, seed=4, k=k)
    config = dataclasses.replace(CONFIG, **changes)
    serial, forked = serial_and_helper(monkeypatch, lambda: small_params(arch), examples, config)
    assert forked == serial
    assert helpers[0] is None and isinstance(helpers[1], pool.Helper)
    assert not multiprocessing.active_children()


def test_a_frozen_trunk_sends_only_forwards_with_the_serial_bytes(monkeypatch, helpers):
    """Frozen training runs no trunk backward: each step's forward replaces
    the cache the helper holds, which no backward reads."""
    sent = []
    send = pool.Helper.send

    def recording(self, message):
        sent.append(message[0])
        send(self, message)

    monkeypatch.setattr(pool.Helper, "send", recording)
    examples = random_examples(SMALL, 12, 48, seed=4, k=3)
    config = dataclasses.replace(CONFIG, freeze_trunk=True)
    source = small_params(seed=2)
    serial, forked = serial_and_helper(monkeypatch, lambda: transfer(source, "c", seed=9), examples, config)
    assert forked == serial
    assert isinstance(helpers[1], pool.Helper)
    assert set(sent) == {"forward"} and len(sent) == 3 * 5  # every step
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not sys.platform.startswith("linux") or pool._usable_cores() < 2,
                    reason="the thread check reads /proc/self/task; a fork needs 2 usable cores")
def test_a_one_thread_blas_opens_the_helper_and_forked_inference_with_the_serial_bytes():
    # no patching of the gate: the real check passes in a fresh process whose BLAS runs one thread
    script = """
import json
from contextlib import contextmanager
import numpy as np
from offlang import model, pool
from offlang.corpus import Examples
arch = model.ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4)
rng = np.random.default_rng(0)
matrix = rng.normal(0, 0.2, size=(12, 8))
n = 40 + 2 * model.PREDICT_BATCH + 5  # validation in 3 chunks: the caller's and 2 for forked workers
examples = Examples(rng.integers(0, 12, size=(n, 10)), rng.integers(0, 6, size=n).astype(float),
                    rng.integers(0, 2, size=n))
config = model.TrainConfig(batch_size=8, max_epochs=3, patience=3, seed=3)
opened = []
real = model.forked_helper

@contextmanager
def recording(fn):
    with real(fn) as helper:
        opened.append(helper is not None)
        yield helper

model.forked_helper = recording
pooled, pools = pool._pooled, []

def counting(*args):
    pools.append(1)
    return pooled(*args)

pool._pooled = counting

def run():
    best, history = model.train(model.build(arch, matrix, seed=0), examples[:40], examples[40:], config)
    return [p.values.tobytes() for p in best.all_params()], history

usable_cores = pool._usable_cores
pool._usable_cores = lambda: 1
serial = run()
pool._usable_cores = usable_cores
print(json.dumps({"opened": opened, "same": run() == serial, "inference_pools": len(pools)}))
"""
    src = str(Path(model.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    # the helper starts no thread in the caller, so every validation pass still forks its workers
    assert json.loads(done.stdout) == {"opened": [False, True], "same": True, "inference_pools": 3}



THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.skipif(not sys.platform.startswith("linux") or pool._usable_cores() < 2,
                    reason="the thread check reads /proc/self/task; a fork needs 2 usable cores")
def test_the_cli_pins_one_blas_thread_whatever_the_environment_says(tmp_path):
    # a program that imports offlang.cli first, as the console script and `python -m offlang.cli` do,
    # or numpy first, as a library caller may
    script = """
import json, os, sys
from contextlib import contextmanager
if sys.argv[2] == "numpy first":
    import numpy
from offlang import cli, model, pool
opened = []
real = model.forked_helper

@contextmanager
def recording(fn):
    with real(fn) as helper:
        opened.append(isinstance(helper, pool.Helper))
        yield helper

model.forked_helper = recording
assert cli.main(["train", "--config", sys.argv[1]]) == 0
print(json.dumps({"opened": opened, "env": {var: os.environ.get(var) for var in %r}}))
""" % (THREAD_VARS,)
    src = str(Path(model.__file__).resolve().parents[1])
    base = {name: value for name, value in os.environ.items() if name not in THREAD_VARS}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])

    def run(name, threads, first="cli first"):
        config, out = write_config(tmp_path, out_name=name, **{"model.batch_size": 4})
        env = {**base, **dict.fromkeys(THREAD_VARS if threads else (), threads)}
        done = subprocess.run([sys.executable, "-c", script, str(config), first], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        blas_threads = json.loads((out / "run.json").read_text())["blas_threads"]
        return json.loads(done.stdout.splitlines()[-1]), blas_threads, (out / "model.bin").read_bytes()

    one = run("one", "1")
    assert one[:2] == ({"opened": [True], "env": dict.fromkeys(THREAD_VARS, "1")}, 1)
    assert run("unset", None) == one
    assert run("two", "2") == one
    # numpy imported first: its BLAS was loaded under the caller's setting, which the CLI leaves alone
    numpy_first, blas_threads, _ = run("numpy_first", "2", "numpy first")
    assert numpy_first["env"] == dict.fromkeys(THREAD_VARS, "2") and blas_threads is None

def test_a_second_os_thread_opens_no_helper(monkeypatch, helpers):
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        train_bytes(small_params(), random_examples(SMALL, 12, 48, seed=4), CONFIG)
    finally:
        release.set()
        thread.join(timeout=10)
    assert helpers == [None]


def _die(self, message):
    """Stands in for the helper's work: the helper dies as the out-of-memory killer would end it."""
    assert os.getpid() != _TEST_PROCESS, "called in the test process, not in the helper"
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("kind", ["forward", "backward"])
def test_a_killed_helper_is_a_dead_worker(monkeypatch, two_cores_one_thread, kind):
    call = nn.BackwardDirection.__call__
    monkeypatch.setattr(nn.BackwardDirection, "__call__",
                        lambda self, message: (_die if message[0] == kind else call)(self, message))
    with pytest.raises(ChildProcessError, match="^a worker process died before its work was done"):
        train_bytes(small_params(), random_examples(SMALL, 12, 48, seed=4), CONFIG)
    assert not multiprocessing.active_children()


def test_an_error_in_the_helper_is_raised_in_the_caller(monkeypatch, two_cores_one_thread):
    def fail(self, message):
        raise ModelError(f"helper failed on {message[0]}")

    monkeypatch.setattr(nn.BackwardDirection, "__call__", fail)
    with pytest.raises(ModelError, match="^helper failed on forward$"):
        train_bytes(small_params(), random_examples(SMALL, 12, 48, seed=4), CONFIG)
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("step", [1, 3])
def test_no_process_outlives_a_train_that_raises(monkeypatch, two_cores_one_thread, helpers, step):
    loss_and_dz, calls = model._loss_and_dz, []

    def nan_at_step(*args):
        calls.append(1)
        loss, dz2 = loss_and_dz(*args)
        return (np.nan if len(calls) == step else loss), dz2

    monkeypatch.setattr(model, "_loss_and_dz", nan_at_step)
    with pytest.raises(ModelError, match=f"non-finite training loss nan at epoch 1, step {step}$"):
        train_bytes(small_params(), random_examples(SMALL, 12, 48, seed=4), CONFIG)
    assert len(helpers) == 1  # the helper opens before the first step
    assert not multiprocessing.active_children()
