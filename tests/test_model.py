import dataclasses
import hashlib
import inspect
import json
import multiprocessing
import os
import resource
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlang import corpus, model, nn, pool
from offlang.corpus import Examples
from offlang.gradcheck import max_rel_error, numeric_gradient
from offlang.model import (
    ModelArch,
    ModelError,
    ModelParams,
    TrainConfig,
    build,
    labels_from_probs,
    layer_param_counts,
    load_model,
    save_model,
    train,
    transfer,
)

from conftest import make_keyword_dataset

SMALL = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4)


def small_params(arch=SMALL, vocab_size=12, seed=0):
    matrix = np.random.default_rng(99).normal(0, 0.2, size=(vocab_size, arch.embed_dim))
    return build(arch, matrix, seed=seed)


def as_examples(rows):
    """Examples from (indices, user_count, label) rows."""
    indices, user_count, label = zip(*rows)
    return Examples(np.array(indices, dtype=np.intp), np.array(user_count, dtype=np.float64),
                    np.array(label, dtype=np.intp))


def random_examples(arch, vocab_size, n, seed=0, k=1):
    rng = np.random.default_rng(seed)
    return as_examples(
        (rng.integers(0, vocab_size, size=arch.seq_len), int(rng.integers(0, 6)),
         int(rng.integers(0, k if k > 1 else 2)))
        for _ in range(n)
    )


def proba(params, examples):
    return model._predict_proba_arrays(params, examples.indices, examples.user_count)


class TestBuild:
    def test_default_total_parameter_count(self):
        assert sum(c for _, _, c in layer_param_counts(ModelArch(), 21_251)) == 2_393_729

    def test_layer_counts_match_summary_table(self):
        counts = [c for _, _, c in layer_param_counts(ModelArch(), 21_251)]
        assert counts == [2_125_100, 0, 234_496, 32_832, 0, 0, 0, 1_290, 11]

    @pytest.mark.parametrize("arch", [SMALL, ModelArch(seq_len=5, embed_dim=3, hidden=2, kernel=3, filters=4,
                                                       ffnn_hidden=6, output_units=3, use_user_count=True)])
    def test_tensor_shapes_are_the_shapes_build_makes(self, arch):
        built = build(arch, np.zeros((7, arch.embed_dim)), seed=0).tensors
        assert list(model.tensor_shapes(arch, 7).items()) == [(name, p.values.shape) for name, p in built.items()]

    def test_user_count_variant_dense1(self):
        arch = ModelArch(use_user_count=True)
        counts = [c for _, _, c in layer_param_counts(arch, 21_251)]
        assert counts[7] == 129 * 10 + 10 == 1_300

    def test_same_seed_identical(self):
        a = small_params(seed=5)
        b = small_params(seed=5)
        for pa, pb in zip(a.all_params(), b.all_params()):
            assert np.array_equal(pa.values, pb.values)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError):
            build(SMALL, np.zeros((12, SMALL.embed_dim + 1)), seed=0)

    def test_output_units_validated(self):
        with pytest.raises(ModelError):
            ModelArch(output_units=2)


class TestForward:
    def test_sigmoid_output_in_open_interval(self):
        params = small_params()
        probs = proba(params, random_examples(SMALL, 12, 9))
        assert probs.shape == (9,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_softmax_rows_sum_to_one(self):
        arch = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4, output_units=3)
        params = small_params(arch)
        probs = proba(params, random_examples(arch, 12, 5, k=3))
        assert probs.shape == (5, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_all_pad_zero_weights_gives_half(self):
        params = small_params()
        for p in params.all_params()[1:]:  # everything but the embedding
            p.values[...] = 0.0
        ex = as_examples([([0] * SMALL.seq_len, 0, 0)])
        assert proba(params, ex)[0] == 0.5

    def test_user_count_ignored_when_flag_off(self):
        params = small_params()
        base = random_examples(SMALL, 12, 4)
        bumped = dataclasses.replace(base, user_count=base.user_count + 7)
        assert np.array_equal(proba(params, base), proba(params, bumped))

    def test_user_count_used_when_flag_on(self):
        arch = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4,
                         use_user_count=True)
        params = small_params(arch)
        base = random_examples(arch, 12, 4)
        bumped = dataclasses.replace(base, user_count=base.user_count + 7)
        assert not np.array_equal(proba(params, base), proba(params, bumped))

    def test_index_out_of_range(self):
        params = small_params(vocab_size=12)
        with pytest.raises(ModelError):
            proba(params, as_examples([([12] * SMALL.seq_len, 0, 0)]))

    @pytest.mark.parametrize("units, loss", [(1, "cross_entropy"), (1, "soft_f1"),
                                             (3, "cross_entropy"), (3, "soft_f1")])
    def test_full_backward_matches_finite_differences(self, units, loss):
        arch = ModelArch(seq_len=6, embed_dim=5, hidden=4, filters=3, ffnn_hidden=3,
                         use_user_count=True, output_units=units)
        params = small_params(arch, vocab_size=9, seed=3)
        examples = random_examples(arch, 9, 4, seed=2, k=units)
        idx, uc, y = examples.indices, examples.user_count, examples.label
        config = TrainConfig(loss=loss)

        def loss_value():
            probs, _ = model._forward(params, idx, uc, None, 0.0)
            return model._loss_and_dz(probs, y, config, units)[0]

        probs, cache = model._forward(params, idx, uc, None, 0.0)
        model._backward(params, model._loss_and_dz(probs, y, config, units)[1], cache)
        for p in params.all_params():
            assert max_rel_error(p.grad, numeric_gradient(loss_value, p.values)) <= 1e-4


class TestPredict:
    def test_boundary_is_positive(self):
        assert labels_from_probs(np.array([0.5])).tolist() == [1]

    def test_argmax(self):
        assert labels_from_probs(np.array([[0.2, 0.5, 0.3]])).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        assert labels_from_probs(np.array([[0.5, 0.5, 0.0]])).tolist() == [0]

    def test_chunk_size_does_not_change_predictions(self, monkeypatch):
        arch = dataclasses.replace(SMALL, output_units=3, use_user_count=True)
        params = small_params(arch)
        examples = random_examples(arch, 12, 303, seed=5, k=3)
        results = []
        for batch in (7, 32, 256):
            monkeypatch.setattr(model, "PREDICT_BATCH", batch)
            results.append(proba(params, examples))
        for probs in results[1:]:
            assert probs.shape == (303, 3)
            assert np.array_equal(labels_from_probs(probs), labels_from_probs(results[0]))
            assert np.abs(probs - results[0]).max() <= 1e-12

    @pytest.mark.parametrize("units", [1, 3])
    @pytest.mark.parametrize("use_user_count", [False, True])
    def test_inference_equals_the_training_forward(self, units, use_user_count):
        # chunk by chunk, the bytes of the forward that keeps the backward cache;
        # the last chunk is shorter than PREDICT_BATCH
        arch = dataclasses.replace(SMALL, output_units=units, use_user_count=use_user_count)
        params = small_params(arch)
        examples = random_examples(arch, 12, 2 * model.PREDICT_BATCH + 13, seed=7, k=units)
        idx, uc = examples.indices, examples.user_count
        chunks = []
        for start in range(0, len(idx), model.PREDICT_BATCH):
            rows = slice(start, start + model.PREDICT_BATCH)
            probs, cache = model._forward(params, idx[rows], uc[rows], None, 0.0)
            assert cache is not None
            chunks.append(probs)
        assert len(chunks[-1]) == 13
        assert proba(params, examples).tobytes() == np.concatenate(chunks).tobytes()

    def test_inference_memory_fits_the_states_not_the_backward_cache(self, monkeypatch):
        # In float64 arrays of (rows, seq_len, hidden), the training forward of
        # one direction takes 11: the 4h input projection, 4h gates, c, tanh c
        # and h. Inference holds about 6 at its peak: one direction's projection
        # and states, the other's states, and the 2h output.
        monkeypatch.setattr(model, "PREDICT_BATCH", 256)
        arch = ModelArch(seq_len=63, embed_dim=8, hidden=128, filters=4, ffnn_hidden=4)
        params = small_params(arch, vocab_size=20)
        examples = random_examples(arch, 20, 256, seed=3)
        tracemalloc.start()
        try:
            proba(params, examples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        states = 8 * 256 * arch.seq_len * arch.hidden
        assert peak < 11 * states


def encoded_rows(arch, n, seed):
    """n rows of token indices as `corpus.encode` makes them, in shuffled
    order, and their @USER counts: front-padded rows of every length from 0
    to seq_len, rows longer than seq_len (so no PAD), more all-PAD rows,
    rows with a PAD id after their first real token (a tweet holding the
    PAD token's text), and many short rows, as tweets mostly are in a
    63-token window. The vocabulary has 12 ids, as `small_params`' table."""
    vocab = corpus.Vocabulary([f"w{i}" for i in range(10)])
    words = [*vocab.index_to_token[2:], "unseen"]  # "unseen" maps to UNK
    lengths = [*range(arch.seq_len + 1), arch.seq_len + 3, 2 * arch.seq_len, 0, 0, *[2, 3] * 20]
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        tokens = [str(w) for w in rng.choice(words, size=lengths[i % len(lengths)])]
        if i % 5 == 4 and len(tokens) > 1:
            tokens[int(rng.integers(1, len(tokens)))] = corpus.PAD_TOKEN
        rows.append(corpus.encode(tokens, vocab, arch.seq_len))
    return np.array(rows, dtype=np.intp)[rng.permutation(n)], rng.integers(0, 6, size=n).astype(float)


def serial_proba(params, idx, uc):
    """The reference: every PREDICT_BATCH-row chunk in this process, in order."""
    b = model.PREDICT_BATCH
    chunks = [model._forward(params, idx[s:s + b], uc[s:s + b], None, 0.0, keep_cache=False)[0]
              for s in range(0, len(idx), b)]
    return np.concatenate(chunks) if chunks else np.zeros(0)


class TestForkedInference:
    """Under a one-thread BLAS, `_predict_proba_arrays` spreads its chunks over
    the caller and forked workers; the probabilities keep the serial bytes."""

    ARCH = dataclasses.replace(SMALL, output_units=3, use_user_count=True)

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("rows", [
        lambda k: 0,
        lambda k: model.PREDICT_BATCH - 7,  # one chunk
        lambda k: k * model.PREDICT_BATCH,  # exactly k chunks
        lambda k: k * model.PREDICT_BATCH + 5,  # k + 1 chunks, the last one short
    ], ids=["none", "one", "k", "k+1"])
    def test_bytes_equal_the_serial_chunk_loop(self, monkeypatch, pools, cores, rows):
        monkeypatch.setattr(pool, "_usable_cores", lambda: cores)
        monkeypatch.setattr(pool, "_one_os_thread", lambda: True)  # as under a one-thread BLAS
        params = small_params(self.ARCH)
        rng = np.random.default_rng(cores)
        idx = rng.integers(0, 12, size=(rows(cores), self.ARCH.seq_len))
        uc = rng.integers(0, 6, size=len(idx)).astype(float)
        probs = model._predict_proba_arrays(params, idx, uc)
        expected = serial_proba(params, idx, uc)
        assert probs.shape == expected.shape and probs.tobytes() == expected.tobytes()
        workers = min(cores, -(-len(idx) // model.PREDICT_BATCH) - 1)  # the caller computes chunk 0
        assert pools == ([workers] if workers >= 2 else [])
        assert not multiprocessing.active_children()

    @pytest.mark.parametrize("forked", [False, True], ids=["caller", "forked"])
    @pytest.mark.parametrize("units", [1, 3])
    @pytest.mark.parametrize("use_user_count", [False, True])
    @pytest.mark.parametrize("last", [1, 2, model.PREDICT_BATCH - 1])  # rows in the last chunk
    @pytest.mark.parametrize("hidden", [SMALL.hidden, 128])
    def test_padded_rows_keep_the_serial_bytes(self, monkeypatch, pools, forked, units, use_user_count, last,
                                               hidden):
        # the full chunks' rows go most-padded first, and each chunk copies an
        # all-PAD row's forward states for its shared leading PAD steps; at the
        # published width a 1-row GEMM against the transposed wh has other
        # bytes than a 32-row one, so the all-PAD rows must run at the chunk's count
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        monkeypatch.setattr(pool, "_one_os_thread", lambda: forked)  # forked: as under a one-thread BLAS
        arch = dataclasses.replace(SMALL, hidden=hidden, output_units=units, use_user_count=use_user_count)
        params = small_params(arch)
        idx, uc = encoded_rows(arch, 3 * model.PREDICT_BATCH + last, seed=last)
        passes, pad_states = [], model._pad_states
        monkeypatch.setattr(model, "_pad_states", lambda params, rows: passes.append(rows) or pad_states(params, rows))
        probs = model._predict_proba_arrays(params, idx, uc)
        expected = serial_proba(params, idx, uc)
        assert probs.shape == expected.shape and probs.tobytes() == expected.tobytes()
        # the full chunks share their leading PAD steps; the last chunk alone shares fewer than a pass runs
        assert passes == [model.PREDICT_BATCH]
        assert pools == ([2] if forked else [])
        assert not multiprocessing.active_children()

    def test_a_second_os_thread_keeps_every_chunk_in_the_caller(self, monkeypatch, pools):
        monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
        params = small_params(self.ARCH)
        examples = random_examples(self.ARCH, 12, 2 * model.PREDICT_BATCH + 5, seed=1, k=3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            probs = proba(params, examples)
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert pools == []
        assert probs.tobytes() == serial_proba(params, examples.indices, examples.user_count).tobytes()

    @pytest.mark.skipif(not sys.platform.startswith("linux") or pool._usable_cores() < 2,
                        reason="the thread check reads /proc/self/task; a fork needs 2 usable cores")
    def test_a_one_thread_blas_forks_with_the_serial_bytes(self):
        # no patching: the real check passes in a fresh process whose BLAS runs one thread
        script = """
import json, os
import numpy as np
from offlang import model
arch = model.ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4)
rng = np.random.default_rng(0)
params = model.build(arch, rng.normal(0, 0.2, size=(12, 8)), seed=0)
idx = rng.integers(0, 12, size=(3 * model.PREDICT_BATCH + 5, arch.seq_len))
uc = rng.integers(0, 6, size=len(idx)).astype(float)
b = model.PREDICT_BATCH
serial = np.concatenate([model._forward(params, idx[s:s + b], uc[s:s + b], None, 0.0, keep_cache=False)[0]
                         for s in range(0, len(idx), b)])
forks = []
os.register_at_fork(after_in_parent=lambda: forks.append(1))
probs = model._predict_proba_arrays(params, idx, uc)
print(json.dumps({"forks": len(forks), "same": probs.tobytes() == serial.tobytes()}))
"""
        src = str(Path(model.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["forks"] >= 1 and result["same"]


class TestTracerContract:
    """perfbench's tracer (`perfbench/tracing.py`, read here, not edited)
    finds inference by name: every span under `model._predict_proba_arrays`
    is inference, and each `nn.bilstm_forward` span counts its `xs` rows as
    examples."""

    @pytest.fixture
    def tracing(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import tracing

        monkeypatch.setattr(pool, "_one_os_thread", lambda: False)  # every chunk in the traced caller
        return tracing

    def traced(self, tracing, call):
        """call()'s result and spans; call looks offlang's functions up once
        the recorder has rebound them."""
        recorder = tracing.Recorder()
        recorder.install()
        try:
            result = call()
        finally:
            recorder.uninstall()
        return result, recorder.spans

    def test_each_chunk_enters_bilstm_forward_once_and_the_pad_states_do_not(self, tracing):
        assert tracing.INFERENCE == "model._predict_proba_arrays"
        assert list(inspect.signature(model._predict_proba_arrays).parameters) == ["params", "idx", "uc"]
        params = small_params()
        idx, uc = encoded_rows(SMALL, 3 * model.PREDICT_BATCH + 5, seed=0)
        labels, spans = self.traced(tracing, lambda: model.predict(params, idx, uc))
        assert labels.tolist() == labels_from_probs(serial_proba(params, idx, uc)).tolist()
        names = [s[0] for s in spans]
        assert names.count(tracing.INFERENCE) == 1
        inference = names.index(tracing.INFERENCE)
        assert names[spans[inference][3]] == "model.predict"
        chunks = [s for s in spans if s[0] == "nn.bilstm_forward"]
        assert [s[3] for s in chunks] == [inference] * 4
        assert [s[5]["examples"] for s in chunks] == [model.PREDICT_BATCH] * 3 + [5]
        # the all-PAD pass: nn.lstm_forward straight under inference, before any chunk;
        # one, for the full chunks, as the 5-row last chunk alone shares fewer steps than it runs
        pad_passes = [s for s in spans if s[0] == "nn.lstm_forward" and s[3] == inference]
        assert len(pad_passes) == 1 and pad_passes[0][2] <= chunks[0][1]
        assert all(names[s[3]] in (tracing.INFERENCE, "nn.bilstm_forward")
                   for s in spans if s[0] == "nn.lstm_forward")
        metrics = tracing.layer_metrics(spans)
        assert metrics["nn.bilstm_forward.predict_ms_per_example"] > 0

    def test_every_validation_pass_is_inference(self, tracing):
        train_set = random_examples(SMALL, 12, 40, seed=1)
        val_set = as_examples(zip(*encoded_rows(SMALL, 37, seed=2), [0, 1] * 18 + [0]))
        config = TrainConfig(batch_size=8, max_epochs=2, patience=2)
        _, spans = self.traced(tracing, lambda: model.train(small_params(), train_set, val_set, config))
        names = [s[0] for s in spans]
        validations = [i for i, name in enumerate(names) if name == tracing.INFERENCE]
        assert len(validations) == 2
        assert all(names[spans[i][3]] == "model.predict" and names[spans[spans[i][3]][3]] == "model.train"
                   for i in validations)
        examples = [s[5]["examples"] for s in spans if s[0] == "nn.bilstm_forward" and s[3] in validations]
        assert examples == [model.PREDICT_BATCH, 5] * 2
        metrics = tracing.layer_metrics(spans)
        assert metrics["model.steps"] == 10 and metrics["nn.bilstm_forward.predict_ms_per_example"] > 0


class TestEarlyStopping:
    @pytest.mark.parametrize("patience, accuracies, epochs_run, best", [
        (2, [0.5, 0.7, 0.6, 0.65, 0.9], 4, 2),  # stops 2 epochs after the best
        (2, [0.5, 0.4, 0.6, 0.55, 0.5, 0.9], 5, 3),  # the new best at epoch 3 restarts the count
        (2, [0.6, 0.6, 0.6, 0.9], 3, 1),  # a tie is not a new best
        (1, [0.5, 0.6, 0.7], 3, 3),  # max_epochs ends the run
    ], ids=["stop", "reset", "tie", "max_epochs"])
    def test_epochs_run_and_best_epoch(self, monkeypatch, patience, accuracies, epochs_run, best):
        fed = iter(accuracies)
        monkeypatch.setattr(model, "accuracy", lambda y_true, y_pred: next(fed))
        heads = []  # the head bias after each epoch, read by the epoch's validation predict
        predict = model.predict

        def recording_predict(params, indices, user_count):
            heads.append(params.out_b.values.copy())
            return predict(params, indices, user_count)

        monkeypatch.setattr(model, "predict", recording_predict)
        examples = random_examples(SMALL, 12, 40, seed=4)
        config = TrainConfig(batch_size=8, max_epochs=len(accuracies), patience=patience, seed=1)
        weights, history = train(small_params(), examples[:32], examples[32:], config)
        assert [h.epoch for h in history] == list(range(1, epochs_run + 1))
        assert model.best_epoch(history).epoch == best
        assert np.array_equal(weights.out_b.values, heads[best - 1])


class TestTrain:
    @staticmethod
    def _dataset(n=400, seed=7):
        texts, labels = make_keyword_dataset(n, seed=seed)
        vocab = corpus.build_vocab([t.split() for t in texts])
        arch = ModelArch(seq_len=12, embed_dim=16, hidden=12, filters=8, ffnn_hidden=6)
        examples = as_examples((corpus.encode(t.split(), vocab, arch.seq_len), 0, y)
                               for t, y in zip(texts, labels))
        matrix = np.random.default_rng(0).normal(0, 0.1, size=(vocab.size, arch.embed_dim))
        return arch, matrix, examples

    def test_returns_best_epoch_weights_and_history(self):
        arch, matrix, examples = self._dataset()
        params = build(arch, matrix, seed=1)
        best, history = train(params, examples[:320], examples[320:],
                              TrainConfig(max_epochs=3, seed=1))
        assert len(history) <= 3
        assert all(h.epoch == i + 1 for i, h in enumerate(history))
        probs = proba(best, examples[320:])
        acc = float(((probs >= 0.5).astype(int) == examples[320:].label).mean())
        assert acc == pytest.approx(model.best_epoch(history).val_accuracy, abs=1e-12)

    def test_non_finite_loss_raises(self):
        arch, matrix, examples = self._dataset(n=64, seed=5)
        matrix[corpus.PAD_INDEX] = np.nan  # every example is padded
        with pytest.raises(ModelError, match="epoch 1, step 1"):
            train(build(arch, matrix, seed=1), examples[:32], examples[32:], TrainConfig(seed=1))

    @pytest.mark.parametrize("name", ["embedding", "lstm_bwd_wh", "out_b"])
    def test_non_finite_gradient_names_the_tensor(self, monkeypatch, name):
        backward = model._backward

        def poisoned(params, dz2, cache):
            backward(params, dz2, cache)
            grad = params.tensors[name].grad
            (grad[cache[0][0, 0]] if name == "embedding" else grad).flat[-1] = np.inf  # a row the batch wrote

        monkeypatch.setattr(model, "_backward", poisoned)
        examples = random_examples(SMALL, 12, 40, seed=4)
        with pytest.raises(ModelError, match=f"non-finite gradient in {name} at epoch 1, step 1$"):
            train(small_params(), examples[:32], examples[32:], TrainConfig(seed=1))

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    @pytest.mark.parametrize("vocab_size", [45, 200])
    def test_row_skip_matches_full_update(self, monkeypatch, vocab_size, weight_decay):
        """Adam on the embedding rows hit so far, and zeroing only the rows the
        last batch wrote, give the bytes of the full update and full zeroing,
        also once the hit rows pass ADAM_GATHER_MAX_SHARE of the table."""
        examples = random_examples(SMALL, 20, 80, seed=4)  # 2 examples hit about 13 of rows 0..19
        config = TrainConfig(batch_size=2, max_epochs=2, patience=2, seed=3, weight_decay=weight_decay)
        adam_step, backward = nn.adam_step, model._backward
        gathered = []

        def recorded_adam(params, rows, *rest):
            gathered.append(not isinstance(rows[0], slice))  # rows[0] are the embedding's
            adam_step(params, rows, *rest)

        def full_adam(params, rows, *rest):
            adam_step(params, [slice(None)] * len(rows), *rest)

        def zeroed_backward(params, dz2, cache):
            for p in params.all_params():
                p.grad[...] = 0.0
            backward(params, dz2, cache)

        runs = []
        for patches in ([(nn, "adam_step", recorded_adam)],
                        [(nn, "adam_step", full_adam), (model, "_backward", zeroed_backward)]):
            for target, name, value in patches:
                monkeypatch.setattr(target, name, value)
            params = small_params(vocab_size=vocab_size, seed=3)
            best, history = train(params, examples[:64], examples[64:], config)
            runs.append(([p.values.tobytes() for p in params.all_params() + best.all_params()], history))
        assert runs[0] == runs[1]
        # gathered while at most a third of the rows were hit and no decay is on, full after
        if weight_decay:
            assert not any(gathered)
        elif vocab_size == 200:
            assert all(gathered)
        else:
            assert gathered[0] and not gathered[-1] and gathered == sorted(gathered, reverse=True)

    def test_rows_no_example_indexes_move_only_with_weight_decay(self):
        examples = random_examples(SMALL, 20, 80, seed=4)  # rows 20..199 are never indexed
        initial = small_params(vocab_size=200).embedding.values
        for weight_decay in (0.0, 1e-4):
            params = small_params(vocab_size=200)
            config = TrainConfig(batch_size=4, max_epochs=2, seed=3, weight_decay=weight_decay)
            train(params, examples[:64], examples[64:], config)
            moved = (params.embedding.values != initial).any(axis=1)
            assert moved[:20].all()
            assert (moved[20:] == bool(weight_decay)).all(), weight_decay

    def test_keyword_task_reaches_95(self):
        arch, matrix, examples = self._dataset(n=2000, seed=3)
        params = build(arch, matrix, seed=1)
        best, history = train(params, examples[:1600], examples[1600:],
                              TrainConfig(max_epochs=5, seed=1))
        assert max(h.val_accuracy for h in history) >= 0.95

    def test_loss_decreases_over_first_ten_steps(self):
        arch, matrix, examples = self._dataset(n=64, seed=5)
        batch = examples[:32]
        wins = 0
        for seed in range(10):
            params = build(arch, matrix, seed=seed)
            idx, uc, y = batch.indices, batch.user_count, batch.label
            first = None
            state = nn.init_adam(params.all_params())
            for _ in range(10):
                for p in params.all_params():
                    p.grad[...] = 0.0
                probs, cache = model._forward(params, idx, uc, None, 0.0)
                loss, dp = nn.bce_loss(probs, y)
                if first is None:
                    first = loss
                model._backward(params, nn.sigmoid_backward(dp, probs)[:, None], cache)
                nn.adam_step(params.all_params(), [slice(None)] * len(params.tensors), state,
                             lr=0.001, weight_decay=0.0)
            probs, _ = model._forward(params, idx, uc, None, 0.0)
            final = nn.bce_loss(probs, y)[0]
            wins += final < first
        assert wins >= 9

    def test_bit_reproducible(self):
        arch, matrix, examples = self._dataset(n=200, seed=9)
        runs = []
        for _ in range(2):
            params = build(arch, matrix, seed=4)
            best, history = train(params, examples[:160], examples[160:],
                                  TrainConfig(max_epochs=2, seed=4))
            runs.append((best, history))
        for pa, pb in zip(runs[0][0].all_params(), runs[1][0].all_params()):
            assert np.array_equal(pa.values, pb.values)
        assert runs[0][1] == runs[1][1]

    def test_soft_f1_loss_runs(self):
        arch, matrix, examples = self._dataset(n=120, seed=2)
        params = build(arch, matrix, seed=1)
        _, history = train(params, examples[:96], examples[96:],
                           TrainConfig(max_epochs=1, seed=1, loss="soft_f1"))
        assert len(history) == 1

    def test_empty_sets_rejected(self):
        arch, matrix, examples = self._dataset(n=40)
        params = build(arch, matrix, seed=0)
        with pytest.raises(ModelError):
            train(params, examples[:0], examples, TrainConfig())


class TestTransfer:
    def test_trunk_bitwise_equal(self):
        source = small_params(seed=2)
        moved = transfer(source, "b", seed=9)
        for name in model.TRUNK_NAMES:
            assert np.array_equal(source.tensors[name].values, moved.tensors[name].values)

    def test_task_c_head_size(self):
        source = build(ModelArch(), np.zeros((50, 100)), seed=0)
        moved = transfer(source, "c", seed=1)
        assert moved.out_w.size + moved.out_b.size == 10 * 3 + 3

    def test_task_b_head_reinitialized(self):
        source = small_params(seed=2)
        moved = transfer(source, "b", seed=9)
        assert moved.out_w.values.shape == source.out_w.values.shape
        assert not np.array_equal(moved.dense1_w.values, source.dense1_w.values)
        assert not np.array_equal(moved.out_w.values, source.out_w.values)

    def test_invalid_task(self):
        with pytest.raises(ModelError):
            transfer(small_params(), "a", seed=0)

    @pytest.mark.parametrize("task", ["b", "c"])
    def test_frozen_trunk_skips_the_trunk_backward(self, monkeypatch, task):
        """A frozen trunk trains without the BiLSTM and conv backward, to the
        bytes that training with the full backward gives."""
        examples = random_examples(SMALL, 12, 40, seed=4, k=model.head_units(task))
        config = TrainConfig(batch_size=8, max_epochs=2, patience=2, seed=3, freeze_trunk=True)
        source = small_params(seed=2)
        head_backward, full_backward = model._head_backward, model._backward

        def head_then_trunk(params, dz2, cache):  # the full backward, which frozen training used to run
            dfeat = head_backward(params, dz2, cache)
            with monkeypatch.context() as patch:
                patch.setattr(model, "_head_backward", lambda *args: dfeat)
                full_backward(params, dz2, cache)
            return dfeat

        runs = []
        with monkeypatch.context() as patch:
            for name in ("bilstm_backward", "conv1d_backward"):
                patch.setattr(nn, name, lambda *args: pytest.fail("trunk backward ran"))
            runs.append(train(transfer(source, task, seed=9), examples[:32], examples[32:], config))
        monkeypatch.setattr(model, "_head_backward", head_then_trunk)
        runs.append(train(transfer(source, task, seed=9), examples[:32], examples[32:], config))

        (frozen, history), (reference, reference_history) = runs
        assert history == reference_history
        assert [p.values.tobytes() for p in frozen.all_params()] == [p.values.tobytes() for p in reference.all_params()]
        for name in model.TRUNK_NAMES:
            assert np.array_equal(frozen.tensors[name].values, source.tensors[name].values)
        assert not np.array_equal(frozen.out_w.values, transfer(source, task, seed=9).out_w.values)


class TestSaveLoad:
    def test_roundtrip_forward_bitwise(self, tmp_path):
        params = small_params(seed=6)
        path = tmp_path / "model.bin"
        save_model(params, "hash123", path)
        loaded = load_model(path, "hash123")
        examples = random_examples(SMALL, 12, 5, seed=1)
        assert np.array_equal(proba(params, examples), proba(loaded, examples))

    def test_vocab_hash_mismatch(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.bin"
        save_model(params, "aaa", path)
        with pytest.raises(ModelError, match="hash"):
            load_model(path, expected_vocab_hash="bbb")

    def test_truncated_file(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.bin"
        save_model(params, "aaa", path)
        data = path.read_bytes()
        for cut in (3, 40, len(data) - 17):
            bad = tmp_path / "bad.bin"
            bad.write_bytes(data[:cut])
            with pytest.raises(ModelError):
                load_model(bad, "aaa")

    def test_trailing_garbage(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.bin"
        save_model(params, "aaa", path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelError, match="trailing"):
            load_model(path, "aaa")

    def test_identical_params_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(small_params(seed=3), "h", a)
        save_model(small_params(seed=3), "h", b)
        assert a.read_bytes() == b.read_bytes()

    def test_file_format_pinned(self, tmp_path):
        # build and transfer do no BLAS arithmetic, so these bytes are the
        # same on every machine; a new digest means old model files break
        source = small_params(seed=0)
        cases = (
            (source, "cff1fd95e7eecdbf59d2f84b58f2bdbd33a7cdaabe6a3abd2a25d01a5cfc85a9"),
            (transfer(source, "c", seed=1), "1e501c0d6372d8fc6c310c198a680a49c12bb54421ce890a26d2052a105eba47"),
        )
        for params, digest in cases:
            path = tmp_path / "model.bin"
            save_model(params, "vocabhash", path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("change, message", [
        (lambda header: header.pop("vocab_hash"), "vocab_hash"),
        (lambda header: header["arch"].update(dropout=0.5), "dropout"),
        (lambda header: header["tensors"][1].update(shape=[6, 32]), "lstm_fwd_wx"),
    ])
    def test_bad_header_raises_model_error(self, tmp_path, change, message):
        path = tmp_path / "model.bin"
        save_model(small_params(), "aaa", path)
        data = path.read_bytes()
        start = len(model.MODEL_MAGIC) + 8
        (header_len,) = struct.unpack("<Q", data[start - 8 : start])
        header = json.loads(data[start : start + header_len])
        assert header["tensors"][1] == {"name": "lstm_fwd_wx", "shape": [24, 8]}
        change(header)
        blob = json.dumps(header).encode("utf-8")
        path.write_bytes(data[: start - 8] + struct.pack("<Q", len(blob)) + blob + data[start + header_len :])
        with pytest.raises(ModelError, match=message):
            load_model(path, "aaa")


def with_header(data: bytes, change) -> bytes:
    """The saved model `data` with `change` applied to its JSON header."""
    start = len(model.MODEL_MAGIC) + 8
    (header_len,) = struct.unpack("<Q", data[start - 8 : start])
    header = json.loads(data[start : start + header_len])
    change(header)
    blob = json.dumps(header).encode("utf-8")
    return data[: start - 8] + struct.pack("<Q", len(blob)) + blob + data[start + header_len :]


def set_shape(shape):
    return lambda data: with_header(data, lambda header: header["tensors"][0].update(shape=shape))


def set_arch(field, value):
    return lambda data: with_header(data, lambda header: header["arch"].update({field: value}))


@pytest.mark.parametrize("corrupt, message", [
    (lambda data: data[:5] + struct.pack("<Q", 2**62) + data[13:], "truncated"),
    (set_shape([10**12, 3]), "truncated"),
    (set_shape("ab"), "shape 'ab' is not a list of non-negative ints"),
    (set_shape([2.5, 3]), "shape [2.5, 3] is not"),
    (set_shape([True, 3]), "shape [True, 3] is not"),
    (set_shape([-1, 3]), "shape [-1, 3] is not"),
    (set_arch("hidden", 2.0), "arch field hidden must be int, got 2.0"),
    (set_arch("embed_dim", True), "arch field embed_dim must be int, got True"),
    (lambda data: with_header(data, lambda header: header.update(vocab_hash=5)), "vocab_hash 5 is not a string"),
], ids=["length 2**62", "shape 10**12 x 3", "shape ab", "shape 2.5", "shape True", "shape -1",
        "hidden 2.0", "embed_dim true", "vocab_hash 5"])
def test_corrupt_model_file_raises_model_error_naming_path(tmp_path, corrupt, message):
    path = tmp_path / "model.bin"
    save_model(small_params(), "aaa", path)
    path.write_bytes(corrupt(path.read_bytes()))
    with pytest.raises(ModelError) as err:
        load_model(path, "aaa")
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["embedding", "lstm_bwd_wh", "out_b"])
def test_non_finite_tensor_raises_model_error_naming_it(tmp_path, name, value):
    params = small_params()
    params.tensors[name].values.flat[-1] = value
    path = tmp_path / "model.bin"
    save_model(params, "aaa", path)
    with pytest.raises(ModelError) as err:
        load_model(path, "aaa")
    assert str(err.value) == f"{path}: tensor {name} holds NaN or inf values"


@pytest.fixture(scope="module")
def saved_model(tmp_path_factory):
    params = small_params(seed=4)
    path = tmp_path_factory.mktemp("fuzz") / "model.bin"
    save_model(params, "aaa", path)
    return params, path.read_bytes(), path


def loads_the_same_or_fails_loud(params, data, path) -> None:
    path.write_bytes(data)
    try:
        loaded = load_model(path, "aaa")
    except ModelError:
        return
    for name in model.TENSOR_NAMES:
        want, got = params.tensors[name].values, loaded.tensors[name].values
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(draw=st.data())
def test_fuzzed_model_file_fails_loud_or_loads_the_same(saved_model, draw):
    params, data, path = saved_model
    loads_the_same_or_fails_loud(params, data[: draw.draw(st.integers(0, len(data) - 1))], path)
    # one byte of the length field or the JSON header
    header_end = len(model.MODEL_MAGIC) + 8 + struct.unpack("<Q", data[5:13])[0]
    i = draw.draw(st.integers(len(model.MODEL_MAGIC), header_end - 1))
    loads_the_same_or_fails_loud(params, data[:i] + bytes([draw.draw(st.integers(0, 255))]) + data[i + 1 :], path)


def test_huge_arch_fails_before_allocating(tmp_path):
    # a well-typed arch whose LSTM weights alone would take 320 GB; the
    # address space is capped 1 GiB above what the process maps now, so any
    # attempt to allocate them ends in MemoryError, not the named ModelError
    path = tmp_path / "model.bin"
    save_model(small_params(), "aaa", path)
    path.write_bytes(set_arch("hidden", 100_000)(path.read_bytes()))
    with open("/proc/self/statm") as fh:
        mapped = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limits = resource.getrlimit(resource.RLIMIT_AS)
    cap = mapped + 2**30 if limits[1] == resource.RLIM_INFINITY else min(mapped + 2**30, limits[1])
    resource.setrlimit(resource.RLIMIT_AS, (cap, limits[1]))
    try:
        with pytest.raises(ModelError) as err:
            load_model(path, "aaa")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, limits)
    assert str(err.value) == f"{path}: tensor lstm_fwd_wx has shape (24, 8), arch needs (400000, 8)"
