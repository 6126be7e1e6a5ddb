import hashlib
import json
import struct

import numpy as np
import pytest

from offlang import corpus, model, nn
from offlang.corpus import EncodedExample
from offlang.gradcheck import max_rel_error, numeric_gradient
from offlang.model import (
    EarlyStopper,
    ModelArch,
    ModelError,
    ModelParams,
    TrainConfig,
    build,
    labels_from_probs,
    layer_param_counts,
    load_model,
    save_model,
    total_param_count,
    train,
    transfer,
)

from conftest import make_keyword_dataset

SMALL = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4)


def small_params(arch=SMALL, vocab_size=12, seed=0):
    matrix = np.random.default_rng(99).normal(0, 0.2, size=(vocab_size, arch.embed_dim))
    return build(arch, matrix, seed=seed)


def random_examples(arch, vocab_size, n, seed=0, k=1):
    rng = np.random.default_rng(seed)
    return [
        EncodedExample(
            indices=list(rng.integers(0, vocab_size, size=arch.seq_len)),
            user_count=int(rng.integers(0, 6)),
            label=int(rng.integers(0, k if k > 1 else 2)),
        )
        for _ in range(n)
    ]


class TestBuild:
    def test_default_total_parameter_count(self):
        assert total_param_count(ModelArch(), 21_251) == 2_393_729

    def test_layer_counts_match_summary_table(self):
        counts = [c for _, _, c in layer_param_counts(ModelArch(), 21_251)]
        assert counts == [2_125_100, 0, 234_496, 32_832, 0, 0, 0, 1_290, 11]

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
        probs = model.predict_proba(params, random_examples(SMALL, 12, 9))
        assert probs.shape == (9,)
        assert ((probs > 0) & (probs < 1)).all()

    def test_softmax_rows_sum_to_one(self):
        arch = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4, output_units=3)
        params = small_params(arch)
        probs = model.predict_proba(params, random_examples(arch, 12, 5, k=3))
        assert probs.shape == (5, 3)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12

    def test_all_pad_zero_weights_gives_half(self):
        params = small_params()
        for p in params.all_params()[1:]:  # everything but the embedding
            p.values[...] = 0.0
        ex = [EncodedExample([0] * SMALL.seq_len, 0, 0)]
        assert model.predict_proba(params, ex)[0] == 0.5

    def test_user_count_ignored_when_flag_off(self):
        params = small_params()
        base = random_examples(SMALL, 12, 4)
        bumped = [EncodedExample(ex.indices, ex.user_count + 7, ex.label) for ex in base]
        assert np.array_equal(model.predict_proba(params, base), model.predict_proba(params, bumped))

    def test_user_count_used_when_flag_on(self):
        arch = ModelArch(seq_len=10, embed_dim=8, hidden=6, filters=4, ffnn_hidden=4,
                         use_user_count=True)
        params = small_params(arch)
        base = random_examples(arch, 12, 4)
        bumped = [EncodedExample(ex.indices, ex.user_count + 7, ex.label) for ex in base]
        assert not np.array_equal(model.predict_proba(params, base), model.predict_proba(params, bumped))

    def test_index_out_of_range(self):
        params = small_params(vocab_size=12)
        with pytest.raises(ModelError):
            model.predict_proba(params, [EncodedExample([12] * SMALL.seq_len, 0, 0)])

    def test_full_backward_matches_finite_differences(self):
        arch = ModelArch(seq_len=6, embed_dim=5, hidden=4, filters=3, ffnn_hidden=3,
                         use_user_count=True)
        params = small_params(arch, vocab_size=9, seed=3)
        examples = random_examples(arch, 9, 4, seed=2)
        idx, uc, y = model.stack_examples(examples)

        def loss():
            probs, _ = model._forward(params, idx, uc, False, None, 0.0)
            return nn.bce_loss(probs, y)[0]

        params.zero_grads()
        probs, cache = model._forward(params, idx, uc, False, None, 0.0)
        _, dp = nn.bce_loss(probs, y)
        model._backward(params, nn.sigmoid_backward(dp, probs)[:, None], cache)
        for p in params.all_params():
            assert max_rel_error(p.grad, numeric_gradient(loss, p.values)) <= 1e-4


class TestPredict:
    def test_boundary_is_positive(self):
        assert labels_from_probs(np.array([0.5])).tolist() == [1]

    def test_argmax(self):
        assert labels_from_probs(np.array([[0.2, 0.5, 0.3]])).tolist() == [1]

    def test_tie_goes_to_lowest_index(self):
        assert labels_from_probs(np.array([[0.5, 0.5, 0.0]])).tolist() == [0]


class TestEarlyStopping:
    def test_documented_sequence(self):
        stopper = EarlyStopper(patience=2)
        outcomes = [stopper.update(v) for v in [0.70, 0.74, 0.73, 0.72]]
        assert outcomes == [(True, False), (True, False), (False, False), (False, True)]
        assert stopper.best == 0.74

    def test_patience_resets_on_improvement(self):
        stopper = EarlyStopper(patience=2)
        for v in [0.5, 0.4, 0.6, 0.55]:
            _, stop = stopper.update(v)
        assert not stop


class TestTrain:
    @staticmethod
    def _dataset(n=400, seed=7):
        texts, labels = make_keyword_dataset(n, seed=seed)
        vocab = corpus.build_vocab([t.split() for t in texts])
        arch = ModelArch(seq_len=12, embed_dim=16, hidden=12, filters=8, ffnn_hidden=6)
        examples = [
            EncodedExample(corpus.encode(t.split(), vocab, arch.seq_len), 0, y)
            for t, y in zip(texts, labels)
        ]
        matrix = np.random.default_rng(0).normal(0, 0.1, size=(vocab.size, arch.embed_dim))
        return arch, matrix, examples

    def test_returns_best_epoch_weights_and_history(self):
        arch, matrix, examples = self._dataset()
        params = build(arch, matrix, seed=1)
        best, history = train(params, examples[:320], examples[320:],
                              TrainConfig(max_epochs=3, seed=1))
        assert len(history) <= 3
        assert all(h.epoch == i + 1 for i, h in enumerate(history))
        best_epoch = max(history, key=lambda h: h.val_accuracy)
        probs = model.predict_proba(best, examples[320:])
        acc = float(((probs >= 0.5).astype(int) == np.array([e.label for e in examples[320:]])).mean())
        assert acc == pytest.approx(best_epoch.val_accuracy, abs=1e-12)

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
            idx, uc, y = model.stack_examples(batch)
            first = None
            state = nn.init_adam(params.all_params())
            for _ in range(10):
                params.zero_grads()
                probs, cache = model._forward(params, idx, uc, False, None, 0.0)
                loss, dp = nn.bce_loss(probs, y)
                if first is None:
                    first = loss
                model._backward(params, nn.sigmoid_backward(dp, probs)[:, None], cache)
                nn.adam_step(params.all_params(), state, lr=0.001)
            probs, _ = model._forward(params, idx, uc, False, None, 0.0)
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

    def test_weighted_and_soft_f1_losses_run(self):
        arch, matrix, examples = self._dataset(n=120, seed=2)
        for loss in ("weighted_cross_entropy", "soft_f1"):
            params = build(arch, matrix, seed=1)
            _, history = train(params, examples[:96], examples[96:],
                               TrainConfig(max_epochs=1, seed=1, loss=loss))
            assert len(history) == 1

    def test_empty_sets_rejected(self):
        arch, matrix, examples = self._dataset(n=40)
        params = build(arch, matrix, seed=0)
        with pytest.raises(ModelError):
            train(params, [], examples, TrainConfig())


class TestTransfer:
    def test_trunk_bitwise_equal(self):
        source = small_params(seed=2)
        moved = transfer(source, "b", seed=9)
        for ps, pm in zip(source.trunk_params(), moved.trunk_params()):
            assert np.array_equal(ps.values, pm.values)

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


class TestSaveLoad:
    def test_roundtrip_forward_bitwise(self, tmp_path):
        params = small_params(seed=6)
        path = tmp_path / "model.bin"
        save_model(params, "hash123", path)
        loaded, vocab_hash = load_model(path)
        assert vocab_hash == "hash123"
        examples = random_examples(SMALL, 12, 5, seed=1)
        assert np.array_equal(model.predict_proba(params, examples), model.predict_proba(loaded, examples))

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
                load_model(bad)

    def test_trailing_garbage(self, tmp_path):
        params = small_params()
        path = tmp_path / "model.bin"
        save_model(params, "aaa", path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ModelError, match="trailing"):
            load_model(path)

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
            load_model(path)
