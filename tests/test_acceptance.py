"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v` (lines are emitted unbuffered,
so they appear even under pytest's capture). The OLID reproduction criterion
is data-dependent and skips unless the dataset file is available.
"""

import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from offlang import cli, corpus, embeddings, gradcheck, hpo, metrics, model, resample
from offlang.baseline import _best_split, predict_forest, train_forest

import conftest
from conftest import OLID_FIXTURE
from test_baseline import brute_force_best_split

OLID_PATH = os.environ.get("OLID_TRAIN_PATH", "data/olid-training-v1.0.tsv")


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_parameter_counts():
    t0 = time.time()
    rows = model.layer_param_counts(model.ModelArch(), vocab_size=21_251)
    counts = [c for _, _, c in rows]
    expected = [2_125_100, 0, 234_496, 32_832, 0, 0, 0, 1_290, 11]
    elapsed = time.time() - t0
    report(
        1,
        counts == expected and elapsed < 1.0,
        f"per-layer counts {counts} vs published {expected} ({elapsed:.3f}s)",
    )


def test_criterion_2_resampling_counts():
    t0 = time.time()
    got_b = resample.target_count({"UNT": 420, "TIN": 3100}, 0.2)
    ok_b = got_b == 2564 and abs(got_b - 2565) <= 1 and abs(got_b - 2564) <= 1

    got_a = resample.target_count({"OFF": 3539, "NOT": 7053}, 0.3)
    ok_a = all(abs(got_a - bar) / bar <= 0.01 for bar in (6011, 6012))

    got_c = resample.target_count({"IND": 1929, "OTH": 319, "GRP": 852}, 0.7)
    ok_c = all(abs(got_c - bar) / bar <= 0.01 for bar in (806, 805, 805))
    elapsed = time.time() - t0
    report(
        2,
        ok_b and ok_a and ok_c and elapsed < 1.0,
        f"task B {got_b} (bars 2565/2564), task A {got_a} (bars 6011/6012, <=1%), "
        f"task C {got_c} (bars ~805, <=1%) ({elapsed:.3f}s)",
    )


def test_criterion_3_cleaning_golden():
    t0 = time.time()
    raw = ("@USER @USER @USER It should scare every American!  "
           "She is playing Hockey with a warped puck!")
    expected = ("user it should scare every american ! "
                "she is playing hockey with a warped puck !")
    text, count = corpus.clean(raw)
    elapsed = time.time() - t0
    report(3, text == expected and count == 3 and elapsed < 1.0,
           f"clean -> {text!r}, user_count={count} ({elapsed:.3f}s)")


def test_criterion_4_gradient_suite():
    t0 = time.time()
    results = gradcheck.run_all(n_seeds=20, tolerance=1e-4)
    elapsed = time.time() - t0
    worst = max(results, key=lambda r: r.max_error)
    report(
        4,
        all(r.passed for r in results) and elapsed < 60.0,
        f"{len(results)} ops x 20 seeds, worst {worst.name} at {worst.max_error:.2e} "
        f"<= 1e-4 ({elapsed:.1f}s)",
    )


def test_criterion_5_synthetic_end_to_end():
    t0 = time.time()
    rng = np.random.default_rng(17)
    fillers = [f"word{i}" for i in range(30)]
    triggers = ["poison", "venom", "toxic"]
    raw_texts, labels = [], []
    for _ in range(2000):
        toks = list(rng.choice(fillers, size=int(rng.integers(5, 12))))
        y = int(rng.random() < 0.5)
        if y:
            toks[int(rng.integers(0, len(toks)))] = triggers[int(rng.integers(0, 3))]
        body = " ".join(toks).capitalize()
        raw_texts.append(f"@USER {body}!")
        labels.append(y)

    cleaned = [corpus.clean(t)[0] for t in raw_texts]
    token_lists = [corpus.tokenize(t) for t in cleaned]
    vocab = corpus.build_vocab(token_lists)
    ft = embeddings.train_cbow(
        token_lists,
        embeddings.NgramConfig(buckets=5000),
        embeddings.CbowTrainParams(epochs=2, subsample=0.0, seed=3),
        dim=100,
    )
    matrix = embeddings.build_embedding_matrix(vocab, ft)

    arch = model.ModelArch()  # published defaults: L=63, d=100, h=128, F=64
    examples = corpus.Examples(
        np.array([corpus.encode(toks, vocab, arch.seq_len) for toks in token_lists], dtype=np.intp),
        np.zeros(len(labels)),
        np.array(labels, dtype=np.intp),
    )
    params = model.build(arch, matrix, seed=1)
    _, history = model.train(
        params, examples[:1600], examples[1600:],
        model.TrainConfig(lr=0.002, max_epochs=5, patience=5, seed=1),
    )
    best_f1 = max(h.val_macro_f1 for h in history)
    elapsed = time.time() - t0
    report(
        5,
        best_f1 >= 0.95 and elapsed < 300.0,
        f"validation macro-F1 {best_f1:.4f} >= 0.95 within {len(history)} epochs "
        f"({elapsed:.0f}s < 300s)",
    )


@pytest.mark.skipif(not Path(OLID_PATH).exists(),
                    reason=f"OLID training file not found at {OLID_PATH} "
                           "(set OLID_TRAIN_PATH to enable)")
def test_criterion_6_olid_reproduction(tmp_path):
    t0 = time.time()
    with open(OLID_PATH, encoding="utf-8") as fh:
        records = corpus.parse_olid(fh)
    token_lists = [corpus.tokenize(r.clean_text) for r in records]
    vocab = corpus.build_vocab(token_lists)
    ft = embeddings.train_cbow(token_lists, embeddings.NgramConfig(),
                               embeddings.CbowTrainParams(seed=5), dim=100)
    matrix = embeddings.build_embedding_matrix(vocab, ft)

    arch = model.ModelArch()
    task_records = corpus.filter_task(records, "a")
    examples = corpus.Examples(*corpus.encode_records(task_records, vocab, arch.seq_len),
                               corpus.label_indices(task_records, "a"))
    rng = np.random.default_rng(5)
    by_class = {}
    for i, label in enumerate(examples.label.tolist()):
        by_class.setdefault(label, []).append(i)
    train_idx, val_idx = [], []
    for label in sorted(by_class):
        rows = np.array(by_class[label])
        rows = rows[rng.permutation(len(rows))]
        n_val = int(round(len(rows) * 0.2))
        val_idx.extend(rows[:n_val])
        train_idx.extend(rows[n_val:])
    train_set = examples[np.array(train_idx)]
    train_set = train_set[resample.rebalance(train_set.label, 0.3, seed=5)]
    val_set = examples[np.array(val_idx)]

    params = model.build(arch, matrix, seed=5)
    _, history = model.train(params, train_set, val_set,
                             model.TrainConfig(max_epochs=8, seed=5))
    best_f1 = max(h.val_macro_f1 for h in history)
    elapsed = time.time() - t0
    report(6, best_f1 >= 0.70 - 0.05,
           f"task A validation macro-F1 {best_f1:.4f} >= 0.65 "
           f"(paper 0.74 +- stochastic band) ({elapsed:.0f}s)")


def test_criterion_7_transfer_sanity():
    t0 = time.time()
    source = model.build(model.ModelArch(), np.zeros((300, 100)), seed=2)
    moved = model.transfer(source, "c", seed=8)
    trunk_equal = all(
        np.array_equal(source.tensors[name].values, moved.tensors[name].values)
        for name in model.TRUNK_NAMES
    )
    head = moved.out_w.size + moved.out_b.size
    elapsed = time.time() - t0
    report(7, trunk_equal and head == 33 and elapsed < 1.0,
           f"trunk bitwise equal: {trunk_equal}, task-C output head params {head} == 33 "
           f"({elapsed:.3f}s)")


def test_criterion_8_bo_benchmark():
    t0 = time.time()
    space = hpo.SearchSpace([hpo.Dimension("x", 0.0, 1.0)])
    hits = 0
    for seed in range(20):
        result = hpo.bo_loop(lambda p: (p["x"] - 0.3) ** 2, space,
                             n_init=3, n_iter=10, seed=seed)
        hits += abs(result.best_params["x"] - 0.3) <= 0.05
    elapsed = time.time() - t0
    report(8, hits >= 18 and elapsed < 10.0,
           f"incumbent within 0.05 of optimum for {hits}/20 seeds ({elapsed:.1f}s < 10s)")


def test_criterion_9_random_forest_baseline():
    t0 = time.time()
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        # separable bag-of-words: classes draw from disjoint vocabulary halves
        X0 = np.hstack([rng.poisson(2.0, size=(60, 10)), rng.poisson(0.05, size=(60, 10))])
        X1 = np.hstack([rng.poisson(0.05, size=(60, 10)), rng.poisson(2.0, size=(60, 10))])
        X = np.vstack([X0, X1]).astype(float)
        y = np.array([0] * 60 + [1] * 60)
        test = rng.permutation(120)[:40]
        train_rows = np.setdiff1d(np.arange(120), test)
        forest = train_forest(X[train_rows], y[train_rows], n_trees=20, seed=seed)
        acc = (predict_forest(forest, X[test]) == y[test]).mean()
        wins += acc >= 0.95

    oracle_ok = True
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        Xs = rng.integers(0, 4, size=(12, 3)).astype(float)
        ys = rng.integers(0, 2, size=12)
        got = _best_split(Xs, ys, n_classes=2)
        expected = brute_force_best_split(Xs, ys)
        if expected is None:
            oracle_ok &= got is None
        else:
            cost, f, thr = expected
            oracle_ok &= got is not None and got[0] == f and math.isclose(got[1], thr)
    elapsed = time.time() - t0
    report(9, wins >= 9 and oracle_ok and elapsed < 30.0,
           f"accuracy >= 0.95 on {wins}/10 seeds; depth-1 splits match exhaustive "
           f"search on 10/10 cases: {oracle_ok} ({elapsed:.1f}s)")


def test_criterion_10_metrics_oracle():
    t0 = time.time()
    # confusion constructed to precision 0.63 / recall 0.67 exactly
    cm = np.array([[5000, 2479], [2079, 4221]])
    row = metrics.prf_macro(cm, class_names=["NOT", "OFF"])
    ok_row = (
        abs(row.precision[1] - 0.63) < 1e-12
        and abs(row.recall[1] - 0.67) < 1e-12
        and abs(row.f1[1] - 0.65) <= 0.005
    )
    hand = metrics.prf_macro(metrics.confusion([1, 1, 0, 0], [1, 0, 1, 0], 2))
    ok_hand = (
        np.allclose(hand.precision, 0.5)
        and np.allclose(hand.recall, 0.5)
        and hand.macro_f1 == 0.5
    )
    elapsed = time.time() - t0
    report(10, ok_row and ok_hand and elapsed < 1.0,
           f"P {row.precision[1]:.2f} R {row.recall[1]:.2f} -> F1 {row.f1[1]:.4f} "
           f"(0.65 +- 0.005); 4-example case exact ({elapsed:.3f}s)")


def test_criterion_11_training_determinism(tmp_path):
    t0 = time.time()
    train_file = tmp_path / "train.tsv"
    train_file.write_text(OLID_FIXTURE, encoding="utf-8")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        config = {
            "data": {"train_path": str(train_file), "task": "a",
                      "val_fraction": 0.2, "seed": 7},
            "embeddings": {"dim": 8, "epochs": 1, "buckets": 64, "subsample": 0.0},
            "model": {"seq_len": 12, "hidden": 6, "filters": 4, "ffnn_hidden": 4,
                       "max_epochs": 2},
            "output": {"dir": str(out)},
        }
        config_path = tmp_path / f"{name}.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = cli.main(["train", "--config", str(config_path), "--deterministic"])
        assert code == 0
        outputs.append(out)
    same_model = (outputs[0] / "model.bin").read_bytes() == (outputs[1] / "model.bin").read_bytes()
    same_history = (outputs[0] / "history.csv").read_text() == (outputs[1] / "history.csv").read_text()
    elapsed = time.time() - t0
    report(11, same_model and same_history,
           f"repeat deterministic runs byte-identical: model {same_model}, "
           f"history {same_history} ({elapsed:.1f}s)")
