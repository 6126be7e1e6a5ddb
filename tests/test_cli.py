import contextlib
import io
import json
import multiprocessing
import os
import re
import signal
import struct
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from offlang import baseline, cli, corpus, embeddings, model, nn, pool
from offlang.corpus import Vocabulary

from conftest import OLID_FIXTURE


def write_config(tmp_path, out_name="out", **overrides):
    train = tmp_path / "train.tsv"
    if not train.exists():
        train.write_text(OLID_FIXTURE, encoding="utf-8")
    config = {
        "data": {
            "train_path": str(train),
            "test_path": str(train),
            "task": "a",
            "val_fraction": 0.2,
            "seed": 5,
        },
        "resample": {"p_u": 0.5},
        "embeddings": {
            "source": "cbow",
            "dim": 8,
            "window": 3,
            "negatives": 2,
            "epochs": 1,
            "buckets": 64,
            "subsample": 0.0,
        },
        "model": {
            "seq_len": 12,
            "hidden": 6,
            "filters": 4,
            "ffnn_hidden": 4,
            "batch_size": 16,
            "max_epochs": 2,
            "patience": 2,
        },
        "output": {"dir": str(tmp_path / out_name)},
    }
    for dotted, value in overrides.items():
        node = config
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path, tmp_path / out_name


def test_preprocess_writes_clean_tsv_and_vocab(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["preprocess", "--config", str(config)]) == 0
    lines = (out / "clean.tsv").read_text().splitlines()
    assert lines[0] == "id\tclean_text\tuser_count\tlabel_a\tlabel_b\tlabel_c"
    assert len(lines) == 21
    first = lines[1].split("\t")
    assert first[1] == "user she is terrible !"
    assert first[2] == "2"
    vocab = Vocabulary.load(out / "vocab.txt")
    assert vocab.index("user") >= 2
    assert (out / "run.json").exists()


def test_stats_reports_both_classes(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["stats", "--config", str(config), "--task", "a"]) == 0
    text = (out / "user_count_stats.tsv").read_text()
    assert text.startswith("class\tmean\tstd")
    assert "OFF" in text and "NOT" in text


def test_stats_names_the_file_of_a_class_without_records(tmp_path, capsys):
    train = tmp_path / "train.tsv"
    rows = [OLID_FIXTURE.splitlines()[0]] + [f"{i}\tyou are all lovely {i}\tNOT\tNULL\tNULL" for i in range(1, 3)]
    train.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config, out = write_config(tmp_path)
    assert cli.main(["stats", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: data.train_path {train} holds no examples for class OFF in task a\n"
    assert not (out / "user_count_stats.tsv").exists()


def test_resample_report_equalizes(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["resample-report", "--config", str(config), "--task", "b"]) == 0
    rows = (out / "resample_report.tsv").read_text().splitlines()[1:]
    after = {r.split("\t")[0]: int(r.split("\t")[2]) for r in rows}
    assert len(set(after.values())) == 1


def test_embed_train_saves_model(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["embed-train", "--config", str(config)]) == 0
    header = (out / "fasttext.txt").read_text().splitlines()[0].split()
    assert header[1] == "64" and header[2] == "8"


def test_train_then_predict_then_evaluate(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    assert (out / "model.bin").exists()
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_accuracy,val_macro_f1"
    assert len(history) >= 2
    run = json.loads((out / "run.json").read_text())
    assert run["command"] == "train" and run["seed"] == 5

    pred_config, pred_out = write_config(
        tmp_path,
        out_name="pred",
        **{
            "predict.model": str(out / "model.bin"),
            "predict.vocab": str(out / "vocab.txt"),
        },
    )
    assert cli.main(["predict", "--config", str(pred_config)]) == 0
    pred_lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert pred_lines[0] == "id,label"
    assert len(pred_lines) == 21
    assert all(line.split(",")[1] in ("OFF", "NOT") for line in pred_lines[1:])

    eval_config, eval_out = write_config(
        tmp_path,
        out_name="eval",
        **{"evaluate.predictions": str(pred_out / "predictions.csv")},
    )
    assert cli.main(["evaluate", "--config", str(eval_config)]) == 0
    table = capsys.readouterr().out
    assert "macro-F1" in table
    assert (eval_out / "metrics.csv").exists()


ALL_OFF = [(str(i), "OFF") for i in range(1, 21)]  # one prediction per fixture id


def write_predictions(tmp_path, rows):
    path = tmp_path / "predictions.csv"
    path.write_text("id,label\n" + "".join(f"{rid},{label}\n" for rid, label in rows), encoding="utf-8")
    config, _ = write_config(tmp_path, out_name="eval", **{"evaluate.predictions": str(path)})
    return config


def test_evaluate_ignores_ids_outside_the_gold_set(tmp_path, capsys):
    config = write_predictions(tmp_path, ALL_OFF + [("999", "NOT")])
    assert cli.main(["evaluate", "--config", str(config)]) == 0


@pytest.mark.parametrize("rows, message", [
    (ALL_OFF[:-1] + [("20", "off")], "unknown label 'off'"),
    (ALL_OFF + [("3", "NOT")], "duplicate prediction id '3'"),
    (ALL_OFF[:18], "2 of 20 gold ids have no prediction"),
    (ALL_OFF + [("21,x", "NOT")], "expected 2 fields, got 3"),
])
def test_evaluate_rejects_bad_predictions(tmp_path, capsys, rows, message):
    config = write_predictions(tmp_path, rows)
    args = cli.build_parser().parse_args(["evaluate", "--config", str(config)])
    with pytest.raises(cli.ConfigError, match=message):
        args.fn(args)
    assert cli.main(["evaluate", "--config", str(config)]) == 1
    assert message in capsys.readouterr().err


def test_train_is_byte_deterministic(tmp_path, capsys):
    config_a, out_a = write_config(tmp_path, out_name="run_a")
    config_b, out_b = write_config(tmp_path, out_name="run_b")
    assert cli.main(["train", "--config", str(config_a)]) == 0
    assert cli.main(["train", "--config", str(config_b)]) == 0
    assert (out_a / "model.bin").read_bytes() == (out_b / "model.bin").read_bytes()
    assert (out_a / "history.csv").read_text() == (out_b / "history.csv").read_text()


def test_transfer_from_task_a_model(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    transfer_config, transfer_out = write_config(
        tmp_path,
        out_name="transfer",
        **{
            "data.task": "b",
            "transfer.source_model": str(out / "model.bin"),
            "transfer.vocab": str(out / "vocab.txt"),
        },
    )
    assert cli.main(["transfer", "--config", str(transfer_config)]) == 0
    assert (transfer_out / "model.bin").exists()


def test_transfer_checks_the_task_before_reading_files(tmp_path, capsys):
    config, _ = write_config(tmp_path, **{"transfer.vocab": str(tmp_path / "missing_vocab.txt"),
                                          "transfer.source_model": str(tmp_path / "missing_model.bin")})
    assert cli.main(["transfer", "--config", str(config), "--task", "a"]) == 1
    err = capsys.readouterr().err
    assert "error: transfer targets task b or c, got 'a'" in err and "Traceback" not in err


def test_tune_pu_writes_report(tmp_path, capsys):
    config, out = write_config(
        tmp_path, **{"baseline.grid": [0.0, 1.0], "baseline.folds": 2, "baseline.n_trees": 3}
    )
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 0
    lines = (out / "pu_report.csv").read_text().splitlines()
    assert lines[0] == "p_u,fold0,fold1,mean_macro_f1"
    assert len(lines) == 3
    assert "selected p_u=" in capsys.readouterr().out


def test_tune_pu_prints_each_p_u_as_the_report_does(tmp_path, capsys):
    config, out = write_config(
        tmp_path, **{"baseline.grid": [0.2, 0.25, 0.35], "baseline.folds": 2, "baseline.n_trees": 2}
    )
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 0
    printed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.startswith("p_u=")]
    reported = [row.split(",")[0] for row in (out / "pu_report.csv").read_text().splitlines()[1:]]
    assert printed == [f"p_u={p_u}" for p_u in reported] == ["p_u=0.2", "p_u=0.25", "p_u=0.35"]


def test_tune_pu_error_in_a_cell_exits_1(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(baseline, "rebalance", boom)
    config, _ = write_config(tmp_path, **{"baseline.grid": [0.0, 1.0], "baseline.folds": 2, "baseline.n_trees": 2})
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 1
    err = capsys.readouterr().err
    assert "error: boom" in err and "Traceback" not in err
    assert not multiprocessing.active_children()


_TEST_PROCESS = os.getpid()


def _kill_own_process(*args, **kwargs):
    """Stands in for work done in a pool worker: the worker dies as the
    out-of-memory killer would end it. Module-level, so it pickles by name."""
    assert os.getpid() != _TEST_PROCESS, "called in the test process, not in a pool worker"
    os.kill(os.getpid(), signal.SIGKILL)


def test_tune_pu_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(baseline, "rebalance", _kill_own_process)
    config, _ = write_config(tmp_path, **{"baseline.grid": [0.0, 1.0], "baseline.folds": 2, "baseline.n_trees": 2})
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 1
    err = capsys.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert not multiprocessing.active_children()


def test_embed_train_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(embeddings, "_text_block", _kill_own_process)
    config, _ = write_config(tmp_path)
    assert cli.main(["embed-train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert not multiprocessing.active_children()


def test_predict_dead_worker_exits_1(tmp_path, capsys, monkeypatch):
    # the caller computes its own chunks, so only a worker dies; the forked
    # path opens as it would under a one-thread BLAS, on 2 cores
    vocab = corpus.build_vocab([["a"]])
    vocab.save(tmp_path / "vocab.txt")
    params = model.build(model.ModelArch(seq_len=12, embed_dim=8, hidden=6, filters=4), [[0.0] * 8] * vocab.size, 0)
    model.save_model(params, vocab.content_hash(), tmp_path / "model.bin")
    config, _ = write_config(tmp_path, **{"predict.model": str(tmp_path / "model.bin"),
                                          "predict.vocab": str(tmp_path / "vocab.txt")})
    chunk = model._predict_chunk

    def chunk_or_die(*args):
        if os.getpid() != _TEST_PROCESS:
            _kill_own_process()
        return chunk(*args)

    monkeypatch.setattr(model, "_predict_chunk", chunk_or_die)
    monkeypatch.setattr(model, "PREDICT_BATCH", 4)  # 5 chunks of the 20 test tweets
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)
    assert cli.main(["predict", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert not multiprocessing.active_children()


def _kill_the_helper(monkeypatch):
    """The backward-direction helper of training dies at its first message;
    it opens as it would under a one-thread BLAS, on 2 cores."""
    monkeypatch.setattr(nn.BackwardDirection, "__call__", _kill_own_process)
    monkeypatch.setattr(pool, "_usable_cores", lambda: 2)
    monkeypatch.setattr(pool, "_one_os_thread", lambda: True)


@pytest.mark.parametrize("command, settings", [
    ("train", {"model.batch_size": 4}),
    ("tune-hparams", {"hpo.n_init": 2, "hpo.n_iter": 1, "model.batch_size": 4}),
])
def test_a_dead_training_helper_exits_1(tmp_path, capsys, monkeypatch, command, settings):
    config, out = write_config(tmp_path, **settings)
    _kill_the_helper(monkeypatch)
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert not (out / "bo_trace.csv").exists()
    assert not multiprocessing.active_children()


def test_transfer_with_a_dead_training_helper_exits_1(tmp_path, capsys, monkeypatch):
    config, out = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--task", "a"]) == 0
    transfer_config, _ = write_config(
        tmp_path, out_name="transfer",
        **{"data.task": "b", "model.batch_size": 4, "transfer.source_model": str(out / "model.bin"), "transfer.vocab": str(out / "vocab.txt")},
    )
    _kill_the_helper(monkeypatch)
    assert cli.main(["transfer", "--config", str(transfer_config)]) == 1
    err = capsys.readouterr().err
    assert "error: a worker process died" in err and "Traceback" not in err
    assert not multiprocessing.active_children()


def test_tune_hparams_writes_trace(tmp_path, capsys):
    config, out = write_config(
        tmp_path, **{"hpo.n_init": 2, "hpo.n_iter": 2, "model.max_epochs": 1}
    )
    assert cli.main(["tune-hparams", "--config", str(config)]) == 0
    lines = (out / "bo_trace.csv").read_text().splitlines()
    assert lines[0] == "iteration,lr,weight_decay,objective,incumbent"
    assert len(lines) == 5


def test_gradcheck_passes(capsys):
    assert cli.main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 10 and "FAIL" not in out


@pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1e-4"])
def test_gradcheck_rejects_a_tolerance_that_is_not_finite_and_positive(capsys, tolerance):
    assert cli.main(["gradcheck", "--seeds", "1", f"--tolerance={tolerance}"]) == 1
    out, err = capsys.readouterr()
    assert err == f"error: tolerance must be a finite number > 0, got {float(tolerance)}\n"
    assert out == ""  # refused before any check runs


def test_missing_config_key_is_named(tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text(json.dumps({"data": {}}), encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "output.dir" in err or "data.train_path" in err


def test_vocab_hash_mismatch_fails(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config)]) == 0
    # a vocabulary from different text produces a different hash
    other_vocab = out / "other_vocab.txt"
    other_vocab.write_text("<pad>\n<unk>\nonly\n", encoding="utf-8")
    pred_config, _ = write_config(
        tmp_path,
        out_name="pred_bad",
        **{
            "predict.model": str(out / "model.bin"),
            "predict.vocab": str(other_vocab),
        },
    )
    assert cli.main(["predict", "--config", str(pred_config)]) == 1
    assert "hash" in capsys.readouterr().err


def test_input_files_not_mutated(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    before = (tmp_path / "train.tsv").read_bytes()
    cli.main(["train", "--config", str(config)])
    assert (tmp_path / "train.tsv").read_bytes() == before


def test_unknown_label_in_data_reports_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n1\they\tWAT\tNULL\tNULL\n")
    config, _ = write_config(tmp_path, out_name="bad_run", **{"data.train_path": str(bad)})
    assert cli.main(["preprocess", "--config", str(config)]) == 1
    assert "WAT" in capsys.readouterr().err


@pytest.mark.parametrize("section, cls, settings, fixed", [
    ("embeddings", embeddings.NgramConfig, {"min_ngram": 2, "max_ngram": 4, "buckets": 77}, {}),
    ("embeddings", embeddings.CbowTrainParams,
     {"window": 2, "negatives": 3, "epochs": 4, "lr": 0.5, "subsample": 0.01}, {"seed": 11}),
    ("model", model.ModelArch,
     {"seq_len": 9, "hidden": 5, "kernel": 3, "filters": 7, "ffnn_hidden": 4, "use_user_count": True},
     {"embed_dim": 6, "output_units": 3}),
    ("model", model.TrainConfig,
     {"lr": 0.5, "weight_decay": 0.25, "dropout": 0.125, "batch_size": 8, "max_epochs": 3,
      "patience": 4, "loss": "soft_f1", "freeze_trunk": True}, {"seed": 11}),
])
def test_every_section_field_is_read(section, cls, settings, fixed):
    built = asdict(cli._section({section: settings}, section, cls, **fixed))
    expected = {**settings, **fixed}
    assert built == expected
    assert all(expected[f.name] != f.default for f in fields(cls))


@pytest.mark.parametrize("key", ["model.use_user_count", "model.freeze_trunk"])
def test_bool_settings_must_be_json_booleans(tmp_path, capsys, key):
    config, _ = write_config(tmp_path, **{key: "false"})
    assert cli.main(["train", "--config", str(config)]) == 1
    assert f"config key {key} must be true or false, got 'false'" in capsys.readouterr().err


def test_every_command_records_its_name(tmp_path, capsys):
    small = {"model.max_epochs": 1, "hpo.n_init": 2, "hpo.n_iter": 1,
             "baseline.grid": [0.0, 1.0], "baseline.folds": 2, "baseline.n_trees": 2}
    trained = {"model": str(tmp_path / "train" / "model.bin"), "vocab": str(tmp_path / "train" / "vocab.txt")}
    runs = [
        ("train", {}),
        ("preprocess", {}),
        ("stats", {}),
        ("resample-report", {}),
        ("embed-train", {}),
        ("transfer", {"data.task": "b", "transfer.source_model": trained["model"],
                      "transfer.vocab": trained["vocab"]}),
        ("predict", {"predict.model": trained["model"], "predict.vocab": trained["vocab"]}),
        ("evaluate", {"evaluate.predictions": str(tmp_path / "predict" / "predictions.csv")}),
        ("tune-pu", {}),
        ("tune-hparams", {}),
    ]
    for command, overrides in runs:
        config, out = write_config(tmp_path, out_name=command, **small, **overrides)
        assert cli.main([command, "--config", str(config)]) == 0, command
        assert json.loads((out / "run.json").read_text())["command"] == command


def test_embed_train_output_feeds_train(tmp_path, capsys):
    ngrams = {"embeddings.min_ngram": 2, "embeddings.max_ngram": 4}
    config, out = write_config(tmp_path, **ngrams)
    assert cli.main(["embed-train", "--config", str(config)]) == 0
    assert cli.main(["train", "--config", str(config)]) == 0
    external, external_out = write_config(tmp_path, out_name="external", **ngrams, **{
        "embeddings.source": "external_file", "embeddings.path": str(out / "fasttext.txt")})
    assert cli.main(["train", "--config", str(external)]) == 0
    assert (external_out / "model.bin").read_bytes() == (out / "model.bin").read_bytes()


@pytest.mark.parametrize("command, key", [("preprocess", "data.seed"), ("tune-pu", "baseline.folds")])
def test_null_scalar_setting_is_named(tmp_path, capsys, command, key):
    config, _ = write_config(tmp_path, **{key: None})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"config key {key} must be int, got None" in err and "Traceback" not in err


@pytest.mark.parametrize("command, key, value, kind", [
    ("tune-pu", "baseline.folds", 2.9, "int"),
    ("preprocess", "data.seed", "7", "int"),
    ("preprocess", "data.seed", True, "int"),
    ("train", "model.hidden", 6.5, "int"),
])
def test_scalar_setting_must_have_its_default_type(tmp_path, capsys, command, key, value, kind):
    config, _ = write_config(tmp_path, **{key: value})
    assert cli.main([command, "--config", str(config)]) == 1
    assert f"config key {key} must be {kind}, got {value!r}" in capsys.readouterr().err


def test_int_setting_reads_as_float():
    train = cli._section({"model": {"lr": 1}}, "model", model.TrainConfig)
    assert train.lr == 1.0 and type(train.lr) is float


def test_prediction_ids_with_commas_and_quotes_round_trip(tmp_path, capsys):
    odd_id = 'id,"one"'
    (tmp_path / "test.tsv").write_text(OLID_FIXTURE.replace("\n1\t", f"\n{odd_id}\t"), encoding="utf-8")
    config, out = write_config(tmp_path, **{"data.test_path": str(tmp_path / "test.tsv")})
    assert cli.main(["train", "--config", str(config)]) == 0
    pred_config, pred_out = write_config(tmp_path, out_name="pred", **{
        "data.test_path": str(tmp_path / "test.tsv"),
        "predict.model": str(out / "model.bin"), "predict.vocab": str(out / "vocab.txt")})
    assert cli.main(["predict", "--config", str(pred_config)]) == 0
    lines = (pred_out / "predictions.csv").read_text().splitlines()
    assert lines[1].startswith('"id,""one""",') and lines[2] in ("2,NOT", "2,OFF")
    eval_config, _ = write_config(tmp_path, out_name="eval", **{
        "data.test_path": str(tmp_path / "test.tsv"),
        "evaluate.predictions": str(pred_out / "predictions.csv")})
    assert cli.main(["evaluate", "--config", str(eval_config)]) == 0


def test_resample_report_and_tune_pu_outputs_pinned(tmp_path, capsys):
    # neither output goes through BLAS, so these bytes are the same on every machine
    config, out = write_config(
        tmp_path, **{"baseline.grid": [0.0, 0.5, 1.0], "baseline.folds": 2, "baseline.n_trees": 3}
    )
    assert cli.main(["resample-report", "--config", str(config), "--task", "b"]) == 0
    assert (out / "resample_report.tsv").read_text() == "class\tbefore\tafter\nTIN\t8\t6\nUNT\t3\t6\n"
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 0
    assert (out / "pu_report.csv").read_text() == (
        "p_u,fold0,fold1,mean_macro_f1\n"
        "0.0,0.285714,0.670330,0.478022\n"
        "0.5,0.375000,0.670330,0.522665\n"
        "1.0,0.600000,0.411765,0.505882\n"
    )


def test_predict_on_corrupt_model_file_exits_1(tmp_path, capsys):
    vocab = corpus.build_vocab([["a"]])
    vocab.save(tmp_path / "vocab.txt")
    path = tmp_path / "model.bin"
    params = model.build(model.ModelArch(seq_len=12, embed_dim=8, hidden=6, filters=4), [[0.0] * 8] * vocab.size, 0)
    model.save_model(params, vocab.content_hash(), path)
    data = path.read_bytes()
    path.write_bytes(data[:5] + struct.pack("<Q", 2**62) + data[13:])  # a header length past the end
    config, _ = write_config(tmp_path, **{"predict.model": str(path), "predict.vocab": str(tmp_path / "vocab.txt")})
    assert cli.main(["predict", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: truncated model file" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_predict_on_non_finite_weights_exits_1(tmp_path, capsys, value):
    # such weights used to load, and every tweet got label 0 with exit code 0
    vocab = corpus.build_vocab([["a"]])
    vocab.save(tmp_path / "vocab.txt")
    path = tmp_path / "model.bin"
    params = model.build(model.ModelArch(seq_len=12, embed_dim=8, hidden=6, filters=4), [[0.0] * 8] * vocab.size, 0)
    params.out_b.values[0] = value
    model.save_model(params, vocab.content_hash(), path)
    config, out = write_config(tmp_path, **{"predict.model": str(path), "predict.vocab": str(tmp_path / "vocab.txt")})
    assert cli.main(["predict", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: tensor out_b holds NaN or inf values" in err and "Traceback" not in err
    assert not (out / "predictions.csv").exists()


@pytest.mark.parametrize("command, task", [("evaluate", "d"), ("predict", "d"), ("predict", 3)])
def test_unknown_task_is_named(tmp_path, capsys, command, task):
    config, _ = write_config(tmp_path, **{"data.task": task})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"data.task must be one of a, b, c, got {task!r}" in err and "Traceback" not in err


@pytest.mark.parametrize("command, key, value", [
    ("preprocess", "data.train_path", 0),
    ("preprocess", "output.dir", 3),
    ("train", "data.seed", -1),
    ("train", "data.val_fraction", 0),
    ("train", "resample.p_u", 1.5),
    ("tune-pu", "baseline.grid", ["a"]),
    ("tune-pu", "baseline.grid", 5),
    ("tune-pu", "baseline.grid", []),
    ("tune-pu", "baseline.grid", [True]),
    ("tune-pu", "baseline.folds", 0),
    ("tune-pu", "baseline.folds", 11),  # folds of one row cannot hold both classes
    ("tune-pu", "baseline.n_trees", 0),
    ("tune-hparams", "hpo.n_init", 0),
    ("tune-hparams", "hpo.n_iter", -1),
    ("embed-train", "embeddings.dim", 0),
    ("embed-train", "embeddings.epochs", 0),
    ("embed-train", "embeddings.lr", -1),
    ("embed-train", "embeddings.subsample", -1),
    ("embed-train", "embeddings.window", 0),
    ("embed-train", "embeddings.buckets", 0),
    ("embed-train", "embeddings.min_ngram", 0),
    ("train", "model.kernel", 20),
    ("train", "model.batch_size", 0),
    ("train", "model.max_epochs", 0),
    ("train", "model.patience", 0),
    ("train", "model.dropout", 1.0),
    ("train", "model.weight_decay", -1),
    ("train", "model.lr", float("nan")),
    ("train", "model.loss", "weighted_cross_entropy"),
    ("train", "model.seed", 5),
    ("train", "model.embed_dim", 8),
    ("train", "model.output_units", 1),
    ("embed-train", "embeddings.seed", 5),
    ("predict", "predict.vocab", 1),
    ("evaluate", "evaluate.predictions", 2),
    ("train", "model.hiden", 6),
    ("train", "embeddings.windw", 3),
    ("tune-hparams", "data.val_fraction", 0.001),  # leaves no validation example
])
def test_bad_setting_is_named(tmp_path, capsys, monkeypatch, command, key, value):
    # every setting is checked before the embeddings are trained
    monkeypatch.setattr(embeddings, "train_cbow", lambda *args: pytest.fail("CBOW ran before the error"))
    config, _ = write_config(tmp_path, **{key: value})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: config key {key} must " in err and "Traceback" not in err


def test_train_split_that_loses_a_class_is_named(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(embeddings, "train_cbow", lambda *args: pytest.fail("CBOW ran before the error"))
    # round(0.84 * 3) = 3: every UNT row goes to validation, while 8 of the 9 TIN rows do
    config, _ = write_config(tmp_path, **{"data.task": "b", "data.val_fraction": 0.84})
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert ("error: config key data.val_fraction must leave every class in the train split; "
            "0.84 gives all task b UNT examples to validation") in err and "Traceback" not in err


def test_negative_seed_flag_is_named(tmp_path, capsys):
    config, _ = write_config(tmp_path)
    assert cli.main(["train", "--config", str(config), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error: --seed must be >= 0, got -1" in err and "Traceback" not in err


def test_predict_refuses_a_head_that_does_not_fit_the_task(tmp_path, capsys):
    vocab = corpus.build_vocab([["a"]])
    vocab.save(tmp_path / "vocab.txt")
    path = tmp_path / "model.bin"
    arch = model.ModelArch(seq_len=12, embed_dim=8, hidden=6, filters=4, output_units=model.head_units("c"))
    model.save_model(model.build(arch, [[0.0] * 8] * vocab.size, 0), vocab.content_hash(), path)
    config, out = write_config(tmp_path, **{"predict.model": str(path), "predict.vocab": str(tmp_path / "vocab.txt")})
    assert cli.main(["predict", "--config", str(config), "--task", "a"]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: a 3-unit head does not fit task a" in err and "Traceback" not in err
    assert not (out / "predictions.csv").exists()
    assert cli.main(["predict", "--config", str(config), "--task", "c"]) == 0


@pytest.mark.parametrize("command", ["train", "resample-report", "tune-pu"])
@pytest.mark.parametrize("task, found", [
    pytest.param("a", "every task a record in data.train_path {} is OFF", id="one-class"),
    pytest.param("c", "data.train_path {} holds no task c records", id="no-records"),
])
def test_task_without_two_classes_is_named(tmp_path, capsys, monkeypatch, command, task, found):
    monkeypatch.setattr(embeddings, "train_cbow", lambda *args: pytest.fail("CBOW ran before the error"))
    train = tmp_path / "train.tsv"
    rows = [OLID_FIXTURE.splitlines()[0]] + [f"{i}\tyou are all terrible {i}\tOFF\tUNT\tNULL" for i in range(1, 13)]
    train.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config, _ = write_config(tmp_path, **{"data.task": task, "baseline.folds": 2, "baseline.n_trees": 1})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert (f"error: task {task} needs at least two classes to rebalance, but "
            f"{found.format(train)}") in err and "Traceback" not in err


@pytest.mark.parametrize("command, key", [
    ("preprocess", "data.train_path"),
    ("evaluate", "data.test_path"),
    ("predict", "predict.vocab"),
])
def test_non_utf8_input_names_its_file_and_offset(tmp_path, capsys, command, key):
    if key == "predict.vocab":  # longer than the decoder's first chunk, so the offset counts from the file's start
        good = ("<pad>\n<unk>\n" + "".join(f"word{i}\n" for i in range(2000))).encode()
    else:
        good = OLID_FIXTURE.encode("utf-8")
    offset = good.rindex(b"\n", 0, len(good) - 1) + 1  # the start of the last line
    path = tmp_path / "bad.txt"
    path.write_bytes(good[:offset] + b"\xff" + good[offset:])
    config, _ = write_config(tmp_path, **{key: str(path)})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: not UTF-8 text: byte 0xff at offset {offset}\n" in err and "Traceback" not in err


@pytest.mark.parametrize("command, key", [("preprocess", "data.train_path"), ("evaluate", "data.test_path")])
def test_corpus_error_names_its_file(tmp_path, capsys, command, key):
    # the train and test paths differ, so the message must say which file is at fault
    path = tmp_path / "repeated.tsv"
    path.write_text("id\ttweet\tsubtask_a\tsubtask_b\tsubtask_c\n"
                    "1\they\tNOT\tNULL\tNULL\n1\tyou\tOFF\tUNT\tNULL\n", encoding="utf-8")
    config, _ = write_config(tmp_path, **{key: str(path)})
    assert cli.main([command, "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: line 3: duplicate tweet id '1', first on line 2\n"


@pytest.mark.parametrize("lines, message", [
    ("tok 0.1 x\n", "line 1: non-numeric vector component"),
    ("tok 0.1 0.2\nother 0.1 inf\n", "line 2: non-finite vector component"),
    ("tok 0.1 0.2\nother 0.1\n", "line 2: expected 2 components, got 1"),
    ("tok 0.1 0.2\ntok 0.3 0.4\n", "line 2: repeated token 'tok'"),
])
def test_bad_external_embedding_names_its_file(tmp_path, capsys, lines, message):
    path = tmp_path / "vectors.txt"
    path.write_text(lines, encoding="utf-8")
    config, _ = write_config(tmp_path, **{"embeddings.source": "external_file", "embeddings.path": str(path),
                                          "embeddings.dim": 2})
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {path}: {message}\n" in err and "Traceback" not in err


def test_config_that_is_not_an_object_says_so(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1, 2]", encoding="utf-8")
    assert cli.main(["preprocess", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert f"error: {config}: config must be a JSON object, got list\n" in err and "Traceback" not in err


def test_fold_that_leaves_one_class_is_named(tmp_path, capsys):
    # the one OFF row sits in one of the 3 folds, so that fold trains on NOT rows alone
    train = tmp_path / "train.tsv"
    rows = [OLID_FIXTURE.splitlines()[0]] + [f"{i}\tyou are all lovely {i}\t{'OFF' if i == 1 else 'NOT'}\t"
                                             f"{'UNT' if i == 1 else 'NULL'}\tNULL" for i in range(1, 31)]
    train.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config, out = write_config(tmp_path, **{"baseline.grid": [0.0], "baseline.folds": 3, "baseline.n_trees": 1})
    assert cli.main(["tune-pu", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: task a needs at least two classes to rebalance, but the training rows of fold 1 of 3 "
                   f"in data.train_path {train} are all NOT\n")
    assert not (out / "pu_report.csv").exists() and not multiprocessing.active_children()


BOM = b"\xef\xbb\xbf"


def test_bom_train_file_reads_as_without(tmp_path, capsys):
    config, out = write_config(tmp_path)
    assert cli.main(["preprocess", "--config", str(config)]) == 0
    plain = (out / "clean.tsv").read_bytes(), (out / "vocab.txt").read_bytes()
    (tmp_path / "train.tsv").write_bytes(BOM + OLID_FIXTURE.encode("utf-8"))
    assert cli.main(["preprocess", "--config", str(config)]) == 0
    assert ((out / "clean.tsv").read_bytes(), (out / "vocab.txt").read_bytes()) == plain


def test_bom_predictions_file_is_read(tmp_path, capsys):
    config = write_predictions(tmp_path, ALL_OFF)
    predictions = tmp_path / "predictions.csv"
    predictions.write_bytes(BOM + predictions.read_bytes())
    assert cli.main(["evaluate", "--config", str(config)]) == 0
    assert "macro-F1" in capsys.readouterr().out


def test_bom_config_is_read(tmp_path, capsys):
    config, out = write_config(tmp_path)
    config.write_bytes(BOM + config.read_bytes())
    assert cli.main(["preprocess", "--config", str(config)]) == 0
    assert json.loads((out / "run.json").read_text())["config"]["data"]["task"] == "a"


def test_non_utf8_byte_after_a_bom_counts_the_bom_in_its_offset(tmp_path, capsys):
    good = OLID_FIXTURE.encode("utf-8")
    offset = good.rindex(b"\n", 0, len(good) - 1) + 1
    (tmp_path / "train.tsv").write_bytes(BOM + good[:offset] + b"\xff" + good[offset:])
    config, _ = write_config(tmp_path)
    assert cli.main(["preprocess", "--config", str(config)]) == 1
    path = tmp_path / "train.tsv"
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text: byte 0xff at offset {offset + 3}\n"


@pytest.mark.parametrize("text, message", [
    ("", "no word vectors"),
    ("tok 0.1 0.2\n 0.3 0.4\n", "line 2: empty token ''"),
    ("tok 0.1 0.2 0.3\n", "3-component vectors do not fit embeddings.dim 2"),
])
def test_unusable_external_embedding_names_its_file(tmp_path, capsys, text, message):
    path = tmp_path / "vectors.txt"
    path.write_text(text, encoding="utf-8")
    config, _ = write_config(tmp_path, **{"embeddings.source": "external_file", "embeddings.path": str(path),
                                          "embeddings.dim": 2})
    assert cli.main(["train", "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_fasttext_word_without_ngrams_in_the_range_names_the_file_and_range(tmp_path, capsys):
    # the file stores no n-gram range; under 7..8 a vocabulary word such as '<you>' has none
    path = tmp_path / "fasttext.txt"
    path.write_text("1 2 2\ntok 0.1 0.2\n0.3 0.4\n0.5 0.6\n", encoding="utf-8")
    config, _ = write_config(tmp_path, **{"embeddings.source": "external_file", "embeddings.path": str(path),
                                          "embeddings.dim": 2, "embeddings.min_ngram": 7, "embeddings.max_ngram": 8})
    assert cli.main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {re.escape(str(path))}: word '[^']+' has no vector constituents under "
                        f"embeddings.min_ngram 7 and embeddings.max_ngram 8\n", err)


@pytest.mark.parametrize("command, key", [
    ("preprocess", "data.train_path"), ("evaluate", "data.test_path"), ("evaluate", "evaluate.predictions"),
    ("predict", "predict.vocab"), ("predict", "predict.model"),
])
def test_missing_input_names_its_key(tmp_path, capsys, command, key):
    corpus.build_vocab([["a"]]).save(tmp_path / "vocab.txt")
    config, _ = write_config(tmp_path, **{"predict.vocab": str(tmp_path / "vocab.txt"), key: str(tmp_path / "missing")})
    assert cli.main([command, "--config", str(config)]) == 1
    assert capsys.readouterr().err == f"error: config key {key} must name a file, got '{tmp_path / 'missing'}'\n"


def test_vocabulary_that_does_not_fit_the_model_is_named(tmp_path, capsys):
    config, out = write_config(tmp_path, **{"model.max_epochs": 1})
    assert cli.main(["train", "--config", str(config)]) == 0
    other = tmp_path / "other_vocab.txt"
    other.write_text("<pad>\n<unk>\nonly\n", encoding="utf-8")
    pred_config, _ = write_config(tmp_path, out_name="pred", **{"predict.model": str(out / "model.bin"),
                                                                "predict.vocab": str(other)})
    assert cli.main(["predict", "--config", str(pred_config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'model.bin'}: vocabulary hash mismatch") and f" of {other})" in err


def test_gold_file_errors_name_it(tmp_path, capsys):
    gold = tmp_path / "gold.tsv"
    gold.write_text(OLID_FIXTURE.replace("\n2\t", "\n2x\t"), encoding="utf-8")
    config = write_predictions(tmp_path, ALL_OFF)
    config.write_text(config.read_text().replace(str(tmp_path / "train.tsv"), str(gold)), encoding="utf-8")
    assert cli.main(["evaluate", "--config", str(config)]) == 1
    assert f"1 of 20 gold ids have no prediction (first: '2x' in data.test_path {gold})" in capsys.readouterr().err
    gold.write_text("id\ttweet\tsubtask_a\n1\thello\tNOT\n", encoding="utf-8")
    assert cli.main(["evaluate", "--config", str(config), "--task", "b"]) == 1
    assert capsys.readouterr().err == f"error: data.test_path {gold} holds no task b records\n"


# one mutated input per example: input -> (its config key, the command that reads it)
FUZZED_INPUTS = {
    "train.tsv": ("data.train_path", "preprocess"),
    "test.tsv": ("data.test_path", "evaluate"),
    "vocab.txt": ("predict.vocab", "predict"),
    "model.bin": ("predict.model", "predict"),
    "vectors.txt": ("embeddings.path", "train"),
    "predictions.csv": ("evaluate.predictions", "evaluate"),
    "config.json": (None, None),
}
# every command reads the config; none of these runs long at the fuzzed config's sizes
CONFIG_COMMANDS = ["preprocess", "stats", "resample-report", "embed-train", "train", "tune-pu", "evaluate", "predict"]
# deleting one of these keys would run the command at its full-size default
FULL_SIZE_DEFAULTS = {"embeddings.buckets", "embeddings.dim", "embeddings.epochs", "baseline.grid", "baseline.folds",
                      "baseline.n_trees"}
PIECES = st.one_of(st.binary(min_size=1, max_size=6), st.sampled_from(
    [b"\t", b"\n", b"\r\n", b" ", b",", b'"', b"\x00", b"\xff", BOM, b"nan", b"inf", b"-1", b"0", b"1e308", b"NULL",
     b"OFF", b"TIN", b"<unk>", b"{}", b"[]", b"null"]))
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(-2.0, 2.0),
                        st.sampled_from([float("nan"), float("inf"), 0.5, 1.0]), st.text(max_size=6),
                        st.lists(st.integers(-1, 2), max_size=3), st.just({}))


@st.composite
def byte_edits(draw, data: bytes) -> bytes:
    """data after one to three edits: a replaced, inserted or deleted run of
    bytes, a truncation, or a repeated run."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 16)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "truncate", "repeat"]))
        if kind == "replace":
            data = data[:i] + draw(PIECES) + data[j:]
        elif kind == "insert":
            data = data[:i] + draw(PIECES) + data[i:]
        elif kind == "delete":
            data = data[:i] + data[j:]
        elif kind == "truncate":
            data = data[:i]
        else:
            data = data[:j] + data[i:]
    return data


def _leaves(config: dict, prefix=""):
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}"


@st.composite
def config_edits(draw, config: dict) -> bytes:
    """The config's bytes after one edit: a key set to another JSON value,
    deleted or added, or the bytes edited."""
    config = json.loads(json.dumps(config))
    kind = draw(st.sampled_from(["set", "delete", "add", "bytes"]))
    if kind == "bytes":
        return draw(byte_edits(json.dumps(config, indent=1).encode()))
    keys = [key for key in _leaves(config) if kind != "delete" or key not in FULL_SIZE_DEFAULTS]
    dotted = draw(st.sampled_from(keys))
    if kind == "add":
        dotted = dotted.rsplit(".", 1)[0] + "." + draw(st.sampled_from(["extra", "seed", "lr", "task"]))
    *path, last = dotted.split(".")
    node = config
    for part in path:
        node = node[part]
    if kind == "delete":
        del node[last]
    else:
        node[last] = draw(JSON_VALUES)
    return json.dumps(config).encode()


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """(directory of good inputs, the config that reads them) for the fuzz test."""
    base = tmp_path_factory.mktemp("fuzz")
    config, out = write_config(base, **{"model.max_epochs": 1, "baseline.grid": [0.0, 1.0], "baseline.folds": 2,
                                        "baseline.n_trees": 2})
    (base / "test.tsv").write_text(OLID_FIXTURE, encoding="utf-8")
    for command in ("embed-train", "train"):
        assert cli.main([command, "--config", str(config)]) == 0
    good = json.loads(config.read_text())
    good["data"]["test_path"] = str(base / "test.tsv")
    good["embeddings"].update(source="external_file", path=str(base / "vectors.txt"))
    good["predict"] = {"model": str(base / "model.bin"), "vocab": str(base / "vocab.txt")}
    good["evaluate"] = {"predictions": str(base / "predictions.csv")}
    for name in ("vocab.txt", "model.bin"):
        os.replace(out / name, base / name)
    os.replace(out / "fasttext.txt", base / "vectors.txt")
    config.write_text(json.dumps(good), encoding="utf-8")
    assert cli.main(["predict", "--config", str(config)]) == 0
    os.replace(out / "predictions.csv", base / "predictions.csv")
    return base, good


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_fuzzed_input_ends_in_success_or_a_named_error(fuzz_inputs, data):
    base, good = fuzz_inputs
    name = data.draw(st.sampled_from(sorted(FUZZED_INPUTS)))
    key, command = FUZZED_INPUTS[name]
    config = json.loads(json.dumps(good))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config["output"]["dir"] = str(tmp / "out")
        path = tmp / name
        if key is None:  # a config error names the file or the key at fault
            command = data.draw(st.sampled_from(CONFIG_COMMANDS))
            mutated = data.draw(config_edits(config))
            named = [str(path), "config key ", *_leaves(good)]
        else:
            section, last = key.split(".")
            config[section][last] = str(path)
            mutated = data.draw(byte_edits((base / name).read_bytes()))
            named = [str(path)]
            (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        path.write_bytes(mutated)
        stderr = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)  # a mutated output.dir lands in the example's directory
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main([command, "--config", str(tmp / "config.json")])
        finally:
            os.chdir(cwd)
    err = stderr.getvalue()
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert code == 0 or (code == 1 and len(errors) == 1 and any(n in errors[0] for n in named)), (name, command, err)
    assert not multiprocessing.active_children()
