import json

import pytest

from offlang import cli
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
    assert cli.main(["train", "--config", str(config_a), "--deterministic"]) == 0
    assert cli.main(["train", "--config", str(config_b), "--deterministic"]) == 0
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


def test_tune_pu_writes_report(tmp_path, capsys):
    config, out = write_config(
        tmp_path, **{"baseline.grid": [0.0, 1.0], "baseline.folds": 2, "baseline.n_trees": 3}
    )
    assert cli.main(["tune-pu", "--config", str(config), "--task", "a"]) == 0
    lines = (out / "pu_report.csv").read_text().splitlines()
    assert lines[0] == "p_u,fold0,fold1,mean_macro_f1"
    assert len(lines) == 3
    assert "selected p_u=" in capsys.readouterr().out


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
