"""The three workloads: generated inputs, offlang config, command sequence,
per-sample figures and correctness checks. README.md says why each exists.
"""

import csv
import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

F1_BAR = 0.65  # test macro-F1 the planted signal must reach; one class alone scores about 0.40
# The CLI default is 100,000. Its text save alone took 13-30 s and wrote 224 MB
# per sample on a shared 2-vCPU host, which left one or two samples per run
# and varied with the disk; 20,000 buckets keep every stage of embed-train,
# the save included, at a size that repeats.
FASTTEXT_BUCKETS = 20_000
EMBED_DIM = 100
EMBED_EPOCHS = 1
TUNE_PU = {"grid": [0.0, 0.5, 1.0], "folds": 2, "n_trees": 4}


@dataclass(frozen=True)
class Workload:
    name: str
    gen: dict  # keyword arguments of gen.generate
    commands: tuple[str, ...]  # offlang subcommands, run in order, each with --config
    min_samples: int  # at least two, for the reproducibility checks
    config: Callable[[Path, Path], dict]  # (inputs dir, sample output dir) -> offlang config
    # (sample, inputs summary, out dir) -> (figures, checks, key); the key must
    # agree across the samples of a run, which all use the same inputs
    figures: Callable


def _classify_config(inputs: Path, out: Path) -> dict:
    return {
        "data": {"train_path": str(inputs / "train.tsv"), "test_path": str(inputs / "test.tsv"),
                 "seed": 0, "task": "a"},
        "output": {"dir": str(out)},
        "embeddings": {"source": "external_file", "path": str(inputs / "embedding.txt"), "dim": EMBED_DIM},
        # the published architecture; one epoch at a learning rate that finds the planted signal
        "model": {"seq_len": 63, "hidden": 128, "kernel": 2, "filters": 64, "ffnn_hidden": 10,
                  "batch_size": 32, "max_epochs": 1, "patience": 1, "lr": 0.003, "dropout": 0.2},
        "predict": {"vocab": str(out / "vocab.txt"), "model": str(out / "model.bin")},
        "evaluate": {"predictions": str(out / "predictions.csv")},
    }


def _classify_figures(sample: dict, summary: dict, out: Path):
    train, predict, evaluate = sample["commands"]
    checks = []
    # every command rewrites run.json, so the resampled training-set size comes from train's summary line
    examples = int(re.search(r"(\d+) train \(p_u=", train["stdout"]).group(1))
    epochs = len(_read_csv(out / "history.csv"))
    figures = {
        "train_examples_per_s": examples * epochs / train["wall_s"],
        "predict_examples_per_s": summary["test_tweets"] / predict["wall_s"],
    }
    rows = _read_csv(out / "predictions.csv")
    checks.append(("predictions cover the test file", len(rows) == summary["test_tweets"]))
    match = re.search(r"macro-F1: ([0-9.]+)", evaluate["stdout"])
    if match:
        figures["test_macro_f1"] = float(match.group(1))
    checks.append((f"test macro-F1 >= {F1_BAR}", bool(match) and figures["test_macro_f1"] >= F1_BAR))
    return figures, checks, _sha256(out / "model.bin")


def _embed_config(inputs: Path, out: Path) -> dict:
    return {
        "data": {"train_path": str(inputs / "train.tsv"), "seed": 0},
        "output": {"dir": str(out)},
        # the CLI defaults but for the bucket count, spelled out so a change of
        # default does not change the workload
        "embeddings": {"dim": EMBED_DIM, "window": 5, "negatives": 5, "buckets": FASTTEXT_BUCKETS,
                       "subsample": 1e-4, "min_ngram": 3, "max_ngram": 6, "lr": 0.025, "epochs": EMBED_EPOCHS},
    }


_NUMERIC = b"0123456789.-+eE \n"


def check_fasttext(path: Path, words: int, dim: int, buckets: int):
    """Checks of a saved text model, plus its sha256.

    Header `V B d`, one line per word and bucket, every value a finite
    number: finite floats print with digits, sign, point and exponent only,
    so any other byte in a value (as in `nan` or `inf`) fails the scan.
    """
    lines = spaces = 0
    bad = False
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        header = fh.readline()
        digest.update(header)
        for i, line in enumerate(fh):
            digest.update(line)
            lines += 1
            values = line.split(b" ", 1)[1] if i < words else line
            bad |= bool(values.translate(None, _NUMERIC))
            spaces += line.count(b" ")
    checks = [
        ("fasttext header", header.split() == [str(words).encode(), str(buckets).encode(), str(dim).encode()]),
        ("fasttext row count", lines == words + buckets),
        ("fasttext row width", spaces == words * dim + buckets * (dim - 1)),
        ("fasttext values finite", not bad),
    ]
    return checks, digest.hexdigest()


def _embed_figures(sample: dict, summary: dict, out: Path):
    (embed,) = sample["commands"]
    figures = {"embed_tokens_per_s": summary["train_clean_tokens"] * EMBED_EPOCHS / embed["wall_s"]}
    checks, digest = check_fasttext(out / "fasttext.txt", summary["train_types"], EMBED_DIM, FASTTEXT_BUCKETS)
    return figures, checks, digest


def _tune_pu_config(inputs: Path, out: Path) -> dict:
    return {
        "data": {"train_path": str(inputs / "train.tsv"), "seed": 0, "task": "a"},
        "output": {"dir": str(out)},
        "baseline": TUNE_PU,
    }


def _selected_pu(stdout: str):
    match = re.search(r"selected p_u=([0-9.]+)", stdout)
    return float(match.group(1)) if match else None


def _tune_pu_figures(sample: dict, summary: dict, out: Path):
    (tune,) = sample["commands"]
    rows = _read_csv(out / "pu_report.csv")
    grid = [float(r["p_u"]) for r in rows]
    best = max(rows, key=lambda r: (float(r["mean_macro_f1"]), -float(r["p_u"])))
    selected = _selected_pu(tune["stdout"])
    figures = {
        "trees_per_s": len(TUNE_PU["grid"]) * TUNE_PU["folds"] * TUNE_PU["n_trees"] / tune["wall_s"],
        "cv_macro_f1": float(best["mean_macro_f1"]),
    }
    checks = [
        ("pu_report has one row per grid point", grid == TUNE_PU["grid"]),
        ("selected p_u is the report's best", selected == float(best["p_u"])),
        ("cv macro-F1 finite", math.isfinite(figures["cv_macro_f1"])),
    ]
    return figures, checks, selected


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="classify",
            # OLID-scale corpus (13,240 tweets, ~21k types) of which 900 are
            # labelled: vocabulary, parsing and the 2.1M-entry embedding stay
            # at OLID size while the trained set is cut to fit a run
            gen={"train_tweets": 13_240, "labelled": 900, "test_tweets": 1_000, "embedding_dim": EMBED_DIM},
            commands=("train", "predict", "evaluate"),
            min_samples=2,
            config=_classify_config,
            figures=_classify_figures,
        ),
        Workload(
            name="embed",
            gen={"train_tweets": 2_000},
            commands=("embed-train",),
            min_samples=2,
            config=_embed_config,
            figures=_embed_figures,
        ),
        Workload(
            name="tune-pu",
            gen={"train_tweets": 1_200},
            commands=("tune-pu",),
            min_samples=2,
            config=_tune_pu_config,
            figures=_tune_pu_figures,
        ),
    )
}

# end-to-end metrics: (name, unit, workloads that produce it; None = all)
END_TO_END = (
    ("wall_s", "s", None),
    ("setup_s", "s", None),
    ("peak_rss_mb", "MB", None),
    ("train_examples_per_s", "1/s", ("classify",)),
    ("predict_examples_per_s", "1/s", ("classify",)),
    ("test_macro_f1", "ratio", ("classify",)),
    ("embed_tokens_per_s", "1/s", ("embed",)),
    ("trees_per_s", "1/s", ("tune-pu",)),
    ("cv_macro_f1", "ratio", ("tune-pu",)),
)
