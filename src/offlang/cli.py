"""Batch command-line driver: reproducible preprocessing, training, transfer,
prediction, evaluation, and tuning runs. Every artifact-writing command
records a run.json sufficient to replay it.
"""

import argparse
import csv
import json
import math
import os
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path

# One BLAS thread over any value set, as another count can change a trained model's bytes;
# numpy's BLAS reads these on load, so a program that imported numpy first keeps its own.
_BLAS_THREADS = None
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))
    _BLAS_THREADS = 1

import numpy as np

from . import __version__, baseline, corpus, embeddings, gradcheck, hpo, metrics, model, resample

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with corpus.open_text(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object, got {type(config).__name__}")
    return config


def cfg(config: dict, dotted: str, default=_REQUIRED):
    node = config
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"config is missing required key {dotted!r}")
            return default
        node = node[part]
    return node


@dataclass
class Run:
    """What a config command works from: its config, seed and output
    directory, the task (resolved on first use), and the settings it adds
    to run.json."""

    args: argparse.Namespace
    config: dict
    seed: int
    out: Path
    resolved: dict = field(default_factory=dict)

    @cached_property
    def task(self) -> str:
        task = self.args.task or cfg(self.config, "data.task", None)
        if task is None:
            raise ConfigError("task not given: pass --task or set data.task")
        if not isinstance(task, str) or task.lower() not in corpus.TASK_LABELS:
            raise ConfigError(f"data.task must be one of {', '.join(corpus.TASK_LABELS)}, got {task!r}")
        return task.lower()

    def records(self, key: str = "data.train_path") -> list[corpus.TweetRecord]:
        """The records of the TSV at config key `key`; an error names the path."""
        path = _input(self.config, key)
        with corpus.open_text(path) as fh:
            try:
                return corpus.parse_olid(fh)
            except corpus.CorpusError as exc:
                raise corpus.CorpusError(f"{path}: {exc}") from None


def _runner(command):
    """Wrap command(run) for the CLI: load the config, resolve the seed and
    output directory, run it, and record run.json under the subcommand name."""

    def run_command(args) -> int:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else _at_least(config, "data.seed", 0, 0)
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        out = Path(_scalar(config, "output.dir", str))
        out.mkdir(parents=True, exist_ok=True)
        run = Run(args, config, seed, out)
        command(run)
        payload = {
            "command": args.command,
            "config": config,
            "resolved": run.resolved,
            "seed": seed,
            "blas_threads": _BLAS_THREADS,
            "versions": {"offlang": __version__, "numpy": np.__version__},
        }
        with open(out / "run.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return 0

    return run_command


def _scalar(config: dict, dotted: str, default):
    """Config key `dotted`, which must already have its default's type; a
    type as `default` makes the key required. An int is accepted where a
    float is expected, and read as that float, which must be finite."""
    required = isinstance(default, type)
    kind = default if required else type(default)
    value = cfg(config, dotted, _REQUIRED if required else default)
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"config key {dotted} must be true or false, got {value!r}")
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"config key {dotted} must be {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"config key {dotted} must be finite, got {value!r}")
    return kind(value)


def _input(config: dict, dotted: str) -> str:
    """Config key `dotted`, the path of a file to read, which must exist."""
    path = _scalar(config, dotted, str)
    if not Path(path).is_file():
        raise ConfigError(f"config key {dotted} must name a file, got {path!r}")
    return path


def _at_least(config: dict, dotted: str, default: int, low: int) -> int:
    value = _scalar(config, dotted, default)
    if value < low:
        raise ConfigError(f"config key {dotted} must be >= {low}, got {value}")
    return value


# `_section`'s `fixed` fields, set by the run, and the settings they come from
_RUN_SET = {"model.seed": "data.seed or --seed", "embeddings.seed": "data.seed or --seed",
            "model.embed_dim": "embeddings.dim", "model.output_units": "the task"}


# each `_section` section's keys: the fields of every settings class read from it, and the keys read alone
_SECTION_KEYS = {"model": {f.name for f in fields(model.ModelArch) + fields(model.TrainConfig)},
                 "embeddings": {f.name for f in fields(embeddings.NgramConfig) + fields(embeddings.CbowTrainParams)}
                 | {"source", "path", "dim"}}


def _section(config: dict, name: str, cls, **fixed):
    """`cls` from config section `name`: each field the section sets, read
    by `_scalar` against the field's default, plus the `fixed` fields, which
    the section must not set. A key outside `_SECTION_KEYS` is an error. The
    defaults and range checks live on `cls` alone; a check's message starts
    with its field's name."""
    section = cfg(config, name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config key {name!r} must be an object")
    for key in section:
        if key in fixed:
            raise ConfigError(f"config key {name}.{key} must not be set; {_RUN_SET[f'{name}.{key}']} supplies it")
        if key not in _SECTION_KEYS[name]:
            raise ConfigError(f"config key {name}.{key} must name a known {name} setting")
    values = {f.name: _scalar(config, f"{name}.{f.name}", f.default) for f in fields(cls) if f.name in section}
    try:
        return cls(**fixed, **values)
    except ValueError as exc:
        raise ConfigError(f"config key {name}.{exc}") from None


def _embed_dim(config: dict) -> int:
    return _at_least(config, "embeddings.dim", model.ModelArch.embed_dim, 1)


_DEFAULT_PU = {"a": 0.3, "b": 0.2, "c": 0.7}


def _p_u(run: Run) -> float:
    p_u = _scalar(run.config, "resample.p_u", _DEFAULT_PU[run.task])
    if not 0.0 <= p_u <= 1.0:
        raise ConfigError(f"config key resample.p_u must be in [0, 1], got {p_u}")
    return p_u


def _grid(config: dict) -> list:
    grid = cfg(config, "baseline.grid", [round(0.1 * i, 1) for i in range(11)])
    if not (isinstance(grid, list) and grid and all(type(p) in (int, float) and 0 <= p <= 1 for p in grid)):
        raise ConfigError(f"config key baseline.grid must be a non-empty list of numbers in [0, 1], got {grid!r}")
    return grid


def _tokens(records) -> list[list[str]]:
    return [corpus.tokenize(r.clean_text) for r in records]


def _task_records(run: Run, records) -> list[corpus.TweetRecord]:
    """The records labelled for the run's task; rebalancing them needs two classes."""
    task = run.task
    records = corpus.filter_task(records, task)
    classes = {r.label_for(task) for r in records}
    if len(classes) < 2:
        path = _scalar(run.config, "data.train_path", str)
        found = (f"every task {task} record in data.train_path {path} is {classes.pop()}" if classes
                 else f"data.train_path {path} holds no task {task} records")
        raise ConfigError(f"task {task} needs at least two classes to rebalance, but {found}")
    return records


def _setup(run: Run, records, vocab, seq_len: int):
    """(train set, validation set, TrainConfig) of a training run, read before
    any model is built. Each class of the task's encoded records gives
    round(data.val_fraction * its size) random rows to validation, and the
    train set is rebalanced to resample.p_u."""
    train_cfg = _section(run.config, "model", model.TrainConfig, seed=run.seed)
    task = run.task
    records = _task_records(run, records)
    examples = corpus.Examples(*corpus.encode_records(records, vocab, seq_len), corpus.label_indices(records, task))
    val_fraction = _scalar(run.config, "data.val_fraction", 0.2)
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"config key data.val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(run.seed)
    val = np.zeros(len(examples), dtype=bool)
    for label in np.unique(examples.label):
        rows = np.flatnonzero(examples.label == label)
        val[rows[rng.permutation(len(rows))][: int(round(len(rows) * val_fraction))]] = True
    if val.all() or not val.any():
        raise ConfigError(f"config key data.val_fraction must leave both splits non-empty; {val_fraction} gives "
                          f"{np.count_nonzero(val)} of the {len(val)} task {task} examples to validation")
    lost = np.setdiff1d(examples.label, examples.label[~val])
    if len(lost):
        raise ConfigError(f"config key data.val_fraction must leave every class in the train split; {val_fraction} "
                          f"gives all task {task} {corpus.TASK_LABELS[task][lost[0]]} examples to validation")
    p_u = _p_u(run)
    train_set, val_set = examples[~val], examples[val]
    train_set = train_set[resample.rebalance(train_set.label, p_u, run.seed)]
    run.resolved.update(task=task, p_u=p_u, train_examples=len(train_set), val_examples=len(val_set),
                        train=asdict(train_cfg))
    return train_set, val_set, train_cfg


def _train_cbow(run: Run, records) -> embeddings.FastTextModel:
    return embeddings.train_cbow(
        _tokens(records),
        _section(run.config, "embeddings", embeddings.NgramConfig),
        _section(run.config, "embeddings", embeddings.CbowTrainParams, seed=run.seed),
        _embed_dim(run.config),
    )


def _from_scratch(run: Run):
    """(model, vocabulary, `_setup`) of a new model; its arch and the setup
    are read before the embedding matrix is made from embeddings.source."""
    records = run.records()
    vocab = corpus.build_vocab(_tokens(records))
    arch = _section(run.config, "model", model.ModelArch,
                    embed_dim=_embed_dim(run.config), output_units=model.head_units(run.task))
    setup = _setup(run, records, vocab, arch.seq_len)
    source = cfg(run.config, "embeddings.source", "cbow")
    if source == "cbow":
        matrix = embeddings.build_embedding_matrix(vocab, _train_cbow(run, records))
    elif source == "external_file":
        path = _input(run.config, "embeddings.path")
        ngrams = _section(run.config, "embeddings", embeddings.NgramConfig)
        vectors = embeddings.load_vectors(path, ngrams)
        try:
            matrix = embeddings.build_embedding_matrix(vocab, vectors)
        except ValueError as exc:  # a word without n-grams in the range, which the file does not store
            raise ConfigError(f"{path}: {exc} under embeddings.min_ngram {ngrams.min_ngram} and "
                              f"embeddings.max_ngram {ngrams.max_ngram}") from None
        if matrix.shape[1] != arch.embed_dim:
            raise ConfigError(f"{path}: {matrix.shape[1]}-component vectors do not fit embeddings.dim {arch.embed_dim}")
    else:
        raise ConfigError(f"embeddings.source must be 'cbow' or 'external_file', got {source!r}")
    return model.build(arch, matrix, run.seed), vocab, setup


def _fit(run: Run, params: model.ModelParams, vocab, setup) -> model.EpochStats:
    """Shared by train and transfer: train on the `_setup` split, and save
    vocab.txt, model.bin and history.csv; returns the best epoch."""
    best, history = model.train(params, *setup)
    vocab.save(run.out / "vocab.txt")
    model.save_model(best, vocab.content_hash(), run.out / "model.bin")
    model.write_history_csv(history, run.out / "history.csv")
    run.resolved["arch"] = asdict(params.arch)
    return model.best_epoch(history)


# ---------------------------------------------------------------------------
# commands

def cmd_preprocess(run: Run) -> None:
    records = run.records()
    corpus.write_clean_tsv(records, run.out / "clean.tsv")
    vocab = corpus.build_vocab(_tokens(records))
    vocab.save(run.out / "vocab.txt")
    print(f"cleaned {len(records)} tweets; vocabulary size {vocab.size}")


def cmd_stats(run: Run) -> None:
    task = run.task
    records = corpus.filter_task(run.records(), task)
    try:
        stats = corpus.user_count_stats(records, task)
    except corpus.CorpusError as exc:  # a class without records
        raise corpus.CorpusError(f"data.train_path {_scalar(run.config, 'data.train_path', str)} holds {exc}") from None
    lines = ["class\tmean\tstd"]
    for name in corpus.TASK_LABELS[task]:
        mean, std = stats[name]
        lines.append(f"{name}\t{mean:.4f}\t{std:.4f}")
    (run.out / "user_count_stats.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))


def cmd_resample_report(run: Run) -> None:
    task = run.task
    labels = [r.label_for(task) for r in _task_records(run, run.records())]
    p_u = _p_u(run)
    before = Counter(labels)
    after = Counter(labels[row] for row in resample.rebalance(labels, p_u, run.seed))
    rows = resample.resample_report(before, after)
    lines = ["class\tbefore\tafter"] + [f"{c}\t{b}\t{a}" for c, b, a in rows]
    (run.out / "resample_report.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"p_u={p_u}")
    print("\n".join(lines))


def cmd_embed_train(run: Run) -> None:
    ft = _train_cbow(run, run.records())
    embeddings.save_fasttext(ft, run.out / "fasttext.txt")
    print(f"trained subword embeddings: {len(ft.tokens)} words, dim {ft.dim}")


def cmd_train(run: Run) -> None:
    params, vocab, setup = _from_scratch(run)
    best = _fit(run, params, vocab, setup)
    r = run.resolved
    r["vocab_size"] = vocab.size
    print(
        f"task {r['task']}: {r['train_examples']} train (p_u={r['p_u']}) / {r['val_examples']} val; "
        f"best epoch {best.epoch}: accuracy {best.val_accuracy:.4f}, macro-F1 {best.val_macro_f1:.4f}"
    )


def cmd_transfer(run: Run) -> None:
    model.check_transfer_task(run.task)
    vocab_path = _input(run.config, "transfer.vocab")
    vocab = corpus.Vocabulary.load(vocab_path)
    source = model.load_model(_input(run.config, "transfer.source_model"), vocab.content_hash(), vocab_path)
    setup = _setup(run, run.records(), vocab, source.arch.seq_len)
    best = _fit(run, model.transfer(source, run.task, run.seed), vocab, setup)
    print(
        f"transferred to task {run.task}: best epoch {best.epoch}, "
        f"accuracy {best.val_accuracy:.4f}, macro-F1 {best.val_macro_f1:.4f}"
    )


def cmd_predict(run: Run) -> None:
    task = run.task
    vocab_path = _input(run.config, "predict.vocab")
    vocab = corpus.Vocabulary.load(vocab_path)
    model_path = _input(run.config, "predict.model")
    params = model.load_model(model_path, vocab.content_hash(), vocab_path)
    if params.arch.output_units != model.head_units(task):
        raise ConfigError(f"{model_path}: a {params.arch.output_units}-unit head does not fit task {task}")
    records = run.records("data.test_path")
    names = corpus.TASK_LABELS[task]
    labels = model.predict(params, *corpus.encode_records(records, vocab, params.arch.seq_len))
    with open(run.out / "predictions.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "label"])
        writer.writerows((r.id, names[y]) for r, y in zip(records, labels))
    print(f"wrote {len(records)} predictions for task {task}")


def cmd_evaluate(run: Run) -> None:
    task = run.task
    names = corpus.TASK_LABELS[task]
    gold_path = _scalar(run.config, "data.test_path", str)
    records = corpus.filter_task(run.records("data.test_path"), task)
    gold = dict(zip((r.id for r in records), corpus.label_indices(records, task).tolist()))
    if not gold:
        raise ConfigError(f"data.test_path {gold_path} holds no task {task} records")
    # ids outside the gold set are ignored: predict labels every record,
    # including those that are NULL for tasks b and c
    predictions_path = _input(run.config, "evaluate.predictions")
    predicted: dict[str, int] = {}
    with corpus.open_text(predictions_path, newline="") as fh:
        rows = csv.reader(fh, strict=True)
        try:
            if next(rows, None) != ["id", "label"]:
                raise ConfigError(f"{predictions_path}: expected header id,label")
            for parts in rows:
                where = f"{predictions_path}:{rows.line_num}"
                if len(parts) != 2:
                    raise ConfigError(f"{where}: expected 2 fields, got {len(parts)}")
                rid, label = parts
                if label not in names:
                    raise ConfigError(
                        f"{where}: unknown label {label!r} for task {task}; expected one of {', '.join(names)}"
                    )
                if rid in predicted:
                    raise ConfigError(f"{where}: duplicate prediction id {rid!r}")
                predicted[rid] = names.index(label)
        except csv.Error as exc:
            raise ConfigError(f"{predictions_path}:{rows.line_num}: {exc}") from None
    missing = [rid for rid in gold if rid not in predicted]
    if missing:
        raise ConfigError(
            f"{predictions_path}: {len(missing)} of {len(gold)} gold ids have no prediction "
            f"(first: {missing[0]!r} in data.test_path {gold_path})"
        )

    y_true = list(gold.values())
    y_pred = [predicted[rid] for rid in gold]
    report = metrics.prf_macro(metrics.confusion(y_true, y_pred, len(names)), names)
    report.write_csv(run.out / "metrics.csv")
    print(report.format_table())


def cmd_tune_pu(run: Run) -> None:
    task = run.task
    grid = _grid(run.config)
    folds = _at_least(run.config, "baseline.folds", 5, 2)
    n_trees = _at_least(run.config, "baseline.n_trees", 100, 1)
    records = _task_records(run, run.records())
    tokens = _tokens(records)
    X = baseline.bow_matrix(tokens, corpus.build_vocab(tokens))
    y = corpus.label_indices(records, task)

    # checked before cv_select_pu forks its cells, so that each error names the setting or the file and the class
    most = len(y) // (int(y.max()) + 1)
    if folds > most:
        raise ConfigError(f"config key baseline.folds must be <= {most} for {len(y)} task {task} records, got {folds}")
    fold_of = baseline.cv_folds(len(y), folds, run.seed)
    for fold in range(folds):
        # the classes present, as np.unique gives them, without importing numpy.ma
        left = [corpus.TASK_LABELS[task][label] for label in np.flatnonzero(np.bincount(y[fold_of != fold]))]
        if len(left) < 2:
            path = _scalar(run.config, "data.train_path", str)
            raise ConfigError(f"task {task} needs at least two classes to rebalance, but the training rows of fold "
                              f"{fold} of {folds} in data.train_path {path} are all {left[0]}")
    best, candidates = baseline.cv_select_pu(X, y, grid=grid, folds=folds, n_trees=n_trees, seed=run.seed)
    baseline.write_pu_report(candidates, run.out / "pu_report.csv")
    for c in candidates:
        print(f"p_u={c.p_u}  mean macro-F1 {c.mean_macro_f1:.4f}")
    print(f"selected p_u={best}")


def cmd_tune_hparams(run: Run) -> None:
    n_init = _at_least(run.config, "hpo.n_init", 3, 1)
    n_iter = _at_least(run.config, "hpo.n_iter", 10, 0)
    initial, _, (train_set, val_set, base) = _from_scratch(run)
    space = hpo.SearchSpace.default()

    def objective(point: dict[str, float]) -> float:
        trial = replace(base, lr=point["lr"], weight_decay=point["weight_decay"], max_epochs=1)
        _, history = model.train(initial.copy(), train_set, val_set, trial)
        return 1.0 - history[-1].val_accuracy

    result = hpo.bo_loop(objective, space, n_init=n_init, n_iter=n_iter, seed=run.seed)
    hpo.write_bo_trace(result, space, run.out / "bo_trace.csv")
    print(
        f"best: lr={result.best_params['lr']:.6g} "
        f"weight_decay={result.best_params['weight_decay']:.6g} "
        f"objective={result.best_objective:.4f}"
    )


def cmd_gradcheck(args) -> int:
    results = gradcheck.run_all(n_seeds=args.seeds, tolerance=args.tolerance)
    ok = True
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}  {r.name:<24} max rel err {r.max_error:.3e} (tol {r.tolerance:.0e})")
        ok &= r.passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offlang",
        description="Offensive-language classification pipeline (OLID tasks a/b/c).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, command, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--task", choices=["a", "b", "c"], help="OLID subtask")
        p.add_argument("--seed", type=int, default=None, help="override data.seed")
        p.set_defaults(fn=_runner(command))

    add("preprocess", cmd_preprocess, "clean an OLID file; write clean.tsv and vocab.txt")
    add("stats", cmd_stats, "per-class user-count mean/std table")
    add("resample-report", cmd_resample_report, "before/after class counts for the p_u plan")
    add("embed-train", cmd_embed_train, "train CBOW subword embeddings; save text model")
    add("train", cmd_train, "split, rebalance, embed, and train a task model")
    add("transfer", cmd_transfer, "reuse a task-A trunk for task b/c and train")
    add("predict", cmd_predict, "label a test file with a trained model")
    add("evaluate", cmd_evaluate, "score a predictions CSV against gold labels")
    add("tune-pu", cmd_tune_pu, "cross-validated selection of the resampling p_u")
    add("tune-hparams", cmd_tune_hparams, "Bayesian optimization of lr and weight decay")

    g = sub.add_parser("gradcheck", help="finite-difference checks for every layer")
    g.add_argument("--seeds", type=int, default=20)
    g.add_argument("--tolerance", type=float, default=1e-4)
    g.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, corpus.CorpusError, model.ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
