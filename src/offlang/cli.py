"""Batch command-line driver: reproducible preprocessing, training, transfer,
prediction, evaluation, and tuning runs. Every artifact-writing command
records a run.json sufficient to replay it.
"""

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, baseline, corpus, embeddings, gradcheck, hpo, metrics, model, resample

_REQUIRED = object()


class ConfigError(ValueError):
    pass


def load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None


def cfg(config: dict, dotted: str, default=_REQUIRED):
    node = config
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            if default is _REQUIRED:
                raise ConfigError(f"config is missing required key {dotted!r}")
            return default
        node = node[part]
    return node


def _out_dir(config: dict) -> Path:
    path = Path(cfg(config, "output.dir"))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_run_json(out: Path, command: str, config: dict, seed: int, resolved: dict | None = None) -> None:
    payload = {
        "command": command,
        "config": config,
        "resolved": resolved or {},
        "seed": seed,
        "versions": {"offlang": __version__, "numpy": np.__version__},
    }
    with open(out / "run.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_records(config: dict, key: str = "data.train_path"):
    path = cfg(config, key)
    with open(path, encoding="utf-8") as fh:
        return corpus.parse_olid(fh)


def _resolve_seed(args, config: dict) -> int:
    if args.seed is not None:
        return args.seed
    return int(cfg(config, "data.seed", 0))


def _resolve_task(args, config: dict) -> str:
    task = args.task or cfg(config, "data.task", None)
    if task is None:
        raise ConfigError("task not given: pass --task or set data.task")
    return task.lower()


def _stratified_split(examples, val_fraction: float, seed: int):
    if not 0.0 < val_fraction < 1.0:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    by_class: dict[int, list[int]] = {}
    for i, ex in enumerate(examples):
        by_class.setdefault(ex.label, []).append(i)
    train_idx, val_idx = [], []
    for label in sorted(by_class):
        rows = np.array(by_class[label])
        rows = rows[rng.permutation(len(rows))]
        n_val = int(round(len(rows) * val_fraction))
        val_idx.extend(rows[:n_val].tolist())
        train_idx.extend(rows[n_val:].tolist())
    train_idx.sort()
    val_idx.sort()
    return [examples[i] for i in train_idx], [examples[i] for i in val_idx]


def _ngram_config(config: dict) -> embeddings.NgramConfig:
    return embeddings.NgramConfig(
        n_min=int(cfg(config, "embeddings.min_ngram", 3)),
        n_max=int(cfg(config, "embeddings.max_ngram", 6)),
        buckets=int(cfg(config, "embeddings.buckets", 100_000)),
    )


def _cbow_params(config: dict, seed: int) -> embeddings.CbowTrainParams:
    return embeddings.CbowTrainParams(
        window=int(cfg(config, "embeddings.window", 5)),
        negatives=int(cfg(config, "embeddings.negatives", 5)),
        epochs=int(cfg(config, "embeddings.epochs", 5)),
        lr=float(cfg(config, "embeddings.lr", 0.025)),
        subsample=float(cfg(config, "embeddings.subsample", 1e-4)),
        seed=seed,
    )


def _embedding_matrix(config: dict, records, vocab, seed: int) -> np.ndarray:
    source = cfg(config, "embeddings.source", "cbow")
    if source == "cbow":
        token_lists = [corpus.tokenize(r.clean_text) for r in records]
        ft = embeddings.train_cbow(
            token_lists,
            _ngram_config(config),
            _cbow_params(config, seed),
            dim=int(cfg(config, "embeddings.dim", 100)),
        )
        return embeddings.build_embedding_matrix(vocab, ft)
    if source == "external_file":
        path = cfg(config, "embeddings.path")
        with open(path, encoding="utf-8") as fh:
            vectors = embeddings.load_text_embeddings(fh)
        return embeddings.build_embedding_matrix(vocab, vectors)
    raise ConfigError(f"embeddings.source must be 'cbow' or 'external_file', got {source!r}")


def _arch(config: dict, task: str, embed_dim: int) -> model.ModelArch:
    return model.ModelArch(
        seq_len=int(cfg(config, "model.seq_len", 63)),
        embed_dim=embed_dim,
        hidden=int(cfg(config, "model.hidden", 128)),
        kernel=int(cfg(config, "model.kernel", 2)),
        filters=int(cfg(config, "model.filters", 64)),
        ffnn_hidden=int(cfg(config, "model.ffnn_hidden", 10)),
        output_units=3 if task == "c" else 1,
        use_user_count=bool(cfg(config, "model.use_user_count", False)),
    )


def _train_config(config: dict, seed: int) -> model.TrainConfig:
    return model.TrainConfig(
        lr=float(cfg(config, "model.lr", 0.001)),
        weight_decay=float(cfg(config, "model.weight_decay", 0.0)),
        dropout=float(cfg(config, "model.dropout", 0.5)),
        batch_size=int(cfg(config, "model.batch_size", 32)),
        max_epochs=int(cfg(config, "model.max_epochs", 10)),
        patience=int(cfg(config, "model.patience", 2)),
        seed=seed,
        loss=cfg(config, "model.loss", "cross_entropy"),
        freeze_trunk=bool(cfg(config, "model.freeze_trunk", False)),
    )


_DEFAULT_PU = {"a": 0.3, "b": 0.2, "c": 0.7}


def _resample_train(examples, config: dict, task: str, seed: int, label_of=lambda ex: ex.label):
    p_u = float(cfg(config, "resample.p_u", _DEFAULT_PU[task]))
    return resample.rebalance(examples, p_u, seed, label_of=label_of), p_u


# ---------------------------------------------------------------------------
# commands

def cmd_preprocess(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config)
    records = _load_records(config)
    corpus.write_clean_tsv(records, out / "clean.tsv")
    vocab = corpus.build_vocab([corpus.tokenize(r.clean_text) for r in records])
    vocab.save(out / "vocab.txt")
    _write_run_json(out, "preprocess", config, _resolve_seed(args, config))
    print(f"cleaned {len(records)} tweets; vocabulary size {vocab.size}")
    return 0


def cmd_stats(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    out = _out_dir(config)
    records = corpus.filter_task(_load_records(config), task)
    stats = corpus.user_count_stats(records, task)
    lines = ["class\tmean\tstd"]
    for name in corpus.TASK_LABELS[task]:
        mean, std = stats[name]
        lines.append(f"{name}\t{mean:.4f}\t{std:.4f}")
    (out / "user_count_stats.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_json(out, "stats", config, _resolve_seed(args, config))
    print("\n".join(lines))
    return 0


def cmd_resample_report(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    seed = _resolve_seed(args, config)
    out = _out_dir(config)
    records = corpus.filter_task(_load_records(config), task)
    labels = [r.label_for(task) for r in records]
    before = resample.class_counts(labels)
    balanced, p_u = _resample_train(records, config, task, seed, label_of=lambda r: r.label_for(task))
    after = resample.class_counts([r.label_for(task) for r in balanced])
    rows = resample.resample_report(before, after)
    lines = ["class\tbefore\tafter"] + [f"{c}\t{b}\t{a}" for c, b, a in rows]
    (out / "resample_report.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_run_json(out, "resample-report", config, seed)
    print(f"p_u={p_u}")
    print("\n".join(lines))
    return 0


def cmd_embed_train(args) -> int:
    config = load_config(args.config)
    seed = _resolve_seed(args, config)
    out = _out_dir(config)
    records = _load_records(config)
    token_lists = [corpus.tokenize(r.clean_text) for r in records]
    ft = embeddings.train_cbow(
        token_lists,
        _ngram_config(config),
        _cbow_params(config, seed),
        dim=int(cfg(config, "embeddings.dim", 100)),
    )
    embeddings.save_fasttext(ft, out / "fasttext.txt")
    _write_run_json(out, "embed-train", config, seed)
    print(f"trained subword embeddings: {len(ft.tokens)} words, dim {ft.dim}")
    return 0


def _prepare_training(config, args):
    """Shared by train and tune-hparams: records -> vocab, arch, splits."""
    task = _resolve_task(args, config)
    seed = _resolve_seed(args, config)
    records = _load_records(config)
    vocab = corpus.build_vocab([corpus.tokenize(r.clean_text) for r in records])
    task_records = corpus.filter_task(records, task)
    arch = _arch(config, task, int(cfg(config, "embeddings.dim", 100)))
    examples = corpus.encode_records(task_records, vocab, task, arch.seq_len)
    val_fraction = float(cfg(config, "data.val_fraction", 0.2))
    train_set, val_set = _stratified_split(examples, val_fraction, seed)
    train_set, p_u = _resample_train(train_set, config, task, seed)
    return records, vocab, arch, train_set, val_set, task, seed, p_u


def cmd_train(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config)
    records, vocab, arch, train_set, val_set, task, seed, p_u = _prepare_training(config, args)
    matrix = _embedding_matrix(config, records, vocab, seed)
    params = model.build(arch, matrix, seed)
    train_cfg = _train_config(config, seed)
    best, history = model.train(params, train_set, val_set, train_cfg)

    vocab.save(out / "vocab.txt")
    model.save_model(best, vocab.content_hash(), out / "model.bin")
    model.write_history_csv(history, out / "history.csv")
    _write_run_json(out, "train", config, seed, resolved={
        "task": task, "p_u": p_u, "arch": asdict(arch), "train": asdict(train_cfg),
        "vocab_size": vocab.size, "train_examples": len(train_set), "val_examples": len(val_set),
    })
    last = max(history, key=lambda h: h.val_accuracy)
    print(
        f"task {task}: {len(train_set)} train (p_u={p_u}) / {len(val_set)} val; "
        f"best epoch {last.epoch}: accuracy {last.val_accuracy:.4f}, macro-F1 {last.val_macro_f1:.4f}"
    )
    return 0


def cmd_transfer(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    if task not in ("b", "c"):
        raise ConfigError("transfer targets task b or c")
    seed = _resolve_seed(args, config)
    out = _out_dir(config)

    vocab = corpus.Vocabulary.load(cfg(config, "transfer.vocab"))
    source, _ = model.load_model(cfg(config, "transfer.source_model"), vocab.content_hash())
    params = model.transfer(source, task, seed)

    records = _load_records(config)
    task_records = corpus.filter_task(records, task)
    examples = corpus.encode_records(task_records, vocab, task, params.arch.seq_len)
    val_fraction = float(cfg(config, "data.val_fraction", 0.2))
    train_set, val_set = _stratified_split(examples, val_fraction, seed)
    train_set, p_u = _resample_train(train_set, config, task, seed)

    train_cfg = _train_config(config, seed)
    best, history = model.train(params, train_set, val_set, train_cfg)
    vocab.save(out / "vocab.txt")
    model.save_model(best, vocab.content_hash(), out / "model.bin")
    model.write_history_csv(history, out / "history.csv")
    _write_run_json(out, "transfer", config, seed, resolved={
        "task": task, "p_u": p_u, "arch": asdict(params.arch), "train": asdict(train_cfg),
    })
    peak = max(history, key=lambda h: h.val_accuracy)
    print(
        f"transferred to task {task}: best epoch {peak.epoch}, "
        f"accuracy {peak.val_accuracy:.4f}, macro-F1 {peak.val_macro_f1:.4f}"
    )
    return 0


def cmd_predict(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    out = _out_dir(config)
    vocab = corpus.Vocabulary.load(cfg(config, "predict.vocab"))
    params, _ = model.load_model(cfg(config, "predict.model"), vocab.content_hash())

    with open(cfg(config, "data.test_path"), encoding="utf-8") as fh:
        records = corpus.parse_olid(fh)
    names = corpus.TASK_LABELS[task]
    encoded = [
        corpus.EncodedExample(
            indices=corpus.encode(corpus.tokenize(r.clean_text), vocab, params.arch.seq_len),
            user_count=r.user_count,
            label=0,
        )
        for r in records
    ]
    labels = model.predict(params, encoded)
    with open(out / "predictions.csv", "w", encoding="utf-8") as fh:
        fh.write("id,label\n")
        for r, y in zip(records, labels):
            fh.write(f"{r.id},{names[int(y)]}\n")
    _write_run_json(out, "predict", config, _resolve_seed(args, config))
    print(f"wrote {len(records)} predictions for task {task}")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    out = _out_dir(config)
    names = corpus.TASK_LABELS[task]
    index = {name: i for i, name in enumerate(names)}

    gold = {
        r.id: index[r.label_for(task)]
        for r in corpus.filter_task(_load_records(config, "data.test_path"), task)
    }
    if not gold:
        raise ConfigError(f"the gold file has no records for task {task}")
    # ids outside the gold set are ignored: predict labels every record,
    # including those that are NULL for tasks b and c
    predictions_path = cfg(config, "evaluate.predictions")
    predicted: dict[str, int] = {}
    with open(predictions_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != ["id", "label"]:
            raise ConfigError(f"{predictions_path}: expected header id,label")
        for line_no, line in enumerate(fh, start=2):
            fields = line.rstrip("\n").split(",")
            if len(fields) != 2:
                raise ConfigError(f"{predictions_path}:{line_no}: expected 2 fields, got {len(fields)}")
            rid, label = fields
            if label not in index:
                raise ConfigError(
                    f"{predictions_path}:{line_no}: unknown label {label!r} for task {task}; "
                    f"expected one of {', '.join(names)}"
                )
            if rid in predicted:
                raise ConfigError(f"{predictions_path}:{line_no}: duplicate prediction id {rid!r}")
            predicted[rid] = index[label]
    missing = [rid for rid in gold if rid not in predicted]
    if missing:
        raise ConfigError(
            f"{predictions_path}: {len(missing)} of {len(gold)} gold ids have no prediction "
            f"(first: {missing[0]!r})"
        )

    y_true = list(gold.values())
    y_pred = [predicted[rid] for rid in gold]
    report = metrics.prf_macro(metrics.confusion(y_true, y_pred, len(names)), names)
    report.write_csv(out / "metrics.csv")
    _write_run_json(out, "evaluate", config, _resolve_seed(args, config))
    print(report.format_table())
    return 0


def cmd_tune_pu(args) -> int:
    config = load_config(args.config)
    task = _resolve_task(args, config)
    seed = _resolve_seed(args, config)
    out = _out_dir(config)
    records = corpus.filter_task(_load_records(config), task)
    vocab = corpus.build_vocab([corpus.tokenize(r.clean_text) for r in records])
    X = baseline.bow_matrix([corpus.tokenize(r.clean_text) for r in records], vocab)
    label_index = {name: i for i, name in enumerate(corpus.TASK_LABELS[task])}
    y = np.array([label_index[r.label_for(task)] for r in records])

    grid = cfg(config, "baseline.grid", [round(0.1 * i, 1) for i in range(11)])
    best, candidates = baseline.cv_select_pu(
        X,
        y,
        grid=grid,
        folds=int(cfg(config, "baseline.folds", 5)),
        n_trees=int(cfg(config, "baseline.n_trees", 100)),
        seed=seed,
    )
    baseline.write_pu_report(candidates, out / "pu_report.csv")
    _write_run_json(out, "tune-pu", config, seed)
    for c in candidates:
        print(f"p_u={c.p_u:.1f}  mean macro-F1 {c.mean_macro_f1:.4f}")
    print(f"selected p_u={best}")
    return 0


def cmd_tune_hparams(args) -> int:
    config = load_config(args.config)
    out = _out_dir(config)
    records, vocab, arch, train_set, val_set, task, seed, _ = _prepare_training(config, args)
    matrix = _embedding_matrix(config, records, vocab, seed)
    space = hpo.SearchSpace.default()

    def objective(point: dict[str, float]) -> float:
        params = model.build(arch, matrix, seed)
        train_cfg = _train_config(config, seed)
        train_cfg.lr = point["lr"]
        train_cfg.weight_decay = point["weight_decay"]
        train_cfg.max_epochs = 1
        _, history = model.train(params, train_set, val_set, train_cfg)
        return 1.0 - history[-1].val_accuracy

    result = hpo.bo_loop(
        objective,
        space,
        n_init=int(cfg(config, "hpo.n_init", 3)),
        n_iter=int(cfg(config, "hpo.n_iter", 10)),
        seed=seed,
    )
    hpo.write_bo_trace(result, space, out / "bo_trace.csv")
    _write_run_json(out, "tune-hparams", config, seed)
    print(
        f"best: lr={result.best_params['lr']:.6g} "
        f"weight_decay={result.best_params['weight_decay']:.6g} "
        f"objective={result.best_objective:.4f}"
    )
    return 0


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

    def add(name, fn, help_text, needs_config=True):
        p = sub.add_parser(name, help=help_text)
        if needs_config:
            p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--task", choices=["a", "b", "c"], help="OLID subtask")
        p.add_argument("--seed", type=int, default=None, help="override data.seed")
        p.add_argument("--deterministic", action="store_true",
                       help="accepted for compatibility; every run is deterministic")
        p.set_defaults(fn=fn)
        return p

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
