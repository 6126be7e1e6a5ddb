"""Full classifier: embedding -> spatial dropout -> BiLSTM -> conv -> pooled
features -> two dense layers, with training, early stopping, trunk-sharing
transfer to the other tasks, and a binary serialization format.
"""

import json
import math
import os
import struct
from collections import Counter
from contextlib import ExitStack
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from . import nn
from .corpus import PAD_INDEX, Examples
from .metrics import accuracy, confusion, prf_macro
from .pool import forked_helper, forked_map

MODEL_MAGIC = b"OFLG1"
# Rows per inference forward pass. Inference keeps no backward cache, only the
# BiLSTM states, so its memory is small at any chunk size: on a V=21,229
# model, 1,000 rows of 63 tokens, one BLAS thread and 2 cores, the caller's
# tracemalloc peak in `_predict_proba_arrays` was 14 MiB at 32 rows, 56 MiB at
# 128 and 111 MiB at 256; its forked worker peaked at 78, 119 and 175 MB RSS
# (RUSAGE_CHILDREN, pages shared with the caller included). All took 1.3-1.6
# s, against 1.6-1.8 s in the caller alone. Chunks of 128 or 256 rows change
# probabilities by up to 1.1e-16 (BLAS blocks differ with the row count), so
# the chunk stays at the 32 rows every saved prediction and validation score
# was made with.
PREDICT_BATCH = 32
# Adam gathers the embedding rows hit so far while they are at most this share
# of the table. Past it the gather and write-back cost more than the full
# in-place update: on a 21,229 x 100 table, one BLAS thread, the gather path
# took 0.7x the full update's time at 30% of rows, 0.9-1.1x at 40%, 2x at 100%.
ADAM_GATHER_MAX_SHARE = 1 / 3


class ModelError(ValueError):
    """Raised for architecture mismatches and malformed model files."""


@dataclass
class ModelArch:
    seq_len: int = 63
    embed_dim: int = 100
    hidden: int = 128  # per direction; Table-style parameter counts need 128
    kernel: int = 2
    filters: int = 64
    ffnn_hidden: int = 10
    output_units: int = 1
    use_user_count: bool = False

    def __post_init__(self):
        for name in ("seq_len", "embed_dim", "hidden", "kernel", "filters", "ffnn_hidden"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel > self.seq_len:
            raise ModelError(f"kernel must be <= seq_len {self.seq_len}, got {self.kernel}")
        if self.output_units not in (1, 3):
            raise ModelError(f"output_units must be 1 or 3, got {self.output_units}")

    @property
    def feature_dim(self) -> int:
        return 2 * self.filters + (1 if self.use_user_count else 0)


@dataclass
class TrainConfig:
    lr: float = 0.001
    weight_decay: float = 0.0
    dropout: float = 0.5
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 2
    seed: int = 0
    loss: str = "cross_entropy"  # cross_entropy | soft_f1
    freeze_trunk: bool = False

    def __post_init__(self):
        for name in ("batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ModelError(f"lr must be > 0, got {self.lr}")
        if self.weight_decay < 0:
            raise ModelError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.loss not in ("cross_entropy", "soft_f1"):
            raise ModelError(f"loss must be cross_entropy or soft_f1, got {self.loss!r}")


TRUNK_NAMES = (
    "embedding",
    "lstm_fwd_wx", "lstm_fwd_wh", "lstm_fwd_b",
    "lstm_bwd_wx", "lstm_bwd_wh", "lstm_bwd_b",
    "conv_kernel", "conv_bias",
)
HEAD_NAMES = ("dense1_w", "dense1_b", "out_w", "out_b")
TENSOR_NAMES = TRUNK_NAMES + HEAD_NAMES


class ModelParams:
    """All trainable tensors in one dict ordered by TENSOR_NAMES; grads live
    alongside values (nn.Param). Tensors also read as attributes: `params.out_w`."""

    def __init__(self, arch: ModelArch, tensors: dict[str, nn.Param]):
        self.arch = arch
        self.tensors = {name: tensors[name] for name in TENSOR_NAMES}

    def __getattr__(self, name: str) -> nn.Param:
        tensors = self.__dict__.get("tensors", {})
        if name not in tensors:
            raise AttributeError(name)
        return tensors[name]

    def lstm(self, direction: str) -> nn.LstmParams:
        """View of the "fwd" or "bwd" LSTM tensors; grads land in this model."""
        return nn.LstmParams(*(self.tensors[f"lstm_{direction}_{part}"] for part in ("wx", "wh", "b")))

    def all_params(self) -> list[nn.Param]:
        return list(self.tensors.values())

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, {name: p.copy() for name, p in self.tensors.items()})


def tensor_shapes(arch: ModelArch, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """The shape of every tensor `build` makes, by name, without making them."""
    four_h = 4 * arch.hidden
    lstm = {"wx": (four_h, arch.embed_dim), "wh": (four_h, arch.hidden), "b": (four_h,)}
    return {
        "embedding": (vocab_size, arch.embed_dim),
        **{f"lstm_{d}_{part}": shape for d in ("fwd", "bwd") for part, shape in lstm.items()},
        "conv_kernel": (arch.kernel, 2 * arch.hidden, arch.filters),
        "conv_bias": (arch.filters,),
        "dense1_w": (arch.ffnn_hidden, arch.feature_dim),
        "dense1_b": (arch.ffnn_hidden,),
        "out_w": (arch.output_units, arch.ffnn_hidden),
        "out_b": (arch.output_units,),
    }


def layer_param_counts(arch: ModelArch, vocab_size: int) -> list[tuple[str, tuple, int]]:
    """Per-layer (name, output shape, parameter count) rows, summary-style;
    the counts are the sizes of the tensors `build` makes."""
    shapes = tensor_shapes(arch, vocab_size)

    def count(prefix: str) -> int:
        return sum(math.prod(shape) for name, shape in shapes.items() if name.startswith(prefix))

    t_out = arch.seq_len - arch.kernel + 1
    return [
        ("embedding", (arch.seq_len, arch.embed_dim), count("embedding")),
        ("spatial_dropout", (arch.seq_len, arch.embed_dim), 0),
        ("bidirectional", (arch.seq_len, 2 * arch.hidden), count("lstm_")),
        ("conv", (t_out, arch.filters), count("conv_")),
        ("max_pooling", (arch.filters,), 0),
        ("average_pooling", (arch.filters,), 0),
        ("concatenate", (2 * arch.filters,), 0),
        ("dense", (arch.ffnn_hidden,), count("dense1_")),
        ("dense", (arch.output_units,), count("out_")),
    ]


def build(arch: ModelArch, embedding_matrix: np.ndarray, seed: int) -> ModelParams:
    """Initialize all tensors: embedding from the given matrix, Glorot-uniform
    weights elsewhere, zero biases except the LSTM forget gates (= 1)."""
    matrix = np.asarray(embedding_matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != arch.embed_dim:
        raise ModelError(
            f"embedding matrix shape {matrix.shape} incompatible with embed_dim {arch.embed_dim}"
        )
    rng = np.random.default_rng(seed)
    lstm_fwd = nn.init_lstm_params(rng, arch.embed_dim, arch.hidden)
    lstm_bwd = nn.init_lstm_params(rng, arch.embed_dim, arch.hidden)
    two_h = 2 * arch.hidden
    kernel = nn.glorot_uniform(rng, (arch.kernel, two_h, arch.filters), arch.kernel * two_h, arch.filters)
    trunk = [nn.Param(matrix), *lstm_fwd.params(), *lstm_bwd.params(),
             nn.Param(kernel), nn.Param(np.zeros(arch.filters))]
    return ModelParams(arch, {**dict(zip(TRUNK_NAMES, trunk)), **_init_head(arch, rng)})


def _init_head(arch: ModelArch, rng: np.random.Generator) -> dict[str, nn.Param]:
    """Glorot-uniform dense weights, drawn dense1 then out, and zero biases."""
    head = []
    for n_in, n_out in ((arch.feature_dim, arch.ffnn_hidden), (arch.ffnn_hidden, arch.output_units)):
        head += [nn.Param(nn.glorot_uniform(rng, (n_out, n_in), n_in, n_out)), nn.Param(np.zeros(n_out))]
    return dict(zip(HEAD_NAMES, head))


def _forward(params: ModelParams, idx, uc, rng, dropout_rate: float, keep_cache: bool = True, helper=None,
             prefix=None):
    """Class probabilities and the backward cache, which is None without
    `keep_cache` (inference); dropout runs only with an rng. A training
    step's `helper` runs the BiLSTM's backward direction, and an inference
    `prefix` gives the forward direction its first steps' states
    (`nn.bilstm_forward`)."""
    arch = params.arch
    if idx.max(initial=0) >= params.embedding.values.shape[0]:
        raise ModelError("token index out of embedding range")
    emb = params.embedding.values[idx]
    dropped, mask = nn.spatial_dropout_forward(emb, dropout_rate, rng)
    bi, bi_cache = nn.bilstm_forward(dropped, params.lstm("fwd"), params.lstm("bwd"), keep_cache,
                                     helper=helper, prefix=prefix)
    conv, conv_cache = nn.conv1d_forward(bi, params.conv_kernel, params.conv_bias)
    mx, mx_cache = nn.global_max_pool_forward(conv)
    av, av_shape = nn.global_avg_pool_forward(conv)
    feat = np.concatenate([mx, av, uc[:, None] / 10.0] if arch.use_user_count else [mx, av], axis=1)
    z1, d1_cache = nn.dense_forward(feat, params.dense1_w, params.dense1_b)
    a1 = nn.relu(z1)
    z2, d2_cache = nn.dense_forward(a1, params.out_w, params.out_b)
    if arch.output_units == 1:
        probs = nn.sigmoid(z2[:, 0])
    else:
        probs = nn.softmax(z2)
    cache = (idx, mask, bi_cache, conv_cache, mx_cache, av_shape, z1, d1_cache, d2_cache)
    return probs, cache if keep_cache else None


def _head_backward(params: ModelParams, dz2: np.ndarray, cache) -> np.ndarray:
    """Gradients of the dense head; returns the gradient of the pooled features."""
    *_, z1, d1_cache, d2_cache = cache
    da1 = nn.dense_backward(dz2, d2_cache)
    dz1 = nn.relu_backward(da1, z1)
    dfeat = nn.dense_backward(dz1, d1_cache)
    return dfeat[:, :-1] if params.arch.use_user_count else dfeat


def _backward(params: ModelParams, dz2: np.ndarray, cache) -> None:
    idx, mask, bi_cache, conv_cache, mx_cache, av_shape, *_ = cache
    dfeat = _head_backward(params, dz2, cache)
    f = params.arch.filters
    dconv = nn.global_max_pool_backward(dfeat[:, :f], mx_cache)
    dconv += nn.global_avg_pool_backward(dfeat[:, f:], av_shape)
    dbi = nn.conv1d_backward(dconv, conv_cache)
    ddropped = nn.bilstm_backward(dbi, bi_cache)
    demb = nn.spatial_dropout_backward(ddropped, mask)
    np.add.at(params.embedding.grad, idx, demb)


def _pad_states(params: ModelParams, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward LSTM's h and c at each step of one row of a `rows`-row
    all-PAD batch, each (seq_len, hidden). It runs as a batch of the chunk's
    row count, so that each of its GEMMs has the shape the chunk's has."""
    arch = params.arch
    xs = params.embedding.values[np.full((rows, arch.seq_len), PAD_INDEX)]
    c = np.empty((arch.seq_len, arch.hidden))
    h, _ = nn.lstm_forward(xs, params.lstm("fwd"), keep_cache=False, row_c=c)
    return h[0].copy(), c


def _predict_chunk(params: ModelParams, idx, uc, lead, pad_states, rows) -> np.ndarray:
    """The probabilities of rows `rows`. If `pad_states` holds their row
    count, their forward LSTM copies its first p steps from there, p being
    the fewest leading PADs (`lead`) among them."""
    prefix = None
    if len(rows) in pad_states:
        h, c = pad_states[len(rows)]
        p = lead[rows].min()
        prefix = (h[:p], c[:p])
    probs, _ = _forward(params, idx[rows], uc[rows], None, 0.0, keep_cache=False, prefix=prefix)
    return probs


def _predict_proba_arrays(params: ModelParams, idx, uc):
    """Class probabilities of token indices `idx` (N, L) and @USER counts
    `uc` (N,), in forward passes of PREDICT_BATCH rows.

    Rows are front-padded, and every row reads the same PAD input from the
    same zero state, so at its leading PAD steps every row has the forward
    LSTM states of an all-PAD row. The rows of the full chunks are taken
    most-padded first (a stable sort on their count of leading PAD ids); the
    last N mod PREDICT_BATCH rows stay the short last chunk, so each row is
    in a chunk of the row count it has in file order. For each row count
    whose chunks share more steps than seq_len (the steps an all-PAD pass
    runs), an all-PAD row's states are computed once at that row count
    (`_pad_states`), and each of those chunks copies them for its first p
    steps; a lone last chunk never pays for its pass. This holds every
    GEMM's shape, so the probabilities keep their bytes where one row of a
    GEMM does not depend on the call's other rows.

    Under a one-thread BLAS the chunks are spread over forked workers on
    every usable core (`forked_map`); each chunk is the same forward on the
    same rows, so the bytes do not depend on where it ran."""
    n, b = len(idx), PREDICT_BATCH
    if not n:
        return np.zeros(0)
    lead = np.logical_and.accumulate(idx == PAD_INDEX, axis=1).sum(axis=1)
    full = n - n % b
    order = np.concatenate([np.argsort(-lead[:full], kind="stable"), np.arange(full, n)])
    chunks = [order[s : s + b] for s in range(0, n, b)]
    shared = Counter()
    for rows in chunks:
        shared[len(rows)] += lead[rows].min()
    pad_states = {n_rows: _pad_states(params, n_rows)
                  for n_rows, steps in shared.items() if steps > params.arch.seq_len}
    fn = partial(_predict_chunk, params, idx, uc, lead, pad_states)
    sorted_probs = np.concatenate(list(forked_map(fn, chunks, calls_blas=True)))
    probs = np.empty_like(sorted_probs)
    probs[order] = sorted_probs
    return probs


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """p >= 0.5 -> 1 for sigmoid output; argmax (first on ties) for softmax."""
    if probs.ndim == 1:
        return (probs >= 0.5).astype(int)
    return probs.argmax(axis=1)


def predict(params: ModelParams, indices: np.ndarray, user_count: np.ndarray) -> np.ndarray:
    return labels_from_probs(_predict_proba_arrays(params, indices, user_count))


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float


def best_epoch(history: Sequence[EpochStats]) -> EpochStats:
    """The first epoch with the highest validation accuracy: a tie is not a new best."""
    return max(history, key=lambda h: h.val_accuracy)


def head_units(task: str) -> int:
    """Output units of a task's head: one sigmoid unit for a and b, a 3-way softmax for c."""
    return 3 if task == "c" else 1


def _loss_and_dz(probs, y_batch, config: TrainConfig, k: int):
    """Loss on the probabilities (soft-F1 or the head's cross-entropy), chained
    back through the head's sigmoid or softmax to the (B, k) logit gradient."""
    if k == 1:
        target, cross_entropy, head_backward = y_batch, nn.bce_loss, nn.sigmoid_backward
    else:
        target, cross_entropy, head_backward = np.eye(k)[y_batch], nn.categorical_ce_loss, nn.softmax_backward
    loss, dprobs = (nn.soft_f1_loss if config.loss == "soft_f1" else cross_entropy)(probs, target)
    return loss, head_backward(dprobs, probs).reshape(len(probs), k)


def train(
    params: ModelParams,
    train_set: Examples,
    val_set: Examples,
    config: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Seeded epochs with per-epoch shuffles; stops `patience` epochs after
    `best_epoch` and returns that epoch's weights plus the full history.
    A non-finite loss or gradient is a ModelError naming epoch and step.

    From the second step on, the BiLSTM's backward direction runs in a
    forked helper (`pool.forked_helper`) beside the forward one, where the
    gate of forked inference holds (a one-thread BLAS on two or more cores);
    the helper lives for this call, and the bytes do not depend on it."""
    if not len(train_set) or not len(val_set):
        raise ModelError("train and validation sets must be non-empty")
    arch = params.arch
    idx, uc, y = train_set.indices, train_set.user_count, train_set.label
    n_classes = max(arch.output_units, 2)

    trainable = {name: params.tensors[name] for name in (HEAD_NAMES if config.freeze_trunk else TENSOR_NAMES)}
    state = nn.init_adam(list(trainable.values()))
    rng = np.random.default_rng(config.seed)
    history: list[EpochStats] = []
    # The gradient entries the last step wrote, zeroed by the next one: the
    # batch's rows of the embedding, all of every other tensor.
    grad_rows = dict.fromkeys(TENSOR_NAMES, slice(None))
    # An embedding row no batch has hit has zero gradient and zero moments, so
    # the full Adam update leaves it unchanged and Adam needs only the rows hit
    # so far, unless weight decay gives every nonzero row a gradient.
    hit = np.zeros(len(params.embedding.values), dtype=bool)
    helper = None
    with ExitStack() as helpers:  # the helper, once opened, until this call returns or raises
        for epoch in range(1, config.max_epochs + 1):
            order = rng.permutation(len(idx))
            losses = []
            for step, start in enumerate(range(0, len(order), config.batch_size), start=1):
                sel = order[start : start + config.batch_size]
                for name, p in trainable.items():
                    p.grad[grad_rows[name]] = 0.0
                probs, cache = _forward(params, idx[sel], uc[sel], rng, config.dropout, helper=helper)
                loss, dz2 = _loss_and_dz(probs, y[sel], config, arch.output_units)
                if not np.isfinite(loss):
                    raise ModelError(f"non-finite training loss {loss} at epoch {epoch}, step {step}")
                # a frozen trunk needs no gradient, so its backward is skipped
                (_head_backward if config.freeze_trunk else _backward)(params, dz2, cache)
                grad_rows["embedding"] = np.unique(idx[sel])
                for name, p in trainable.items():
                    # one sum per tensor: any inf or nan in it makes the sum non-finite
                    if not np.isfinite(p.grad[grad_rows[name]].sum()):
                        raise ModelError(f"non-finite gradient in {name} at epoch {epoch}, step {step}")
                hit[grad_rows["embedding"]] = True
                gather = not config.weight_decay and np.count_nonzero(hit) <= ADAM_GATHER_MAX_SHARE * len(hit)
                adam_rows = {**grad_rows, "embedding": np.flatnonzero(hit) if gather else slice(None)}
                nn.adam_step(list(trainable.values()), [adam_rows[name] for name in trainable], state,
                             config.lr, config.weight_decay)
                losses.append(loss)
                if epoch == step == 1:  # by now a BLAS that starts its threads on first use has them
                    helper = helpers.enter_context(forked_helper(nn.BackwardDirection()))

            val_pred = predict(params, val_set.indices, val_set.user_count)
            val_acc = accuracy(val_set.label, val_pred)
            val_f1 = prf_macro(confusion(val_set.label, val_pred, n_classes)).macro_f1
            history.append(EpochStats(epoch, float(np.mean(losses)), val_acc, val_f1))

            top = best_epoch(history)
            if top.epoch == epoch:
                best = params.copy()
            elif epoch - top.epoch >= config.patience:
                break

    return best, history


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_accuracy,val_macro_f1\n")
        for h in history:
            fh.write(f"{h.epoch},{h.train_loss:.10f},{h.val_accuracy:.10f},{h.val_macro_f1:.10f}\n")


def check_transfer_task(task: str) -> None:
    """Transfer reuses a task-a trunk for a task-b or task-c head."""
    if task not in ("b", "c"):
        raise ModelError(f"transfer targets task b or c, got {task!r}")


def transfer(source: ModelParams, task: str, seed: int) -> ModelParams:
    """Reuse the embedding/BiLSTM/conv trunk; fresh dense head for the task.

    All layers stay trainable; freezing the trunk is a TrainConfig choice.
    """
    check_transfer_task(task)
    arch = replace(source.arch, output_units=head_units(task))
    trunk = {name: source.tensors[name].copy() for name in TRUNK_NAMES}
    return ModelParams(arch, {**trunk, **_init_head(arch, np.random.default_rng(seed))})


def save_model(params: ModelParams, vocab_hash: str, path) -> None:
    """Binary format: magic, little-endian header length, JSON header (arch,
    vocab hash, tensor manifest), then float64 payloads in manifest order."""
    header = {
        "arch": asdict(params.arch),
        "vocab_hash": vocab_hash,
        "tensors": [{"name": name, "shape": list(p.values.shape)} for name, p in params.tensors.items()],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for p in params.all_params():
            fh.write(np.ascontiguousarray(p.values, dtype="<f8").tobytes())


def _shape(value) -> tuple[int, ...]:
    """A manifest shape, which must be a list of non-negative ints."""
    if not isinstance(value, list) or not all(type(d) is int and d >= 0 for d in value):
        raise ValueError(f"shape {value!r} is not a list of non-negative ints")
    return tuple(value)


def _arch(values: dict) -> ModelArch:
    """The header's arch; each field must have its default's type, so a bool
    is never read as an int."""
    arch = ModelArch(**values)
    for f in fields(ModelArch):
        if type(getattr(arch, f.name)) is not type(f.default):
            raise TypeError(f"arch field {f.name} must be {type(f.default).__name__}, got {getattr(arch, f.name)!r}")
    return arch


def load_model(path, expected_vocab_hash: str, vocab_path=None) -> ModelParams:
    """Read a saved model; errors on a malformed header, a length or shape
    that does not fit the bytes left in the file, trailing bytes, tensors that
    do not fit the arch, NaN or inf values, or a vocabulary hash mismatch
    (which names the vocabulary file `vocab_path`, if given)."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int) -> bytes:
            if n > size - fh.tell():
                raise ModelError(f"{path}: truncated model file")
            return fh.read(n)

        if fh.read(len(MODEL_MAGIC)) != MODEL_MAGIC:
            raise ModelError(f"{path}: not a model file (bad magic)")
        (header_len,) = struct.unpack("<Q", read(8))
        blob = read(header_len)
        try:
            header = json.loads(blob.decode("utf-8"))
            vocab_hash = header["vocab_hash"]
            if not isinstance(vocab_hash, str):
                raise TypeError(f"vocab_hash {vocab_hash!r} is not a string")
            arch = _arch(header["arch"])
            manifest = [(entry["name"], _shape(entry["shape"])) for entry in header["tensors"]]
            if sorted(name for name, _ in manifest) != sorted(TENSOR_NAMES):
                raise ValueError("unexpected tensor manifest")
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"{path}: malformed model header: {exc!r}") from None

        if vocab_hash != expected_vocab_hash:
            raise ModelError(
                f"{path}: vocabulary hash mismatch (model {vocab_hash[:12]}…, "
                f"expected {expected_vocab_hash[:12]}…{f' of {vocab_path}' if vocab_path else ''})"
            )
        payload, left = sum(8 * math.prod(shape) for _, shape in manifest), size - fh.tell()
        if payload != left:
            problem = "truncated model file" if payload > left else "trailing bytes after tensor payload"
            raise ModelError(f"{path}: {problem}")
        # the arch fixes every shape but the vocabulary size; the shapes are
        # compared before anything is allocated
        embedding = dict(manifest)["embedding"]
        expected = tensor_shapes(arch, embedding[0] if embedding else 0)
        for name, shape in manifest:
            if shape != expected[name]:
                raise ModelError(f"{path}: tensor {name} has shape {shape}, arch needs {expected[name]}")
        tensors = {}
        for name, shape in manifest:
            values = np.frombuffer(fh.read(8 * math.prod(shape)), dtype="<f8").reshape(shape)
            if not np.isfinite(values).all():
                raise ModelError(f"{path}: tensor {name} holds NaN or inf values")
            tensors[name] = nn.Param(values)
    return ModelParams(arch, tensors)
