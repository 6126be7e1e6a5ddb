"""Full classifier: embedding -> spatial dropout -> BiLSTM -> conv -> pooled
features -> two dense layers, with training, early stopping, trunk-sharing
transfer to the other tasks, and a binary serialization format.
"""

import json
import struct
from dataclasses import asdict, dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import nn
from .corpus import EncodedExample
from .metrics import accuracy, confusion, prf_macro

MODEL_MAGIC = b"OFLG1"


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
                raise ModelError(f"{name} must be positive")
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
    loss: str = "cross_entropy"  # cross_entropy | weighted_cross_entropy | soft_f1
    freeze_trunk: bool = False

    def __post_init__(self):
        if self.lr <= 0:
            raise ModelError("learning rate must be positive")
        if self.patience < 1:
            raise ModelError("patience must be >= 1")
        if self.loss not in ("cross_entropy", "weighted_cross_entropy", "soft_f1"):
            raise ModelError(f"unknown loss {self.loss!r}")


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

    def trunk_params(self) -> list[nn.Param]:
        return [self.tensors[name] for name in TRUNK_NAMES]

    def head_params(self) -> list[nn.Param]:
        return [self.tensors[name] for name in HEAD_NAMES]

    def all_params(self) -> list[nn.Param]:
        return list(self.tensors.values())

    def zero_grads(self) -> None:
        for p in self.all_params():
            p.zero_grad()

    def copy(self) -> "ModelParams":
        return ModelParams(self.arch, {name: p.copy() for name, p in self.tensors.items()})

    def snapshot(self) -> list[np.ndarray]:
        return [p.values.copy() for p in self.all_params()]

    def restore(self, snapshot: list[np.ndarray]) -> None:
        for p, values in zip(self.all_params(), snapshot):
            p.values[...] = values


def layer_param_counts(arch: ModelArch, vocab_size: int) -> list[tuple[str, tuple, int]]:
    """Per-layer (name, output shape, parameter count) rows, summary-style."""
    two_h = 2 * arch.hidden
    t_out = arch.seq_len - arch.kernel + 1
    return [
        ("embedding", (arch.seq_len, arch.embed_dim), vocab_size * arch.embed_dim),
        ("spatial_dropout", (arch.seq_len, arch.embed_dim), 0),
        ("bidirectional", (arch.seq_len, two_h), 2 * nn.lstm_param_count(arch.embed_dim, arch.hidden)),
        ("conv", (t_out, arch.filters), nn.conv_param_count(arch.kernel, two_h, arch.filters)),
        ("max_pooling", (arch.filters,), 0),
        ("average_pooling", (arch.filters,), 0),
        ("concatenate", (2 * arch.filters,), 0),
        ("dense", (arch.ffnn_hidden,), nn.dense_param_count(arch.feature_dim, arch.ffnn_hidden)),
        ("dense", (arch.output_units,), nn.dense_param_count(arch.ffnn_hidden, arch.output_units)),
    ]


def total_param_count(arch: ModelArch, vocab_size: int) -> int:
    return sum(count for _, _, count in layer_param_counts(arch, vocab_size))


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
    trunk = [nn.Param(matrix.copy()), *lstm_fwd.params(), *lstm_bwd.params(),
             nn.Param(kernel), nn.Param(np.zeros(arch.filters))]
    return ModelParams(arch, {**dict(zip(TRUNK_NAMES, trunk)), **_init_head(arch, rng)})


def _init_head(arch: ModelArch, rng: np.random.Generator) -> dict[str, nn.Param]:
    """Glorot-uniform dense weights, drawn dense1 then out, and zero biases."""
    head = []
    for n_in, n_out in ((arch.feature_dim, arch.ffnn_hidden), (arch.ffnn_hidden, arch.output_units)):
        head += [nn.Param(nn.glorot_uniform(rng, (n_out, n_in), n_in, n_out)), nn.Param(np.zeros(n_out))]
    return dict(zip(HEAD_NAMES, head))


def stack_examples(examples: Sequence[EncodedExample]):
    idx = np.array([ex.indices for ex in examples], dtype=np.intp)
    uc = np.array([ex.user_count for ex in examples], dtype=np.float64)
    y = np.array([ex.label for ex in examples], dtype=np.intp)
    return idx, uc, y


def _forward(params: ModelParams, idx, uc, train: bool, rng, dropout_rate: float):
    arch = params.arch
    if idx.max(initial=0) >= params.embedding.values.shape[0]:
        raise ModelError("token index out of embedding range")
    emb = params.embedding.values[idx]
    dropped, mask = nn.spatial_dropout_forward(emb, dropout_rate, train, rng)
    bi, bi_cache = nn.bilstm_forward(dropped, params.lstm("fwd"), params.lstm("bwd"))
    conv, conv_cache = nn.conv1d_forward(bi, params.conv_kernel, params.conv_bias)
    mx, mx_cache = nn.global_max_pool_forward(conv)
    av, av_shape = nn.global_avg_pool_forward(conv)
    feat = nn.concat(mx, av)
    if arch.use_user_count:
        feat = np.concatenate([feat, uc[:, None] / 10.0], axis=1)
    z1, d1_cache = nn.dense_forward(feat, params.dense1_w, params.dense1_b)
    a1 = nn.relu(z1)
    z2, d2_cache = nn.dense_forward(a1, params.out_w, params.out_b)
    if arch.output_units == 1:
        probs = nn.sigmoid(z2[:, 0])
    else:
        probs = nn.softmax(z2)
    cache = (idx, mask, bi_cache, conv_cache, mx_cache, av_shape, z1, d1_cache, d2_cache)
    return probs, cache


def _backward(params: ModelParams, dz2: np.ndarray, cache) -> None:
    arch = params.arch
    idx, mask, bi_cache, conv_cache, mx_cache, av_shape, z1, d1_cache, d2_cache = cache
    da1 = nn.dense_backward(dz2, d2_cache)
    dz1 = nn.relu_backward(da1, z1)
    dfeat = nn.dense_backward(dz1, d1_cache)
    if arch.use_user_count:
        dfeat = dfeat[:, :-1]
    f = arch.filters
    dconv = nn.global_max_pool_backward(dfeat[:, :f], mx_cache)
    dconv += nn.global_avg_pool_backward(dfeat[:, f:], av_shape)
    dbi = nn.conv1d_backward(dconv, conv_cache)
    ddropped = nn.bilstm_backward(dbi, bi_cache)
    demb = nn.spatial_dropout_backward(ddropped, mask)
    np.add.at(params.embedding.grad, idx, demb)


def predict_proba(params: ModelParams, examples: Sequence[EncodedExample], batch_size: int = 256):
    idx, uc, _ = stack_examples(examples)
    return _predict_proba_arrays(params, idx, uc, batch_size)


def _predict_proba_arrays(params: ModelParams, idx, uc, batch_size: int = 256):
    chunks = []
    for start in range(0, len(idx), batch_size):
        probs, _ = _forward(params, idx[start : start + batch_size], uc[start : start + batch_size],
                            train=False, rng=None, dropout_rate=0.0)
        chunks.append(probs)
    return np.concatenate(chunks) if chunks else np.zeros(0)


def labels_from_probs(probs: np.ndarray) -> np.ndarray:
    """p >= 0.5 -> 1 for sigmoid output; argmax (first on ties) for softmax."""
    if probs.ndim == 1:
        return (probs >= 0.5).astype(int)
    return probs.argmax(axis=1)


def predict(params: ModelParams, examples: Sequence[EncodedExample]) -> np.ndarray:
    return labels_from_probs(predict_proba(params, examples))


class EarlyStopper:
    """Stop when the monitored value hasn't improved for `patience` epochs."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best = -np.inf
        self.stale = 0

    def update(self, value: float) -> tuple[bool, bool]:
        if value > self.best:
            self.best = value
            self.stale = 0
            return True, False
        self.stale += 1
        return False, self.stale >= self.patience


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    val_macro_f1: float


def _onehot(y: np.ndarray, k: int) -> np.ndarray:
    out = np.zeros((y.shape[0], k))
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def _loss_and_dz(probs, y_batch, config: TrainConfig, k: int, class_weights):
    """Loss on the probabilities, chained back to the logit gradient."""
    if k == 1:
        if config.loss == "soft_f1":
            loss, dp = nn.soft_f1_loss(probs, y_batch)
        else:
            loss, dp = nn.bce_loss(probs, y_batch, class_weights)
        dz = nn.sigmoid_backward(dp, probs)
        return loss, dz[:, None]
    onehot = _onehot(y_batch, k)
    if config.loss == "soft_f1":
        loss, dprobs = nn.soft_f1_loss(probs, onehot)
    else:
        loss, dprobs = nn.categorical_ce_loss(probs, onehot, class_weights)
    return loss, nn.softmax_backward(dprobs, probs)


def train(
    params: ModelParams,
    train_set: Sequence[EncodedExample],
    val_set: Sequence[EncodedExample],
    config: TrainConfig,
) -> tuple[ModelParams, list[EpochStats]]:
    """Seeded epochs with per-epoch shuffles; early-stops on validation
    accuracy and returns the best epoch's weights plus the full history."""
    if not len(train_set) or not len(val_set):
        raise ModelError("train and validation sets must be non-empty")
    arch = params.arch
    idx, uc, y = stack_examples(train_set)
    val_idx, val_uc, val_y = stack_examples(val_set)
    n_classes = max(arch.output_units, 2)

    class_weights = None
    if config.loss == "weighted_cross_entropy":
        class_weights = nn.balanced_class_weights(y, n_classes)

    trainable = params.head_params() if config.freeze_trunk else params.all_params()
    state = nn.init_adam(trainable)
    rng = np.random.default_rng(config.seed)
    stopper = EarlyStopper(config.patience)
    best_snapshot = params.snapshot()
    history: list[EpochStats] = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(idx))
        losses = []
        for start in range(0, len(order), config.batch_size):
            sel = order[start : start + config.batch_size]
            params.zero_grads()
            probs, cache = _forward(params, idx[sel], uc[sel], True, rng, config.dropout)
            loss, dz2 = _loss_and_dz(probs, y[sel], config, arch.output_units, class_weights)
            _backward(params, dz2, cache)
            nn.adam_step(trainable, state, config.lr, config.weight_decay)
            losses.append(loss)

        val_probs = _predict_proba_arrays(params, val_idx, val_uc)
        val_pred = labels_from_probs(val_probs)
        val_acc = accuracy(val_y, val_pred)
        val_f1 = prf_macro(confusion(val_y, val_pred, n_classes)).macro_f1
        history.append(EpochStats(epoch, float(np.mean(losses)), val_acc, val_f1))

        improved, stop = stopper.update(val_acc)
        if improved:
            best_snapshot = params.snapshot()
        if stop:
            break

    best = params.copy()
    best.restore(best_snapshot)
    return best, history


def write_history_csv(history: Sequence[EpochStats], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_accuracy,val_macro_f1\n")
        for h in history:
            fh.write(f"{h.epoch},{h.train_loss:.10f},{h.val_accuracy:.10f},{h.val_macro_f1:.10f}\n")


def transfer(source: ModelParams, task: str, seed: int) -> ModelParams:
    """Reuse the embedding/BiLSTM/conv trunk; fresh dense head for the task.

    All layers stay trainable; freezing the trunk is a TrainConfig choice.
    """
    task = task.lower()
    if task not in ("b", "c"):
        raise ModelError(f"transfer targets task b or c, got {task!r}")
    arch = replace(source.arch, output_units=1 if task == "b" else 3)
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


def load_model(path, expected_vocab_hash: Optional[str] = None) -> tuple[ModelParams, str]:
    """Read a saved model; errors on a malformed header, truncation, trailing
    bytes, tensors that do not fit the arch, or a vocabulary hash mismatch."""
    with open(path, "rb") as fh:
        magic = fh.read(len(MODEL_MAGIC))
        if magic != MODEL_MAGIC:
            raise ModelError(f"{path}: not a model file (bad magic)")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise ModelError(f"{path}: truncated model file")
        (header_len,) = struct.unpack("<Q", raw_len)
        blob = fh.read(header_len)
        if len(blob) != header_len:
            raise ModelError(f"{path}: truncated model file")
        try:
            header = json.loads(blob.decode("utf-8"))
            vocab_hash = header["vocab_hash"]
            arch = ModelArch(**header["arch"])
            manifest = [(entry["name"], tuple(entry["shape"])) for entry in header["tensors"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelError(f"{path}: malformed model header: {exc!r}") from None

        if expected_vocab_hash is not None and vocab_hash != expected_vocab_hash:
            raise ModelError(
                f"{path}: vocabulary hash mismatch (model {vocab_hash[:12]}…, "
                f"expected {expected_vocab_hash[:12]}…)"
            )
        if sorted(name for name, _ in manifest) != sorted(TENSOR_NAMES):
            raise ModelError(f"{path}: unexpected tensor manifest")

        arrays = {}
        for name, shape in manifest:
            count = int(np.prod(shape)) if shape else 1
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ModelError(f"{path}: truncated model file")
            arrays[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ModelError(f"{path}: trailing bytes after tensor payload")

    params = ModelParams(arch, {name: nn.Param(values) for name, values in arrays.items()})
    # the arch fixes every shape but the vocabulary size, and build() knows them
    embedding = params.embedding.values
    expected = build(arch, np.zeros((len(embedding) if embedding.ndim else 0, arch.embed_dim)), seed=0)
    for (name, p), want in zip(params.tensors.items(), expected.all_params()):
        if p.values.shape != want.values.shape:
            raise ModelError(f"{path}: tensor {name} has shape {p.values.shape}, arch needs {want.values.shape}")
    return params, vocab_hash
