"""Central finite-difference verification of every hand-derived backward pass.

The numeric side perturbs raw arrays and re-runs the forward; it shares no
code with the analytic gradients it checks. Piecewise-linear layers (ReLU,
max-pool) are probed at inputs resampled away from their kinks, where the
finite-difference quotient is meaningless.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn
from .embeddings import cbow_pair_loss

FD_STEP = 1e-5


def numeric_gradient(f: Callable[[], float], x: np.ndarray, h: float = FD_STEP) -> np.ndarray:
    """Central differences of scalar f() with respect to array x (in place)."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise error: absolute below 1e-8, else |a-n|/(|a|+|n|)."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    diff = np.abs(a - n)
    denom = np.abs(a) + np.abs(n)
    rel = np.where(diff <= 1e-8, 0.0, diff / np.where(denom > 0, denom, 1.0))
    return float(rel.max()) if rel.size else 0.0


def _projection_loss(out: np.ndarray, proj: np.ndarray) -> float:
    return float((out * proj).sum())


def check_dense(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    w = nn.Param(rng.normal(size=(5, 3)))
    b = nn.Param(rng.normal(size=5))
    proj = rng.normal(size=(2, 5))

    def loss() -> float:
        y, _ = nn.dense_forward(x, w, b)
        return _projection_loss(y, proj)

    y, cache = nn.dense_forward(x, w, b)
    dx = nn.dense_backward(proj, cache)
    errs = [
        max_rel_error(dx, numeric_gradient(loss, x)),
        max_rel_error(w.grad, numeric_gradient(loss, w.values)),
        max_rel_error(b.grad, numeric_gradient(loss, b.values)),
    ]
    return max(errs)


def _lstm_case(seed: int, T: int) -> float:
    rng = np.random.default_rng(seed)
    B, d_in, hid = 2, 3, 4
    xs = rng.normal(size=(B, T, d_in))
    params = nn.init_lstm_params(rng, d_in, hid)
    for p in params.params():
        p.values[...] = rng.normal(scale=0.5, size=p.values.shape)
    proj = rng.normal(size=(B, T, hid))

    def loss() -> float:
        hs, _ = nn.lstm_forward(xs, params)
        return _projection_loss(hs, proj)

    hs, cache = nn.lstm_forward(xs, params)
    dxs = nn.lstm_backward(proj, cache)
    errs = [max_rel_error(dxs, numeric_gradient(loss, xs))]
    for p in params.params():
        errs.append(max_rel_error(p.grad, numeric_gradient(loss, p.values)))
    return max(errs)


def check_lstm_cell(seed: int) -> float:
    return _lstm_case(seed, T=1)


def check_lstm_bptt(seed: int) -> float:
    return _lstm_case(seed, T=4)


def check_bilstm(seed: int) -> float:
    rng = np.random.default_rng(seed)
    B, T, d_in, hid = 2, 4, 3, 3
    xs = rng.normal(size=(B, T, d_in))
    fwd = nn.init_lstm_params(rng, d_in, hid)
    bwd = nn.init_lstm_params(rng, d_in, hid)
    for p in fwd.params() + bwd.params():
        p.values[...] = rng.normal(scale=0.5, size=p.values.shape)
    proj = rng.normal(size=(B, T, 2 * hid))

    def loss() -> float:
        out, _ = nn.bilstm_forward(xs, fwd, bwd)
        return _projection_loss(out, proj)

    out, cache = nn.bilstm_forward(xs, fwd, bwd)
    dxs = nn.bilstm_backward(proj, cache)
    errs = [max_rel_error(dxs, numeric_gradient(loss, xs))]
    for p in fwd.params() + bwd.params():
        errs.append(max_rel_error(p.grad, numeric_gradient(loss, p.values)))
    return max(errs)


def _sample_away_from_relu_kink(rng, make_z, min_gap=1e-3, tries=50):
    """Resample until no conv pre-activation sits within `min_gap` of zero."""
    for _ in range(tries):
        xs, kernel, bias, z = make_z(rng)
        if np.abs(z).min() > min_gap:
            return xs, kernel, bias
    raise RuntimeError("could not sample conv inputs away from the ReLU kink")


def check_conv1d(seed: int) -> float:
    rng = np.random.default_rng(seed)

    def make(rng):
        xs = rng.normal(size=(2, 6, 3))
        kernel = nn.Param(rng.normal(size=(2, 3, 2)))
        bias = nn.Param(rng.normal(size=2))
        _, cache = nn.conv1d_forward(xs, kernel, bias)
        return xs, kernel, bias, cache[3]

    xs, kernel, bias = _sample_away_from_relu_kink(rng, make)
    proj = rng.normal(size=(2, 5, 2))

    def loss() -> float:
        y, _ = nn.conv1d_forward(xs, kernel, bias)
        return _projection_loss(y, proj)

    y, cache = nn.conv1d_forward(xs, kernel, bias)
    kernel.zero_grad()
    bias.zero_grad()
    dxs = nn.conv1d_backward(proj, cache)
    errs = [
        max_rel_error(dxs, numeric_gradient(loss, xs)),
        max_rel_error(kernel.grad, numeric_gradient(loss, kernel.values)),
        max_rel_error(bias.grad, numeric_gradient(loss, bias.values)),
    ]
    return max(errs)


def check_pooling(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # keep a clear top-2 gap per channel so the max is FD-differentiable
    while True:
        xs = rng.normal(size=(2, 5, 3))
        top2 = np.sort(xs, axis=1)[:, -2:, :]
        if (top2[:, 1] - top2[:, 0]).min() > 1e-3:
            break
    proj = rng.normal(size=(2, 3))

    def max_loss() -> float:
        y, _ = nn.global_max_pool_forward(xs)
        return _projection_loss(y, proj)

    def avg_loss() -> float:
        y, _ = nn.global_avg_pool_forward(xs)
        return _projection_loss(y, proj)

    _, mx_cache = nn.global_max_pool_forward(xs)
    _, av_shape = nn.global_avg_pool_forward(xs)
    errs = [
        max_rel_error(nn.global_max_pool_backward(proj, mx_cache), numeric_gradient(max_loss, xs)),
        max_rel_error(nn.global_avg_pool_backward(proj, av_shape), numeric_gradient(avg_loss, xs)),
    ]
    return max(errs)


def check_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=6)
    y = rng.integers(0, 2, size=6).astype(float)
    weights = rng.uniform(0.5, 2.0, size=2)

    def loss() -> float:
        return nn.bce_loss(p, y, weights)[0]

    _, dp = nn.bce_loss(p, y, weights)
    return max_rel_error(dp, numeric_gradient(loss, p))


def check_categorical_ce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    probs = nn.softmax(rng.normal(size=(5, 3)))
    onehot = np.zeros((5, 3))
    onehot[np.arange(5), rng.integers(0, 3, size=5)] = 1.0
    weights = rng.uniform(0.5, 2.0, size=3)

    def loss() -> float:
        return nn.categorical_ce_loss(probs, onehot, weights)[0]

    _, dprobs = nn.categorical_ce_loss(probs, onehot, weights)
    return max_rel_error(dprobs, numeric_gradient(loss, probs))


def check_soft_f1(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=6)
    y = rng.integers(0, 2, size=6).astype(float)

    def loss_bin() -> float:
        return nn.soft_f1_loss(p, y)[0]

    _, dp = nn.soft_f1_loss(p, y)
    err = max_rel_error(dp, numeric_gradient(loss_bin, p))

    probs = nn.softmax(rng.normal(size=(6, 3)))
    onehot = np.zeros((6, 3))
    onehot[np.arange(6), rng.integers(0, 3, size=6)] = 1.0

    def loss_multi() -> float:
        return nn.soft_f1_loss(probs, onehot)[0]

    _, dprobs = nn.soft_f1_loss(probs, onehot)
    return max(err, max_rel_error(dprobs, numeric_gradient(loss_multi, probs)))


def check_cbow(seed: int) -> float:
    rng = np.random.default_rng(seed)
    v, buckets, dim = 6, 10, 5
    word_in = rng.normal(scale=0.5, size=(v, dim))
    bucket_vecs = rng.normal(scale=0.5, size=(buckets, dim))
    word_out = rng.normal(scale=0.5, size=(v, dim))
    # two context tokens sharing one bucket row exercises grad accumulation
    ctx = [np.array([0, v + 1, v + 2]), np.array([3, v + 2])]
    center = 4
    negs = np.array([1, 5, 1])  # duplicate negative on purpose

    def loss() -> float:
        return cbow_pair_loss(word_in, bucket_vecs, word_out, ctx, center, negs)[0]

    _, input_grads, (targets, out_grads) = cbow_pair_loss(
        word_in, bucket_vecs, word_out, ctx, center, negs
    )
    analytic_in = np.zeros_like(word_in)
    analytic_buckets = np.zeros_like(bucket_vecs)
    for rid, g in input_grads.items():
        if rid < v:
            analytic_in[rid] += g
        else:
            analytic_buckets[rid - v] += g
    analytic_out = np.zeros_like(word_out)
    np.add.at(analytic_out, targets, out_grads)

    errs = [
        max_rel_error(analytic_in, numeric_gradient(loss, word_in)),
        max_rel_error(analytic_buckets, numeric_gradient(loss, bucket_vecs)),
        max_rel_error(analytic_out, numeric_gradient(loss, word_out)),
    ]
    return max(errs)


@dataclass
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


ALL_CHECKS: list[tuple[str, Callable[[int], float]]] = [
    ("dense", check_dense),
    ("conv1d", check_conv1d),
    ("lstm_cell", check_lstm_cell),
    ("lstm_bptt", check_lstm_bptt),
    ("bilstm", check_bilstm),
    ("pooling", check_pooling),
    ("bce", check_bce),
    ("categorical_ce", check_categorical_ce),
    ("soft_f1", check_soft_f1),
    ("cbow_negative_sampling", check_cbow),
]


def run_all(n_seeds: int = 20, tolerance: float = 1e-4, seed0: int = 0) -> list[CheckResult]:
    """Every differentiable operation against finite differences, per seed."""
    results = []
    for name, fn in ALL_CHECKS:
        worst = max(fn(seed0 + s) for s in range(n_seeds))
        results.append(CheckResult(name=name, max_error=worst, tolerance=tolerance))
    return results
