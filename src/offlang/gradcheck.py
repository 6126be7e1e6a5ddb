"""Central finite-difference verification of every hand-derived backward pass.

A check is its inputs, a forward and a backward. `_worst` compares each
analytic gradient with `numeric_gradient`, which perturbs the raw array in
place and re-runs the forward; the numeric side shares no code with the
analytic gradients it checks. Piecewise-linear layers (ReLU, max-pool) are
probed at inputs resampled away from their kinks, where the
finite-difference quotient is meaningless.

To add a check, write a `check_*(seed) -> float` that draws its inputs from
`np.random.default_rng(seed)` and returns `_layer_check(...)` for a layer or
`_loss_check(...)` for a loss, and give it one `ALL_CHECKS` entry.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import nn
from .embeddings import cbow_pair_loss

FD_STEP = 1e-5


def numeric_gradient(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central differences (step FD_STEP) of scalar f() with respect to array
    x, perturbed in place."""
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_STEP
        fp = f()
        flat[i] = orig - FD_STEP
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * FD_STEP)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst elementwise error: absolute below 1e-8, else |a-n|/(|a|+|n|)."""
    a = np.asarray(analytic, dtype=float).ravel()
    n = np.asarray(numeric, dtype=float).ravel()
    diff = np.abs(a - n)
    denom = np.abs(a) + np.abs(n)
    rel = np.where(diff <= 1e-8, 0.0, diff / np.where(denom > 0, denom, 1.0))
    return float(rel.max()) if rel.size else 0.0


def _worst(loss: Callable[[], float], pairs) -> float:
    """Worst error over (analytic gradient, array) pairs of scalar loss()."""
    return max(max_rel_error(analytic, numeric_gradient(loss, x)) for analytic, x in pairs)


def _layer_check(forward, backward, xs: np.ndarray, params: list[nn.Param], proj: np.ndarray) -> float:
    """d(xs) and every parameter gradient of the loss sum(forward(xs)[0] * proj);
    `forward` closes over `params`, whose values are perturbed in place."""
    _, cache = forward(xs)
    dxs = backward(proj, cache)
    return _worst(lambda: float((forward(xs)[0] * proj).sum()),
                  [(dxs, xs)] + [(p.grad, p.values) for p in params])


def _loss_check(loss_fn, probs: np.ndarray, target: np.ndarray) -> float:
    """d(probs) of loss_fn(probs, target), which returns (loss, d(probs))."""
    _, dprobs = loss_fn(probs, target)
    return _worst(lambda: loss_fn(probs, target)[0], [(dprobs, probs)])


def check_dense(seed: int) -> float:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    w = nn.Param(rng.normal(size=(5, 3)))
    b = nn.Param(rng.normal(size=5))
    proj = rng.normal(size=(2, 5))
    return _layer_check(lambda x: nn.dense_forward(x, w, b), nn.dense_backward, x, [w, b], proj)


def _lstm_case(seed: int, T: int) -> float:
    rng = np.random.default_rng(seed)
    B, d_in, hid = 2, 3, 4
    xs = rng.normal(size=(B, T, d_in))
    params = nn.init_lstm_params(rng, d_in, hid)
    for p in params.params():
        p.values[...] = rng.normal(scale=0.5, size=p.values.shape)
    proj = rng.normal(size=(B, T, hid))
    return _layer_check(lambda x: nn.lstm_forward(x, params), nn.lstm_backward, xs, params.params(), proj)


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
    return _layer_check(lambda x: nn.bilstm_forward(x, fwd, bwd), nn.bilstm_backward,
                        xs, fwd.params() + bwd.params(), proj)


def check_conv1d(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # resample until no pre-activation sits within 1e-3 of the ReLU kink
    for _ in range(50):
        xs = rng.normal(size=(2, 6, 3))
        kernel = nn.Param(rng.normal(size=(2, 3, 2)))
        bias = nn.Param(rng.normal(size=2))
        if np.abs(nn.conv1d_forward(xs, kernel, bias)[1][3]).min() > 1e-3:
            break
    else:
        raise RuntimeError("could not sample conv inputs away from the ReLU kink")
    proj = rng.normal(size=(2, 5, 2))
    return _layer_check(lambda x: nn.conv1d_forward(x, kernel, bias), nn.conv1d_backward,
                        xs, [kernel, bias], proj)


def check_pooling(seed: int) -> float:
    rng = np.random.default_rng(seed)
    # keep a clear top-2 gap per channel so the max is FD-differentiable
    while True:
        xs = rng.normal(size=(2, 5, 3))
        top2 = np.sort(xs, axis=1)[:, -2:, :]
        if (top2[:, 1] - top2[:, 0]).min() > 1e-3:
            break
    proj = rng.normal(size=(2, 3))
    return max(
        _layer_check(nn.global_max_pool_forward, nn.global_max_pool_backward, xs, [], proj),
        _layer_check(nn.global_avg_pool_forward, nn.global_avg_pool_backward, xs, [], proj),
    )


def check_bce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=6)
    y = rng.integers(0, 2, size=6).astype(float)
    return _loss_check(nn.bce_loss, p, y)


def check_categorical_ce(seed: int) -> float:
    rng = np.random.default_rng(seed)
    probs = nn.softmax(rng.normal(size=(5, 3)))
    onehot = np.eye(3)[rng.integers(0, 3, size=5)]
    return _loss_check(nn.categorical_ce_loss, probs, onehot)


def check_soft_f1(seed: int) -> float:
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.05, 0.95, size=6)
    y = rng.integers(0, 2, size=6).astype(float)
    probs = nn.softmax(rng.normal(size=(6, 3)))
    onehot = np.eye(3)[rng.integers(0, 3, size=6)]
    return max(_loss_check(nn.soft_f1_loss, p, y), _loss_check(nn.soft_f1_loss, probs, onehot))


def check_cbow(seed: int) -> float:
    rng = np.random.default_rng(seed)
    v, buckets, dim = 6, 10, 5
    inputs = rng.normal(scale=0.5, size=(v + buckets, dim))  # word rows, then bucket rows
    word_out = rng.normal(scale=0.5, size=(v, dim))
    # two context tokens sharing one bucket row exercises grad accumulation
    ctx = [np.array([0, v + 1, v + 2]), np.array([3, v + 2])]
    center, negs = 4, np.array([1, 5, 1])  # duplicate negative on purpose
    args = (inputs[:v], inputs[v:], word_out, ctx, center, negs)

    _, (ids, grads), (targets, out_grads) = cbow_pair_loss(*args)
    analytic_in, analytic_out = np.zeros_like(inputs), np.zeros_like(word_out)
    np.add.at(analytic_in, ids, grads)
    np.add.at(analytic_out, targets, out_grads)
    return _worst(lambda: cbow_pair_loss(*args)[0], [(analytic_in, inputs), (analytic_out, word_out)])


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


def run_all(n_seeds: int, tolerance: float) -> list[CheckResult]:
    """Every differentiable operation against finite differences, on seeds
    0 .. n_seeds-1."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    # an inf or nan bound would pass every check, and 0 or less fail them all
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"tolerance must be a finite number > 0, got {tolerance}")
    results = []
    for name, fn in ALL_CHECKS:
        worst = max(fn(seed) for seed in range(n_seeds))
        results.append(CheckResult(name=name, max_error=worst, tolerance=tolerance))
    return results
