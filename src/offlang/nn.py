"""Numeric layer primitives with exact forward and backward passes.

Everything is double precision numpy. Weights live in `Param` objects
(values + accumulated grad); layer backwards accumulate into `.grad` and
return the gradient with respect to their input. No autodiff graph: each
backward is derived by hand and checked against finite differences.
"""

import math
from dataclasses import dataclass, field

import numpy as np

EPS_PROB = 1e-7  # probability clamp, mirrors the output-layer epsilon


class Param:
    """A trainable tensor with a zero-initialized gradient buffer."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def copy(self) -> "Param":
        return Param(self.values.copy())


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


# ---------------------------------------------------------------------------
# activations

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(dy: np.ndarray, s: np.ndarray) -> np.ndarray:
    # s is the sigmoid output
    return dy * s * (1.0 - s)


def tanh_backward(dy: np.ndarray, t: np.ndarray) -> np.ndarray:
    # t is the tanh output
    return dy * (1.0 - t * t)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(dy: np.ndarray, p: np.ndarray, axis: int = -1) -> np.ndarray:
    # p is the softmax output
    return p * (dy - (dy * p).sum(axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# dense

def dense_param_count(n_in: int, n_out: int) -> int:
    return n_in * n_out + n_out


def dense_forward(x: np.ndarray, w: Param, b: Param):
    """y = x @ W^T + b for x of shape (B, in); W is (out, in)."""
    if x.shape[-1] != w.values.shape[1]:
        raise ValueError(f"dense input width {x.shape[-1]} != weight width {w.values.shape[1]}")
    y = x @ w.values.T + b.values
    return y, (x, w, b)


def dense_backward(dy: np.ndarray, cache) -> np.ndarray:
    x, w, b = cache
    w.grad += dy.T @ x
    b.grad += dy.sum(axis=0)
    return dy @ w.values


# ---------------------------------------------------------------------------
# LSTM
#
# Stacked gate layout along the first axis: [input, forget, output, candidate],
# each block of `hidden` rows. Parameter count is 4*((in+h)*h + h).

@dataclass
class LstmParams:
    wx: Param  # (4h, in)
    wh: Param  # (4h, h)
    b: Param   # (4h,)

    @property
    def hidden(self) -> int:
        return self.wh.values.shape[1]

    @property
    def param_count(self) -> int:
        return self.wx.size + self.wh.size + self.b.size

    def params(self) -> list[Param]:
        return [self.wx, self.wh, self.b]


def lstm_param_count(input_dim: int, hidden: int) -> int:
    return 4 * ((input_dim + hidden) * hidden + hidden)


def init_lstm_params(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmParams:
    """Per-gate Glorot-uniform weights, zero biases except forget bias = 1."""
    wx = np.vstack([glorot_uniform(rng, (hidden, input_dim), input_dim, hidden) for _ in range(4)])
    wh = np.vstack([glorot_uniform(rng, (hidden, hidden), hidden, hidden) for _ in range(4)])
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    return LstmParams(Param(wx), Param(wh), Param(b))


def _gates(z: np.ndarray, h: int):
    i = sigmoid(z[..., 0 * h : 1 * h])
    f = sigmoid(z[..., 1 * h : 2 * h])
    o = sigmoid(z[..., 2 * h : 3 * h])
    g = np.tanh(z[..., 3 * h : 4 * h])
    return i, f, o, g


def lstm_forward(xs: np.ndarray, params: LstmParams):
    """Run the cell over a (B, T, in) sequence; returns (B, T, h) states."""
    B, T, _ = xs.shape
    hid = params.hidden
    i_s = np.empty((B, T, hid))
    f_s = np.empty((B, T, hid))
    o_s = np.empty((B, T, hid))
    g_s = np.empty((B, T, hid))
    c_s = np.empty((B, T, hid))
    tc_s = np.empty((B, T, hid))
    h_s = np.empty((B, T, hid))

    wxT = params.wx.values.T
    whT = params.wh.values.T
    b = params.b.values
    xz = xs @ wxT  # input contribution for all timesteps at once

    h = np.zeros((B, hid))
    c = np.zeros((B, hid))
    for t in range(T):
        z = xz[:, t] + h @ whT + b
        i, f, o, g = _gates(z, hid)
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        i_s[:, t], f_s[:, t], o_s[:, t], g_s[:, t] = i, f, o, g
        c_s[:, t], tc_s[:, t], h_s[:, t] = c, tc, h

    cache = (xs, params, i_s, f_s, o_s, g_s, c_s, tc_s, h_s)
    return h_s, cache


def lstm_backward(dhs: np.ndarray, cache) -> np.ndarray:
    """Backprop through time; accumulates parameter grads, returns d(input)."""
    xs, params, i_s, f_s, o_s, g_s, c_s, tc_s, h_s = cache
    B, T, hid = dhs.shape

    dz_all = np.empty((B, T, 4 * hid))
    wh = params.wh.values
    dh_next = np.zeros((B, hid))
    dc_next = np.zeros((B, hid))
    for t in range(T - 1, -1, -1):
        i, f, o, g = i_s[:, t], f_s[:, t], o_s[:, t], g_s[:, t]
        tc = tc_s[:, t]
        c_prev = c_s[:, t - 1] if t > 0 else np.zeros((B, hid))

        dh = dhs[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dc_next = dc * f

        dz = dz_all[:, t]
        dz[:, 0 * hid : 1 * hid] = di * i * (1.0 - i)
        dz[:, 1 * hid : 2 * hid] = df * f * (1.0 - f)
        dz[:, 2 * hid : 3 * hid] = do * o * (1.0 - o)
        dz[:, 3 * hid : 4 * hid] = dg * (1.0 - g * g)
        dh_next = dz @ wh

    h_prev_all = np.concatenate([np.zeros((B, 1, hid)), h_s[:, :-1]], axis=1)
    dz_flat = dz_all.reshape(B * T, 4 * hid)
    params.wx.grad += dz_flat.T @ xs.reshape(B * T, -1)
    params.wh.grad += dz_flat.T @ h_prev_all.reshape(B * T, hid)
    params.b.grad += dz_flat.sum(axis=0)
    return dz_all @ params.wx.values


def bilstm_forward(xs: np.ndarray, fwd: LstmParams, bwd: LstmParams):
    """Both directions over (B, T, in); outputs concatenated to (B, T, 2h)."""
    h_f, cache_f = lstm_forward(xs, fwd)
    h_b_rev, cache_b = lstm_forward(xs[:, ::-1], bwd)
    out = np.concatenate([h_f, h_b_rev[:, ::-1]], axis=2)
    return out, (cache_f, cache_b, fwd.hidden)


def bilstm_backward(dys: np.ndarray, cache) -> np.ndarray:
    cache_f, cache_b, hid = cache
    dxs = lstm_backward(np.ascontiguousarray(dys[..., :hid]), cache_f)
    dxs += lstm_backward(np.ascontiguousarray(dys[:, ::-1, hid:]), cache_b)[:, ::-1]
    return dxs


# ---------------------------------------------------------------------------
# spatial dropout

def spatial_dropout_forward(
    xs: np.ndarray, rate: float, train: bool, rng: np.random.Generator | None = None
):
    """Channel dropout with one mask shared across all timesteps.

    Kept channels are scaled by 1/(1-rate); evaluation mode is the identity.
    Input is (B, T, C) or (T, C).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return xs, None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    channels = xs.shape[-1]
    mask_shape = (xs.shape[0], 1, channels) if xs.ndim == 3 else (1, channels)
    mask = (rng.random(mask_shape) >= rate) / (1.0 - rate)
    return xs * mask, mask


def spatial_dropout_backward(dys: np.ndarray, mask) -> np.ndarray:
    return dys if mask is None else dys * mask


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation over time, ReLU applied)

def conv_param_count(kernel: int, channels: int, filters: int) -> int:
    return kernel * channels * filters + filters


def conv1d_forward(xs: np.ndarray, kernel: Param, bias: Param):
    """(B, T, C) -> (B, T-k+1, F), post-ReLU. Kernel is (k, C, F)."""
    k, channels, filters = kernel.values.shape
    B, T, C = xs.shape
    if C != channels:
        raise ValueError(f"conv input channels {C} != kernel channels {channels}")
    if T < k:
        raise ValueError(f"sequence length {T} shorter than kernel {k}")
    t_out = T - k + 1
    z = np.broadcast_to(bias.values, (B, t_out, filters)).copy()
    for j in range(k):
        z += xs[:, j : j + t_out] @ kernel.values[j]
    y = np.maximum(z, 0.0)
    return y, (xs, kernel, bias, z)


def conv1d_backward(dys: np.ndarray, cache) -> np.ndarray:
    xs, kernel, bias, z = cache
    k, channels, filters = kernel.values.shape
    B, t_out, _ = dys.shape
    dz = dys * (z > 0.0)
    bias.grad += dz.sum(axis=(0, 1))
    dz_flat = dz.reshape(B * t_out, filters)
    dxs = np.zeros_like(xs)
    for j in range(k):
        kernel.grad[j] += xs[:, j : j + t_out].reshape(B * t_out, channels).T @ dz_flat
        dxs[:, j : j + t_out] += dz @ kernel.values[j].T
    return dxs


# ---------------------------------------------------------------------------
# pooling

def global_max_pool_forward(xs: np.ndarray):
    """Per-channel max over time; gradient routes to the first argmax."""
    arg = xs.argmax(axis=1)
    out = np.take_along_axis(xs, arg[:, None, :], axis=1)[:, 0, :]
    return out, (arg, xs.shape)


def global_max_pool_backward(dy: np.ndarray, cache) -> np.ndarray:
    arg, shape = cache
    dxs = np.zeros(shape)
    np.put_along_axis(dxs, arg[:, None, :], dy[:, None, :], axis=1)
    return dxs


def global_avg_pool_forward(xs: np.ndarray):
    return xs.mean(axis=1), xs.shape


def global_avg_pool_backward(dy: np.ndarray, shape) -> np.ndarray:
    B, T, C = shape
    return np.broadcast_to(dy[:, None, :] / T, shape).copy()


def concat(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b], axis=-1)


# ---------------------------------------------------------------------------
# losses — each returns (loss, grad wrt the probability input)

def _clip_probs(p: np.ndarray):
    clipped = np.clip(p, EPS_PROB, 1.0 - EPS_PROB)
    interior = (p > EPS_PROB) & (p < 1.0 - EPS_PROB)
    return clipped, interior


def bce_loss(p: np.ndarray, y: np.ndarray, class_weights: np.ndarray | None = None):
    """Binary cross-entropy, batch mean, optional per-class example weights."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty batch")
    pc, interior = _clip_probs(p)
    w = np.asarray(class_weights)[y.astype(int)] if class_weights is not None else np.ones_like(pc)
    n = p.shape[0]
    loss = float(np.mean(w * -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    dp = w * (pc - y) / (pc * (1.0 - pc)) / n
    dp *= interior
    return loss, dp


def categorical_ce_loss(
    probs: np.ndarray, onehot: np.ndarray, class_weights: np.ndarray | None = None
):
    """Categorical cross-entropy over (B, k) probabilities, batch mean."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("empty batch")
    pc = np.clip(probs, EPS_PROB, None)
    interior = probs > EPS_PROB
    if class_weights is not None:
        w = np.asarray(class_weights)[onehot.argmax(axis=1)]
    else:
        w = np.ones(probs.shape[0])
    n = probs.shape[0]
    loss = float(np.mean(w * -(onehot * np.log(pc)).sum(axis=1)))
    dprobs = -w[:, None] * onehot / pc / n
    dprobs *= interior
    return loss, dprobs


def soft_f1_loss(probs: np.ndarray, labels: np.ndarray):
    """Differentiable macro-F1 surrogate: 1 - mean_c 2*sTP/(2*sTP+sFP+sFN).

    Soft counts use probabilities in place of hard predictions. Binary input
    ((B,) probs with 0/1 labels) is expanded to its two class columns so the
    mean over classes mirrors macro averaging; a class with no probability
    mass and no positives contributes F1 = 1 (nothing to penalize).
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("empty batch")
    binary = probs.ndim == 1
    if binary:
        pmat = np.stack([1.0 - probs, probs], axis=1)
        ymat = np.stack([1.0 - labels, labels], axis=1)
    else:
        pmat, ymat = probs, labels

    s_tp = (pmat * ymat).sum(axis=0)
    s_fp = (pmat * (1.0 - ymat)).sum(axis=0)
    s_fn = ((1.0 - pmat) * ymat).sum(axis=0)
    den = 2.0 * s_tp + s_fp + s_fn
    safe = den > 0
    f1 = np.ones_like(den)
    f1[safe] = 2.0 * s_tp[safe] / den[safe]
    k = den.shape[0]
    loss = float(1.0 - f1.mean())

    # d den / d p_ic = 1, so dF1_c/dp_ic = (2 y_ic den_c - 2 sTP_c) / den_c^2
    dmat = np.zeros_like(pmat)
    dmat[:, safe] = -(2.0 * ymat[:, safe] * den[safe] - 2.0 * s_tp[safe]) / den[safe] ** 2 / k
    if binary:
        return loss, dmat[:, 1] - dmat[:, 0]
    return loss, dmat


def balanced_class_weights(labels: np.ndarray, k: int) -> np.ndarray:
    """w_c = N / (k * n_c): up-weights minority classes in the loss."""
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels, minlength=k).astype(float)
    if (counts == 0).any():
        raise ValueError("every class needs at least one example for weighting")
    return labels.size / (k * counts)


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-7


def init_adam(params: list[Param]) -> AdamState:
    state = AdamState()
    state.m = [np.zeros_like(p.values) for p in params]
    state.v = [np.zeros_like(p.values) for p in params]
    return state


def adam_step(
    params: list[Param], state: AdamState, lr: float, weight_decay: float = 0.0
) -> None:
    """Bias-corrected moment update; weight decay enters the gradient (L2)."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1**state.t
    c2 = 1.0 - b2**state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        if weight_decay:
            g = g + weight_decay * p.values
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.values -= lr * (m / c1) / (np.sqrt(v / c2) + state.eps)
