"""Numeric layer primitives with exact forward and backward passes.

Everything is double precision numpy. Weights live in `Param` objects
(values + accumulated grad); layer backwards accumulate into `.grad` and
return the gradient with respect to their input. No autodiff graph: each
backward is derived by hand and checked against finite differences.
"""

import math
from dataclasses import dataclass

import numpy as np

EPS_PROB = 1e-7  # probability clamp, mirrors the output-layer epsilon
# Adam's moment decay rates and denominator epsilon (Keras defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-7


class Param:
    """A trainable tensor with a zero-initialized gradient buffer. It owns a
    copy of `values`, so in-place updates never reach the caller's array."""

    def __init__(self, values: np.ndarray):
        self.values = np.array(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def size(self) -> int:
        return self.values.size

    def copy(self) -> "Param":
        return Param(self.values)


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    s = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=shape)


# ---------------------------------------------------------------------------
# activations

def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # 1/(1+e^-x) for x >= 0 and e^x/(1+e^x) below, without masks: min(x, -x) is
    # -x or x exactly (-|x| would flip a NaN's sign bit), and max(e, x >= 0) is 1
    # where x >= 0 (e <= 1 there) and e elsewhere: the two branches, bit for bit;
    # `out`, when given, holds e on the way and then the result
    e = np.exp(np.minimum(x, -x, out=out), out=out)
    return np.divide(np.maximum(e, x >= 0), e + 1.0, out=out)


def sigmoid_backward(dy: np.ndarray, s: np.ndarray) -> np.ndarray:
    # s is the sigmoid output
    return dy * s * (1.0 - s)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(dy: np.ndarray, p: np.ndarray) -> np.ndarray:
    # p is the softmax output
    return p * (dy - (dy * p).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# dense

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

    def params(self) -> list[Param]:
        return [self.wx, self.wh, self.b]


def init_lstm_params(rng: np.random.Generator, input_dim: int, hidden: int) -> LstmParams:
    """Per-gate Glorot-uniform weights, zero biases except forget bias = 1."""
    wx = np.vstack([glorot_uniform(rng, (hidden, input_dim), input_dim, hidden) for _ in range(4)])
    wh = np.vstack([glorot_uniform(rng, (hidden, hidden), hidden, hidden) for _ in range(4)])
    b = np.zeros(4 * hidden)
    b[hidden : 2 * hidden] = 1.0
    return LstmParams(Param(wx), Param(wh), Param(b))


def _lstm_cell(z, xz_t, whT, b, h, c, gate, tc) -> None:
    """One step: updates the state h, c (B, h) in place and writes the
    activated gates (B, 4h) and tanh c into `gate` and `tc`; `z` is scratch."""
    hid = h.shape[1]
    np.matmul(h, whT, out=z)
    z += xz_t
    z += b
    sigmoid(z[:, : 3 * hid], out=gate[:, : 3 * hid])
    np.tanh(z[:, 3 * hid :], out=gate[:, 3 * hid :])
    i, f, o, g = (gate[:, k * hid : (k + 1) * hid] for k in range(4))
    c *= f
    c += np.multiply(i, g, out=tc)
    np.tanh(c, out=tc)
    np.multiply(o, tc, out=h)


def lstm_forward(xs: np.ndarray, params: LstmParams, keep_cache: bool = True, *, prefix=None, row_c=None):
    """Run the cell over a (B, T, in) sequence; returns the (B, T, h) states and
    the backward cache, or None without `keep_cache` (inference). Each step
    works in one set of buffers; the cache copies each step's gates, c and tanh c.

    Inference only: `prefix`, one row's h and c at each of the first p steps
    (two (p, h) arrays), gives every row those states there, and the cell
    runs from step p on, from the last of them; `row_c`, a (T, h) array,
    receives row 0's c at each step the cell runs."""
    B, T, _ = xs.shape
    hid = params.hidden
    whT = params.wh.values.T
    b = params.b.values
    xz = xs @ params.wx.values.T  # input contribution for all timesteps at once

    z, gate = np.empty((B, 4 * hid)), np.empty((B, 4 * hid))
    h, c, tc = np.zeros((B, hid)), np.zeros((B, hid)), np.empty((B, hid))
    h_s = np.empty((B, T, hid))
    start = 0
    if prefix is not None:
        if keep_cache:
            raise ValueError("a prefix of shared states is for inference, which keeps no cache")
        h_pre, c_pre = prefix
        start = len(h_pre)
        if start:
            h_s[:, :start] = h_pre
            h[:], c[:] = h_pre[-1], c_pre[-1]
    if keep_cache:
        gates = np.empty((B, T, 4 * hid))  # activated, in the stacked gate layout
        c_s = np.empty((B, T, hid))
        tc_s = np.empty((B, T, hid))
    for t in range(start, T):
        _lstm_cell(z, xz[:, t], whT, b, h, c, gate, tc)
        h_s[:, t] = h
        if keep_cache:
            gates[:, t], c_s[:, t], tc_s[:, t] = gate, c, tc
        if row_c is not None:
            row_c[t] = c[0]

    return h_s, (xs, params, gates, c_s, tc_s, h_s) if keep_cache else None


def lstm_backward(dhs: np.ndarray, cache) -> np.ndarray:
    """Backprop through time; accumulates parameter grads, returns d(input)."""
    xs, params, gates, c_s, tc_s, h_s = cache
    B, T, hid = dhs.shape

    dz_all = np.empty((B, T, 4 * hid))
    wh = params.wh.values
    dh_next = np.zeros((B, hid))
    dc_next = np.zeros((B, hid))
    c_zero = np.zeros((B, hid))
    for t in range(T - 1, -1, -1):
        gate = gates[:, t]
        i, f, o, g = (gate[:, k * hid : (k + 1) * hid] for k in range(4))
        tc = tc_s[:, t]
        c_prev = c_s[:, t - 1] if t > 0 else c_zero

        dh = dhs[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = dz_all[:, t]
        dz[:, 0 * hid : 1 * hid] = dc * g * i * (1.0 - i)
        dz[:, 1 * hid : 2 * hid] = dc * c_prev * f * (1.0 - f)
        dz[:, 2 * hid : 3 * hid] = dh * tc * o * (1.0 - o)
        dz[:, 3 * hid : 4 * hid] = dc * i * (1.0 - g * g)
        dc_next = dc * f
        dh_next = dz @ wh

    h_prev_all = np.concatenate([np.zeros((B, 1, hid)), h_s[:, :-1]], axis=1)
    dz_flat = dz_all.reshape(B * T, 4 * hid)
    params.wx.grad += dz_flat.T @ xs.reshape(B * T, -1)
    params.wh.grad += dz_flat.T @ h_prev_all.reshape(B * T, hid)
    params.b.grad += dz_flat.sum(axis=0)
    return dz_all @ params.wx.values


def bilstm_forward(xs: np.ndarray, fwd: LstmParams, bwd: LstmParams, keep_cache: bool = True, *,
                   helper=None, prefix=None):
    """Both directions over (B, T, in); outputs concatenated to (B, T, 2h).
    Without `keep_cache` (inference) the cache is None, and a `prefix` gives
    the forward direction states shared by every row's first steps
    (`lstm_forward`). With a `helper` (a training step's
    `pool.forked_helper` running a `BackwardDirection`), the backward
    direction runs there while the forward one runs here, and its cache
    stays there."""
    if helper is not None:
        helper.send(("forward", xs, bwd.wx.values, bwd.wh.values, bwd.b.values))
    h_f, cache_f = lstm_forward(xs, fwd, keep_cache, prefix=prefix)
    if helper is None:
        h_b_rev, cache_b = lstm_forward(xs[:, ::-1], bwd, keep_cache)
    else:
        h_b_rev, cache_b = helper.recv(), bwd
    out = np.concatenate([h_f, h_b_rev[:, ::-1]], axis=2)
    return out, (cache_f, cache_b, fwd.hidden, helper) if keep_cache else None


def bilstm_backward(dys: np.ndarray, cache) -> np.ndarray:
    """d(input) of both directions; with a helper, the backward direction's
    gradients come back from it and are added to `bwd`'s."""
    cache_f, cache_b, hid, helper = cache
    dys_b = np.ascontiguousarray(dys[:, ::-1, hid:])
    if helper is not None:
        helper.send(("backward", dys_b))
    dxs = lstm_backward(np.ascontiguousarray(dys[..., :hid]), cache_f)
    if helper is None:
        dxs_b = lstm_backward(dys_b, cache_b)
    else:
        dxs_b, *grads = helper.recv()
        for p, grad in zip(cache_b.params(), grads):
            p.grad += grad
    dxs += dxs_b[:, ::-1]
    return dxs


class BackwardDirection:
    """The backward direction of a BiLSTM's training step, as run in a
    `pool.forked_helper`. ("forward", xs, wx, wh, b) runs it over xs
    reversed in time, as `bilstm_forward` would, keeps the cache and returns
    the states; ("backward", dhs) backpropagates the reversed-time dhs
    through that cache and returns d(input) and the wx, wh and b gradients.
    Each forward starts from zero gradients, which the caller adds to its
    own: added to the zeros of a freshly zeroed step, each is the same bytes."""

    def __init__(self):
        self.cache = None

    def __call__(self, message):
        kind, *args = message
        if kind == "forward":
            xs, *weights = args
            h_rev, self.cache = lstm_forward(xs[:, ::-1], LstmParams(*map(Param, weights)))
            return h_rev
        dxs = lstm_backward(args[0], self.cache)
        return dxs, *(p.grad for p in self.cache[1].params())


# ---------------------------------------------------------------------------
# spatial dropout

def spatial_dropout_forward(xs: np.ndarray, rate: float, rng: np.random.Generator | None):
    """Channel dropout with one mask shared across all timesteps.

    Kept channels are scaled by 1/(1-rate); without an rng (inference) it is
    the identity. Input is (B, T, C); each example draws its own mask.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rng is None or rate == 0.0:
        return xs, None
    mask = (rng.random((xs.shape[0], 1, xs.shape[2])) >= rate) / (1.0 - rate)
    return xs * mask, mask


def spatial_dropout_backward(dys: np.ndarray, mask) -> np.ndarray:
    return dys if mask is None else dys * mask


# ---------------------------------------------------------------------------
# 1-D convolution (valid cross-correlation over time, ReLU applied)

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


# ---------------------------------------------------------------------------
# losses — each returns (loss, grad wrt the probability input)

def bce_loss(p: np.ndarray, y: np.ndarray):
    """Binary cross-entropy over (B,) probabilities and 0/1 labels, batch mean."""
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if p.size == 0:
        raise ValueError("empty batch")
    pc = np.clip(p, EPS_PROB, 1.0 - EPS_PROB)
    interior = (p > EPS_PROB) & (p < 1.0 - EPS_PROB)
    n = p.shape[0]
    loss = float(np.mean(-(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))))
    dp = (pc - y) / (pc * (1.0 - pc)) / n
    dp *= interior
    return loss, dp


def categorical_ce_loss(probs: np.ndarray, onehot: np.ndarray):
    """Categorical cross-entropy over (B, k) probabilities, batch mean."""
    probs = np.asarray(probs, dtype=np.float64)
    onehot = np.asarray(onehot, dtype=np.float64)
    if probs.size == 0:
        raise ValueError("empty batch")
    pc = np.clip(probs, EPS_PROB, None)
    interior = probs > EPS_PROB
    n = probs.shape[0]
    loss = float(np.mean(-(onehot * np.log(pc)).sum(axis=1)))
    dprobs = -onehot / pc / n
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


# ---------------------------------------------------------------------------
# Adam

@dataclass
class AdamState:
    m: list  # first moments, one array per parameter
    v: list  # second moments
    t: int = 0


def init_adam(params: list[Param]) -> AdamState:
    return AdamState([np.zeros_like(p.values) for p in params], [np.zeros_like(p.values) for p in params])


def adam_step(params: list[Param], rows: list, state: AdamState, lr: float, weight_decay: float) -> None:
    """Bias-corrected moment update of rows `rows[i]` of `params[i]`
    (`slice(None)` for all of them); weight decay enters the gradient (L2).

    The rows left out keep their values and moments. That is exactly what
    the full update gives a row whose gradient, moments and weight decay are
    all zero (Kingma & Ba 2015, Alg. 1), so skipping such rows changes no bit.
    """
    state.t += 1
    c1 = 1.0 - ADAM_BETA1**state.t
    c2 = 1.0 - ADAM_BETA2**state.t
    for p, r, m, v in zip(params, rows, state.m, state.v):
        # a slice gives views, updated in place, and the write-back below is
        # then a no-op; an index array gives copies, which it writes back
        values, g, mr, vr = p.values[r], p.grad[r], m[r], v[r]
        if weight_decay:
            g = g + weight_decay * values
        mr *= ADAM_BETA1
        mr += (1.0 - ADAM_BETA1) * g
        vr *= ADAM_BETA2
        vr += (1.0 - ADAM_BETA2) * g * g
        values -= lr * (mr / c1) / (np.sqrt(vr / c2) + ADAM_EPS)
        p.values[r], m[r], v[r] = values, mr, vr
