import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from offlang import nn
from offlang.gradcheck import (
    check_bilstm,
    check_conv1d,
    check_dense,
    check_lstm_bptt,
    max_rel_error,
    numeric_gradient,
)


class TestActivations:
    def test_softmax_uniform(self):
        out = nn.softmax(np.array([3.7, 3.7, 3.7]))
        assert np.allclose(out, 1 / 3)

    def test_relu_values(self):
        assert nn.relu(np.array([-2.0]))[0] == 0.0
        assert nn.relu(np.array([3.0]))[0] == 3.0

    def test_sigmoid_and_tanh_at_zero(self):
        assert nn.sigmoid(np.array([0.0]))[0] == 0.5
        assert np.tanh(0.0) == 0.0

    def test_sigmoid_extreme_inputs_finite(self):
        out = nn.sigmoid(np.array([-1000.0, 1000.0]))
        assert np.isfinite(out).all()

    def test_sigmoid_equals_the_masked_formula_bit_for_bit(self):
        special = [0.0, -0.0, 40.0, -40.0, 750.0, -750.0, np.inf, -np.inf, np.nan, -np.nan]
        x = np.concatenate([np.random.default_rng(0).normal(0.0, 20.0, 100_000), special])
        expected = np.empty_like(x)
        pos = x >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert nn.sigmoid(x).tobytes() == expected.tobytes()

    def test_sigmoid_into_out_gives_the_same_bits(self):
        x = np.random.default_rng(1).normal(0.0, 20.0, (6, 10))
        buf = np.full((6, 14), 7.0)
        assert np.shares_memory(nn.sigmoid(x[:, :8], out=buf[:, 2:10]), buf)
        assert buf[:, 2:10].tobytes() == nn.sigmoid(x[:, :8]).tobytes()
        assert (buf[:, :2] == 7.0).all() and (buf[:, 10:] == 7.0).all()

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=8))
    def test_softmax_sums_to_one(self, logits):
        out = nn.softmax(np.array(logits))
        assert abs(out.sum() - 1.0) <= 1e-12
        assert (out >= 0).all()


class TestDense:
    def test_zero_weights_zero_output(self):
        w = nn.Param(np.zeros((4, 3)))
        b = nn.Param(np.zeros(4))
        y, _ = nn.dense_forward(np.random.default_rng(0).normal(size=(2, 3)), w, b)
        assert np.array_equal(y, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        w = nn.Param(np.zeros((4, 3)))
        b = nn.Param(np.zeros(4))
        with pytest.raises(ValueError):
            nn.dense_forward(np.zeros((2, 5)), w, b)

    def test_gradient_vs_finite_differences(self):
        assert check_dense(seed=0) <= 1e-6


def lstm_first_step(x, params):
    """(h, c) after one cell update from zero state: lstm_forward on T=1."""
    hs, cache = nn.lstm_forward(x[None, None, :], params)
    c_s = cache[3]  # (xs, params, gates, c, tanh(c), h)
    return hs[0, 0], c_s[0, 0]


class TestLstm:
    def test_all_zero_parameters(self):
        params = nn.LstmParams(nn.Param(np.zeros((8, 3))), nn.Param(np.zeros((8, 2))), nn.Param(np.zeros(8)))
        h, c = lstm_first_step(np.array([1.5, -2.0, 0.3]), params)
        assert np.array_equal(h, np.zeros(2))
        assert np.array_equal(c, np.zeros(2))

    def test_scalar_hand_computation(self):
        # gates saturated open via large biases, candidate bias = 1
        b = np.array([20.0, 20.0, 20.0, 1.0])
        params = nn.LstmParams(nn.Param(np.zeros((4, 1))), nn.Param(np.zeros((4, 1))), nn.Param(b))
        h, c = lstm_first_step(np.array([0.7]), params)
        assert c[0] == pytest.approx(0.7616, abs=5e-4)
        assert h[0] == pytest.approx(0.6420, abs=5e-4)

    def test_forget_bias_initialized_to_one(self):
        params = nn.init_lstm_params(np.random.default_rng(0), 5, 4)
        assert np.array_equal(params.b.values[4:8], np.ones(4))
        assert np.array_equal(params.b.values[:4], np.zeros(4))

    def test_bptt_gradient_vs_finite_differences(self):
        assert check_lstm_bptt(seed=0) <= 1e-6

    @pytest.mark.parametrize("batch, steps", [(1, 1), (4, 9), (32, 30)])
    def test_states_and_cache_equal_the_allocating_loop(self, batch, steps):
        # reference: the cell in fresh arrays at every step, in the same order
        rng = np.random.default_rng(steps)
        params = nn.init_lstm_params(rng, 6, 8)
        xs = rng.normal(size=(batch, steps, 6))
        hid, whT, b = 8, params.wh.values.T, params.b.values
        xz = xs @ params.wx.values.T
        h = c = np.zeros((batch, hid))
        want = [np.empty((batch, steps, n)) for n in (4 * hid, hid, hid, hid)]
        for t in range(steps):
            z = xz[:, t] + h @ whT + b
            gate = np.concatenate([nn.sigmoid(z[:, : 3 * hid]), np.tanh(z[:, 3 * hid :])], axis=1)
            i, f, o, g = (gate[:, k * hid : (k + 1) * hid] for k in range(4))
            c = f * c + i * g
            h = o * np.tanh(c)
            for arr, value in zip(want, (gate, c, np.tanh(c), h)):
                arr[:, t] = value
        h_s, cache = nn.lstm_forward(xs, params)
        assert h_s.tobytes() == want[3].tobytes()
        for got, ref in zip(cache[2:], want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("shared", [0, 3, 7])
    def test_a_prefix_of_shared_states_keeps_the_bytes(self, shared):
        # rows that read the same inputs for their first `shared` steps, as
        # front-padded rows do; the prefix comes from a batch of as many rows
        rng = np.random.default_rng(shared)
        params = nn.init_lstm_params(rng, 5, 4)
        batch, steps = 6, 7
        xs = rng.normal(size=(batch, steps, 5))
        xs[:, :shared] = rng.normal(size=5)
        same = np.ascontiguousarray(np.broadcast_to(xs[:1], xs.shape))
        c = np.empty((steps, 4))
        h_same, _ = nn.lstm_forward(same, params, keep_cache=False, row_c=c)
        assert c.tobytes() == nn.lstm_forward(same, params)[1][3][0].tobytes()  # the cache's c of row 0
        h, cache = nn.lstm_forward(xs, params, keep_cache=False, prefix=(h_same[0, :shared], c[:shared]))
        assert cache is None and h.tobytes() == nn.lstm_forward(xs, params, keep_cache=False)[0].tobytes()

    def test_a_prefix_keeps_no_backward_cache(self):
        params = nn.init_lstm_params(np.random.default_rng(0), 5, 4)
        with pytest.raises(ValueError, match="inference"):
            nn.lstm_forward(np.zeros((2, 3, 5)), params, prefix=(np.zeros((1, 4)), np.zeros((1, 4))))


class TestBilstm:
    def test_palindrome_symmetry(self):
        rng = np.random.default_rng(3)
        params = nn.init_lstm_params(rng, 2, 3)
        half = rng.normal(size=(1, 4, 2))
        xs = np.concatenate([half, half[:, ::-1]], axis=1)  # palindrome, T=8
        out, _ = nn.bilstm_forward(xs, params, params)
        T = xs.shape[1]
        for t in range(T):
            assert np.allclose(out[0, t, :3], out[0, T - 1 - t, 3:])

    def test_zero_parameters_zero_output(self):
        zero = nn.LstmParams(nn.Param(np.zeros((12, 2))), nn.Param(np.zeros((12, 3))), nn.Param(np.zeros(12)))
        zero2 = nn.LstmParams(nn.Param(np.zeros((12, 2))), nn.Param(np.zeros((12, 3))), nn.Param(np.zeros(12)))
        out, _ = nn.bilstm_forward(np.ones((2, 5, 2)), zero, zero2)
        assert np.array_equal(out, np.zeros((2, 5, 6)))

    def test_gradient_vs_finite_differences(self):
        assert check_bilstm(seed=0) <= 1e-6

    @pytest.mark.parametrize("batch, steps", [(1, 1), (3, 7), (32, 20)])
    def test_inference_forward_equals_the_training_forward(self, batch, steps):
        # without the cache, the same bytes
        rng = np.random.default_rng(batch)
        fwd, bwd = nn.init_lstm_params(rng, 5, 16), nn.init_lstm_params(rng, 5, 16)
        xs = rng.normal(size=(batch, steps, 5))
        out, cache = nn.bilstm_forward(xs, fwd, bwd)
        lean, no_cache = nn.bilstm_forward(xs, fwd, bwd, keep_cache=False)
        assert no_cache is None and cache is not None
        assert lean.tobytes() == out.tobytes()
        h_s, _ = nn.lstm_forward(xs, fwd)
        assert nn.lstm_forward(xs, fwd, keep_cache=False)[0].tobytes() == h_s.tobytes()


class TestSpatialDropout:
    def test_rate_zero_identity(self):
        xs = np.random.default_rng(0).normal(size=(2, 4, 3))
        out, mask = nn.spatial_dropout_forward(xs, 0.0, np.random.default_rng(1))
        assert out is xs and mask is None

    def test_eval_mode_identity(self):
        xs = np.random.default_rng(0).normal(size=(2, 4, 3))
        out, mask = nn.spatial_dropout_forward(xs, 0.9, None)
        assert out is xs and mask is None

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.spatial_dropout_forward(np.zeros((1, 2, 2)), 1.0, np.random.default_rng(0))

    def test_mask_shared_across_time_and_scaled(self):
        xs = np.ones((1, 6, 16))
        out, _ = nn.spatial_dropout_forward(xs, 0.5, np.random.default_rng(0))
        # each channel is all-zero or uniformly 2x across every timestep
        per_channel = out[0]
        assert set(np.unique(per_channel)) <= {0.0, 2.0}
        assert (per_channel == per_channel[0]).all()

    def test_monte_carlo_expectation(self):
        xs = np.ones((1, 1, 8))
        rng = np.random.default_rng(42)
        total = np.zeros(8)
        n = 10_000
        for _ in range(n):
            out, _ = nn.spatial_dropout_forward(xs, 0.5, rng)
            total += out[0, 0]
        assert np.abs(total / n - 1.0).max() <= 0.02


class TestConv1d:
    def test_all_ones_sum(self):
        xs = np.ones((1, 63, 256))
        kernel = nn.Param(np.ones((2, 256, 64)))
        bias = nn.Param(np.zeros(64))
        y, _ = nn.conv1d_forward(xs, kernel, bias)
        assert y.shape == (1, 62, 64)
        assert np.allclose(y, 512.0)

    def test_relu_applied(self):
        xs = np.ones((1, 3, 2))
        kernel = nn.Param(-np.ones((2, 2, 1)))
        bias = nn.Param(np.zeros(1))
        y, _ = nn.conv1d_forward(xs, kernel, bias)
        assert np.array_equal(y, np.zeros((1, 2, 1)))

    def test_too_short_sequence(self):
        with pytest.raises(ValueError):
            nn.conv1d_forward(np.ones((1, 1, 2)), nn.Param(np.ones((2, 2, 1))), nn.Param(np.zeros(1)))

    def test_gradient_vs_finite_differences(self):
        assert check_conv1d(seed=0) <= 1e-6


class TestPooling:
    def test_constant_sequence(self):
        xs = np.full((1, 5, 3), 2.5)
        assert np.allclose(nn.global_max_pool_forward(xs)[0], 2.5)
        assert np.allclose(nn.global_avg_pool_forward(xs)[0], 2.5)

    def test_column_values(self):
        xs = np.array([[[1.0], [3.0], [2.0]]])
        assert nn.global_max_pool_forward(xs)[0][0, 0] == 3.0
        assert nn.global_avg_pool_forward(xs)[0][0, 0] == 2.0

    def test_max_ties_route_to_earliest(self):
        xs = np.array([[[1.0], [5.0], [5.0]]])
        _, cache = nn.global_max_pool_forward(xs)
        dxs = nn.global_max_pool_backward(np.array([[1.0]]), cache)
        assert dxs.tolist() == [[[0.0], [1.0], [0.0]]]


class TestLosses:
    def test_bce_analytic_values(self):
        loss, _ = nn.bce_loss(np.array([1.0]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-5)
        loss, _ = nn.bce_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(math.log(2), abs=1e-12)

    def test_empty_batch(self):
        with pytest.raises(ValueError):
            nn.bce_loss(np.array([]), np.array([]))

    def test_soft_f1_perfect_predictions(self):
        y = np.array([1.0, 0.0, 1.0, 1.0])
        loss, _ = nn.soft_f1_loss(y.copy(), y)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_soft_f1_multiclass_perfect(self):
        onehot = np.eye(3)[[0, 1, 2, 1]]
        loss, _ = nn.soft_f1_loss(onehot.copy(), onehot)
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_categorical_ce_uniform(self):
        probs = np.full((1, 3), 1 / 3)
        onehot = np.array([[1.0, 0.0, 0.0]])
        loss, _ = nn.categorical_ce_loss(probs, onehot)
        assert loss == pytest.approx(math.log(3), abs=1e-12)

    def test_softmax_backward_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        z = rng.normal(size=(3, 4))
        proj = rng.normal(size=(3, 4))

        def loss():
            return float((nn.softmax(z) * proj).sum())

        p = nn.softmax(z)
        dz = nn.softmax_backward(proj, p)
        assert max_rel_error(dz, numeric_gradient(loss, z)) <= 1e-6


class TestAdam:
    def test_first_step_bounds(self):
        for g in (0.001, 0.5, 40.0):
            p = nn.Param(np.array([1.0]))
            p.grad[:] = g
            state = nn.init_adam([p])
            nn.adam_step([p], [slice(None)], state, lr=0.01, weight_decay=0.0)
            step = abs(1.0 - p.values[0])
            assert 0.01 * g / (g + nn.ADAM_EPS) - 1e-15 <= step <= 0.01 + 1e-15

    def test_zero_gradient_no_move(self):
        p = nn.Param(np.array([2.0, -3.0]))
        state = nn.init_adam([p])
        nn.adam_step([p], [slice(None)], state, lr=0.1, weight_decay=0.0)
        assert np.array_equal(p.values, np.array([2.0, -3.0]))

    def test_quadratic_convergence(self):
        # minimize (w - 3)^2 from w = 0
        p = nn.Param(np.array([0.0]))
        state = nn.init_adam([p])
        for _ in range(200):
            p.grad[:] = 2 * (p.values - 3.0)
            nn.adam_step([p], [slice(None)], state, lr=0.1, weight_decay=0.0)
        assert abs(p.values[0] - 3.0) < 0.1

    def test_row_subset_equals_full_update_when_the_rest_is_zero(self):
        rng = np.random.default_rng(0)
        dense = rng.normal(size=(3, 2))
        table = rng.normal(size=(10, 3))
        rows = np.array([1, 4, 5, 8])
        full = [nn.Param(dense), nn.Param(table)]
        part = [p.copy() for p in full]
        full_state, part_state = nn.init_adam(full), nn.init_adam(part)
        for _ in range(5):
            # a row of the subset may get no gradient in a step, as a row hit
            # by an earlier batch only does
            grads = [rng.normal(size=dense.shape), np.zeros(table.shape)]
            grads[1][rows] = rng.normal(size=(len(rows), 3)) * (rng.random((len(rows), 1)) < 0.6)
            for params in (full, part):
                for p, g in zip(params, grads):
                    p.grad[...] = g
            nn.adam_step(full, [slice(None), slice(None)], full_state, lr=0.01, weight_decay=0.0)
            nn.adam_step(part, [slice(None), rows], part_state, lr=0.01, weight_decay=0.0)
        assert not np.array_equal(part[1].values[rows], table[rows])
        for a, b in zip([*(p.values for p in full), *full_state.m, *full_state.v],
                        [*(p.values for p in part), *part_state.m, *part_state.v]):
            assert a.tobytes() == b.tobytes()

    def test_param_owns_its_values(self):
        a = np.array([1.0, -2.0])
        p = nn.Param(a)
        p.grad[:] = 1.0
        nn.adam_step([p], [slice(None)], nn.init_adam([p]), lr=0.1, weight_decay=0.0)
        assert not np.array_equal(p.values, a)
        assert a.tolist() == [1.0, -2.0]

    def test_weight_decay_enters_gradient(self):
        p = nn.Param(np.array([10.0]))
        state = nn.init_adam([p])
        nn.adam_step([p], [slice(None)], state, lr=0.01, weight_decay=0.1)
        assert p.values[0] < 10.0  # pure decay moves the weight toward zero
