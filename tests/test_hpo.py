import math

import numpy as np
import pytest

from offlang.hpo import (
    Dimension,
    SearchSpace,
    bo_loop,
    expected_improvement,
    gp_fit,
)


class TestSearchSpace:
    def test_log_dimension_decode(self):
        d = Dimension("lr", 1e-5, 1e-1, "log")
        assert d.from_unit(0.0) == pytest.approx(1e-5)
        assert d.from_unit(1.0) == pytest.approx(1e-1)
        assert d.from_unit(0.5) == pytest.approx(1e-3)

    def test_defaults(self):
        space = SearchSpace.default()
        assert [d.name for d in space.dimensions] == ["lr", "weight_decay"]

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Dimension("x", 1.0, 1.0)
        with pytest.raises(ValueError):
            Dimension("x", 0.0, 1.0, "log")


class TestGp:
    def test_interpolates_observations(self):
        X = np.array([[0.1], [0.4], [0.9]])
        y = np.array([1.0, -0.5, 2.0])
        gp = gp_fit(X, y)
        for xi, yi in zip(X, y):
            mean, var = gp.posterior(xi)
            assert mean == pytest.approx(yi, abs=1e-6)
            assert var <= 1e-6

    def test_far_away_reverts_to_prior(self):
        X = np.array([[0.2], [0.5], [0.8]])
        y = np.array([3.0, 4.0, 5.0])
        gp = gp_fit(X, y)
        mean, var = gp.posterior(np.array([500.0]))
        assert mean == pytest.approx(y.mean(), abs=1e-9)
        assert var == pytest.approx(y.var(), abs=1e-9)

    def test_posterior_matches_direct_solve(self):
        # independent dense linear-algebra recomputation at a held-out point
        rng = np.random.default_rng(0)
        X = rng.random((5, 1))
        y = np.sin(3 * X[:, 0])
        gp = gp_fit(X, y)
        x_star = np.array([0.37])

        ls = gp.lengthscales
        K = np.exp(-0.5 * ((X[:, None, :] - X[None, :, :]) ** 2 / ls**2).sum(-1))
        K[np.diag_indices_from(K)] += 1e-8
        k_star = np.exp(-0.5 * (((x_star - X) / ls) ** 2).sum(-1))
        y_norm = (y - y.mean()) / y.std()
        direct = y.mean() + y.std() * (k_star @ np.linalg.solve(K, y_norm))

        mean, _ = gp.posterior(x_star)
        assert mean == pytest.approx(direct, abs=1e-8)

    def test_needs_an_observation(self):
        with pytest.raises(ValueError):
            gp_fit(np.zeros((0, 1)), np.zeros(0))

    def test_single_observation_ok(self):
        gp = gp_fit(np.array([[0.5]]), np.array([2.0]))
        mean, var = gp.posterior(np.array([0.5]))
        assert mean == pytest.approx(2.0, abs=1e-6)
        assert var >= 0.0


class TestExpectedImprovement:
    def test_zero_variance_no_improvement(self):
        assert expected_improvement(1.0, 0.0, best_so_far=1.0) == 0.0
        assert expected_improvement(2.0, 0.0, best_so_far=1.0) == 0.0

    def test_zero_variance_certain_improvement(self):
        assert expected_improvement(0.0, 0.0, best_so_far=1.0) == pytest.approx(1.0)

    def test_at_the_mean_equals_phi_zero(self):
        assert expected_improvement(1.0, 1.0, best_so_far=1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-12
        )

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(0)
        best, mean, sigma = 1.0, 1.0, 1.0
        samples = rng.normal(mean, sigma, size=1_000_000)
        mc = np.maximum(best - samples, 0.0).mean()
        assert expected_improvement(mean, sigma**2, best) == pytest.approx(mc, abs=1e-3)

    def test_never_negative(self):
        rng = np.random.default_rng(1)
        means = rng.normal(size=300)
        variances = rng.uniform(0, 4, size=300)
        ei = expected_improvement(means, variances, best_so_far=0.0)
        assert (ei >= 0.0).all()


class TestBoLoop:
    @staticmethod
    def _quadratic_space():
        return SearchSpace([Dimension("x", 0.0, 1.0)])

    def test_quadratic_benchmark(self):
        hits = 0
        for seed in range(20):
            result = bo_loop(lambda p: (p["x"] - 0.3) ** 2, self._quadratic_space(),
                             n_init=3, n_iter=10, seed=seed)
            hits += abs(result.best_params["x"] - 0.3) <= 0.05
        assert hits >= 18

    def test_constant_objective(self):
        result = bo_loop(lambda p: 5.0, self._quadratic_space(), n_init=2, n_iter=3, seed=0)
        assert result.best_objective == 5.0
        assert result.best_params == result.trace[0].params
        gp = gp_fit(np.array([[0.1], [0.9]]), np.array([5.0, 5.0]))
        mean, var = gp.posterior(np.array([[0.3], [0.6]]))
        ei = expected_improvement(mean, var, 5.0)
        assert (ei <= 1e-6).all()

    def test_objective_failure_recorded_as_inf(self):
        def flaky(p):
            if p["x"] < 0.5:
                raise RuntimeError("boom")
            return p["x"]

        result = bo_loop(flaky, self._quadratic_space(), n_init=4, n_iter=4, seed=1)
        assert any(math.isinf(t.objective) for t in result.trace)
        assert len(result.trace) == 8
        assert math.isfinite(result.best_objective)

    def test_a_dead_worker_is_raised_not_scored(self):
        calls = []

        def dies_at_second(p):
            calls.append(p)
            if len(calls) == 2:
                raise ChildProcessError("a worker process died before its work was done")
            return p["x"]

        with pytest.raises(ChildProcessError, match="^a worker process died"):
            bo_loop(dies_at_second, self._quadratic_space(), n_init=3, n_iter=2, seed=1)
        assert len(calls) == 2

    def test_incumbent_monotone(self):
        result = bo_loop(lambda p: math.sin(7 * p["x"]), self._quadratic_space(),
                         n_init=3, n_iter=8, seed=3)
        incumbents = [t.incumbent for t in result.trace]
        assert all(b <= a + 1e-15 for a, b in zip(incumbents, incumbents[1:]))

    def test_reproducible(self):
        f = lambda p: (p["x"] - 0.7) ** 2
        r1 = bo_loop(f, self._quadratic_space(), n_init=3, n_iter=5, seed=11)
        r2 = bo_loop(f, self._quadratic_space(), n_init=3, n_iter=5, seed=11)
        assert [(t.params, t.objective) for t in r1.trace] == [
            (t.params, t.objective) for t in r2.trace
        ]

    def test_two_dimensional_log_space(self):
        space = SearchSpace.default()
        result = bo_loop(
            lambda p: (math.log10(p["lr"]) + 3) ** 2, space, n_init=3, n_iter=6, seed=2
        )
        assert math.isfinite(result.best_objective)
        assert set(result.best_params) == {"lr", "weight_decay"}
