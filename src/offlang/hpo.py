"""Gaussian-process Bayesian optimization with expected improvement.

The surrogate is an exact GP with a squared-exponential kernel over the
unit-cube-normalized search space; acquisition is maximized over seeded
candidate samples, keeping the whole loop reproducible.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

JITTER = 1e-8
N_CANDIDATES = 1000  # seeded random points over which EI is maximized each round
_LENGTHSCALE_GRID = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0)


@dataclass
class Dimension:
    name: str
    lower: float
    upper: float
    scale: str = "linear"  # or "log"

    def __post_init__(self):
        if self.lower >= self.upper:
            raise ValueError(f"{self.name}: lower must be < upper")
        if self.scale not in ("linear", "log"):
            raise ValueError(f"{self.name}: scale must be linear or log")
        if self.scale == "log" and self.lower <= 0:
            raise ValueError(f"{self.name}: log scale requires lower > 0")

    def from_unit(self, u: float) -> float:
        if self.scale == "log":
            lo, hi = math.log(self.lower), math.log(self.upper)
            return math.exp(lo + u * (hi - lo))
        return self.lower + u * (self.upper - self.lower)


@dataclass
class SearchSpace:
    dimensions: list[Dimension]

    @classmethod
    def default(cls) -> "SearchSpace":
        return cls(
            [
                Dimension("lr", 1e-5, 1e-1, "log"),
                Dimension("weight_decay", 1e-12, 1e-2, "log"),
            ]
        )

    def decode(self, unit_point: np.ndarray) -> dict[str, float]:
        return {d.name: d.from_unit(float(u)) for d, u in zip(self.dimensions, unit_point)}


def _phi(z: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _Phi(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.vectorize(math.erf)(z / math.sqrt(2.0)))


def expected_improvement(mean, variance, best_so_far):
    """EI for minimization: E[max(best - Y, 0)] under N(mean, variance).

    Degenerates to max(best - mean, 0) when the variance is zero.
    """
    mean = np.asarray(mean, dtype=float)
    sigma = np.sqrt(np.clip(np.asarray(variance, dtype=float), 0.0, None))
    improve = best_so_far - mean
    ei = np.where(sigma > 0, 0.0, np.maximum(improve, 0.0))
    z = np.divide(improve, sigma, out=np.zeros_like(mean), where=sigma > 0)
    with np.errstate(invalid="ignore"):
        ei = np.where(sigma > 0, improve * _Phi(z) + sigma * _phi(z), ei)
    return np.maximum(ei, 0.0)


def _sq_dists(a: np.ndarray, b: np.ndarray, lengthscales: np.ndarray) -> np.ndarray:
    diff = a[:, None, :] / lengthscales - b[None, :, :] / lengthscales
    return (diff * diff).sum(axis=2)


class GpSurrogate:
    """Exact GP regression on normalized observations (Cholesky solve)."""

    def __init__(self, X: np.ndarray, y: np.ndarray, lengthscales: np.ndarray):
        self.X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float)
        self.y_mean = float(y.mean())
        # signal variance = var(y); zero spread means a constant function
        self.y_scale = float(y.std())
        self.y_norm = (y - self.y_mean) / self.y_scale if self.y_scale > 0 else np.zeros_like(y)
        self.lengthscales = np.asarray(lengthscales, dtype=float)

        K = np.exp(-0.5 * _sq_dists(self.X, self.X, self.lengthscales))
        K[np.diag_indices_from(K)] += JITTER
        self.chol = np.linalg.cholesky(K)
        self.alpha = np.linalg.solve(
            self.chol.T, np.linalg.solve(self.chol, self.y_norm)
        )

    def log_marginal_likelihood(self) -> float:
        n = self.y_norm.shape[0]
        return float(
            -0.5 * self.y_norm @ self.alpha
            - np.log(np.diag(self.chol)).sum()
            - 0.5 * n * math.log(2.0 * math.pi)
        )

    def posterior(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior (mean, variance) at query points; variance clamped >= 0."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        k_star = np.exp(-0.5 * _sq_dists(pts, self.X, self.lengthscales))
        mean = self.y_mean + self.y_scale * (k_star @ self.alpha)
        v = np.linalg.solve(self.chol, k_star.T)
        var = self.y_scale**2 * np.clip(1.0 - (v * v).sum(axis=0), 0.0, None)
        return mean, var


def gp_fit(X: np.ndarray, y: np.ndarray) -> GpSurrogate:
    """Fit the surrogate, picking per-dimension lengthscales from a grid by
    log marginal likelihood."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] < 1:
        raise ValueError("need at least one observation")
    grids = np.stack([g.ravel() for g in np.meshgrid(*([_LENGTHSCALE_GRID] * X.shape[1]))], axis=1)
    best = None
    for lengthscales in grids:
        gp = GpSurrogate(X, y, lengthscales)
        lml = gp.log_marginal_likelihood()
        if best is None or lml > best[0]:
            best = (lml, gp)
    return best[1]


def _radical_inverse(index: int, base: int) -> float:
    inv = 0.0
    scale = 1.0 / base
    while index > 0:
        inv += (index % base) * scale
        index //= base
        scale /= base
    return inv


_HALTON_BASES = (2, 3, 5, 7, 11, 13)


def _halton_points(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """Low-discrepancy init points with a seeded random shift per dimension."""
    shift = rng.random(dims)
    pts = np.empty((n, dims))
    for i in range(n):
        for d in range(dims):
            pts[i, d] = (_radical_inverse(i + 1, _HALTON_BASES[d % len(_HALTON_BASES)]) + shift[d]) % 1.0
    return pts


@dataclass
class BoTrial:
    iteration: int
    params: dict[str, float]
    objective: float
    incumbent: float


@dataclass
class BoResult:
    best_params: dict[str, float]
    best_objective: float
    trace: list[BoTrial] = field(default_factory=list)


def bo_loop(
    objective: Callable[[dict[str, float]], float],
    space: SearchSpace,
    n_init: int,
    n_iter: int,
    seed: int,
) -> BoResult:
    """`n_init` seeded quasi-random trials, then `n_iter` trials that each
    fit the GP and take the seeded candidate of highest EI.

    A failing objective is recorded as +inf and the loop continues; for GP
    fitting such points are replaced by the worst finite value seen. An
    OSError is not a score but a fault of the machine (a worker process that
    died, a failed read or write), and is raised.
    """
    dims = len(space.dimensions)
    rng = np.random.default_rng(seed)

    X_unit = list(_halton_points(n_init, dims, rng))
    ys: list[float] = []
    finite: list[float] = []  # the finite values in ys
    trace: list[BoTrial] = []
    for iteration in range(n_init + n_iter):
        if iteration >= n_init:
            worst = max(finite, default=1.0)
            gp = gp_fit(np.array(X_unit), np.array([v if math.isfinite(v) else worst for v in ys]))
            candidates = rng.random((N_CANDIDATES, dims))
            mean, var = gp.posterior(candidates)
            X_unit.append(candidates[int(np.argmax(expected_improvement(mean, var, min(finite, default=worst))))])
        point = space.decode(X_unit[iteration])
        try:
            value = float(objective(point))
        except OSError:
            raise
        except Exception:
            value = math.inf
        ys.append(math.inf if math.isnan(value) else value)
        finite = [v for v in ys if math.isfinite(v)]
        trace.append(BoTrial(iteration, point, ys[-1], min(finite, default=math.inf)))

    best_idx = int(np.argmin(ys))
    return BoResult(
        best_params=space.decode(X_unit[best_idx]),
        best_objective=ys[best_idx],
        trace=trace,
    )


def write_bo_trace(result: BoResult, space: SearchSpace, path) -> None:
    """CSV trace: iteration, one column per dimension, objective, incumbent."""
    names = [d.name for d in space.dimensions]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iteration," + ",".join(names) + ",objective,incumbent\n")
        for t in result.trace:
            vals = ",".join(repr(t.params[n]) for n in names)
            fh.write(f"{t.iteration},{vals},{t.objective!r},{t.incumbent!r}\n")
