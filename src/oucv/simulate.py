"""Exact sampling of the exponential-covariance process at a design.

The process is Markov, so a path is generated by the one-step
recursion y_i = e^{-theta * gap} * y_{i-1} + innovation, whose implied
finite-dimensional law is exactly N(0, sigma^2 * R_theta). A trend
variant adds a linear combination of known basis functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .designs import Design
from .errors import InvalidParameterError, LinearDependenceError, check_integer, check_positive
from .numerics import one_minus_exp_neg

__all__ = [
    "CovarianceParams",
    "TrendSpec",
    "polynomial_basis",
    "sample_path",
    "sample_with_trend",
    "covariance_matrix",
]

# relative threshold on pivoted-QR diagonals when checking basis rank
_RANK_TOL = 1e-10


@dataclass(frozen=True)
class CovarianceParams:
    """Inverse length scale and variance of the exponential kernel, each :func:`~oucv.errors.positive_finite`."""

    theta: float
    sigma2: float

    def __post_init__(self):
        object.__setattr__(self, "theta", check_positive("theta", self.theta))
        object.__setattr__(self, "sigma2", check_positive("sigma2", self.sigma2))


@dataclass(frozen=True)
class TrendSpec:
    """Known mean-function basis with its coefficient vector.

    ``basis`` holds p callables on [0, 1] (twice continuously
    differentiable by contract); linear independence is checked
    numerically on each design through the rank of the evaluated
    matrix.
    """

    beta: np.ndarray
    basis: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "basis", tuple(self.basis))
        if len(self.basis) < 1:
            raise InvalidParameterError("trend basis must contain at least one function")
        if beta.size != len(self.basis):
            raise InvalidParameterError(
                f"beta has {beta.size} entries for {len(self.basis)} basis functions"
            )

    @property
    def p(self) -> int:
        return len(self.basis)

    def design_matrix(self, design: Design) -> np.ndarray:
        """Evaluate the basis at the design points and check full rank."""
        F = np.column_stack([np.asarray(f(design.points), dtype=float) for f in self.basis])
        check_full_rank(F)
        return F


def check_full_rank(F: np.ndarray) -> None:
    """Raise if F is not finite or its columns are numerically dependent (pivoted QR)."""
    F = np.asarray(F, dtype=float)
    if F.ndim != 2 or F.shape[0] < F.shape[1]:
        raise LinearDependenceError(f"basis matrix of shape {F.shape} cannot have full column rank")
    if not np.all(np.isfinite(F)):
        raise InvalidParameterError("basis matrix must be finite")
    # scaled by the power of two nearest its largest |entry|, which is
    # exact, so that neither the QR nor the norm overflows or underflows
    F = np.ldexp(F, -np.frexp(np.max(np.abs(F), initial=0.0))[1])
    diag = _pivoted_qr_diagonal(F)
    scale = float(np.linalg.norm(F))
    if scale == 0.0 or np.any(diag <= _RANK_TOL * scale):
        raise LinearDependenceError("basis functions are linearly dependent on this design")


def _pivoted_qr_diagonal(F: np.ndarray) -> np.ndarray:
    """|diag R| of the column-pivoted QR of an n x p matrix with n >= p.

    An unpivoted QR first reduces F to its p x p factor; an orthogonal
    factor on the left keeps every column norm, so Businger-Golub
    pivoting on that small factor (largest remaining column first)
    finds the pivots and diagonal of the pivoted QR of F itself.
    """
    R = np.linalg.qr(F, mode="r")
    p = R.shape[1]
    diag = np.zeros(p)
    for k in range(p):
        rest = R[k:, k:]
        sq = np.einsum("ij,ij->j", rest, rest)
        j = int(np.argmax(sq))
        if sq[j] == 0.0:  # the rest is zero, and so is the rest of the diagonal
            break
        rest[:, [0, j]] = rest[:, [j, 0]]
        diag[k] = norm = np.sqrt(sq[j])
        v = rest[:, 0].copy()
        v[0] += np.copysign(norm, v[0])  # Householder vector sending the column to -sign(x0) |x| e1
        rest -= np.outer(v, (2.0 / (v @ v)) * (v @ rest))
    return diag


def polynomial_basis(degree: int) -> tuple[Callable[[np.ndarray], np.ndarray], ...]:
    """Monomial basis (1, t, ..., t^degree)."""
    degree = check_integer("degree", degree)
    if degree < 0:
        raise InvalidParameterError(f"degree must be nonnegative, got {degree}")
    return tuple((lambda t, k=k: np.asarray(t, dtype=float) ** k) for k in range(degree + 1))


def sample_path(design: Design, params: CovarianceParams, seed) -> np.ndarray:
    """One exact draw of the centered process at the design points.

    ``seed`` feeds ``numpy.random.default_rng`` directly, so a
    non-negative integer or a tuple of them, such as (seed, replicate),
    defines a reproducible independent stream; a seed it refuses is an
    InvalidParameterError. Output is deterministic per seed.

    The recursion y_i = decay * y_{i-1} + innov_sd * eps_i runs on
    Python floats, read from the decay and innovation arrays and written
    into y through memoryviews, with no list copy: the same rounded
    operations as on numpy scalars, at a third of the cost or less. A
    path takes about 35 us at n = 200 and 12 ms at n = 1e5 (2-vCPU host).
    """
    try:
        rng = np.random.default_rng(seed)
    except (TypeError, ValueError) as err:
        raise InvalidParameterError(f"seed {seed!r} is not a valid random seed: {err}") from None
    n = design.n
    eps = rng.standard_normal(n)
    sd = np.sqrt(params.sigma2)
    decay = np.exp(-params.theta * design.gaps)
    innov = sd * np.sqrt(one_minus_exp_neg(2.0 * params.theta * design.gaps)) * eps[1:]
    y = np.empty(n, dtype=float)
    out = memoryview(y)
    out[0] = prev = float(sd * eps[0])
    for i, a, w in zip(range(1, n), memoryview(decay), memoryview(innov)):
        prev = a * prev + w
        out[i] = prev
    return y


def sample_with_trend(design: Design, params: CovarianceParams, trend: TrendSpec, seed) -> np.ndarray:
    """Trend-plus-noise draw z = F beta + y with y from :func:`sample_path`."""
    F = trend.design_matrix(design)
    return F @ trend.beta + sample_path(design, params, seed)


def covariance_matrix(design: Design, theta: float) -> np.ndarray:
    """Dense unit-variance covariance matrix exp(-theta |s_j - s_k|)."""
    theta = check_positive("theta", theta)
    s = design.points
    return np.exp(-theta * np.abs(s[:, None] - s[None, :]))
