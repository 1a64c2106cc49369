"""Matrix-free evaluation of the leave-one-out logarithmic score.

The Markov structure of the exponential kernel makes the precision
matrix tridiagonal, so the full cross-validation score, its variance
decomposition, its analytic derivative in the inverse length scale, and
the Gaussian likelihood all cost O(n). A deliberately independent dense
route (generic Cholesky on the full covariance) serves as the oracle
for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .designs import Design
from .errors import (
    ConditioningError,
    InvalidParameterError,
    NumericalFailureError,
)
from .numerics import log_one_minus_exp_neg, one_minus_exp_neg
from .simulate import covariance_matrix

__all__ = [
    "ScoreDecomposition",
    "LooSummary",
    "TridiagonalPrecision",
    "precision_matrix",
    "loo_predictions",
    "score_parts",
    "score_gradient",
    "ml_parts",
    "ml_gradient",
    "log_score",
    "score_decomposition",
    "score_gradient_theta",
    "ml_neg2loglik",
    "ml_decomposition",
    "ml_gradient_theta",
    "dense_precision",
    "dense_oracle_score",
    "dense_oracle_ml",
]

_DENSE_MAX_N = 2000
# Cholesky pivot min/max below this means the covariance is numerically
# singular (near-duplicate points); the dense oracle refuses to answer
_PIVOT_RATIO_MIN = 1e-5


@dataclass(frozen=True)
class ScoreDecomposition:
    """Variance-free split of the score: S(theta, s2) = n log s2 + L + Q / s2."""

    L: float
    Q: float
    n: int

    def score_at(self, sigma2: float) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            return self.n * np.log(sigma2) + self.L + self.Q / sigma2


@dataclass(frozen=True)
class LooSummary:
    """Leave-one-out predictions and unit-variance conditional variances.

    ``normalized_variances[i]`` times sigma^2 is the conditional
    variance of observation i given all others.
    """

    predictions: np.ndarray
    normalized_variances: np.ndarray


@dataclass(frozen=True)
class TridiagonalPrecision:
    """Symmetric tridiagonal inverse of the unit-variance covariance."""

    diag: np.ndarray
    off: np.ndarray

    def to_dense(self) -> np.ndarray:
        n = self.diag.size
        M = np.zeros((n, n))
        M[np.arange(n), np.arange(n)] = self.diag
        M[np.arange(n - 1), np.arange(1, n)] = self.off
        M[np.arange(1, n), np.arange(n - 1)] = self.off
        return M

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """The product along the last axis; a batched precision (leading
        theta axes on ``diag`` and ``off``) broadcasts against ``x``."""
        x = np.asarray(x, dtype=float)
        out = self.diag * x
        out[..., :-1] += self.off * x[..., 1:]
        out[..., 1:] += self.off * x[..., :-1]
        return out


def _check_theta(theta: float) -> None:
    if not (np.isfinite(theta) and theta > 0.0):
        raise InvalidParameterError(f"theta must be positive and finite, got {theta}")


def _check_sigma2(sigma2: float) -> None:
    if not (np.isfinite(sigma2) and sigma2 > 0.0):
        raise InvalidParameterError(f"sigma2 must be positive and finite, got {sigma2}")


def _check_data(design: Design, y) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (design.n,):
        raise InvalidParameterError(
            f"data length {y.shape} does not match design size {design.n}"
        )
    if not np.all(np.isfinite(y)):
        raise NumericalFailureError("nonfinite values in the observation vector")
    return y


def _two_theta_gaps(thetas, gaps: np.ndarray) -> np.ndarray:
    """2 theta gap for ``thetas`` of any shape, with the gap axis appended last."""
    return 2.0 * np.asarray(thetas, dtype=float)[..., None] * gaps


def _kernel_arrays(design: Design, thetas):
    """Per-gap decay E, one-minus-squared-decay G, and its reciprocal.

    ``thetas`` may have any shape; the gap axis is appended last.
    """
    g = design.gaps
    E = np.exp(-np.asarray(thetas, dtype=float)[..., None] * g)
    G = one_minus_exp_neg(_two_theta_gaps(thetas, g))
    return g, E, G, 1.0 / G


def _cv_terms(design: Design, Y: np.ndarray, thetas):
    """Leave-one-out residual pieces for data rows ``Y`` (R, n).

    ``thetas`` is either shared by every row, shape (T,), or one set per
    row, shape (R, k); every returned term broadcasts to (R, T) or
    (R, k), with the point axis last where there is one.
    """
    g, E, G, a = _kernel_arrays(design, thetas)
    Y = Y[:, None, :]
    A = a[..., :-1] + a[..., 1:] - 1.0
    c = a * E  # negated off-diagonal weights
    w_left = Y[..., 0] - E[..., 0] * Y[..., 1]
    w_right = Y[..., -1] - E[..., -1] * Y[..., -2]
    resid = Y[..., 1:-1] - (c[..., :-1] * Y[..., :-2] + c[..., 1:] * Y[..., 2:]) / A
    return g, E, G, a, A, c, w_left, w_right, resid


def score_parts(design: Design, Y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The score's log part L and quadratic part Q for many rows and thetas at once.

    ``Y`` holds one data vector per row, shape (R, n); ``thetas`` is
    shared, shape (T,), or per row, shape (R, k). L depends on theta
    only and has the shape of ``thetas``; Q has shape (R, T) or (R, k).
    Inputs are not validated: this is the kernel behind the checked
    entry points.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        _, _, _, a, A, _, w_left, w_right, resid = _cv_terms(design, Y, thetas)
        ends = log_one_minus_exp_neg(_two_theta_gaps(thetas, design.gaps[[0, -1]]))
        L = ends[..., 0] + ends[..., 1] - np.sum(np.log(A), axis=-1)
        Q = (
            a[..., 0] * w_left * w_left
            + a[..., -1] * w_right * w_right
            + np.sum(A * resid * resid, axis=-1)
        )
    return L, Q


def score_gradient(design: Design, Y: np.ndarray, thetas, sigma2) -> np.ndarray:
    """Analytic theta-derivative of the score, batched like :func:`score_parts`.

    ``sigma2`` broadcasts against the (R, T) or (R, k) result.
    """
    g, E, G, a, A, c, w_left, w_right, resid = _cv_terms(design, Y, thetas)
    Y = Y[:, None, :]
    dG = 2.0 * g * (1.0 - G)  # d/dtheta (1 - e^{-2 theta g})
    da = -dG * a * a
    dE = -g * E
    dA = da[..., :-1] + da[..., 1:]
    dc = da * E + a * dE

    num = c[..., :-1] * Y[..., :-2] + c[..., 1:] * Y[..., 2:]
    dnum = dc[..., :-1] * Y[..., :-2] + dc[..., 1:] * Y[..., 2:]
    dresid = -(dnum * A - num * dA) / (A * A)
    dw_left = g[0] * E[..., 0] * Y[..., 1]
    dw_right = g[-1] * E[..., -1] * Y[..., -2]

    d_logs = dG[..., 0] * a[..., 0] + dG[..., -1] * a[..., -1] - np.sum(dA / A, axis=-1)
    d_quad = (
        da[..., 0] * w_left * w_left
        + 2.0 * a[..., 0] * w_left * dw_left
        + da[..., -1] * w_right * w_right
        + 2.0 * a[..., -1] * w_right * dw_right
        + np.sum(dA * resid * resid + 2.0 * A * resid * dresid, axis=-1)
    )
    return d_logs + d_quad / sigma2


def ml_parts(design: Design, Y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The likelihood objective's L and Q, batched like :func:`score_parts`."""
    _, E, G, _ = _kernel_arrays(design, thetas)
    Y = Y[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        W = Y[..., 1:] - E * Y[..., :-1]
        logs = log_one_minus_exp_neg(_two_theta_gaps(thetas, design.gaps))
        L = design.n * np.log(2.0 * np.pi) + np.sum(logs, axis=-1)
        Q = Y[..., 0] * Y[..., 0] + np.sum(W * W / G, axis=-1)
    return L, Q


def ml_gradient(design: Design, Y: np.ndarray, thetas, sigma2) -> np.ndarray:
    """Analytic theta-derivative of the likelihood objective, batched."""
    g, E, G, _ = _kernel_arrays(design, thetas)
    Y = Y[:, None, :]
    dG = 2.0 * g * (1.0 - G)
    W = Y[..., 1:] - E * Y[..., :-1]
    dW = g * E * Y[..., :-1]
    d_quad = np.sum((2.0 * W * dW - W * W * dG / G) / G, axis=-1)
    return np.sum(dG / G, axis=-1) + d_quad / sigma2


def precision_matrix(design: Design, theta: float) -> TridiagonalPrecision:
    """Tridiagonal inverse of the unit-variance covariance matrix.

    Corner diagonal entries are 1/(1 - e^{-2 theta gap}); an interior
    entry is the sum of the two adjacent corner-type terms minus one,
    and the off-diagonal is -e^{-theta gap}/(1 - e^{-2 theta gap}).
    """
    _check_theta(theta)
    return _precisions(design, theta)


def _precisions(design: Design, thetas) -> TridiagonalPrecision:
    """:func:`precision_matrix` for ``thetas`` of any shape, unchecked;
    the point axis is appended last."""
    _, E, _, a = _kernel_arrays(design, thetas)
    # a_i + a_{i+1} e^{-2 theta gap_{i+1}} == a_i + a_{i+1} - 1 exactly
    diag = np.concatenate([a[..., :1], a[..., :-1] + a[..., 1:] - 1.0, a[..., -1:]], axis=-1)
    return TridiagonalPrecision(diag=diag, off=-a * E)


def loo_predictions(design: Design, y, theta: float) -> LooSummary:
    """Leave-one-out conditional means and normalized variances.

    Each interior prediction is the precision-weighted combination of
    the two neighbors; the endpoints condition on their single
    neighbor. Both are the data minus the leave-one-out residuals the
    score is built from. No dependence on the variance parameter.
    """
    _check_theta(theta)
    y = _check_data(design, y)
    _, _, G, _, A, _, w_left, w_right, resid = _cv_terms(design, y[None, :], [theta])
    resid = np.concatenate([w_left[..., None], resid, w_right[..., None]], axis=-1)[0, 0]
    v = np.concatenate([G[..., :1], 1.0 / A, G[..., -1:]], axis=-1)[0]
    return LooSummary(predictions=y - resid, normalized_variances=v)


def log_score(design: Design, y, theta: float, sigma2: float) -> float:
    """Cross-validation logarithmic score, matrix-free in O(n).

    Sums, over every observation, the log conditional variance plus the
    squared leave-one-out residual divided by that variance; evaluated
    as :func:`score_decomposition` at ``sigma2``.
    """
    _check_sigma2(sigma2)
    value = score_decomposition(design, y, theta).score_at(sigma2)
    if not np.isfinite(value):
        raise NumericalFailureError("logarithmic score is not finite", theta=theta)
    return float(value)


def score_decomposition(design: Design, y, theta: float) -> ScoreDecomposition:
    """Split the score into its variance-free log part L and quadratic part Q.

    The identity n log sigma2 + L + Q / sigma2 == log_score holds as an
    exact algebraic regrouping; Q is a positively weighted sum of
    squares, hence nonnegative.
    """
    _check_theta(theta)
    y = _check_data(design, y)
    L, Q = score_parts(design, y[None, :], [theta])
    return ScoreDecomposition(L=float(L[0]), Q=float(Q[0, 0]), n=design.n)


def score_gradient_theta(design: Design, y, theta: float, sigma2: float) -> float:
    """Analytic derivative of the score in theta, term by term.

    Differentiates the matrix-free expression directly; agreement with a
    central finite difference is enforced by the test oracles.
    """
    _check_theta(theta)
    _check_sigma2(sigma2)
    y = _check_data(design, y)
    return float(score_gradient(design, y[None, :], [theta], sigma2)[0, 0])


def ml_neg2loglik(design: Design, y, theta: float, sigma2: float) -> float:
    """Twice the negative Gaussian log-likelihood, via the Markov factorization.

    Each observation conditions on its left neighbor only, giving
    n log(2 pi sigma2) plus per-gap log variances plus the normalized
    squared innovations, all in O(n); evaluated as
    :func:`ml_decomposition` at ``sigma2``.
    """
    _check_sigma2(sigma2)
    value = ml_decomposition(design, y, theta).score_at(sigma2)
    if not np.isfinite(value):
        raise NumericalFailureError("likelihood objective is not finite", theta=theta)
    return float(value)


def ml_decomposition(design: Design, y, theta: float) -> ScoreDecomposition:
    """Variance-free split of the likelihood objective, same shape as the score's."""
    _check_theta(theta)
    y = _check_data(design, y)
    L, Q = ml_parts(design, y[None, :], [theta])
    return ScoreDecomposition(L=float(L[0]), Q=float(Q[0, 0]), n=design.n)


def ml_gradient_theta(design: Design, y, theta: float, sigma2: float) -> float:
    """Analytic theta-derivative of :func:`ml_neg2loglik`."""
    _check_theta(theta)
    _check_sigma2(sigma2)
    y = _check_data(design, y)
    return float(ml_gradient(design, y[None, :], [theta], sigma2)[0, 0])


def dense_precision(design: Design, theta: float) -> np.ndarray:
    """Dense inverse covariance through a generic Cholesky factorization.

    Independent of the tridiagonal closed form on purpose; n is capped
    and near-singular covariances (duplicate-like points) raise a
    conditioning error instead of returning noise.
    """
    _check_theta(theta)
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"dense route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    R = covariance_matrix(design, theta)
    try:
        chol = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"covariance factorization failed: {err}") from err
    piv = np.diag(chol)
    if float(piv.min() / piv.max()) < _PIVOT_RATIO_MIN:
        raise ConditioningError(
            "covariance is numerically singular (near-duplicate design points)"
        )
    identity = np.eye(design.n)
    return scipy.linalg.cho_solve((chol, True), identity)


def dense_oracle_score(design: Design, y, theta: float, sigma2: float) -> float:
    """Score computed the slow way: dense inverse plus the Dubrule identities."""
    _check_sigma2(sigma2)
    y = _check_data(design, y)
    P = dense_precision(design, theta)
    d = np.diag(P)
    resid = (P @ y) / d
    return float(np.sum(np.log(sigma2 / d) + d * resid * resid / sigma2))


def dense_oracle_ml(design: Design, y, theta: float, sigma2: float) -> float:
    """Gaussian -2 log-likelihood from the dense covariance."""
    _check_sigma2(sigma2)
    y = _check_data(design, y)
    _check_theta(theta)
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"dense route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    R = covariance_matrix(design, theta)
    try:
        chol = np.linalg.cholesky(R)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"covariance factorization failed: {err}") from err
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    alpha = scipy.linalg.cho_solve((chol, True), y)
    n = design.n
    return float(n * np.log(2.0 * np.pi * sigma2) + logdet + y @ alpha / sigma2)
