"""Unknown-mean extension: trend-aware scoring and estimation.

When the observed process carries a linear trend over known basis
functions, the leave-one-out machinery runs on the projected precision
matrix (inverse covariance minus its projection onto the trend
columns). The projected diagonal and the projected data vector are all
that is needed, keeping evaluation O(n p^2); the paper's residual
decomposition into four bounded correction terms is returned with every
score for verification.

The estimator's objective is one batched kernel, :func:`reg_parts`,
evaluated for (replicate x theta) arrays like the centered kernels of
:mod:`oucv.scoring`. Everything but the quadratic part depends on theta
alone, so it is computed once per theta and shared by the replicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .designs import Design
from .errors import ConditioningError, InvalidParameterError
from .estimation import EstimateResult, ParameterBox, _search_batch, _single
from .scoring import (
    _DENSE_MAX_N,
    ScoreDecomposition,
    _check_data,
    _check_sigma2,
    _check_theta,
    _precisions,
    precision_matrix,
)
from .simulate import check_full_rank, covariance_matrix

__all__ = [
    "RegressionScore",
    "gls_beta",
    "reg_log_score",
    "reg_score_decomposition",
    "reg_parts",
    "loo_beta",
    "loo_trend_prediction",
    "estimate_cv_reg",
    "cv_reg_batch",
]

@dataclass(frozen=True)
class RegressionScore:
    """Trend-aware score with its correction-term decomposition.

    ``value`` is the full score; ``base_score`` is the centered-model
    score evaluated on the same data, and the four residual terms tie
    the two together:
    value == base_score - r1 + (r2 + 2 r3 - r4) / sigma2.
    """

    value: float
    r1: float
    r2: float
    r3: float
    r4: float
    base_score: float


def _prepare_F(design: Design, F) -> np.ndarray:
    F = np.asarray(F, dtype=float)
    if F.ndim == 1:
        F = F[:, None]
    if F.shape[0] != design.n:
        raise InvalidParameterError(
            f"trend matrix has {F.shape[0]} rows for a design of size {design.n}"
        )
    if F.shape[1] >= design.n:
        raise InvalidParameterError(
            f"trend matrix must have fewer columns ({F.shape[1]}) than observations ({design.n})"
        )
    check_full_rank(F)
    return F


def _normal_factor(design: Design, theta: float, F: np.ndarray):
    """The precision P, the mapped trend columns PF, and the Cholesky
    factor of the normal matrix F' P F."""
    P = precision_matrix(design, theta)
    PF = P.apply_to_columns(F)
    try:
        chol = scipy.linalg.cho_factor(F.T @ PF, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ConditioningError(f"normal matrix factorization failed: {err}") from err
    return P, PF, chol


def _projection_parts(design: Design, z: np.ndarray, theta: float, F: np.ndarray):
    """Everything the projected-precision route needs, in O(n p^2).

    Returns the precision diagonal, the precision-mapped data and trend
    columns, the projected diagonal, and the projected data vector.
    """
    P, PF, chol = _normal_factor(design, theta, F)
    Pz = P.matvec(z)
    # ebar_i = g_i' M^{-1} g_i with g_i the i-th row of PF
    S = scipy.linalg.cho_solve(chol, PF.T)
    ebar = np.einsum("ij,ji->i", PF, S)
    proj_diag = P.diag - ebar
    if np.any(proj_diag <= 0.0):
        raise ConditioningError("projected leave-one-out variance collapsed to zero")
    proj_z = Pz - PF @ scipy.linalg.cho_solve(chol, F.T @ Pz)
    return P, Pz, PF, chol, ebar, proj_diag, proj_z


def gls_beta(design: Design, z, theta: float, F) -> np.ndarray:
    """Generalized-least-squares trend coefficients under the working covariance.

    Solves (F' R^-1 F) beta = F' R^-1 z using the tridiagonal precision
    for all matrix products, so the cost is O(n p^2).
    """
    z = _check_data(design, z)
    _, PF, chol = _normal_factor(design, theta, _prepare_F(design, F))
    return scipy.linalg.cho_solve(chol, PF.T @ z)


def reg_parts(design: Design, Y: np.ndarray, thetas, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trend-aware score's L and Q for many rows and thetas at once.

    Batched like :func:`~oucv.scoring.score_parts`: ``Y`` is (R, n),
    ``thetas`` is shared, shape (T,), or per row, shape (R, k); L has
    the shape of ``thetas`` and Q is (R, T) or (R, k). L is NaN at a
    theta where the normal matrix F' P F is not positive definite or a
    projected leave-one-out variance collapsed; that theta's Q is then
    meaningless. Inputs are not validated.

    With W = C^-1 F' P for the Cholesky factor C C' = F' P F, the
    projected precision is P - W'W: its diagonal is diag(P) minus the
    column sums of W^2, and it maps z to Pz - W'(Wz). W is built one
    trend column at a time (C_jl = F_j' W_l), and it, the diagonal and
    L depend on theta alone, so only Pz, Wz and the projected residual
    are computed per (row, theta). Every sum runs over the point axis
    of its own (row, theta) pair, so a row's values do not depend on
    the rest of the batch.
    """
    P = _precisions(design, thetas)
    W = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for f in np.ascontiguousarray(F.T):
            w = P.matvec(f)
            for Wl in W:
                w -= np.sum(f * Wl, axis=-1)[..., None] * Wl
            # a pivot C_jj^2 <= 0 leaves W non-finite, caught with the diagonal
            W.append(w / np.sqrt(np.sum(f * w, axis=-1))[..., None])
        proj_diag = P.diag - sum(w * w for w in W)
        singular = ~(proj_diag > 0.0).all(axis=-1)
        L = np.where(singular, np.nan, -np.sum(np.log(proj_diag), axis=-1))
        Z = Y[:, None, :]
        proj_z = P.matvec(Z)
        for w in W:
            proj_z -= np.sum(w * Z, axis=-1)[..., None] * w
        Q = np.sum(proj_z * proj_z / proj_diag, axis=-1)
    return L, Q


def reg_score_decomposition(design: Design, z, theta: float, F) -> ScoreDecomposition:
    """Variance-free split of the trend-aware score.

    Same shape as the centered decomposition: the log part collects the
    negated logs of the projected precision diagonal, the quadratic part
    the normalized squares of the projected data.
    """
    _check_theta(theta)
    z = _check_data(design, z)
    L, Q = reg_parts(design, z[None, :], [theta], _prepare_F(design, F))
    if np.isnan(L[0]):
        raise ConditioningError(
            f"trend projection is singular at theta = {theta}: the normal matrix is not "
            "positive definite or a projected leave-one-out variance collapsed"
        )
    return ScoreDecomposition(L=float(L[0]), Q=float(Q[0, 0]), n=design.n)


def reg_log_score(design: Design, z, theta: float, sigma2: float, F) -> RegressionScore:
    """Trend-aware logarithmic score with its residual decomposition.

    The correction terms are evaluated from the same projected
    quantities (no dense matrices): the trend-aware and centered
    leave-one-out residuals differ exactly by the epsilon terms of the
    decomposition.
    """
    _check_sigma2(sigma2)
    z = _check_data(design, z)
    F = _prepare_F(design, F)
    n = design.n
    P, Pz, _, _, ebar, proj_diag, proj_z = _projection_parts(design, z, theta, F)
    value = (
        n * np.log(sigma2)
        - float(np.sum(np.log(proj_diag)))
        + float(np.sum(proj_z * proj_z / proj_diag)) / sigma2
    )
    resid_centered = Pz / P.diag
    resid_trend = proj_z / proj_diag
    eps = resid_trend - resid_centered
    r1 = float(np.sum(np.log(proj_diag) - np.log(P.diag)))
    r2 = float(np.sum(P.diag * eps * eps))
    r3 = float(np.sum(eps * Pz))
    r4 = float(np.sum(ebar * resid_trend * resid_trend))
    base = (
        n * np.log(sigma2)
        - float(np.sum(np.log(P.diag)))
        + float(np.sum(P.diag * resid_centered * resid_centered)) / sigma2
    )
    return RegressionScore(
        value=float(value), r1=r1, r2=r2, r3=r3, r4=r4, base_score=float(base)
    )


def _deleted_dense_parts(design: Design, z: np.ndarray, theta: float, F: np.ndarray, i: int):
    """The deleted design's covariance factor, normal-matrix factor,
    K^-1 F and trend coefficients, with z, F and the covariances to point
    ``i``, all with observation ``i`` removed."""
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"deleted-design route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    if not 0 <= i < design.n:
        raise InvalidParameterError(f"index {i} out of range for n = {design.n}")
    R = np.delete(covariance_matrix(design, theta), i, axis=1)
    r = R[i]
    K = np.delete(R, i, axis=0)
    z_minus = np.delete(z, i)
    F_minus = np.delete(F, i, axis=0)
    try:
        chol = scipy.linalg.cho_factor(K, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ConditioningError(f"deleted covariance factorization failed: {err}") from err
    KiF = scipy.linalg.cho_solve(chol, F_minus)
    M = F_minus.T @ KiF
    try:
        mchol = scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ConditioningError(f"deleted normal matrix factorization failed: {err}") from err
    beta = scipy.linalg.cho_solve(mchol, KiF.T @ z_minus)
    return r, z_minus, F_minus, chol, mchol, beta


def loo_beta(design: Design, z, theta: float, F, i: int) -> np.ndarray:
    """Trend coefficients estimated with observation ``i`` (0-based) deleted.

    Direct dense computation on the deleted design; intended for
    oracles and residual-term verification, not for production scoring.
    """
    z = _check_data(design, z)
    F = _prepare_F(design, F)
    return _deleted_dense_parts(design, z, theta, F, i)[-1]


def loo_trend_prediction(design: Design, z, theta: float, F, i: int) -> tuple[float, float]:
    """Dense leave-one-out prediction and normalized variance at point ``i``.

    Universal-kriging prediction of z_i from the deleted data: the
    deleted-design coefficient estimate plus the correlated residual
    correction; the variance term accounts for the estimated trend. The
    observation z_i itself is never used.
    """
    z = _check_data(design, z)
    F = _prepare_F(design, F)
    r, z_minus, F_minus, chol, mchol, beta = _deleted_dense_parts(design, z, theta, F, i)
    Kir = scipy.linalg.cho_solve(chol, r)
    f_i = F[i]
    pred = float(f_i @ beta + Kir @ (z_minus - F_minus @ beta))
    u = f_i - F_minus.T @ Kir
    var = float(1.0 - r @ Kir + u @ scipy.linalg.cho_solve(mchol, u))
    return pred, var


def estimate_cv_reg(design: Design, z, F, box: ParameterBox) -> EstimateResult:
    """Joint trend-aware score minimizer over the box.

    Identical profile-plus-refinement scheme as the centered case; the
    reported gradient is a central finite difference of the score in
    theta at the profiled variance.
    """
    return _single(cv_reg_batch(design, _check_data(design, z)[None, :], F, box))


def cv_reg_batch(design: Design, Z, F, box: ParameterBox) -> list:
    """:func:`estimate_cv_reg` on every row of Z (R, n).

    The rows share the batched search of :mod:`oucv.estimation`, with
    :func:`reg_parts` as the objective's kernel; a theta where the
    trend projection is singular fails its rows with
    :class:`ConditioningError`. Returns one entry per row: an
    :class:`EstimateResult`, or the :class:`OucvError` that row failed
    with.
    """
    F = _prepare_F(design, F)

    def parts(design, Y, thetas):
        return reg_parts(design, Y, thetas, F)

    return _search_batch(design, Z, box, parts, None, width=design.n * F.shape[1])
