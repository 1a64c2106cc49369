"""Unknown-mean extension: trend-aware scoring and estimation.

When the observed process carries a linear trend over known basis
functions, the leave-one-out machinery runs on the projected precision
matrix (inverse covariance minus its projection onto the trend
columns). The projected diagonal and the projected data vector are all
that is needed, keeping evaluation O(n p^2); the paper's residual
decomposition into four bounded correction terms is returned with every
score for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .designs import Design
from .errors import ConditioningError, InvalidParameterError, OucvError
from .estimation import (
    EstimateResult,
    ParameterBox,
    _data_rows,
    _minimize_theta,
    _result,
    _single,
    _unfailed,
    profile_sigma2,
)
from .scoring import ScoreDecomposition, _check_data, _check_sigma2, precision_matrix
from .simulate import check_full_rank

__all__ = [
    "RegressionScore",
    "gls_beta",
    "reg_log_score",
    "reg_score_decomposition",
    "loo_beta",
    "loo_trend_prediction",
    "estimate_cv_reg",
    "cv_reg_batch",
]

_DENSE_MAX_N = 2000


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


def _projection_parts(design: Design, z: np.ndarray, theta: float, F: np.ndarray):
    """Everything the projected-precision route needs, in O(n p^2).

    Returns the precision diagonal, the precision-mapped data and trend
    columns, the projected diagonal, and the projected data vector.
    """
    P = precision_matrix(design, theta)
    Pz = P.matvec(z)
    PF = P.apply_to_columns(F)
    M = F.T @ PF
    try:
        chol = scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ConditioningError(f"normal matrix factorization failed: {err}") from err
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
    F = _prepare_F(design, F)
    P = precision_matrix(design, theta)
    PF = P.apply_to_columns(F)
    M = F.T @ PF
    try:
        chol = scipy.linalg.cho_factor(M, lower=True)
    except scipy.linalg.LinAlgError as err:
        raise ConditioningError(f"normal matrix factorization failed: {err}") from err
    return scipy.linalg.cho_solve(chol, PF.T @ z)


def reg_score_decomposition(design: Design, z, theta: float, F) -> ScoreDecomposition:
    """Variance-free split of the trend-aware score.

    Same shape as the centered decomposition: the log part collects the
    negated logs of the projected precision diagonal, the quadratic part
    the normalized squares of the projected data.
    """
    return _reg_decomposition(design, _check_data(design, z), theta, _prepare_F(design, F))


def _reg_decomposition(design: Design, z: np.ndarray, theta: float, F: np.ndarray) -> ScoreDecomposition:
    _, _, _, _, _, proj_diag, proj_z = _projection_parts(design, z, theta, F)
    L = -float(np.sum(np.log(proj_diag)))
    Q = float(np.sum(proj_z * proj_z / proj_diag))
    return ScoreDecomposition(L=L, Q=Q, n=design.n)


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
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"deleted-design route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    if not 0 <= i < design.n:
        raise InvalidParameterError(f"index {i} out of range for n = {design.n}")
    pts = np.delete(design.points, i)
    z_minus = np.delete(z, i)
    F_minus = np.delete(F, i, axis=0)
    K = np.exp(-theta * np.abs(pts[:, None] - pts[None, :]))
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
    return pts, z_minus, F_minus, chol, mchol, KiF, beta


def loo_beta(design: Design, z, theta: float, F, i: int) -> np.ndarray:
    """Trend coefficients estimated with observation ``i`` (0-based) deleted.

    Direct dense computation on the deleted design; intended for
    oracles and residual-term verification, not for production scoring.
    """
    z = _check_data(design, z)
    F = _prepare_F(design, F)
    return _deleted_dense_parts(design, z, theta, F, i)[6]


def loo_trend_prediction(design: Design, z, theta: float, F, i: int) -> tuple[float, float]:
    """Dense leave-one-out prediction and normalized variance at point ``i``.

    Universal-kriging prediction of z_i from the deleted data: the
    deleted-design coefficient estimate plus the correlated residual
    correction; the variance term accounts for the estimated trend. The
    observation z_i itself is never used.
    """
    z = _check_data(design, z)
    F = _prepare_F(design, F)
    pts, z_minus, F_minus, chol, mchol, KiF, beta = _deleted_dense_parts(
        design, z, theta, F, i
    )
    r = np.exp(-theta * np.abs(design.points[i] - pts))
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

    The rows share the batched search, but each objective value is one
    O(n p^2) decomposition. Returns one entry per row: an
    :class:`EstimateResult`, or the :class:`OucvError` that row failed
    with.
    """
    F = _prepare_F(design, F)
    Z, slots = _data_rows(design, Z)
    ok = _unfailed(slots)

    def objective(rows, thetas, failed):
        out = np.full((rows.size, thetas.shape[-1]), np.nan)
        for i, r in enumerate(rows):
            if r in failed:
                continue
            for j, theta in enumerate(thetas if thetas.ndim == 1 else thetas[i]):
                try:
                    d = _reg_decomposition(design, Z[ok[r]], float(theta), F)
                except OucvError as err:
                    failed[r] = err
                    break
                out[i, j] = d.score_at(profile_sigma2(d, box))
        return out

    theta_hat, values, iterations, evaluations, failed = _minimize_theta(
        objective, box.a, box.A, len(ok), design.n
    )
    for i, r in enumerate(ok):
        if i in failed:
            slots[r] = failed[i]
            continue
        z = Z[r]
        theta = float(theta_hat[i])
        try:
            sigma2 = profile_sigma2(_reg_decomposition(design, z, theta, F), box)
            step = 1e-6 * theta
            hi = _reg_decomposition(design, z, theta + step, F).score_at(sigma2)
            lo = _reg_decomposition(design, z, theta - step, F).score_at(sigma2)
        except OucvError as err:
            slots[r] = err
            continue
        slots[r] = _result(
            box, theta, sigma2, values[i], (hi - lo) / (2.0 * step),
            iterations[i], evaluations[i],
        )
    return slots
