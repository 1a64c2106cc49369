"""Unknown-mean extension: the trend-aware score.

When the observed process carries a linear trend over known basis
functions, the leave-one-out machinery runs on the projected precision
matrix (inverse covariance minus its projection onto the trend
columns). The projected diagonal and the projected data vector are all
that is needed, keeping evaluation O(n p^2); the paper's residual
decomposition into four bounded correction terms is returned with every
score for verification.

One factor of the projected precision, P - W'W with W = C^-1 F' P,
serves every route: the batched kernel :func:`reg_parts` that the
``cv-regression`` estimator of :mod:`oucv.estimation` evaluates for
(replicate x theta) arrays like the centered kernels of
:mod:`oucv.scoring`, the single-theta score and its correction terms,
and the GLS coefficients. The factor depends on theta alone. On the
search's theta grid, :class:`TrendKernel` builds it once per block of
nodes sized by the factor's own width (n p per node) and projects the
replicates onto it in sub-blocks sized by rows x n, so a grid costs a
few factors however many replicates share it. Each golden-section step
evaluates one theta per replicate, and so builds one factor per
replicate.
P is applied in the increment form of :mod:`oucv.scoring`, where the
large 1/gap terms of clustered points multiply the small increments of
a smooth trend column and do not cancel. Dense Cholesky factorizations
remain only in the deleted-design oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design
from .errors import ConditioningError, InvalidParameterError, check_finite, check_positive
from .numerics import _ELEMENT_BUDGET
from .scoring import (
    _DENSE_MAX_N,
    ScoreDecomposition,
    _check_data,
    _apply_precision,
    _in_blocks,
    _increments,
    _precision_terms,
    _take,
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


def _sum(x: np.ndarray) -> np.ndarray:
    """np.sum(x, axis=-1), bitwise, without its Python-level dispatch."""
    return np.add.reduce(x, axis=-1)


def _columns(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trend columns as :func:`_trend_factor` takes them: the rows of
    F' (p, n) and their :func:`~oucv.scoring._increments`."""
    Ft = np.ascontiguousarray(F.T)
    return Ft, _increments(Ft, 1)


def _trend_factor(design: Design, thetas, columns):
    """The theta-only part of the projected precision P - W'W, for
    ``thetas`` of any shape and the trend :func:`_columns` of F, unchecked.

    W = C^-1 F' P, with C lower triangular and C C' = F' P F, is built
    one trend column at a time: C_jl = F_j' W_l and C_jj = sqrt(F_j' w).
    Returns the precision terms (A, h, c) of
    :func:`~oucv.scoring._precision_terms`, the rows of W (point axis
    last), C (ending in (p, p)), ebar (the column sums of W^2) and the
    projected diagonal A - ebar. A pivot C_jj^2 <= 0 leaves W non-finite
    and the projected diagonal not positive.
    """
    Ft, dFt = columns
    W = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A, h, c = _precision_terms(design, thetas)
        C = np.zeros(A.shape[:-1] + (Ft.shape[0],) * 2)
        lead = (Ft.shape[0],) + (1,) * (A.ndim - 1)  # every column's P F_j in one call, column axis first
        PF = _apply_precision(Ft.reshape(lead + Ft.shape[1:]), dFt.reshape(lead + dFt.shape[1:]), h, c)
        for j, f in enumerate(Ft):
            w = PF[j]
            for l, Wl in enumerate(W):
                C[..., j, l] = _sum(f * Wl)
                w -= C[..., j, l][..., None] * Wl
            C[..., j, j] = np.sqrt(_sum(f * w))
            W.append(w / C[..., j, j][..., None])
        ebar = sum(w * w for w in W)
        return (A, h, c), W, C, ebar, A - ebar


def _theta_block(factor, block: slice):
    """The trend factor of shared thetas (T,) at the thetas ``block``."""
    (A, h, c), W, C, ebar, proj_diag = factor
    return (A[block], h[block], c[block]), [w[block] for w in W], C[block], ebar[block], proj_diag[block]


def _project(PZ: np.ndarray, W: list, Z: np.ndarray) -> np.ndarray:
    """The projected precision P - W'W applied along the last axis of
    ``Z``, from P Z, which it overwrites."""
    for w in W:
        PZ -= _sum(w * Z)[..., None] * w
    return PZ


def _parts(factor, Y: np.ndarray, dY: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reg_parts` from a trend factor, for rows Y with increments dY."""
    (_, h, c), W, _, _, proj_diag = factor
    Y, dY = Y[:, None, :], dY[:, None, :]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        singular = ~(proj_diag > 0.0).all(axis=-1)
        L = np.where(singular, np.nan, -_sum(np.log(proj_diag)))
        proj_z = _project(_apply_precision(Y, dY, h, c), W, Y)
        Q = _sum(proj_z * proj_z / proj_diag)
    return L, Q


def _factor_at(design: Design, z, theta: float, F):
    """The checked data with its increments, the trend factor at one
    theta (a theta axis of length one) and the score's decomposition
    there. A singular projection raises ConditioningError."""
    theta = check_positive("theta", theta)
    z = _check_data(design, z)
    dz = _increments(z, 1)
    factor = _trend_factor(design, [theta], _columns(_prepare_F(design, F)))
    L, Q = _parts(factor, z[None, :], dz[None, :])
    if np.isnan(L[0]):
        raise ConditioningError(f"trend projection is singular at theta = {theta}: the normal matrix is not "
                                "positive definite or a projected leave-one-out variance collapsed")
    L, Q = check_finite("trend-aware score decomposition", (float(L[0]), float(Q[0, 0])), theta)
    return (z, dz), factor, ScoreDecomposition(L=L, Q=Q, n=design.n)


def gls_beta(design: Design, z, theta: float, F) -> np.ndarray:
    """Generalized-least-squares trend coefficients under the working covariance.

    Solves (F' R^-1 F) beta = F' R^-1 z, which with F' P = C W and
    F' P F = C C' is the back-substitution C' beta = W z; the cost is
    O(n p^2).
    """
    (z, _), (_, W, C, _, _), _ = _factor_at(design, z, theta, F)
    beta = np.zeros(len(W))
    for j in reversed(range(beta.size)):
        beta[j] = (np.sum(W[j][0] * z) - C[0, j + 1:, j] @ beta[j + 1:]) / C[0, j, j]
    return beta


def reg_parts(design: Design, Y: np.ndarray, thetas, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The trend-aware score's L and Q for many rows and thetas at once.

    Batched like :func:`~oucv.scoring.score_parts`: ``Y`` is (R, n),
    ``thetas`` is shared, shape (T,), or per row, shape (R, k); L has
    the shape of ``thetas`` and Q is (R, T) or (R, k). L is NaN at a
    theta where the normal matrix F' P F is not positive definite or a
    projected leave-one-out variance collapsed; that theta's Q is then
    meaningless. Inputs are not validated.

    The trend factor (W, the projected diagonal and so L) depends on
    theta alone, so only Pz, Wz and the projected residual are computed
    per (row, theta). Every sum runs over the point axis of its own
    (row, theta) pair, so a row's values do not depend on the rest of
    the batch. It is :class:`TrendKernel` prepared for one call.
    """
    return TrendKernel(design, Y, True, F).parts(None, thetas)


class TrendKernel:
    """:func:`reg_parts` on data rows Z for checked trend columns F, in
    the form the batched search takes (see
    :class:`~oucv.scoring.CvKernel`): the increments of the rows and of
    the trend columns are prepared once, whatever ``reuse`` says. The
    variance profile divides Q by ``count`` = n. It has no analytic
    gradient."""

    gradient = None

    def __init__(self, design: Design, Z: np.ndarray, reuse: bool, F: np.ndarray):
        self.design, self.columns, self.count = design, _columns(F), design.n
        self.data = (Z, _increments(Z, 1))

    def parts(self, rows, thetas):
        """L and Q at ``rows``. Shared thetas (T,) build one factor per
        block of ``_ELEMENT_BUDGET`` // (n p) of them, the factor's own
        width, and project the rows onto it in blocks of
        ``_ELEMENT_BUDGET`` // (rows n) thetas; per-row thetas (R, k) are
        one call. Every value depends on its own (row, theta) pair only,
        so the blocking does not change a bit of the result."""
        Z, dZ = (_take(x, rows) for x in self.data)
        n = self.design.n
        block = max(1, _ELEMENT_BUDGET // (Z.shape[0] * n))

        def evaluate(thetas):
            factor = _trend_factor(self.design, thetas, self.columns)
            if thetas.ndim != 1:
                return _parts(factor, Z, dZ)
            L, Q = zip(*(_parts(_theta_block(factor, slice(j, j + block)), Z, dZ)
                         for j in range(0, thetas.size, block)))
            return np.concatenate(L), np.concatenate(Q, axis=1)

        return _in_blocks(evaluate, thetas, 1, n * self.columns[0].shape[0])


def reg_score_decomposition(design: Design, z, theta: float, F) -> ScoreDecomposition:
    """Variance-free split of the trend-aware score: :func:`reg_parts` at one theta.

    Same shape as the centered decomposition: the log part collects the
    negated logs of the projected precision diagonal, the quadratic part
    the normalized squares of the projected data.
    """
    return _factor_at(design, z, theta, F)[-1]


def reg_log_score(design: Design, z, theta: float, sigma2: float, F) -> RegressionScore:
    """Trend-aware logarithmic score with its residual decomposition.

    The value is :func:`reg_score_decomposition` at ``sigma2``, and the
    correction terms come from the same trend factor (no dense
    matrices): the trend-aware and centered leave-one-out residuals
    differ exactly by the epsilon terms of the decomposition.
    """
    sigma2 = check_positive("sigma2", sigma2)
    (z, dz), ((A, h, c), W, _, ebar, proj_diag), decomposition = _factor_at(design, z, theta, F)
    resid_trend = (_project(_apply_precision(z, dz, h, c), W, z) / proj_diag)[0]
    diag, ebar, proj_diag = A[0], ebar[0], proj_diag[0]
    Pz = _apply_precision(z, dz, h[0], c[0])
    resid_centered = Pz / diag
    eps = resid_trend - resid_centered
    with np.errstate(over="ignore", invalid="ignore"):
        base = design.n * np.log(sigma2) - np.sum(np.log(diag)) + np.sum(diag * resid_centered**2) / sigma2
        terms = (decomposition.score_at(sigma2), np.sum(np.log(proj_diag) - np.log(diag)), np.sum(diag * eps * eps),
                 np.sum(eps * Pz), np.sum(ebar * resid_trend * resid_trend), base)
    return RegressionScore(*map(float, check_finite("trend-aware score", terms, theta)))


def _cho_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for a lower Cholesky factor L, one triangle at a time."""
    return np.linalg.solve(chol.T, np.linalg.solve(chol, b))


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
        chol = np.linalg.cholesky(K)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"deleted covariance factorization failed: {err}") from err
    KiF = _cho_solve(chol, F_minus)
    M = F_minus.T @ KiF
    try:
        mchol = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"deleted normal matrix factorization failed: {err}") from err
    beta = _cho_solve(mchol, KiF.T @ z_minus)
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
    Kir = _cho_solve(chol, r)
    f_i = F[i]
    pred = float(f_i @ beta + Kir @ (z_minus - F_minus @ beta))
    u = f_i - F_minus.T @ Kir
    var = float(1.0 - r @ Kir + u @ _cho_solve(mchol, u))
    return pred, var
