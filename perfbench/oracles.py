"""Reference computations that share no code with ``oucv.scoring``.

The centered objectives come from the Markov innovation factorization
of the unit-variance covariance: with w_0 = y_0 and
w_i = y_i - e_{i-1} y_{i-1} (e = exp(-theta * gap)), the innovations
are independent with variances d = (1, 1 - e^2), so the precision is
L' D^-1 L with L unit lower bidiagonal. It is assembled as a
``scipy.sparse`` product, and the leave-one-out quantities follow from
the Dubrule identities: residual (P y)_i / P_ii, variance sigma^2 / P_ii.

The trend-aware objective comes from the dense projected precision
R^-1 - R^-1 F (F' R^-1 F)^-1 F' R^-1, with R^-1 from a dense Cholesky
factorization of the covariance matrix, so it is capped at n = 2000.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp

DENSE_MAX_N = 2000


def innovation_factor(points: np.ndarray, thetas):
    """Block-diagonal L and innovation variances d, one block per theta.

    Block t is the unit lower bidiagonal factor at thetas[t], so
    L' D^-1 L stacks the precisions R^-1(theta) along the diagonal.
    """
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    tg = thetas[:, None] * np.diff(points)[None, :]
    sub = np.zeros((thetas.size, points.size))
    sub[:, 1:] = -np.exp(-tg)
    d = np.ones_like(sub)
    d[:, 1:] = -np.expm1(-2.0 * tg)
    L = sp.diags([np.ones(sub.size), sub.ravel()[1:]], [0, -1], format="csr")
    return L, d


def cv_parts(points: np.ndarray, y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) of the CV score n log s2 + L + Q / s2 at each theta."""
    L, d = innovation_factor(points, thetas)
    P = L.T @ sp.diags(1.0 / d.ravel()) @ L
    shape = d.shape
    pd = P.diagonal().reshape(shape)
    py = (P @ np.tile(y, shape[0])).reshape(shape)
    return -np.sum(np.log(pd), axis=1), np.sum(py * py / pd, axis=1)


def ml_parts(points: np.ndarray, y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """(L, Q) of the -2 log-likelihood n log s2 + L + Q / s2 at each theta."""
    L, d = innovation_factor(points, thetas)
    w = (L @ np.tile(y, d.shape[0])).reshape(d.shape)
    n = points.size
    return n * math.log(2.0 * math.pi) + np.sum(np.log(d), axis=1), np.sum(w * w / d, axis=1)


def trend_parts(points: np.ndarray, z: np.ndarray, theta: float, F: np.ndarray) -> tuple[float, float]:
    """(L, Q) of the trend-aware CV score from the dense projected precision."""
    n = points.size
    if n > DENSE_MAX_N:
        raise ValueError(f"dense trend oracle is capped at n = {DENSE_MAX_N}, got {n}")
    R = np.exp(-theta * np.abs(points[:, None] - points[None, :]))
    Ri = scipy.linalg.cho_solve(scipy.linalg.cho_factor(R, lower=True), np.eye(n))
    RiF = Ri @ F
    proj = Ri - RiF @ np.linalg.solve(F.T @ RiF, RiF.T)
    pd = np.diag(proj)
    pz = proj @ z
    return -float(np.sum(np.log(pd))), float(np.sum(pz * pz / pd))


def objective(parts: tuple[float, float], n: int, sigma2: float) -> float:
    L, Q = parts
    return n * math.log(sigma2) + L + Q / sigma2


def clamp(x: float, lo: float, hi: float) -> float:
    return min(max(x, lo), hi)


def tau_squared(points: np.ndarray) -> float:
    """(2/n) sum over i = 3..n-1 of q_i^2 + 2 u_i (1 - u_i), from the gap fractions.

    u_j = gap_{j+1} / (gap_j + gap_{j+1}); q_i = u_i + 1 - u_{i-1}.
    """
    gaps = np.diff(points)
    u = gaps[1:] / (gaps[:-1] + gaps[1:])
    q = u[1:] + 1.0 - u[:-1]
    return float(2.0 / points.size * np.sum(q * q + 2.0 * u[1:] * (1.0 - u[1:])))


def standardized_innovations(points: np.ndarray, y: np.ndarray, theta: float, sigma2: float) -> np.ndarray:
    """L y / sqrt(sigma2 d): independent standard normals under the model."""
    L, d = innovation_factor(points, theta)
    return (L @ y) / np.sqrt(sigma2 * d[0])


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1.0)
