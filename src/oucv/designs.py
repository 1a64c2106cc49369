"""Observation designs on [0, 1] and their estimation-variance functional.

A design is a strictly increasing point set s_1 = 0 < ... < s_n = 1.
Three named families are provided: the equispaced ("regular") design,
an alternating-gap family whose cross-validation variance tends to the
upper bound 4, and a factorial-gap family that clusters points near 1
and attains the lower bound 2. The functional ``tau_squared`` maps a
design to the variance of the limiting normal law of the standardized
product estimator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import FactorialOverflowError, InvalidDesignError, InvalidParameterError

__all__ = [
    "Design",
    "GapProfile",
    "from_points",
    "regular_design",
    "maximal_design",
    "minimal_design",
    "minimal_design_gap_ratios",
    "gap_profile",
    "tau_squared",
    "tau_squared_from_gap_ratios",
]

# alignment tolerance for sum(gaps) == 1; the sum telescopes so this
# only guards against corrupted inputs
_GAP_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Design:
    """Sorted observation points on [0, 1] with their precomputed gaps.

    ``gaps[j] == points[j + 1] - points[j]`` bitwise; both arrays are
    read-only. Use :func:`from_points` or a named constructor rather
    than instantiating directly. The objectives keep what they derive
    from the gaps alone in a private cache, once per design.
    """

    points: np.ndarray
    gaps: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.points.size

    def reversed(self) -> "Design":
        """The design s_i -> 1 - s_{n+1-i} (gap order reversed)."""
        pts = 1.0 - self.points[::-1]
        pts = pts.copy()
        pts[0] = 0.0
        pts[-1] = 1.0
        return from_points(pts)


@dataclass(frozen=True)
class GapProfile:
    """Neighbor-gap ratios entering the variance functional.

    ``q[k]`` and ``cross[k]`` correspond to interior index i = k + 3 in
    1-based design indexing; q is the sum of the two one-sided gap
    fractions and cross is the symmetric product fraction, bounded by
    1/4.
    """

    q: np.ndarray
    cross: np.ndarray


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.flags.writeable = False
    return a


def from_points(points) -> Design:
    """Validate a caller-sorted point vector and build a Design.

    No reordering is performed; violations are reported with the
    1-based index of the first offending point.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 1:
        raise InvalidDesignError("points must be a one-dimensional vector")
    n = pts.size
    if n < 3:
        raise InvalidDesignError(f"a design needs at least 3 points, got {n}")
    if not np.all(np.isfinite(pts)):
        idx = int(np.flatnonzero(~np.isfinite(pts))[0]) + 1
        raise InvalidDesignError(f"nonfinite point at index {idx}")
    if pts[0] != 0.0:
        raise InvalidDesignError(f"first point must be exactly 0, got {pts[0]!r} at index 1")
    if pts[-1] != 1.0:
        raise InvalidDesignError(f"last point must be exactly 1, got {pts[-1]!r} at index {n}")
    diffs = np.diff(pts)
    if np.any(diffs <= 0.0):
        idx = int(np.flatnonzero(diffs <= 0.0)[0])
        kind = "duplicate" if pts[idx + 1] == pts[idx] else "unsorted"
        raise InvalidDesignError(f"{kind} point at index {idx + 2}")
    if abs(float(diffs.sum()) - 1.0) > _GAP_SUM_TOL:
        raise InvalidDesignError("gaps do not sum to 1 within 1e-12")
    return Design(points=_freeze(pts), gaps=_freeze(diffs))


def regular_design(n: int) -> Design:
    """The equispaced design {0, 1/(n-1), ..., 1}."""
    if n < 3:
        raise InvalidParameterError(f"regular design needs n >= 3, got {n}")
    pts = np.arange(n, dtype=float) / (n - 1)
    pts[-1] = 1.0
    return from_points(pts)


def maximal_design(n: int, gamma: float) -> Design:
    """Alternating-gap design attaining the variance upper bound.

    Interior gaps alternate between (1 - gamma) * 2/n (even index) and
    2 * gamma / n (odd index); the last gap closes the interval. With
    gamma = 1/n the variance functional tends to 4.
    """
    if n < 4:
        raise InvalidParameterError(f"maximal design needs n >= 4, got {n}")
    if not 0.0 < gamma < 1.0:
        raise InvalidParameterError(f"gamma must lie in (0, 1), got {gamma}")
    i = np.arange(2, n)  # gap indices 2 .. n-1
    interior = np.where(i % 2 == 0, (1.0 - gamma) * 2.0 / n, 2.0 * gamma / n)
    closing = 1.0 - float(interior.sum())
    if closing <= 0.0:
        raise InvalidDesignError(f"closing gap is nonpositive ({closing})")
    pts = np.empty(n, dtype=float)
    pts[0] = 0.0
    pts[1:-1] = np.cumsum(interior)
    pts[-1] = 1.0
    return from_points(pts)


def minimal_design(n: int, alpha: float) -> Design:
    """Factorial-gap design attaining the variance lower bound.

    Gaps are 1/i! for i above floor(n^alpha), with the remaining mass
    spread evenly over the first gaps; the resulting points cluster
    densely near 1. Gaps shrink so fast that positions collapse below
    double resolution once n exceeds ~18, in which case construction
    fails with an invalid-design error; a warning is emitted for n > 20
    where the family is numerically out of reach regardless.
    """
    if n < 5:
        raise InvalidParameterError(f"minimal design needs n >= 5, got {n}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if n > 170:
        raise FactorialOverflowError(
            f"1/n! is not representable in binary64 for n = {n} > 170"
        )
    m = math.floor(n**alpha)
    if m < 2:
        raise InvalidParameterError(f"floor(n^alpha) = {m} < 2")
    if n > 20:
        warnings.warn(
            f"factorial gaps below double resolution for n = {n};"
            " the design points cannot be represented distinctly",
            stacklevel=2,
        )
    # factorial gaps by iterative division, never forming i! itself
    fac = np.empty(n - m, dtype=float)
    g = 1.0
    for k in range(2, m + 2):
        g /= k
    fac[0] = g  # 1/(m+1)!
    for j in range(1, n - m):
        g /= m + 1 + j
        fac[j] = g
    r = float(np.sum(fac[::-1]))  # ascending summation of the tail mass
    flat = (1.0 - r) / (m - 1)
    pts = np.empty(n, dtype=float)
    pts[:m] = np.arange(m) * flat
    # cluster positions are sharpest computed from the right endpoint
    tail = np.concatenate((np.cumsum(fac[::-1])[::-1][1:], [0.0]))
    pts[m:] = 1.0 - tail
    pts[-1] = 1.0
    try:
        return from_points(pts)
    except InvalidDesignError as err:
        raise InvalidDesignError(
            f"factorial gaps underflow the double grid near 1 for n = {n} ({err})"
        ) from err


def _one_sided_fractions(gaps: np.ndarray) -> np.ndarray:
    """u[j] = gaps[j+1] / (gaps[j] + gaps[j+1]), safe for extreme gap sizes."""
    return gaps[1:] / (gaps[:-1] + gaps[1:])


def _q_and_cross(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The fractions q and cross terms of the interior indices, from the
    one-sided fractions u."""
    return u[1:] + (1.0 - u[:-1]), u[1:] * (1.0 - u[1:])


def gap_profile(design: Design) -> GapProfile:
    """Neighbor-gap fractions q_i and cross terms for i = 3 .. n-1."""
    n = design.n
    if n < 5:
        raise InvalidDesignError(f"gap profile needs n >= 5, got {n}")
    q, cross = _q_and_cross(_one_sided_fractions(design.gaps))
    if np.any(q <= 0.0) or np.any(q >= 2.0):
        raise InvalidDesignError("gap fraction q outside (0, 2)")
    if np.any(cross <= 0.0) or np.any(cross > 0.25):
        raise InvalidDesignError("gap cross term outside (0, 1/4]")
    return GapProfile(q=_freeze(q), cross=_freeze(cross))


def _tau_from_fractions(u: np.ndarray, n: int) -> float:
    q, cross = _q_and_cross(u)
    return float(2.0 / n * np.sum(q * q + 2.0 * cross))


def tau_squared(design: Design) -> float:
    """Design-dependent asymptotic variance of the standardized estimator.

    Equals (2/n) * sum over interior indices of q_i^2 plus twice the
    cross term; exactly 3(n-3)/n for the regular design, and bounded in
    [2, 4] in the limit for any admissible triangular array.
    """
    n = design.n
    if n < 5:
        raise InvalidDesignError(f"tau_squared needs n >= 5, got {n}")
    return _tau_from_fractions(_one_sided_fractions(design.gaps), n)


def tau_squared_from_gap_ratios(ratios) -> float:
    """Variance functional from successive gap ratios Delta_{i+1}/Delta_i.

    ``ratios`` has one entry per junction i = 2 .. n-1 (length n - 2).
    Wildly scaled gap patterns (factorial families far beyond binary64)
    stay computable because only ratios enter; a ratio that underflows
    to zero contributes its exact limit.
    """
    rho = np.asarray(ratios, dtype=float)
    if rho.ndim != 1 or rho.size < 2:
        raise InvalidParameterError("need at least two gap ratios (n >= 5)")
    if np.any(~np.isfinite(rho)) or np.any(rho < 0.0):
        raise InvalidParameterError("gap ratios must be finite and nonnegative")
    n = rho.size + 2
    with np.errstate(divide="ignore"):
        u = np.where(rho <= 1.0, rho / (1.0 + rho), 1.0 / (1.0 + 1.0 / rho))
    return _tau_from_fractions(u, n)


def minimal_design_gap_ratios(n: int, alpha: float) -> np.ndarray:
    """Successive gap ratios of the factorial-gap family, for any n.

    The single junction ratio between the flat block and the factorial
    block is formed in the log domain, so the family can be analyzed at
    sizes where the gaps themselves are far below binary64 range.
    """
    if n < 5:
        raise InvalidParameterError(f"need n >= 5, got {n}")
    if not 0.0 < alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in (0, 1), got {alpha}")
    m = math.floor(n**alpha)
    if m < 2:
        raise InvalidParameterError(f"floor(n^alpha) = {m} < 2")
    ratios = np.empty(n - 2, dtype=float)
    ratios[: m - 2] = 1.0  # junctions inside the flat block
    # tail mass r = sum_{i>m} 1/i!; 40 terms exhaust double precision
    ks = np.arange(m + 1, min(n, m + 40) + 1, dtype=float)
    log_fac = np.array([math.lgamma(k + 1.0) for k in ks])
    with np.errstate(under="ignore"):
        r = float(np.sum(np.exp(-log_fac)))
    log_junction = math.log(m - 1) - math.lgamma(m + 2.0) - math.log1p(-r)
    ratios[m - 2] = math.exp(log_junction) if log_junction > -745.0 else 0.0
    i = np.arange(m + 1, n, dtype=float)
    ratios[m - 1 :] = 1.0 / (i + 1.0)
    return ratios
