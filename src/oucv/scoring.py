"""Matrix-free evaluation of the leave-one-out logarithmic score.

The Markov structure of the exponential kernel makes the precision
matrix tridiagonal, so the full cross-validation score, its variance
decomposition, its analytic derivative in the inverse length scale, and
the Gaussian likelihood all cost O(n). A deliberately independent dense
route (generic Cholesky on the full covariance) serves as the oracle
for all of them.

Both objectives are written in increment coordinates: with
d_i = y_i - y_{i-1}, a point's term depends on the data through a few
products of y_i, d_i and d_{i+1} (the increment statistics), and on
theta through the gaps next to the point alone, Q(theta) =
sum_k <S_k(y), C_k(theta)>. The endpoints sit next to an infinite outer
gap. The large 1/gap coefficients multiply increments, where they do not
cancel, so the objectives stay accurate to a few ulps on factorial-gap
designs. Points whose neighbouring gaps are bitwise equal form a gap
class: a (left, right) gap pair for the score, a left gap for the
likelihood. :class:`CvKernel` and :class:`MlKernel` sum the statistics
per class once for a batch of data rows, and an evaluation then costs as
many operations as there are classes, not points. Regular and maximal
designs, and the ``regular:`` and ``maximal:`` design specs of the
command line, have at most about 50 classes at any n (49 and 34 at
n = 1e5). Classes are used when they are few: at most a quarter of the
points, and the tuples of distinct gaps (pairs for the score) no more
than the points, so that one pass over a table of n counts them. With
more, as in a minimal design (all gaps distinct, n <= 18), with
Dirichlet gaps, or for the score below n = 90 or so, the terms are
evaluated point by point instead; so is an evaluation at a single
theta, where summing classes costs more than it saves. The score, the
profile and the gradient all derive from these kernels. The tridiagonal
precision P is applied in the same increment form only,
P v = h v + c_{i-1} d_i - c_i d_{i+1}: :func:`precision_matrix`,
:func:`loo_predictions` and the trend-aware score derive from it.
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
from .numerics import _ELEMENT_BUDGET, one_minus_exp_neg
from .simulate import covariance_matrix

__all__ = [
    "ScoreDecomposition",
    "LooSummary",
    "TridiagonalPrecision",
    "precision_matrix",
    "loo_predictions",
    "score_parts",
    "ml_parts",
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
# Gap classes are used when they number at most this share of the
# points; with more, the per-point form is cheaper.
_CLASS_SHARE = 0.25
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
        return np.diag(self.diag) + np.diag(self.off, 1) + np.diag(self.off, -1)


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


def _gap_terms(gaps: np.ndarray, thetas):
    """Per-gap decay E = e^{-theta gap}, G = 1 - E^2 and a = 1/G.

    ``thetas`` may have any shape; the gap axis is appended last. An
    infinite gap gives E = 0 and G = a = 1.
    """
    x = np.asarray(thetas, dtype=float)[..., None] * gaps
    E = np.exp(-x)
    G = one_minus_exp_neg(2.0 * x)
    return E, G, 1.0 / G


def _take(a: np.ndarray, rows) -> np.ndarray:
    """a[rows] for sorted distinct rows, without a copy when that is all of a."""
    return a if rows is None or len(rows) == a.shape[0] else a[rows]


def _in_blocks(evaluate, thetas, rows: int, width: int):
    """``evaluate(thetas)`` for shared ``thetas`` (T,) in blocks of at most
    ``_ELEMENT_BUDGET`` (row x theta x width) elements, L and Q joined
    along the theta axis; per-row thetas (R, k) go in one call.

    Every value depends on its own (row, theta) pair only, so the
    blocking does not change a bit of the result.
    """
    thetas = np.asarray(thetas, dtype=float)
    block = max(1, _ELEMENT_BUDGET // (max(rows, 1) * width))
    if thetas.ndim != 1 or thetas.size <= block:
        return evaluate(thetas)
    L, Q = zip(*(evaluate(thetas[j:j + block]) for j in range(0, thetas.size, block)))
    return np.concatenate(L), np.concatenate(Q, axis=1)


def _gap_classes(gaps: np.ndarray, keys: int, n: int):
    """Group the n points by their ``keys`` neighbouring gaps.

    Point i's gaps are ``gaps[i:i + keys]``, and two points share a class
    when those are bitwise equal. Returns per key the gap of every
    class, the class sizes and the class of every point. Returns None
    when the classes would not pay: when the tuples of distinct gap
    values outnumber the points, so that they cannot be counted in one
    pass over a table of n, or when the classes outnumber
    ``_CLASS_SHARE`` of the points.
    """
    s = np.sort(gaps)
    values = s[np.concatenate(([True], s[1:] != s[:-1]))]
    space = values.size ** keys
    if space > n:
        return None
    index = np.searchsorted(values, gaps)
    code = index[:n]
    for j in range(1, keys):
        code = code * values.size + index[j:j + n]
    counts = np.bincount(code, minlength=space)
    codes = np.flatnonzero(counts)
    if codes.size > _CLASS_SHARE * n:
        return None
    of_point = (np.cumsum(counts > 0) - 1)[code]
    sides = []
    for _ in range(keys):
        codes, m = np.divmod(codes, values.size)
        sides.insert(0, values[m])
    return tuple(sides), counts[counts > 0], of_point


def _statistics(pairs, of_point=None, classes: int = 0) -> np.ndarray:
    """The products u * v * w of ``pairs`` (u, v, w) of (R, n) arrays u, v
    and exact factors w, stacked to (R, len(pairs), n), or summed per
    class to (R, len(pairs), classes) when ``of_point`` gives each
    point's class. A product is formed one array at a time; each class
    sum runs over its points in order."""
    if of_point is None:
        return np.stack([u * v * w for u, v, w in pairs], axis=1)
    rows = pairs[0][0].shape[0]
    index = (of_point + classes * np.arange(rows)[:, None]).ravel()
    S = np.empty((rows, len(pairs), classes))
    for j, (u, v, w) in enumerate(pairs):
        S[:, j] = np.bincount(index, (u * v * w).ravel(), rows * classes).reshape(rows, classes)
    return S


def _contract(S: np.ndarray, C) -> np.ndarray:
    """sum_k S_k C_k per (row, theta): ``S`` is (R, s, K), ``C`` a tuple of
    s coefficient arrays (T, K) shared by the rows or (R, k, K) per row.
    Each sum runs over the flattened (s, K) axis of its own pair; shared
    thetas go in blocks of at most ``_ELEMENT_BUDGET`` products."""
    C = np.stack(C, axis=-2)
    C = C.reshape(C.shape[:-2] + (-1,))
    S = S.reshape(S.shape[0], 1, -1)
    if C.ndim > 2:
        return np.sum(S * C, axis=-1)
    block = max(1, _ELEMENT_BUDGET // max(S.size, 1))
    return np.concatenate([np.sum(S * C[j:j + block], axis=-1) for j in range(0, C.shape[0], block)], axis=1)


def _increments(Y: np.ndarray, after: int) -> np.ndarray:
    """d_i = y_i - y_{i-1} along the last axis of Y (..., n), with
    y_{-1} = 0, for i = 0 .. n - 1 + after: with ``after`` = 1 the last
    is d_n = -y_{n-1}. An increment that overflows is infinite, and the
    objective it enters is not finite."""
    n = Y.shape[-1]
    d = np.empty(Y.shape[:-1] + (n + after,))
    d[..., 0] = Y[..., 0]
    with np.errstate(over="ignore"):
        np.subtract(Y[..., 1:], Y[..., :-1], out=d[..., 1:n])
    if after:
        d[..., n] = -Y[..., -1]
    return d


def _cv_precision(values: np.ndarray, members: tuple, thetas):
    """The score's precision terms for the gap ``values``, where the
    slices ``members`` pick each class's (or point's) left and right
    gap: per gap E, a, c = a E and 1 + E; per class the precision
    diagonal A, h = A - c_{i-1} - c_i, c_{i-1} and c_i."""
    E, G, a = _gap_terms(values, thetas)
    p = 1.0 + E
    c = a * E
    t = G / (p * p)  # tanh(theta g / 2)
    il, ir = members
    return E, a, c, p, a[..., il] + a[..., ir] - 1.0, 0.5 * (t[..., il] + t[..., ir]), c[..., il], c[..., ir]


def _precision_terms(design: Design, thetas):
    """The precision point by point, for ``thetas`` of any shape (point axis
    last): A and h per point, c per gap with the infinite outer gaps (c = 0)."""
    gaps = np.concatenate(([np.inf], design.gaps, [np.inf]))
    _, _, c, _, A, h, _, _ = _cv_precision(gaps, (slice(None, -1), slice(1, None)), thetas)
    return A, h, c


def _apply_precision(v: np.ndarray, d: np.ndarray, h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """P v = h v + c_{i-1} d_i - c_i d_{i+1} along the last axis of v, with
    d its :func:`_increments` (``after`` = 1), h per point and c per gap;
    leading axes broadcast. For data v it is A times the leave-one-out residual."""
    cd = c * d
    Pv = h * v
    Pv += cd[..., :-1]
    Pv -= cd[..., 1:]
    return Pv


@dataclass(frozen=True)
class _Layout:
    """Where an objective's terms are evaluated: at the gap ``values``,
    with ``members`` slicing out each class's (or point's) gap per key,
    and ``counts`` points per class (None when each point is its own)."""

    values: np.ndarray
    members: tuple
    counts: np.ndarray | None
    points: int

    @classmethod
    def per_point(cls, gaps: np.ndarray, keys: int) -> "_Layout":
        """Each of the points that ``gaps`` surround its own class."""
        m = gaps.size - keys + 1
        return cls(gaps, tuple(slice(j, j + m) for j in range(keys)), None, m)

    def total(self, x: np.ndarray) -> np.ndarray:
        """The sum over points of a per-class (or per-point) quantity."""
        return np.sum(x if self.counts is None else x * self.counts, axis=-1)

    def weights(self) -> np.ndarray:
        """The gaps as the theta-derivatives weigh them: the terms of the
        infinite outer gap are constant."""
        return np.where(np.isinf(self.values), 0.0, self.values)


class _GapKernel:
    """One objective on data rows Y (R, n), prepared once for many thetas.

    Both objectives are sums over points of terms that depend on the data
    through a few increment statistics, and on theta through the gaps
    next to the point alone; the endpoints sit next to an infinite outer
    gap, which needs no special case. Points whose neighbouring gaps are
    bitwise equal form a gap class. When classes are few, their
    statistics are summed once here, and an evaluation costs as many
    operations as there are classes; otherwise the terms are evaluated
    point by point. The choice follows from the class count, and from
    ``reuse``: whether the statistics serve more than one theta per row.
    For a single theta, summing classes costs more than it saves.

    ``parts(rows, thetas)`` and ``gradient(rows, thetas, sigma2)`` are
    batched like :func:`score_parts`, over the rows ``rows`` (sorted
    indices, or None for all) of the prepared data.
    """

    keys = 0  # neighbouring gaps that define a point's class

    def __init__(self, design: Design, Y: np.ndarray, reuse: bool = True):
        n = design.n
        self.n, self.rows = n, Y.shape[0]
        self.data = self._point_arrays(np.asarray(Y, dtype=float))
        self.gaps = np.concatenate(([np.inf], design.gaps, [np.inf]))[: n + self.keys - 1]
        found = _gap_classes(self.gaps, self.keys, n) if reuse else None
        if found is None:
            self.S, self.width = None, min(n, _ELEMENT_BUDGET)
            self.blocks = [
                (_Layout.per_point(self.gaps[s:s + m + self.keys - 1], self.keys), s, m)
                for s, m in ((s, min(_ELEMENT_BUDGET, n - s)) for s in range(0, n, _ELEMENT_BUDGET))
            ]
        else:  # the gaps of the classes, one key after the other
            sides, counts, of_point = found
            K = counts.size
            members = tuple(slice(j * K, (j + 1) * K) for j in range(self.keys))
            self.layout = _Layout(np.concatenate(sides), members, counts, n)
            with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows fail when evaluated
                self.S = _statistics(self._pairs(*self.data), of_point, K)
            self.width = self.S.shape[1] * K

    def _point_blocks(self, rows) -> list:
        """The per-point layout and the data of the rows, in fixed blocks
        of ``_ELEMENT_BUDGET`` points: their temporaries stay small at any
        n, and a row's sums do not depend on the batch."""
        data = tuple(_take(x, rows) for x in self.data)
        if len(self.blocks) == 1:
            return [(self.blocks[0][0], data)]
        return [(layout, tuple(x[:, s:s + m + x.shape[1] - self.n] for x in data)) for layout, s, m in self.blocks]

    def parts(self, rows, thetas) -> tuple[np.ndarray, np.ndarray]:
        def evaluate(thetas):
            with np.errstate(over="ignore", invalid="ignore"):
                if self.S is not None:
                    L, C = self._terms(self.layout, thetas)
                    return L, _contract(_take(self.S, rows), C)
                L = Q = 0.0
                for layout, block in self._point_blocks(rows):
                    L_block, C = self._terms(layout, thetas)
                    L, Q = L + L_block, Q + self._pointwise(block, C)
                return L, Q

        # per-point terms grow with the rows; class coefficients are shared by them
        rows_per_term = (self.rows if rows is None else len(rows)) if self.S is None else 1
        return _in_blocks(evaluate, thetas, rows_per_term, self.width)

    def gradient(self, rows, thetas, sigma2) -> np.ndarray:
        """The theta-derivative, through the derivatives of the coefficients."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.S is not None:
                dL, dC = self._derivatives(self.layout, thetas)
                return dL + _contract(_take(self.S, rows), dC) / sigma2
            grad = 0.0
            for layout, block in self._point_blocks(rows):
                dL, dC = self._derivatives(layout, thetas)
                grad = grad + dL + _contract(_statistics(self._pairs(*block)), dC) / sigma2
            return grad


class CvKernel(_GapKernel):
    """The leave-one-out score; a point's class is its (left, right) gap pair.

    With d_i = y_i - y_{i-1}, the leave-one-out residual of point i times
    its precision diagonal A is u = h y_i + c_{i-1} d_i - c_i d_{i+1}.
    Here c = e^{-theta g} / (1 - e^{-2 theta g}) per gap, and
    h = A - c_{i-1} - c_i = (tanh(theta g_{i-1} / 2) + tanh(theta g_i / 2)) / 2.
    The score is L = -sum log A and Q = sum u^2 / A; Q expands into the
    six statistics y^2, 2 y d_i, -2 y d_{i+1}, d_i^2, d_{i+1}^2 and
    -2 d_i d_{i+1}, with the coefficients h^2, h c_{i-1}, h c_i,
    c_{i-1}^2, c_i^2 and c_{i-1} c_i over A. The large 1/gap
    coefficients multiply increments, where they do not cancel.
    """

    keys = 2

    @staticmethod
    def _point_arrays(Y):
        return Y, _increments(Y, 1)

    @staticmethod
    def _pairs(Y, d):
        dL, dR = d[..., :-1], d[..., 1:]
        return ((Y, Y, 1.0), (Y, dL, 2.0), (Y, dR, -2.0), (dL, dL, 1.0), (dR, dR, 1.0), (dL, dR, -2.0))

    @staticmethod
    def _coefficients(A, h, cL, cR):
        q, rL, rR = h / A, cL / A, cR / A
        return (h * q, h * rL, h * rR, cL * rL, cR * rR, cL * rR), (q, rL, rR)

    def _terms(self, layout: _Layout, thetas):
        _, _, c, _, A, h, cL, cR = _cv_precision(layout.values, layout.members, thetas)
        L = -layout.total(np.log(A))
        if layout.counts is None:  # the per-point form needs A, h and the per-gap c only
            return L, (A, h, c)
        return L, self._coefficients(A, h, cL, cR)[0]

    @staticmethod
    def _pointwise(data, terms):
        A, h, c = terms
        Y, d = data
        u = _apply_precision(Y[:, None, :], d[:, None, :], h, c)
        return np.sum(u * (u / A), axis=-1)

    def _derivatives(self, layout: _Layout, thetas):
        E, a, c, p, A, h, cL, cR = _cv_precision(layout.values, layout.members, thetas)
        g = layout.weights()
        ga = g * a
        da = -2.0 * ga * c * E
        dc = -ga * E * (1.0 + 2.0 * c * E)
        dt = 2.0 * g * E / (p * p)
        il, ir = layout.members
        lam = (da[..., il] + da[..., ir]) / A  # A' / A
        dh = 0.5 * (dt[..., il] + dt[..., ir])
        dcL, dcR = dc[..., il], dc[..., ir]
        C, (q, rL, rR) = self._coefficients(A, h, cL, cR)
        dC = (
            q * (2.0 * dh - h * lam),
            dh * rL + q * dcL - C[1] * lam,
            dh * rR + q * dcR - C[2] * lam,
            rL * (2.0 * dcL - cL * lam),
            rR * (2.0 * dcR - cR * lam),
            dcL * rR + rL * dcR - C[5] * lam,
        )
        return -layout.total(lam), dC


class MlKernel(_GapKernel):
    """The -2 log-likelihood; a point's class is its left gap.

    Each point conditions on its left neighbour: the innovation
    w_i = d_i + (1 - E) y_{i-1} has variance G = 1 - E^2, and the first
    point, next to the infinite outer gap, has w = y_0 and G = 1. Then
    L = n log 2 pi + sum log G and Q = sum w^2 / G; Q expands into the
    statistics d^2, 2 d y_{i-1} and y_{i-1}^2 with the coefficients
    a = 1/G, 1 / (1 + E) and tanh(theta g / 2).
    """

    keys = 1  # so a class has one gap, and the per-gap terms are per class

    @staticmethod
    def _point_arrays(Y):
        prev = np.concatenate((np.zeros_like(Y[:, :1]), Y[:, :-1]), axis=1)  # with y_{-1} = 0
        return _increments(Y, 0), prev

    @staticmethod
    def _pairs(d, prev):
        return ((d, d, 1.0), (d, prev, 2.0), (prev, prev, 1.0))

    def _terms(self, layout: _Layout, thetas):
        E, G, a = _gap_terms(layout.values, thetas)
        p = 1.0 + E
        L = layout.points * np.log(2.0 * np.pi) + layout.total(np.log(G))
        if layout.counts is None:
            return L, (G, G / p)
        return L, (a, 1.0 / p, G / (p * p))

    @staticmethod
    def _pointwise(data, terms):
        d, prev = data
        G, m = terms  # m = 1 - E
        w = d[:, None, :] + m * prev[:, None, :]
        return np.sum(w * w / G, axis=-1)

    def _derivatives(self, layout: _Layout, thetas):
        E, G, a = _gap_terms(layout.values, thetas)
        p = 1.0 + E
        g = layout.weights()
        ga = g * a
        db = g * E / (p * p)  # of 1 / (1 + E); tanh(theta g / 2) has twice it
        return layout.total(2.0 * ga * E * E), (-2.0 * ga * a * E * E, db, 2.0 * db)


def _reused(thetas) -> bool:
    """Whether a call at ``thetas`` evaluates each row at more than one theta."""
    return np.shape(thetas)[-1] > 1


def score_parts(design: Design, Y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The score's log part L and quadratic part Q for many rows and thetas at once.

    ``Y`` holds one data vector per row, shape (R, n); ``thetas`` is
    shared, shape (T,), or per row, shape (R, k). L depends on theta
    only and has the shape of ``thetas``; Q has shape (R, T) or (R, k).
    Inputs are not validated: this is the kernel behind the checked
    entry points. It is :class:`CvKernel` prepared for one call.
    """
    return CvKernel(design, Y, _reused(thetas)).parts(None, thetas)


def ml_parts(design: Design, Y: np.ndarray, thetas) -> tuple[np.ndarray, np.ndarray]:
    """The likelihood objective's L and Q, batched like :func:`score_parts`."""
    return MlKernel(design, Y, _reused(thetas)).parts(None, thetas)


def precision_matrix(design: Design, theta: float) -> TridiagonalPrecision:
    """Tridiagonal inverse of the unit-variance covariance matrix.

    A diagonal entry is 1/(1 - e^{-2 theta gap}) summed over the point's
    two gaps, minus one (an outer gap adds 1); the off-diagonal is
    -e^{-theta gap}/(1 - e^{-2 theta gap}). These are the terms that the
    score applies in increment form.
    """
    _check_theta(theta)
    A, _, c = _precision_terms(design, theta)
    return TridiagonalPrecision(diag=A, off=-c[1:-1])


def loo_predictions(design: Design, y, theta: float) -> LooSummary:
    """Leave-one-out conditional means and normalized variances.

    Each interior prediction is the precision-weighted combination of
    the two neighbors; the endpoints condition on their single
    neighbor. Both are the data minus the leave-one-out residuals the
    score is built from. No dependence on the variance parameter.
    """
    _check_theta(theta)
    y = _check_data(design, y)
    A, h, c = _precision_terms(design, theta)
    resid = _apply_precision(y, _increments(y, 1), h, c) / A
    return LooSummary(predictions=y - resid, normalized_variances=1.0 / A)


def log_score(design: Design, y, theta: float, sigma2: float) -> float:
    """Cross-validation logarithmic score, matrix-free in O(n).

    Sums, over every observation, the log conditional variance plus the
    squared leave-one-out residual divided by that variance; evaluated
    as :func:`score_decomposition` at ``sigma2``.
    """
    return _score_and_decomposition(design, y, theta, sigma2)[0]


def _score_and_decomposition(design: Design, y, theta: float, sigma2: float) -> tuple[float, ScoreDecomposition]:
    """:func:`log_score` and the decomposition it is evaluated from; a bad
    sigma2 is reported before a bad theta."""
    _check_sigma2(sigma2)
    decomp = score_decomposition(design, y, theta)
    value = decomp.score_at(sigma2)
    if not np.isfinite(value):
        raise NumericalFailureError("logarithmic score is not finite", theta=theta)
    return float(value), decomp


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
    return float(CvKernel(design, y[None, :], reuse=False).gradient(None, [theta], sigma2)[0, 0])


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
    return float(MlKernel(design, y[None, :], reuse=False).gradient(None, [theta], sigma2)[0, 0])


def _dense_cholesky(design: Design, theta: float) -> np.ndarray:
    """The dense lower Cholesky factor of the unit-variance covariance; n
    is capped, and a failed factorization raises a conditioning error."""
    _check_theta(theta)
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"dense route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    try:
        return np.linalg.cholesky(covariance_matrix(design, theta))
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"covariance factorization failed: {err}") from err


def dense_precision(design: Design, theta: float) -> np.ndarray:
    """Dense inverse covariance through a generic Cholesky factorization.

    Independent of the tridiagonal closed form on purpose; n is capped
    and near-singular covariances (duplicate-like points) raise a
    conditioning error instead of returning noise.
    """
    chol = _dense_cholesky(design, theta)
    piv = np.diag(chol)
    if float(piv.min() / piv.max()) < _PIVOT_RATIO_MIN:
        raise ConditioningError(
            "covariance is numerically singular (near-duplicate design points)"
        )
    return scipy.linalg.cho_solve((chol, True), np.eye(design.n))


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
    chol = _dense_cholesky(design, theta)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    alpha = scipy.linalg.cho_solve((chol, True), y)
    n = design.n
    return float(n * np.log(2.0 * np.pi * sigma2) + logdet + y @ alpha / sigma2)
