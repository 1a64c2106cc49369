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
designs. :class:`CvKernel` and :class:`MlKernel` prepare the data rows
once for many thetas, in one of three layouts:

- Gap classes. Points whose neighbouring gaps are bitwise equal form a
  class: a (left, right) gap pair for the score, a left gap for the
  likelihood. The statistics are summed per class, and an evaluation
  costs as many operations as there are classes. Regular and maximal
  designs, and the ``regular:`` and ``maximal:`` design specs of the
  command line, have at most about 50 classes at any n (49 and 34 at
  n = 1e5). Classes are used when they are few: at most a quarter of
  the points, and the tuples of distinct gaps (pairs for the score) no
  more than the points, so that one pass over a table of n counts
  them. A design's classes, or their refusal, are derived once.
- A power series in theta. On a design of ``_SERIES_MIN_N`` points or
  more without classes, as with Dirichlet gaps, every coefficient of an
  interior point is a power series in x = theta g (x coth x, x csch x
  and tanh(x / 2) / (x / 2)), and so is log(1 - e^{-2x}) after its
  exact part log 2x - x: the rest is log(sinh x / x). Each row's data
  moments are summed once, and an evaluation costs O(1) per row. The series serves a theta
  when theta (g_{i-1} + g_i) <= ``_SERIES_X`` at every interior point,
  where its terms are exact to double rounding; the end points next to
  the infinite outer gap stay exact.
- Point by point: minimal designs (all gaps distinct, n <= 18), small
  designs without classes (the score below n = 90 or so), a theta
  outside the series' domain, and an evaluation at a single theta,
  where summing statistics costs more than it saves.

Every layout reads the rows one block of points at a time, and holds
one block of point arrays at a time, except a per-point kernel prepared
for many thetas, which keeps its blocks (one, below ``_SERIES_MIN_N``
points). The score, the profile and the gradient all derive from these
kernels.
The tridiagonal precision P is applied in the same increment form only,
P v = h v + c_{i-1} d_i - c_i d_{i+1}: :func:`precision_matrix`,
:func:`loo_predictions` and the trend-aware score derive from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .designs import Design
from .errors import (
    ConditioningError,
    InvalidParameterError,
    NumericalFailureError,
    check_finite,
    check_positive,
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
# The per-gap terms of both objectives are power series in x = theta g:
# the coefficients of x^0, x^2, ..., x^8 in x coth x, x csch x,
# tanh(x / 2) / (x / 2) and log(sinh x / x). The first terms left out
# are below 2.2e-5 x^10, so up to x = _SERIES_X they change a term by
# less than 2.2e-18 of itself.
_COTH = (1.0, 1 / 3, -1 / 45, 2 / 945, -1 / 4725)
_CSCH = (1.0, -1 / 6, 7 / 360, -31 / 15120, 127 / 604800)
_TANH = (1.0, -1 / 12, 1 / 120, -17 / 20160, 31 / 362880)
_LOG_SINH = (0.0, 1 / 6, -1 / 180, 1 / 2835, -1 / 37800)
_SERIES_X = 0.05
# The series layout is used on designs of this many points or more. On
# Dirichlet gaps and the fig2 box, a cv-joint or ml-joint estimate took
# about as long in either layout at n = 500-800 and less in the series
# from n = 1000 on (2-vCPU host, at n = 2000: 8.6 -> 4.8 ms and
# 7.0 -> 3.9 ms); every Monte Carlo preset stays below it.
_SERIES_MIN_N = 1000
# Cholesky pivot min/max below this means the covariance is numerically
# singular (near-duplicate points); the dense oracles refuse to answer
_PIVOT_RATIO_MIN = 1e-5
# The floating-point state of a kernel evaluation: a term at the box
# edges or at tiny gaps overflows, divides by zero or meets inf - inf,
# and a row whose objective is not finite fails in the search. It is
# applied as a decorator, which sets the state per call in one Python
# frame; an errstate entered by ``with`` costs three. One shared instance
# is safe across threads because numpy 2 keeps the state token per call
# (numpy 1's errstate kept it on the instance), hence numpy >= 2.
_quiet = np.errstate(over="ignore", invalid="ignore", divide="ignore")


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
    """Per-gap decay E = e^{-theta gap} and G = 1 - E^2.

    ``thetas`` may have any shape; the gap axis is appended last. An
    infinite gap gives E = 0 and G = 1.
    """
    x = np.asarray(thetas, dtype=float)[..., None] * gaps
    return np.exp(-x), one_minus_exp_neg(2.0 * x)


def _in_blocks(evaluate, thetas: np.ndarray, rows: int, width: int):
    """``evaluate(thetas)`` for shared ``thetas`` (T,) in blocks of at most
    ``_ELEMENT_BUDGET`` (row x theta x width) elements, L and Q joined
    along the theta axis. Per-row thetas need no blocks: a search
    evaluates at most two per row at once.

    Every value depends on its own (row, theta) pair only, so the
    blocking does not change a bit of the result.
    """
    block = max(1, _ELEMENT_BUDGET // (max(rows, 1) * width))
    if thetas.size <= block:
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
    ``_CLASS_SHARE`` of the points. A class holds at most ``keys``
    distinct gaps, so the distinct gaps alone can tell the latter.
    """
    s = np.sort(gaps)
    values = s[np.concatenate(([True], s[1:] != s[:-1]))]
    space = values.size ** keys
    if space > n or values.size > keys * _CLASS_SHARE * n:
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


def _cached(design: Design, key, derive):
    """``derive()``, once per design and key."""
    if key not in design._cache:
        design._cache[key] = derive()
    return design._cache[key]


def _padded_gaps(design: Design, keys: int, s: int = 0, e: int | None = None) -> np.ndarray:
    """The gaps next to points s .. e - 1 (all by default), from the left
    gap of point s to the last that a point's ``keys`` neighbouring gaps
    reach; the outer gaps are infinite."""
    e = design.n if e is None else e
    return np.concatenate(([np.inf] * (s == 0), design.gaps[max(s - 1, 0):e + keys - 2],
                           [np.inf] * (e + keys - 1 > design.n)))


def _design_classes(design: Design, keys: int):
    """:func:`_gap_classes` of the design's points, or its refusal, once per design."""
    return _cached(design, ("classes", keys), lambda: _gap_classes(_padded_gaps(design, keys), keys, design.n))


def _statistics(pairs) -> np.ndarray:
    """The products u * v * w of ``pairs`` (u, v, w) of (R, m) arrays u, v
    and exact factors w, stacked to (R, len(pairs), m); a product is
    formed one array at a time."""
    return np.stack([u * v * w for u, v, w in pairs], axis=1)


def _contract(S: np.ndarray, C) -> np.ndarray:
    """sum_k S_k C_k per (row, theta): ``S`` is (R, s, K), ``C`` a tuple of
    s coefficient arrays (T, K) shared by the rows or (R, k, K) per row.
    Each sum runs over the flattened (s, K) axis of its own pair; shared
    thetas go in blocks of at most ``_ELEMENT_BUDGET`` products."""
    K = S.shape[-1]
    flat = np.empty(C[0].shape[:-1] + (len(C) * K,))  # the coefficients laid out as S is
    for j, c in enumerate(C):
        flat[..., j * K:(j + 1) * K] = c
    C = flat
    S = S.reshape(S.shape[0], 1, -1)
    if C.ndim > 2:
        return np.add.reduce(S * C, axis=-1)
    block = max(1, _ELEMENT_BUDGET // max(S.size, 1))
    return np.concatenate([np.add.reduce(S * C[j:j + block], axis=-1) for j in range(0, C.shape[0], block)], axis=1)


def _increments(Y: np.ndarray, after: int, s: int = 0, e: int | None = None) -> np.ndarray:
    """d_i = y_i - y_{i-1} along the last axis of Y (..., n), with
    y_{-1} = 0, for i = s .. e - 1 + after (e = n by default): with
    ``after`` = 1, d_n = -y_{n-1}. An increment that overflows is
    infinite, and the objective it enters is not finite."""
    n = Y.shape[-1]
    e = n if e is None else e
    d = np.empty(Y.shape[:-1] + (e + after - s,))
    lo, hi = max(s, 1), min(e + after, n)  # the differences d_lo .. d_{hi - 1}
    if s == 0:
        d[..., 0] = Y[..., 0]
    with np.errstate(over="ignore"):
        np.subtract(Y[..., lo:hi], Y[..., lo - 1:hi - 1], out=d[..., lo - s:hi - s])
    if e + after > n:
        d[..., -1] = -Y[..., -1]
    return d


def _spans(start: int, stop: int, size: int):
    """(s, m) per block s .. s + m - 1 of at most ``size`` of the points start .. stop - 1."""
    return ((s, min(size, stop - s)) for s in range(start, stop, size))


def _cv_precision(values: np.ndarray, members: tuple, thetas):
    """The score's precision terms for the gap ``values``, where the
    slices ``members`` pick each class's (or point's) left and right
    gap: per gap E, a, c = a E and 1 + E; per class the precision
    diagonal A, h = A - c_{i-1} - c_i, c_{i-1} and c_i."""
    E, G = _gap_terms(values, thetas)
    a = 1.0 / G
    p = 1.0 + E
    c = a * E
    t = G / (p * p)  # tanh(theta g / 2)
    il, ir = members
    return E, a, c, p, a[..., il] + a[..., ir] - 1.0, 0.5 * (t[..., il] + t[..., ir]), c[..., il], c[..., ir]


def _precision_terms(design: Design, thetas):
    """The precision point by point, for ``thetas`` of any shape (point axis
    last): A and h per point, c per gap with the infinite outer gaps (c = 0).
    The padded gaps are built once per design."""
    gaps = _cached(design, ("padded", 2), lambda: _padded_gaps(design, 2))
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
        return np.add.reduce(x if self.counts is None else x * self.counts, axis=-1)

    def weights(self) -> np.ndarray:
        """The gaps as the theta-derivatives weigh them: the terms of the
        infinite outer gap are constant."""
        return np.where(np.isinf(self.values), 0.0, self.values)


class _GapKernel:
    """One objective on data rows Y (R, n), prepared once for many thetas.

    Both objectives are sums over points of terms that depend on the data
    through a few increment statistics, and on theta through the gaps
    next to the point alone; the endpoints sit next to an infinite outer
    gap, which needs no special case. The terms are summed in one of
    three layouts, the kernel's ``route``:

    - ``classes``: points whose neighbouring gaps are bitwise equal form a
      gap class. When classes are few, their statistics are summed once
      here, and an evaluation costs as many operations as there are
      classes.
    - ``series``: on a design of at least ``_SERIES_MIN_N`` points without
      classes, each interior point's term is a power series in theta,
      and the data's moments are summed once per row, at the first theta
      inside the series' domain; an evaluation then costs O(1) per row.
      The end points next to the infinite outer gap stay exact, as
      classes of one point each. A theta outside the series' domain,
      theta (g_{i-1} + g_i) <= ``_SERIES_X`` at every interior point i, is
      evaluated point by point.
    - ``per-point``: the terms are evaluated point by point.

    Classes and series are used only when the statistics serve more than
    one theta per row (``reuse``); for a single theta, summing them costs
    more than it saves. Every route reads the rows one block of points at
    a time (``_block_arrays``). A kernel keeps what its evaluations read:
    a class kernel its class sums, a series kernel the rows Y and its
    moments, once summed, and a per-point kernel for many thetas its
    blocks, one block below ``_SERIES_MIN_N`` points. A per-point kernel
    for one theta, and a series kernel at a theta outside its domain,
    build each block of the rows they evaluate as they evaluate it and
    keep none, so they hold one block of point arrays at a time.

    ``parts(rows, thetas)`` and ``gradient(rows, thetas, sigma2)`` are
    batched like :func:`score_parts`, over the rows ``rows`` (indices,
    which may repeat, or None for all) of the prepared data. Every value depends
    on its own (row, theta) pair only, and so does its route. ``count``
    is the number of observations the variance profile Q / count
    divides by: n for both objectives. Per-row thetas, a search's
    golden-section steps, go straight to the route's sums, and a
    per-point block's L and Q are one method of the objective
    (``_point_value``): a lone row's step, one (1, 1) call, takes 18-25 us
    on the fig2 designs (2-vCPU host), nearly all of it numpy's ufunc
    calls, and enters 6-13 Python frames of the kernel.
    """

    keys = 0  # neighbouring gaps that define a point's class

    def __init__(self, design: Design, Y: np.ndarray, reuse: bool = True):
        n = design.n
        Y = np.asarray(Y, dtype=float)
        self.n = self.count = n
        self.rows = Y.shape[0]
        self.M = self.S = self.blocks = None
        found = _design_classes(design, self.keys) if reuse else None
        if found is not None:  # the gaps of the classes, one key after the other
            self.route = "classes"
            sides, counts, of_point = found
            K = counts.size
            members = tuple(slice(j * K, (j + 1) * K) for j in range(self.keys))
            self.layout = _Layout(np.concatenate(sides), members, counts, n)
            self.S = self._class_sums(Y, of_point, K)
            self.width = self.S.shape[1] * K
        elif reuse and n >= _SERIES_MIN_N:  # the moments are summed when a theta first falls in the domain
            self.route, self._source = "series", (design, Y)
            self.span = _cached(design, "span", lambda: float(np.max(design.gaps[:-1] + design.gaps[1:])))
        else:
            self.route, self._source = "per-point", (design, Y)
            if reuse:  # one theta builds its blocks as it evaluates them, and keeps none
                self.blocks = list(self._point_blocks(None))

    def _class_sums(self, Y: np.ndarray, of_point: np.ndarray, classes: int) -> np.ndarray:
        """The statistics of the rows Y summed per class, (R, pairs,
        classes), from blocks of at most ``_ELEMENT_BUDGET`` (row x point)
        elements; ``np.add.at`` adds them in point order, as one sum does."""
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows fail when evaluated
            for s, m in _spans(0, self.n, max(1, _ELEMENT_BUDGET // max(self.rows, 1))):
                pairs = self._pairs(*self._block_arrays(Y, s, m))
                if s == 0:
                    S = np.zeros((self.rows, len(pairs), classes))
                index = of_point[s:s + m] + len(pairs) * classes * np.arange(self.rows)[:, None]
                for j, (u, v, w) in enumerate(pairs):
                    np.add.at(S.reshape(-1), (index + j * classes).ravel(), (u * v * w).ravel())
        return S

    def _prepare_series(self, design: Design, Y: np.ndarray) -> None:
        """The series layout: the end points as classes of one point each,
        and per row the moments of the interior points, summed from the
        block arrays of fixed blocks of ``_ELEMENT_BUDGET`` points so that
        temporaries stay small and a row's moments do not depend on its
        batch."""
        n, keys = self.n, self.keys
        ends = self._exact_ends(n)
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing rows fail when evaluated
            if ends:
                self.S = np.concatenate([_statistics(self._pairs(*self._block_arrays(Y, i, 1))) for i in ends],
                                        axis=-1)
                E = len(ends)
                members = tuple(slice(j * E, (j + 1) * E) for j in range(keys))
                self.layout = _Layout(np.stack([_padded_gaps(design, keys, i, i + 1) for i in ends], axis=1).ravel(),
                                      members, np.ones(E), E)
            stop = n + 1 - keys  # the interior points are 1 .. stop - 1
            log_terms = design._cache.get(("series", keys))  # summed with the moments the first time
            M = scalars = 0.0
            for s, m in _spans(1, stop, _ELEMENT_BUDGET):
                g = _padded_gaps(design, keys, s, s + m)
                terms = self._series_terms(g)
                M = M + self._moments(terms, Y, s, m)
                if log_terms is None:
                    scalars = scalars + self._series_scalars(terms, g)
        if log_terms is None:
            log_terms = design._cache[("series", keys)] = scalars
        self.M, self.log_terms, self.log_scale = M, log_terms, stop - 1
        self.width = M.shape[1] + (0 if self.S is None else self.S.shape[1] * self.S.shape[2])

    def _series(self, rows, thetas, derivative: bool):
        """The interior's L and Q, or their theta-derivatives, from the
        moments: Q = sum_p M_p theta^e_p and L = c + (points) log theta +
        sum_q l_q theta^f_q, with ``log_terms`` (c, l_1, ...)."""
        t = thetas[..., None]
        e, f, lam = self.exponents, self.log_exponents, self.log_terms[1:]
        if derivative:
            L = self.log_scale / thetas + np.add.reduce((f * lam) * t ** (f - 1.0), axis=-1)
            C = e * t ** (e - 1.0)
        else:
            L = self.log_terms[0] + self.log_scale * np.log(thetas) + np.add.reduce(lam * t ** f, axis=-1)
            C = t ** e
        M = self.M if rows is None else self.M[rows]
        return L, np.add.reduce(M[:, None, :] * C, axis=-1)

    def _point_blocks(self, rows):
        """The per-point layouts and block arrays of the rows ``rows`` of Y,
        built one block at a time, in fixed blocks of ``_ELEMENT_BUDGET``
        points: a row's sums do not depend on the batch."""
        (design, Y), keys = self._source, self.keys
        if rows is not None:
            Y = Y[rows]
        for s, m in _spans(0, self.n, _ELEMENT_BUDGET):
            yield _Layout.per_point(_padded_gaps(design, keys, s, s + m), keys), self._block_arrays(Y, s, m)

    def _summed(self, rows, thetas, derivative: bool):
        """L and Q, or their theta-derivatives, from the statistics summed
        per class (or per end point) and the series' moments."""
        L = Q = 0.0
        if self.S is not None:
            L, C = (self._derivatives if derivative else self._terms)(self.layout, thetas)
            Q = _contract(self.S if rows is None else self.S[rows], C)
        if self.M is not None:
            L_series, Q_series = self._series(rows, thetas, derivative)
            L, Q = L + L_series, Q + Q_series
        return L, Q

    def _point_sums(self, rows, thetas, derivative: bool):
        """L and Q, or their theta-derivatives, point by point: over a
        per-point kernel's blocks, or over blocks built one at a time from
        the rows, read anew on every call."""
        stored = self.blocks is not None
        L = None
        for layout, (u, v) in self.blocks if stored else self._point_blocks(rows):
            if stored and rows is not None:
                u, v = u[rows], v[rows]
            if derivative:
                L_block, dC = self._derivatives(layout, thetas)
                Q_block = _contract(_statistics(self._pairs(u, v)), dC)
            else:
                L_block, Q_block = self._point_value(layout, u, v, thetas)
            if L is None:
                L, Q = L_block, Q_block
            else:
                L, Q = L + L_block, Q + Q_block
        return L, Q

    def _sums(self, rows, thetas: np.ndarray, derivative: bool, points: bool):
        """L and Q, or their theta-derivatives, point by point (``points``)
        or from the summed statistics. Per-row thetas go in one call;
        shared ones in :func:`_in_blocks`, where per-point terms grow with
        the rows and summed ones are shared by them."""
        sums = self._point_sums if points else self._summed
        if thetas.ndim > 1:
            return sums(rows, thetas, derivative)
        if points:
            count, width = self.rows if rows is None else len(rows), min(self.n, _ELEMENT_BUDGET)
        else:
            count, width = 1, self.width
        return _in_blocks(lambda t: sums(rows, t, derivative), thetas, count, width)

    def _evaluate(self, rows, thetas, derivative: bool):
        """L and Q, or their theta-derivatives, on the kernel's route: on
        the series route each (row, theta) pair inside the series' domain
        from the moments, and outside it point by point."""
        thetas = np.asarray(thetas, dtype=float)
        if self.route != "series":
            return self._sums(rows, thetas, derivative, self.route == "per-point")
        outside = thetas * self.span > _SERIES_X
        every, some = np.logical_and.reduce(outside, axis=None), np.logical_or.reduce(outside, axis=None)
        if self.M is None and not every:
            self._prepare_series(*self._source)
        if every or not some:
            return self._sums(rows, thetas, derivative, bool(some))
        L, Q = self._sums(rows, thetas, derivative, False)
        if thetas.ndim == 1:  # shared thetas: those outside, for every row
            L[outside], Q[:, outside] = self._sums(rows, thetas[outside], derivative, True)
        else:  # per-row thetas: the rows with one outside
            sub = np.flatnonzero(outside.any(axis=1))
            L_sub, Q_sub = self._sums(sub if rows is None else np.asarray(rows)[sub], thetas[sub], derivative, True)
            L[sub] = np.where(outside[sub], L_sub, L[sub])
            Q[sub] = np.where(outside[sub], Q_sub, Q[sub])
        return L, Q

    @_quiet
    def parts(self, rows, thetas) -> tuple[np.ndarray, np.ndarray]:
        return self._evaluate(rows, thetas, False)

    @_quiet
    def gradient(self, rows, thetas, sigma2) -> np.ndarray:
        """The theta-derivative, through the derivatives of the coefficients."""
        dL, dQ = self._evaluate(rows, thetas, True)
        return dL + dQ / sigma2


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

    In the series, theta A = A0 (1 + sum_j rho_j theta^2j) with
    A0 = (1/g_{i-1} + 1/g_i) / 2, and theta u = sum_j U_j theta^2j with
    U_0 = d_i / (2 g_{i-1}) - d_{i+1} / (2 g_i), from the series of
    coth, csch and tanh(x / 2). So Q = sum_k M_k theta^(2k - 1), with
    M_k the sum over interior points of the order k in z = theta^2 of
    (sum_j U_j z^j)^2 / (A0 (1 + sum_j rho_j z^j)), and
    L = (n - 2) log theta - sum log A0 - sum_k Lambda_k theta^2k, with
    Lambda_k the order k of sum log(1 + sum_j rho_j z^j).
    """

    keys = 2
    exponents = 2.0 * np.arange(len(_COTH)) - 1.0  # of theta in Q's series
    log_exponents = 2.0 * np.arange(1, len(_COTH))  # and in L's

    @staticmethod
    def _exact_ends(n):
        """The points next to an infinite outer gap, which the series leaves exact."""
        return (0, n - 1)

    @staticmethod
    def _block_arrays(Y, s, m):
        """y_i and d_i .. d_{i+1} of points s .. s + m - 1."""
        return Y[:, s:s + m], _increments(Y, 1, s, s + m)

    @staticmethod
    def _pairs(Y, d):
        dL, dR = d[..., :-1], d[..., 1:]
        return ((Y, Y, 1.0), (Y, dL, 2.0), (Y, dR, -2.0), (dL, dL, 1.0), (dR, dR, 1.0), (dL, dR, -2.0))

    @staticmethod
    def _coefficients(A, h, cL, cR):
        q, rL, rR = h / A, cL / A, cR / A
        return (h * q, h * rL, h * rR, cL * rL, cR * rR, cL * rR), (q, rL, rR)

    def _terms(self, layout: _Layout, thetas):
        _, _, _, _, A, h, cL, cR = _cv_precision(layout.values, layout.members, thetas)
        return -layout.total(np.log(A)), self._coefficients(A, h, cL, cR)[0]

    @staticmethod
    def _point_value(layout: _Layout, Y, d, thetas):
        """L and Q of a per-point block with data y_i and d_i .. d_{i+1}: Q
        sums the squared residuals P y of :func:`_apply_precision` over A."""
        _, _, c, _, A, h, _, _ = _cv_precision(layout.values, layout.members, thetas)
        u = _apply_precision(Y[:, None, :], d[:, None, :], h, c)
        # 0 - sum log A: L is +0, not -0, where every A rounds to 1 (theta g > 18 at every gap)
        return 0.0 - layout.total(np.log(A)), np.add.reduce(u * (u / A), axis=-1)

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

    @staticmethod
    def _series_terms(g):
        """From the gaps g around m interior points (m + 1 of them): A0 and
        rho_j per point, the weights w_l of z^l in 1 / (A0 (1 + sum_j
        rho_j z^j)), and the factors of d (per gap) and of y in U_j."""
        inv = 0.5 / g
        A0 = inv[:-1] + inv[1:]
        g2 = g * g
        odd = [g]  # g^(2j - 1) for j = 1 .. K
        for _ in _COTH[2:]:
            odd.append(odd[-1] * g2)
        both = [p[:-1] + p[1:] for p in odd]
        w = [1.0 / A0]
        rho = [(0.5 * f * b) * w[0] for f, b in zip(_COTH[1:], both)]
        for k in range(1, len(_COTH)):
            w_k = rho[0] * w[k - 1]
            for j in range(2, k + 1):
                w_k += rho[j - 1] * w[k - j]
            w.append(-w_k)
        d_factors = [inv] + [(0.5 * f) * p for f, p in zip(_CSCH[1:], odd)]
        y_factors = [(0.25 * t) * b for t, b in zip(_TANH, both)]
        return A0, rho, w, d_factors, y_factors

    def _moments(self, terms, Y: np.ndarray, s: int, m: int) -> np.ndarray:
        """M_k of the interior points s .. s + m - 1, per row (R, K + 1)."""
        _, _, w, d_factors, y_factors = terms
        y, d = self._block_arrays(Y, s, m)
        U = []
        for j, f in enumerate(d_factors):
            e = d * f
            u = e[:, :-1] - e[:, 1:]
            if j:
                u += y * y_factors[j - 1]
            U.append(u)
        M = []
        P = []  # the orders of (theta u)^2
        for k in range(len(U)):
            p = U[0] * U[k]
            for a in range(1, (k + 1) // 2):
                p += U[a] * U[k - a]
            if k:
                p *= 2.0
                if k % 2 == 0:
                    p += U[k // 2] * U[k // 2]
            P.append(p)
            m_k = w[0] * p
            for l in range(1, k + 1):
                m_k += w[l] * P[k - l]
            M.append(np.sum(m_k, axis=-1))
        return np.stack(M, axis=-1)

    @staticmethod
    def _series_scalars(terms, g) -> np.ndarray:
        """(-sum log A0, -Lambda_1, ..., -Lambda_K) of the interior points."""
        A0, rho = terms[:2]
        lam = []  # the orders of log(1 + sum_j rho_j z^j)
        for k in range(1, len(rho) + 1):
            lam.append(rho[k - 1] - sum(j * lam[j - 1] * rho[k - j - 1] for j in range(1, k)) / k)
        return np.array([-np.sum(np.log(A0))] + [-np.sum(x) for x in lam])


class MlKernel(_GapKernel):
    """The -2 log-likelihood; a point's class is its left gap.

    Each point conditions on its left neighbour: the innovation
    w_i = d_i + (1 - E) y_{i-1} has variance G = 1 - E^2, and the first
    point, next to the infinite outer gap, has w = y_0 and G = 1. Then
    L = n log 2 pi + sum log G and Q = sum w^2 / G; Q expands into the
    statistics d^2, 2 d y_{i-1} and y_{i-1}^2 with the coefficients
    a = 1/G, 1 / (1 + E) and tanh(theta g / 2).

    In the series, theta w^2 / G = theta (y_i^2 - y_{i-1}^2) / 2
    + d^2 x coth(x) / (2 g) + theta y_i y_{i-1} tanh(x / 2), x = theta g,
    whose first terms telescope to (y_{n-1}^2 - y_0^2) / 2; so Q is a
    sum of moments sum d^2 g^(2j - 1) and sum y_i y_{i-1} g^(2j + 1)
    times odd powers of theta. With log G = log 2x - x + log(sinh x / x),
    L is a sum of powers of theta with the design's sum log g, sum g and
    sum g^2j.
    """

    keys = 1  # so a class has one gap, and the per-gap terms are per class
    # sum d^2 g^(2j - 1) and y_i y_{i-1} g^(2j - 1) at theta^(2j - 1), and
    # (y_0^2 + y_{n-1}^2) / 2: the first point's y_0^2 and the telescoped sum
    exponents = np.append(2.0 * np.arange(len(_COTH) + 1) - 1.0, 0.0)
    log_exponents = np.append(1.0, 2.0 * np.arange(1, len(_COTH)))  # -sum g at theta, then theta^2j

    @staticmethod
    def _block_arrays(Y, s, m):
        """d_i and y_{i-1}, with y_{-1} = 0, of points s .. s + m - 1."""
        prev = Y[:, s - 1:s + m - 1] if s else np.concatenate((np.zeros_like(Y[:, :1]), Y[:, :m - 1]), axis=1)
        return _increments(Y, 0, s, s + m), prev

    @staticmethod
    def _pairs(d, prev):
        return ((d, d, 1.0), (d, prev, 2.0), (prev, prev, 1.0))

    def _terms(self, layout: _Layout, thetas):
        E, G = _gap_terms(layout.values, thetas)
        p = 1.0 + E
        L = layout.points * np.log(2.0 * np.pi) + layout.total(np.log(G))
        return L, (1.0 / G, 1.0 / p, G / (p * p))

    @staticmethod
    def _point_value(layout: _Layout, d, prev, thetas):
        """L and Q of a per-point block with data d_i and y_{i-1}."""
        E, G = _gap_terms(layout.values, thetas)
        w = d[:, None, :] + (G / (1.0 + E)) * prev[:, None, :]  # G / (1 + E) = 1 - E
        return layout.points * np.log(2.0 * np.pi) + layout.total(np.log(G)), np.add.reduce(w * w / G, axis=-1)

    def _derivatives(self, layout: _Layout, thetas):
        E, G = _gap_terms(layout.values, thetas)
        a = 1.0 / G
        p = 1.0 + E
        g = layout.weights()
        ga = g * a
        db = g * E / (p * p)  # of 1 / (1 + E); tanh(theta g / 2) has twice it
        return layout.total(2.0 * ga * E * E), (-2.0 * ga * a * E * E, db, 2.0 * db)

    @staticmethod
    def _exact_ends(n):
        """None: the first point's terms, y_0^2 and log 2 pi, do not depend
        on theta and join the series' constant terms."""
        return ()

    def _prepare_series(self, design: Design, Y: np.ndarray) -> None:
        super()._prepare_series(design, Y)
        first, last = Y[:, :1], Y[:, -1:]
        with np.errstate(over="ignore", invalid="ignore"):
            self.M = np.append(self.M, 0.5 * (first * first + last * last), axis=1)
        self.log_terms = np.concatenate(([self.log_terms[0] + np.log(2.0 * np.pi)], self.log_terms[1:]))
        self.width += 1

    @staticmethod
    def _series_terms(g):
        """From the left gaps g of the interior points: the factors of d^2
        at theta^(2j - 1) and of y_i y_{i-1} at theta^(2j + 1)."""
        g2 = g * g
        odd = [g]  # g^(2j + 1) for j = 0 .. K
        for _ in _COTH[1:]:
            odd.append(odd[-1] * g2)
        d_factors = [0.5 / g] + [(0.5 * f) * p for f, p in zip(_COTH[1:], odd)]
        y_factors = [(0.5 * t) * p for t, p in zip(_TANH, odd)]
        return d_factors, y_factors

    def _moments(self, terms, Y: np.ndarray, s: int, m: int) -> np.ndarray:
        """The moments at theta^-1, theta, ..., theta^(2K + 1) of the
        interior points s .. s + m - 1, per row."""
        d_factors, y_factors = terms
        d, prev = self._block_arrays(Y, s, m)
        d2, yy = d * d, Y[:, s:s + m] * prev
        columns = [d2 * d_factors[0]] + [d2 * a + yy * b for a, b in zip(d_factors[1:], y_factors)]
        return np.stack([np.sum(c, axis=-1) for c in columns + [yy * y_factors[-1]]], axis=-1)

    @staticmethod
    def _series_scalars(terms, g) -> np.ndarray:
        """(m log 4 pi + sum log g, -sum g, l_j sum g^2j) of the m interior points."""
        g2 = g * g
        even, sums = g2, []
        for f in _LOG_SINH[1:]:
            sums.append(f * np.sum(even))
            even = even * g2
        return np.array([g.size * np.log(4.0 * np.pi) + np.sum(np.log(g)), -np.sum(g)] + sums)


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
    theta = check_positive("theta", theta)
    with np.errstate(divide="ignore", over="ignore"):
        A, _, c = _precision_terms(design, theta)
    check_finite("precision matrix", A, theta)  # each |c| is at most its points' A
    return TridiagonalPrecision(diag=A, off=-c[1:-1])


def loo_predictions(design: Design, y, theta: float) -> LooSummary:
    """Leave-one-out conditional means and normalized variances.

    Each interior prediction is the precision-weighted combination of
    the two neighbors; the endpoints condition on their single
    neighbor. Both are the data minus the leave-one-out residuals the
    score is built from. No dependence on the variance parameter. Data
    whose residuals overflow raise :class:`NumericalFailureError`, as
    :func:`log_score` does.
    """
    theta = check_positive("theta", theta)
    y = _check_data(design, y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A, h, c = _precision_terms(design, theta)
        predictions = y - _apply_precision(y, _increments(y, 1), h, c) / A
    check_finite("a leave-one-out prediction", predictions, theta)
    return LooSummary(predictions=predictions, normalized_variances=1.0 / A)


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
    sigma2 = check_positive("sigma2", sigma2)
    decomp = score_decomposition(design, y, theta)
    return float(check_finite("logarithmic score", decomp.score_at(sigma2), theta)), decomp


def score_decomposition(design: Design, y, theta: float) -> ScoreDecomposition:
    """Split the score into its variance-free log part L and quadratic part Q.

    The identity n log sigma2 + L + Q / sigma2 == log_score holds as an
    exact algebraic regrouping; Q is a positively weighted sum of
    squares, hence nonnegative.
    """
    theta = check_positive("theta", theta)
    y = _check_data(design, y)
    L, Q = score_parts(design, y[None, :], [theta])
    return ScoreDecomposition(*check_finite("score decomposition", (float(L[0]), float(Q[0, 0])), theta), n=design.n)


def score_gradient_theta(design: Design, y, theta: float, sigma2: float) -> float:
    """Analytic derivative of the score in theta, term by term.

    Differentiates the matrix-free expression directly; agreement with a
    central finite difference is enforced by the test oracles.
    """
    theta = check_positive("theta", theta)
    sigma2 = check_positive("sigma2", sigma2)
    y = _check_data(design, y)
    grad = CvKernel(design, y[None, :], reuse=False).gradient(None, [theta], sigma2)[0, 0]
    return float(check_finite("score gradient", grad, theta))


def ml_neg2loglik(design: Design, y, theta: float, sigma2: float) -> float:
    """Twice the negative Gaussian log-likelihood, via the Markov factorization.

    Each observation conditions on its left neighbor only, giving
    n log(2 pi sigma2) plus per-gap log variances plus the normalized
    squared innovations, all in O(n); evaluated as
    :func:`ml_decomposition` at ``sigma2``.
    """
    sigma2 = check_positive("sigma2", sigma2)
    return float(check_finite("likelihood objective", ml_decomposition(design, y, theta).score_at(sigma2), theta))


def ml_decomposition(design: Design, y, theta: float) -> ScoreDecomposition:
    """Variance-free split of the likelihood objective, same shape as the score's."""
    theta = check_positive("theta", theta)
    y = _check_data(design, y)
    L, Q = ml_parts(design, y[None, :], [theta])
    return ScoreDecomposition(*check_finite("likelihood decomposition", (float(L[0]), float(Q[0, 0])), theta),
                              n=design.n)


def ml_gradient_theta(design: Design, y, theta: float, sigma2: float) -> float:
    """Analytic theta-derivative of :func:`ml_neg2loglik`."""
    theta = check_positive("theta", theta)
    sigma2 = check_positive("sigma2", sigma2)
    y = _check_data(design, y)
    grad = MlKernel(design, y[None, :], reuse=False).gradient(None, [theta], sigma2)[0, 0]
    return float(check_finite("likelihood gradient", grad, theta))


def _dense_cholesky(design: Design, theta: float) -> np.ndarray:
    """The dense lower Cholesky factor of the unit-variance covariance; n
    is capped, and a failed factorization or a near-singular covariance
    (duplicate-like points) raises a conditioning error instead of
    returning noise."""
    if design.n > _DENSE_MAX_N:
        raise InvalidParameterError(
            f"dense route is capped at n = {_DENSE_MAX_N}, got {design.n}"
        )
    try:
        chol = np.linalg.cholesky(covariance_matrix(design, theta))
    except np.linalg.LinAlgError as err:
        raise ConditioningError(f"covariance factorization failed: {err}") from err
    piv = np.diag(chol)
    if float(piv.min() / piv.max()) < _PIVOT_RATIO_MIN:
        raise ConditioningError(
            "covariance is numerically singular (near-duplicate design points)"
        )
    return chol


def dense_precision(design: Design, theta: float) -> np.ndarray:
    """Dense inverse covariance through a generic Cholesky factorization.

    Independent of the tridiagonal closed form on purpose; n is capped
    and near-singular covariances raise a conditioning error.
    """
    inv_chol = np.linalg.inv(_dense_cholesky(design, theta))
    return inv_chol.T @ inv_chol


def dense_oracle_score(design: Design, y, theta: float, sigma2: float) -> float:
    """Score computed the slow way: dense inverse plus the Dubrule identities."""
    sigma2 = check_positive("sigma2", sigma2)
    y = _check_data(design, y)
    P = dense_precision(design, theta)
    d = np.diag(P)
    resid = (P @ y) / d
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = np.sum(np.log(sigma2 / d) + d * resid * resid / sigma2)
    return float(check_finite("logarithmic score", value, theta))


def dense_oracle_ml(design: Design, y, theta: float, sigma2: float) -> float:
    """Gaussian -2 log-likelihood from the dense covariance; like
    :func:`dense_precision`, it refuses a near-singular covariance."""
    sigma2 = check_positive("sigma2", sigma2)
    y = _check_data(design, y)
    chol = _dense_cholesky(design, theta)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    white = np.linalg.solve(chol, y)
    n = design.n
    with np.errstate(over="ignore", invalid="ignore"):
        value = n * np.log(2.0 * np.pi * sigma2) + logdet + white @ white / sigma2
    return float(check_finite("likelihood objective", value, theta))
