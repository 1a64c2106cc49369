"""Box-constrained minimization of the cross-validation and likelihood objectives.

Both objectives share the shape n log s2 + L(theta) + Q(theta) / s2, so
the variance profiles out in closed form (Q/n clamped into the box) and
the remaining one-dimensional problem is solved by a deterministic
coarse grid followed by golden-section refinement. The three classical
cases are covered: joint estimation, fixed variance, fixed inverse
length scale. They are one search: a fixed parameter is a box range of
zero width.

The estimators are the rows of one table, :data:`ESTIMATOR_TABLE`, and
:func:`estimate_batch` runs any of them on every row of a data array
(R, n) at once. The grid is evaluated as whole arrays of
(row, theta) pairs, and golden-section search then runs on all rows in
lockstep, each with its own bracket, iteration count and stopping
point. A row's result depends on that row alone, so it is bitwise the
same in any batch; the single-path ``estimate_*`` functions are batches
of one. Each objective is prepared once per batch (a kernel of
:mod:`oucv.scoring`, whose evaluation costs as many operations as the
design has gap classes, or O(1) per row on a large design without
classes), and the grid is one call of it for every row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .designs import Design
from .errors import ConditioningError, InvalidParameterError, NumericalFailureError, OucvError
from .numerics import _ELEMENT_BUDGET
from .regression import TrendKernel, _prepare_F
from .scoring import CvKernel, MlKernel, ScoreDecomposition, _check_data, _take

__all__ = [
    "ParameterBox",
    "EstimateResult",
    "profile_sigma2",
    "estimate_cv_joint",
    "estimate_cv_fixed_sigma",
    "estimate_cv_fixed_theta",
    "estimate_ml_joint",
    "estimate_cv_reg",
    "ESTIMATORS",
    "ESTIMATOR_TABLE",
    "estimate_batch",
    "replicate_chunk",
    "standardized_statistic",
]

_GRID_SIZE = 64
_REFINE_RTOL = 1e-8
_REFINE_MAX_ITER = 200
# inverse golden ratio, (sqrt(5) - 1) / 2
_INVPHI = 0.6180339887498949
# An estimate within this relative distance of a box edge sits on it.
# The search stops on a bracket of _REFINE_RTOL, but where the objective
# is flat to rounding near an edge it stops anywhere within about 50
# such brackets of it: ulp-level changes of the data moved cv-regression
# estimates at the lower theta edge by up to 5e-7 relative (n = 200, a
# linear trend), while their nearest interior minima sat 1.8e-4 away.
_BOUNDARY_RTOL = 1e3 * _REFINE_RTOL


@dataclass(frozen=True)
class ParameterBox:
    """Compact rectangle [a, A] x [b, B] constraining (theta, sigma2)."""

    a: float
    A: float
    b: float
    B: float

    def __post_init__(self):
        if not (0.0 < self.a <= self.A < math.inf):
            raise InvalidParameterError(f"invalid theta bounds [{self.a}, {self.A}]")
        if not (0.0 < self.b <= self.B < math.inf):
            raise InvalidParameterError(f"invalid sigma2 bounds [{self.b}, {self.B}]")

    @property
    def theta_range(self) -> tuple[float, float]:
        return (self.a, self.A)

    @property
    def sigma2_range(self) -> tuple[float, float]:
        return (self.b, self.B)


@dataclass(frozen=True)
class EstimateResult:
    """Minimizer coordinates, their product, and convergence diagnostics.

    ``gradient_at_opt`` is the objective's derivative in the free
    coordinate at the optimum: in theta, or in sigma2 when the theta
    range is collapsed (a == A). ``boundary_flags`` names the box edges
    the optimum sits on (``theta_lower``, ``theta_upper``,
    ``sigma2_lower``, ``sigma2_upper``), for coordinates whose range is
    not collapsed only: a fixed parameter is never flagged. A coordinate
    sits on an edge when it lies within 1e-5 of it, relative to the
    edge: a thousand times the search's stopping bracket of 1e-8, since
    on an objective flat to rounding near an edge the search stops
    anywhere within about 50 brackets of it.
    ``grid_minima`` counts the local minima among the theta grid's
    values (1 on a collapsed range); more than one flags an objective
    with several wells, where the search may have kept the wrong one.
    """

    theta_hat: float
    sigma2_hat: float
    product: float
    objective_value: float
    gradient_at_opt: float
    boundary_flags: tuple[str, ...]
    iterations: int
    evaluations: int  # objective evaluations made by the theta search
    grid_minima: int


def profile_sigma2(decomp: ScoreDecomposition, box: ParameterBox) -> float:
    """Closed-form variance minimizer Q/n, clamped into [b, B]."""
    return float(min(max(decomp.Q / decomp.n, box.b), box.B))


def standardized_statistic(product_hat: float, true_product: float, n: int, tau: float) -> float:
    """sqrt(n) (product_hat - true_product) / (true_product * tau)."""
    if not tau > 0.0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    return float(math.sqrt(n) * (product_hat - true_product) / (true_product * tau))


def _boundary_flags(name: str, x: float, lo: float, hi: float) -> list[str]:
    """The edges of [lo, hi] that x sits on; none for a collapsed range."""
    if lo == hi:
        return []
    flags = []
    if x <= lo * (1.0 + _BOUNDARY_RTOL):
        flags.append(f"{name}_lower")
    if x >= hi * (1.0 - _BOUNDARY_RTOL):
        flags.append(f"{name}_upper")
    return flags


def replicate_chunk(n: int) -> int:
    """How many replicates of n points to estimate in one batch: as many
    as one block of the per-point kernel holds at one theta."""
    return max(1, _ELEMENT_BUDGET // n)


def _keep_best(f, x, best_f, best_x):
    """Per row, the better of (f, x) and (best_f, best_x): the smaller
    value, or on a tie the smaller theta; a NaN value never wins."""
    better = (f < best_f) | ((f == best_f) & (x < best_x))
    return np.where(better, f, best_f), np.where(better, x, best_x)


def _fail_nonfinite(failed: dict, thetas: np.ndarray, values: np.ndarray) -> None:
    """Fail each row with a non-finite value among ``values`` (rows, T),
    naming the first of the shared ``thetas`` (T,) it was found at."""
    finite = np.isfinite(values)
    for r in np.flatnonzero(~finite.all(axis=1)):
        if r not in failed:
            bad = float(thetas[np.argmin(finite[r])])
            failed[r] = NumericalFailureError(f"objective is not finite at theta = {bad}", theta=bad)


def _local_minima(values: np.ndarray) -> np.ndarray:
    """Per row of ``values`` (rows, nodes), the nodes no higher than the
    node before and lower than the node after, the ends compared on
    their one side; a flat run counts once, at its right end."""
    rows = values.shape[0]
    edge = np.ones((rows, 1), dtype=bool)
    falls_into = np.concatenate([edge, values[:, 1:] <= values[:, :-1]], axis=1)
    rises_from = np.concatenate([values[:, :-1] < values[:, 1:], edge], axis=1)
    return np.count_nonzero(falls_into & rises_from, axis=1)


def _minimize_theta(objective: Callable, lo: float, hi: float, rows: int) -> tuple:
    """Coarse log-spaced grid plus golden-section refinement, all rows in lockstep.

    ``objective(rows, thetas, failed)`` returns the values at row indices
    ``rows`` of the batch, for thetas shared by those rows, shape (T,),
    or one set per row, shape (len(rows), k); the values have shape
    (len(rows), T) or (len(rows), k). An objective that fails on a row
    records the error in ``failed`` and the row leaves the search.
    The whole grid is one call.

    Each row keeps its own bracket around its grid argmin and stops when
    the bracket is narrower than ``_REFINE_RTOL`` times its midpoint.
    The returned point is the smallest objective value seen, grid nodes
    included; ties go to the smaller theta. A non-finite value on a
    row's grid fails that row alone. When ``lo == hi`` the grid is that
    one point, with no refinement. Returns per row theta, value,
    iterations, evaluations and the local minima of the grid values
    (1 for a single point), and the failures by row.
    """
    failed: dict[int, OucvError] = {}
    everyone = np.arange(rows)
    if lo == hi:
        theta = np.full(rows, lo)
        values = objective(everyone, theta[:, None], failed)
        _fail_nonfinite(failed, theta[:1], values)
        ones = np.ones(rows, int)
        return theta, values[:, 0], np.zeros(rows, int), ones, ones, failed

    grid = np.geomspace(lo, hi, _GRID_SIZE)
    values = objective(everyone, grid, failed)
    _fail_nonfinite(failed, grid, values)
    minima = _local_minima(values)
    k = np.argmin(values, axis=1)  # first minimum: tie toward smaller theta
    best_x = grid[k]
    best_f = values[everyone, k]
    lo_ = grid[np.maximum(k - 1, 0)]
    hi_ = grid[np.minimum(k + 1, _GRID_SIZE - 1)]
    iterations = np.zeros(rows, int)

    def unfailed(idx: np.ndarray) -> np.ndarray:
        return idx[[r not in failed for r in idx]] if failed else idx

    def at(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        if not idx.size:  # every row failed on the grid
            return np.empty(0)
        return objective(idx, x[:, None], failed)[:, 0]

    # golden-section state of the rows still searching, their best point included
    idx = unfailed(everyone)
    a, b = lo_[idx], hi_[idx]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc = at(idx, c)
    fd = at(idx, d)
    bf, bx = _keep_best(fc, c, best_f[idx], best_x[idx])
    bf, bx = _keep_best(fd, d, bf, bx)
    it = np.zeros(idx.size, int)
    while idx.size:
        keep = (b - a > _REFINE_RTOL * 0.5 * (a + b)) & (it < _REFINE_MAX_ITER)
        if failed:
            keep &= [r not in failed for r in idx]
        if not keep.all():
            out, stop = idx[~keep], ~keep
            lo_[out], hi_[out], iterations[out] = a[stop], b[stop], it[stop]
            best_f[out], best_x[out] = bf[stop], bx[stop]
            idx, a, b, c, d, fc, fd, bf, bx, it = (
                v[keep] for v in (idx, a, b, c, d, fc, fd, bf, bx, it)
            )
            if not idx.size:
                break
        left = fc <= fd  # ties shrink toward the left, keeping smaller arguments
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = _INVPHI * (b - a)
        probe = np.where(left, b - step, a + step)
        f = at(idx, probe)
        bf, bx = _keep_best(f, probe, bf, bx)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        it += 1
    idx = unfailed(everyone)
    mid = 0.5 * (lo_[idx] + hi_[idx])
    best_f[idx], best_x[idx] = _keep_best(at(idx, mid), mid, best_f[idx], best_x[idx])
    # the grid, the two interior points, one point per iteration, the midpoint
    evaluations = _GRID_SIZE + 2 + iterations + 1
    return best_x, best_f, iterations, evaluations, minima, failed


def _data_rows(design: Design, Y) -> tuple[np.ndarray, list]:
    """Y as a float (R, n) array, and a result slot per row: a
    NumericalFailureError for a row with non-finite values, else None."""
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] != design.n:
        raise InvalidParameterError(
            f"data of shape {Y.shape} does not hold rows of design size {design.n}"
        )
    finite = np.isfinite(Y).all(axis=1)
    slots = [
        None if ok else NumericalFailureError("nonfinite values in the observation vector")
        for ok in finite
    ]
    return Y, slots


def _unfailed(slots: list) -> np.ndarray:
    return np.flatnonzero([slot is None for slot in slots])


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return np.minimum(np.maximum(x, lo), hi)


def _result(box, theta, sigma2, value, grad, iterations, evaluations, minima):
    theta, sigma2 = float(theta), float(sigma2)
    flags = _boundary_flags("theta", theta, box.a, box.A) + _boundary_flags("sigma2", sigma2, box.b, box.B)
    return EstimateResult(
        theta_hat=theta,
        sigma2_hat=sigma2,
        product=theta * sigma2,
        objective_value=float(value),
        gradient_at_opt=float(grad),
        boundary_flags=tuple(flags),
        iterations=int(iterations),
        evaluations=int(evaluations),
        grid_minima=int(minima),
    )


def _record_singular(failed: dict, rows: np.ndarray, thetas, L: np.ndarray) -> None:
    """Fail each row whose log part L is NaN at one of its thetas, the
    mark a parts function leaves where it could not factor the objective."""
    bad = np.isnan(L)
    if not bad.any():
        return
    bad = np.broadcast_to(bad, (rows.size, L.shape[-1]))
    thetas = np.broadcast_to(thetas, bad.shape)
    for i in np.flatnonzero(bad.any(axis=1)):
        if rows[i] not in failed:
            theta = float(thetas[i, np.argmax(bad[i])])
            failed[rows[i]] = ConditioningError(
                f"objective is singular at theta = {theta}: a factorization or a "
                "leave-one-out variance collapsed"
            )


def _search_batch(design, Y, box, kernel) -> list:
    """Profile search over theta for every row of Y.

    ``kernel(design, Y, reuse)`` prepares the objective on the rows once,
    like :class:`~oucv.scoring.CvKernel`, told whether it will be
    evaluated at more than one theta: its ``parts(rows, thetas)`` returns
    L and Q for the rows at indices ``rows``, batched like
    :func:`~oucv.scoring.score_parts`, and a NaN in L marks a theta
    where the objective could not be factored; a row that meets one
    fails with :class:`ConditioningError`. Its ``gradient(rows, thetas,
    sigma2)`` is the analytic theta-derivative; where it is None the
    result carries a central difference of the objective at the
    profiled variance.

    A fixed parameter is a collapsed range of the box: with a == A
    theta is fixed and the variance is the closed-form profile, with
    b == B the variance is fixed. The reported gradient is the
    derivative in the free coordinate, theta unless a == A, where it
    is the variance derivative n / sigma2 - Q / sigma2^2.
    """
    Y, slots = _data_rows(design, Y)
    ok = _unfailed(slots)
    if not ok.size:
        return slots
    prepared = kernel(design, _take(Y, ok), box.a < box.A)  # a fixed theta is one evaluation
    n = design.n

    def objective(rows, thetas, failed):
        L, Q = prepared.parts(rows, thetas)
        _record_singular(failed, rows, thetas, L)
        s2 = _clamp(Q / n, box.b, box.B)
        return n * np.log(s2) + L + Q / s2

    theta_hat, values, iterations, evaluations, minima, failed = _minimize_theta(
        objective, box.a, box.A, len(ok)
    )
    done = np.array([i for i in range(len(ok)) if i not in failed], dtype=int)
    if done.size:
        theta = theta_hat[done, None]

        def at(thetas):
            L, Q = prepared.parts(done, thetas)
            _record_singular(failed, done, thetas, L)
            return L, Q

        _, Q = at(theta)
        sigma2 = _clamp(Q / n, box.b, box.B)
        if box.a == box.A:
            grad = n / sigma2 - Q / (sigma2 * sigma2)
        elif prepared.gradient:
            grad = prepared.gradient(done, theta, sigma2)
        else:  # central difference at the profiled variance
            step = 1e-6 * theta
            hi, lo = (n * np.log(sigma2) + L + Q / sigma2 for L, Q in (at(theta + step), at(theta - step)))
            grad = (hi - lo) / (2.0 * step)
        for j, i in enumerate(done):
            if i not in failed:
                slots[ok[i]] = _result(
                    box, theta[j, 0], sigma2[j, 0], values[i], grad[j, 0], iterations[i], evaluations[i],
                    minima[i],
                )
    for i, err in failed.items():
        slots[ok[i]] = err
    return slots


@dataclass(frozen=True)
class Estimator:
    """A row of the estimator table: its objective's kernel, prepared as
    ``kernel(design, Y, reuse)``, and what the estimator's value fixes:
    ``"sigma2"``, ``"theta"``, ``"trend"`` (the columns F, passed to the
    kernel), or None for a joint search."""

    kernel: type
    fixes: str | None = None


ESTIMATOR_TABLE = {
    "cv-joint": Estimator(CvKernel),
    "cv-fixed-sigma": Estimator(CvKernel, "sigma2"),
    "cv-fixed-theta": Estimator(CvKernel, "theta"),
    "ml-joint": Estimator(MlKernel),
    "cv-regression": Estimator(TrendKernel, "trend"),
}
ESTIMATORS = tuple(ESTIMATOR_TABLE)


def estimate_batch(name: str, design: Design, Y, box: ParameterBox, value=None) -> list:
    """Estimator ``name`` on every row of Y (R, n), at the fixed ``value``
    of the variance or theta (the collapsed range of the box) or of the
    trend columns F (n, p); a joint estimator takes none.

    Returns one entry per row: an :class:`EstimateResult`, or the
    :class:`OucvError` that row failed with.
    """
    row = ESTIMATOR_TABLE.get(name)
    if row is None:
        raise InvalidParameterError(f"unknown estimator {name!r}")
    if (value is None) != (row.fixes is None):
        raise InvalidParameterError(f"{name} needs a fixed {row.fixes}" if value is None
                                    else f"{name} fixes no parameter, got {value!r}")
    kernel = row.kernel
    if row.fixes == "sigma2":
        box = ParameterBox(box.a, box.A, value, value)
    elif row.fixes == "theta":
        box = ParameterBox(value, value, box.b, box.B)
    elif row.fixes == "trend":
        kernel = partial(kernel, F=_prepare_F(design, value))
    return _search_batch(design, Y, box, kernel)


def _single(results: list) -> EstimateResult:
    """The one result of a batch of one, raising its failure."""
    (res,) = results
    if isinstance(res, OucvError):
        raise res
    return res


def _estimate(name: str, design: Design, y, box: ParameterBox, value=None) -> EstimateResult:
    """Estimator ``name`` on the one path y, raising its failure."""
    return _single(estimate_batch(name, design, _check_data(design, y)[None, :], box, value))


def estimate_cv_joint(design: Design, y, box: ParameterBox) -> EstimateResult:
    """Joint score minimizer over the box; estimates the product theta * sigma2.

    Separately theta and sigma2 are not identified under infill
    sampling, so only the product coordinate of the result is
    consistent.
    """
    return _estimate("cv-joint", design, y, box)


def estimate_cv_fixed_sigma(
    design: Design, y, sigma1_sq: float, theta_range: tuple[float, float]
) -> EstimateResult:
    """Score minimizer in theta at a predetermined variance.

    The estimand is theta0 * sigma0^2 / sigma1_sq: fixing the variance
    at the wrong level rescales the target inverse length scale.
    """
    return _estimate("cv-fixed-sigma", design, y, ParameterBox(*theta_range, sigma1_sq, sigma1_sq), sigma1_sq)


def estimate_cv_fixed_theta(
    design: Design, y, theta2: float, sigma_range: tuple[float, float]
) -> EstimateResult:
    """Closed-form score minimizer in sigma2 at a predetermined theta.

    The estimand is theta0 * sigma0^2 / theta2. The optimum is the
    clamped profile value, so no search is needed; the reported gradient
    is the sigma2-derivative of the score at the optimum.
    """
    return _estimate("cv-fixed-theta", design, y, ParameterBox(theta2, theta2, *sigma_range), theta2)


def estimate_ml_joint(design: Design, y, box: ParameterBox) -> EstimateResult:
    """Maximum-likelihood analog of :func:`estimate_cv_joint`.

    Same profile scheme applied to the Markov-factorized -2
    log-likelihood; serves as the variance baseline the score-based
    estimator is compared against.
    """
    return _estimate("ml-joint", design, y, box)


def estimate_cv_reg(design: Design, z, F, box: ParameterBox) -> EstimateResult:
    """Joint trend-aware score minimizer over the box.

    Identical profile-plus-refinement scheme as the centered case; the
    reported gradient is a central finite difference of the score in
    theta at the profiled variance.
    """
    return _estimate("cv-regression", design, z, box, F)
