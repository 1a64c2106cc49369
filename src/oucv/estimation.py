"""Box-constrained minimization of the cross-validation and likelihood objectives.

Both objectives share the shape n log s2 + L(theta) + Q(theta) / s2, so
the variance profiles out in closed form (Q/n clamped into the box) and
the remaining one-dimensional problem is solved by a deterministic
coarse grid followed by golden-section refinement. The three classical
cases are covered: joint estimation, fixed variance, fixed inverse
length scale. They are one search: a fixed parameter is a box range of
zero width.

The estimators are the rows of one table, :data:`ESTIMATOR_TABLE`.
:func:`estimate_lanes` runs several of them on every row of a data
array (R, n) in one search, and :func:`estimate_batch` is its case of
one estimator. Each estimator holds its own copy of the rows, a lane;
the search stacks the lanes (estimator x row) and evaluates the grid as
whole arrays of (row, theta) pairs, and golden-section search then runs
on all stacked rows in lockstep, each with its own bracket, variance
bounds and stopping point; the last row left searching steps alone, on
Python floats. A row's result depends on that row alone, so
it is bitwise the same in any batch and beside any other estimator; the
single-path ``estimate_*`` functions are batches of one. Lanes are
built and checked once and may search any number of data arrays, as
the Monte Carlo harness does once per chunk. Each objective is prepared
once per search (a kernel of :mod:`oucv.scoring`, whose evaluation
costs as many operations as the design has gap classes, or O(1) per
row on a large design without classes, or the trend kernel of
:mod:`oucv.regression`), and the lanes of one kernel share its calls:
``cv-joint`` and ``cv-fixed-sigma`` evaluate one grid of L and Q. The
last search keeps its kernels for the next one on the same design
object and bitwise equal rows, so that consecutive estimators on one
path prepare each objective once. A
fixed theta (``cv-fixed-theta``) is no search: each row is one
evaluation at that theta, point by point on a kernel of its own, and
the value, the variance profile and the variance derivative all come
from it. The grid is one call of each kernel for every row, which the
kernel cuts into blocks: the trend kernel builds its theta-only factor
per block of nodes sized by n p and projects the rows in blocks sized
by rows x n. The two interior points of the brackets are one call per
kernel, and so are each golden-section step and the two sides of a
central difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .designs import Design
from .errors import (ConditioningError, InvalidParameterError, NumericalFailureError, OucvError, check_finite,
                     check_integer, check_positive, positive_finite)
from .numerics import _ELEMENT_BUDGET
from .regression import TrendKernel, _prepare_F
from .scoring import CvKernel, MlKernel, ScoreDecomposition, _check_data

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
    "estimate_lanes",
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
        for bound in ("a", "A", "b", "B"):
            object.__setattr__(self, bound, check_positive(f"box bound {bound!r}", getattr(self, bound)))
        if not self.a <= self.A:
            raise InvalidParameterError(f"invalid theta bounds [{self.a}, {self.A}]")
        if not self.b <= self.B:
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
    """sqrt(n) (product_hat - true_product) / (true_product * tau), or a
    NumericalFailureError when it is not finite: a finite estimate far
    enough from the true product overflows it. The true product must be
    positive and finite."""
    true_product = check_positive("true_product", true_product)
    if not tau > 0.0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    n = check_integer("n", n)
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    stat = math.sqrt(n) * (product_hat - true_product) / (true_product * tau)
    return check_finite("standardized statistic", float(stat))


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


def _fail_nonfinite(failed: dict, thetas: np.ndarray, values: np.ndarray) -> None:
    """Fail each row with a non-finite value among ``values`` (rows, T),
    naming the first theta it was found at; ``thetas`` is shared, (T,),
    or per row, (rows, T)."""
    finite = np.isfinite(values)
    for r in np.flatnonzero(~finite.all(axis=1)):
        if r not in failed:
            bad = float(np.broadcast_to(thetas, values.shape)[r, np.argmin(finite[r])])
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


def _best_seen(seen: list, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the point of least value among ``seen``, a list of (row
    indices, thetas, values): ties go to the smaller theta, and a NaN
    value never wins. A row with no value but NaN gets infinity."""
    index, x, f = (np.concatenate(part) for part in zip(*seen))
    best_f = np.full(rows, np.inf)
    np.fmin.at(best_f, index, f)
    tie = f == best_f[index]
    best_x = np.full(rows, np.inf)
    np.fmin.at(best_x, index[tie], x[tie])
    return best_x, best_f


def _search_row(value: Callable, r, a, b, c, d, fc, fd, it: int, failed: dict) -> tuple:
    """The golden-section steps of the one row ``r`` left searching, from
    its bracket after ``it`` steps: the lockstep loop of
    :func:`_minimize_theta` on Python floats, which make the same IEEE
    operations in the same order and so give the same bits. Each step is
    one call of ``value``, the row's objective alone (:meth:`_Stack.lone`):
    one kernel call at a (1, 1) theta array and its variance profile on
    Python floats, 19-26 us on the fig2 designs (2-vCPU host), in 7-15
    Python frames. Returns the final bracket, the iterations, and the
    probes with their values."""
    probes, values = [], []
    while b - a > _REFINE_RTOL * 0.5 * (a + b) and it < _REFINE_MAX_ITER and r not in failed:
        left = fc <= fd  # ties shrink toward the left, keeping smaller arguments
        if left:
            b = d
            probe = b - _INVPHI * (b - a)
        else:
            a = c
            probe = a + _INVPHI * (b - a)
        f = value(probe)
        probes.append(probe)
        values.append(f)
        if left:
            c, d, fc, fd = probe, c, f, fc
        else:
            c, d, fc, fd = d, probe, fd, f
        it += 1
    return a, b, it, probes, values


def _minimize_theta(objective: Callable, lone: Callable, lo: float, hi: float, rows: int) -> tuple:
    """Coarse log-spaced grid plus golden-section refinement, all rows in lockstep.

    ``objective(rows, thetas, failed)`` returns the values at row indices
    ``rows`` of the batch, for thetas shared by those rows, shape (T,),
    or one set per row, shape (len(rows), k); the values have shape
    (len(rows), T) or (len(rows), k). ``lone(r, failed)`` is row r's
    objective alone, a function of one theta that returns a Python float
    with the bits of ``objective``. An objective that fails on a row
    records the error in ``failed`` and the row leaves the search.
    The whole grid is one call, and so are the two interior points of
    the golden-section brackets.

    Each row keeps its own bracket around its grid argmin and stops when
    the bracket is narrower than ``_REFINE_RTOL`` times its midpoint; the
    rows still searching step together, each step one call for all of
    them. When one row is left, a single estimate from the start or the
    last row of a batch, it steps alone on Python floats
    (:func:`_search_row`), with the same bits: a step is then one call of
    its lone objective, 19-26 us on the fig2 designs, and about 1 us of
    bracket arithmetic, where the numpy steps of one row cost about 13 us
    more (2-vCPU host). The returned point is the smallest objective
    value seen, grid nodes included; ties go to the smaller theta. A
    non-finite value on a row's grid fails that row alone. Returns per
    row theta, value, iterations, evaluations and the local minima of the
    grid values, and the failures by row. A collapsed range ``lo == hi``
    is not searched here: :meth:`_Stack.search` evaluates a fixed theta
    once per row.
    """
    failed: dict[int, OucvError] = {}
    everyone = np.arange(rows)
    grid = np.geomspace(lo, hi, _GRID_SIZE)
    values = objective(everyone, grid, failed)
    _fail_nonfinite(failed, grid, values)
    minima = _local_minima(values)
    k = np.argmin(values, axis=1)  # first minimum: tie toward smaller theta
    lo_ = grid[np.maximum(k - 1, 0)]
    hi_ = grid[np.minimum(k + 1, _GRID_SIZE - 1)]
    iterations = np.zeros(rows, int)
    seen = [(everyone, grid[k], values[everyone, k])]  # the best grid node, then every point after the grid

    def unfailed(idx: np.ndarray) -> np.ndarray:
        return idx[[r not in failed for r in idx]] if failed else idx

    def at(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The values at per-row thetas ``x`` (len(idx), k), in one call."""
        if not idx.size:  # every row failed on the grid
            return np.empty(x.shape)
        return objective(idx, x, failed)

    # golden-section state of the rows still searching
    idx = unfailed(everyone)
    a, b = lo_[idx], hi_[idx]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = at(idx, np.stack([c, d], axis=1)).T
    seen += [(idx, c, fc), (idx, d, fd)]
    it = 0
    while idx.size > 1:
        keep = b - a > _REFINE_RTOL * 0.5 * (a + b)
        if it == _REFINE_MAX_ITER:
            keep[:] = False
        if failed:
            keep &= [r not in failed for r in idx]
        if not keep.all():
            out, stop = idx[~keep], ~keep
            lo_[out], hi_[out], iterations[out] = a[stop], b[stop], it
            idx, a, b, c, d, fc, fd = (v[keep] for v in (idx, a, b, c, d, fc, fd))
            if idx.size < 2:
                break
        left = fc <= fd  # ties shrink toward the left, keeping smaller arguments
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        step = _INVPHI * (b - a)
        probe = np.where(left, b - step, a + step)
        f = objective(idx, probe[:, None], failed)[:, 0]
        seen.append((idx, probe, f))
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, f, fd), np.where(left, fc, f)
        it += 1
    if idx.size:  # one row left: the same steps on Python floats
        r = idx[0]
        bracket = (float(v[0]) for v in (a, b, c, d, fc, fd))
        lo_[r], hi_[r], iterations[r], probes, f = _search_row(lone(r, failed), r, *bracket, it, failed)
        seen.append((np.full(len(probes), r), np.array(probes), np.array(f)))
    idx = unfailed(everyone)
    mid = 0.5 * (lo_[idx] + hi_[idx])
    seen.append((idx, mid, at(idx, mid[:, None])[:, 0]))
    best_x, best_f = _best_seen(seen, rows)
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


def _result(box, theta, sigma2, value, grad, iterations, evaluations, minima):
    """A row's EstimateResult; a NumericalFailureError when its product,
    value or gradient is not finite."""
    theta, sigma2 = float(theta), float(sigma2)
    product, value, grad = check_finite("estimate", (theta * sigma2, float(value), float(grad)), theta)
    flags = _boundary_flags("theta", theta, box.a, box.A) + _boundary_flags("sigma2", sigma2, box.b, box.B)
    return EstimateResult(
        theta_hat=theta,
        sigma2_hat=sigma2,
        product=product,
        objective_value=value,
        gradient_at_opt=grad,
        boundary_flags=tuple(flags),
        iterations=int(iterations),
        evaluations=int(evaluations),
        grid_minima=int(minima),
    )


def _record_singular(failed: dict, rows: np.ndarray, thetas, L: np.ndarray) -> None:
    """Fail each row whose log part L is NaN at one of its thetas, the
    mark a parts function leaves where it could not factor the objective.
    Callers call it only when ``np.isnan(L).any()``: a search tests that
    on every step, and it almost never holds."""
    bad = np.broadcast_to(np.isnan(L), (rows.size, L.shape[-1]))
    thetas = np.broadcast_to(thetas, bad.shape)
    for i in np.flatnonzero(bad.any(axis=1)):
        if rows[i] not in failed:
            theta = float(thetas[i, np.argmax(bad[i])])
            failed[rows[i]] = ConditioningError(
                f"objective is singular at theta = {theta}: a factorization or a "
                "leave-one-out variance collapsed"
            )


class _Stack:
    """Lanes searched together. A lane is one estimator's copy of the data
    rows (R of them): stacked row s is data row s % R of lane s // R, and
    the lanes of one prepared kernel lie next to each other, so that each
    kernel is called once per evaluation for all of its lanes.

    ``profile`` gives per stacked row count log sigma2 + L + Q / sigma2
    at the variance profile Q / count, clamped into the lane's [b, B],
    with that profile and Q; its value is the objective that
    :func:`_minimize_theta` takes. With one
    lane the kernel sees the search's own rows, None for all of them, and
    the bounds are the lane's scalars, as if there were no stack: the
    stacked path gives the same bits, but its per-step splitting, copies
    and indexing made a one-estimator search up to 15% slower; singular
    rows are looked for only when L holds a NaN. The golden-section steps
    of a row left searching alone call :meth:`lone`, the row's objective
    on Python floats: one kernel call at a (1, 1) theta array (18-25 us
    on the fig2 designs, 2-vCPU host) and 1-2 us of variance profile,
    where ``profile`` takes about 7 us.
    """

    def __init__(self, lanes: list, kernels: list, R: int):
        self.R, self.lanes = R, lanes
        self.groups = []  # [kernel, number of its lanes], in stacked order
        for kernel in kernels:
            if self.groups and self.groups[-1][0] is kernel:
                self.groups[-1][1] += 1
            else:
                self.groups.append([kernel, 1])
        self.starts = R * np.cumsum([0] + [lanes for _, lanes in self.groups])
        self.single = len(lanes) == 1
        per_lane = ([kernel.count for kernel in kernels], [lane.box.b for lane in lanes],
                    [lane.box.B for lane in lanes])
        if self.single:
            self.count, self.b, self.B = (values[0] for values in per_lane)
        else:  # per stacked row
            self.count, self.b, self.B = (np.repeat(np.array(values, dtype=float), R)[:, None] for values in per_lane)
        # Q / sigma2 is at most Q / B, so it can overflow only below an upper variance bound of 1
        self.overflows = min(per_lane[2]) < 1.0

    def bounds(self, srows: np.ndarray) -> tuple:
        """The profile's count and variance bounds of the stacked rows."""
        if self.single:
            return self.count, self.b, self.B
        return self.count[srows], self.b[srows], self.B[srows]

    def _calls(self, srows: np.ndarray):
        """Per kernel with rows among the sorted stacked rows ``srows``: the
        kernel, its data rows (None for all of a lone lane's) and the slice
        of ``srows`` that holds them."""
        cuts = np.searchsorted(srows, self.starts).tolist()
        for (kernel, lanes), lo, hi in zip(self.groups, cuts, cuts[1:]):
            if lo < hi:
                yield kernel, (None if lanes == 1 and hi - lo == self.R else srows[lo:hi] % self.R), slice(lo, hi)

    def parts(self, srows: np.ndarray, thetas: np.ndarray) -> tuple:
        """L and Q at the stacked rows, for shared ``thetas`` (T,) or per
        stacked row (len(srows), k). Shared thetas evaluate each data row
        of a kernel once, for all of its lanes."""
        if self.single:
            return self.groups[0][0].parts(None if srows.size == self.R else srows, thetas)
        L = np.empty((srows.size, thetas.shape[-1]))
        Q = np.empty(L.shape)
        for kernel, rows, s in self._calls(srows):
            if thetas.ndim == 1:
                L[s], Q_kernel = kernel.parts(None, thetas)
                Q[s] = Q_kernel if rows is None else Q_kernel[rows]
            else:
                L[s], Q[s] = kernel.parts(rows, thetas[s])
        return L, Q

    def profile(self, srows: np.ndarray, thetas: np.ndarray, failed: dict) -> tuple:
        L, Q = self.parts(srows, thetas)
        if np.isnan(L).any():
            _record_singular(failed, srows, thetas, L)
        count, b, B = self.bounds(srows)
        s2 = np.minimum(np.maximum(Q / count, b), B)
        if self.overflows:  # a row whose value overflows fails as not finite
            with np.errstate(over="ignore"):
                return count * np.log(s2) + L + Q / s2, s2, Q
        return count * np.log(s2) + L + Q / s2, s2, Q

    def lone(self, r, failed: dict) -> Callable:
        """Stacked row ``r``'s objective alone: theta -> its :meth:`profile`
        value, a Python float with the same bits. It calls the row's kernel
        at a (1, 1) theta array and forms the variance profile and the
        value from L and Q on Python floats, whose + - * / and min/max are
        the IEEE operations of numpy's elementwise ones; the log stays
        numpy's. A value that overflows is inf, as on arrays, and a NaN L
        fails the row as in :meth:`profile`."""
        srows = np.array([r])
        ((kernel, rows, _),) = self._calls(srows)
        count, box = kernel.count, self.lanes[r // self.R].box
        b, B = box.b, box.B

        def value(theta: float) -> float:
            thetas = np.array([[theta]])
            L, Q = kernel.parts(rows, thetas)
            l, q = L.item(), Q.item()
            if l != l:
                _record_singular(failed, srows, thetas, L)
            s2 = min(max(q / count, b), B)
            return count * float(np.log(s2)) + l + q / s2

        return value

    def gradient(self, srows, theta, sigma2, failed) -> np.ndarray:
        """The theta-derivative at per-row ``theta`` (len(srows), 1) and the
        profiled ``sigma2``: the kernel's analytic gradient, or a central
        difference of the objective where the kernel has none."""
        grad = np.empty(theta.shape)
        for kernel, rows, s in self._calls(srows):
            if kernel.gradient:
                grad[s] = kernel.gradient(rows, theta[s], sigma2[s])
                continue
            step = 1e-6 * theta[s]
            thetas = np.concatenate([theta[s] + step, theta[s] - step], axis=1)
            L, Q = kernel.parts(rows, thetas)
            if np.isnan(L).any():
                _record_singular(failed, srows[s], thetas, L)
            with np.errstate(over="ignore"):
                hi, lo = np.hsplit(kernel.count * np.log(sigma2[s]) + L + Q / sigma2[s], 2)
            grad[s] = (hi - lo) / (2.0 * step)
        return grad

    def search(self) -> list:
        """Every stacked row's result or failure. Lanes whose theta range is
        not collapsed share it and run one search; on a collapsed range
        each row is one evaluation at its lane's fixed theta, which gives
        its value, its variance profile and, as its gradient, the variance
        derivative count / sigma2 - Q / sigma2^2."""
        lanes, R = self.lanes, self.R
        box, rows = lanes[0].box, R * len(lanes)
        searching = box.a < box.A
        if searching:
            found = _minimize_theta(lambda *args: self.profile(*args)[0], self.lone, box.a, box.A, rows)
            theta_hat, values, iterations, evaluations, minima, failed = found
            done = np.array([i for i in range(rows) if i not in failed], dtype=int)
        else:  # no iterations, one evaluation and one grid minimum per row
            theta_hat, failed = np.repeat([lane.box.a for lane in lanes], R), {}
            done = np.arange(rows)
            iterations, evaluations, minima = np.zeros(rows, int), np.ones(rows, int), np.ones(rows, int)
        results = [None] * rows
        if done.size:
            theta = theta_hat[done, None]
            value, sigma2, Q = self.profile(done, theta, failed)
            if searching:
                grad = self.gradient(done, theta, sigma2, failed)
            else:  # done holds every row, so a row's index is its stacked row
                values = value[:, 0]
                _fail_nonfinite(failed, theta, value)
                # the derivative of a failed row is not reported
                with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                    grad = self.bounds(done)[0] / sigma2 - Q / (sigma2 * sigma2)
            for j, i in enumerate(done):
                if i not in failed:
                    try:
                        results[i] = _result(
                            lanes[i // R].box, theta[j, 0], sigma2[j, 0], values[i], grad[j, 0], iterations[i],
                            evaluations[i], minima[i],
                        )
                    except NumericalFailureError as err:
                        results[i] = err
        for i, err in failed.items():
            results[i] = err
        return results


@dataclass(frozen=True)
class _Lane:
    """One estimator on the data rows: the box with what the estimator
    fixes collapsed, its objective's kernel, prepared as
    ``kernel(design, Y, reuse)``, and the key of that kernel: lanes with
    equal keys on equal rows share one prepared kernel, so the key holds
    all that the kernel is prepared from besides the design and the rows."""

    box: ParameterBox
    kernel: Callable
    key: tuple


# The last search's entry: the design object, its own copy of the data
# rows searched and the kernels prepared on them, by lane key. One slot
# for the process; see _kept_kernels.
_LAST: dict = {}


def _kept_kernels(design: Design, Y: np.ndarray) -> tuple[np.ndarray, dict]:
    """The rows to prepare kernels on and the kernels already prepared on
    them: the last search's, when it ran on this design object with rows
    bitwise equal to Y (compared as int64), else Y, the search's own copy,
    and none. The last entry leaves the slot either way, so that no two
    threads share a kernel and a stale entry is freed before anything is
    prepared."""
    last = _LAST.pop("search", None)
    if last is not None:
        searched, rows, kernels = last
        if searched is design and np.array_equal(rows.view(np.int64), Y.view(np.int64)):
            return rows, kernels
    return Y, {}


def _search_lanes(design: Design, Y, lanes: list) -> list[list]:
    """Profile search over theta for every row of Y in every lane; one
    list of per-row results per lane.

    A lane's kernel prepares the objective on the rows once, like
    :class:`~oucv.scoring.CvKernel`, told whether it will be evaluated at
    more than one theta: its ``parts(rows, thetas)`` returns L and Q for
    the rows at indices ``rows`` (None for all, and an index may repeat),
    batched like :func:`~oucv.scoring.score_parts`, and a NaN in L marks
    a theta where the objective could not be factored; a row that meets
    one fails with :class:`ConditioningError`. Its ``count`` is the
    number of observations the variance is profiled over, the objective
    being count log sigma2 + L + Q / sigma2 with the profile Q / count.
    Its ``gradient(rows, thetas, sigma2)`` is the analytic
    theta-derivative; where it is None the result carries a central
    difference of the objective at the profiled variance.

    A fixed parameter is a collapsed range of the box: with a == A
    theta is fixed and the variance is the closed-form profile, with
    b == B the variance is fixed. The reported gradient is the
    derivative in the free coordinate, theta unless a == A, where it
    is the variance derivative count / sigma2 - Q / sigma2^2.

    All lanes that search theta share one theta range and run as one
    search (:class:`_Stack`); the lanes with a collapsed range are one
    evaluation each. Each distinct kernel is prepared once, and kept with
    a copy of the rows for the next search: a search on the same design
    object with bitwise equal rows takes the kernels it finds there, as
    consecutive estimators on one path do. Every value depends on its own
    (row, theta) pair only, so a lane's results are bitwise those it gets
    alone, with a kept kernel or a fresh one.
    """
    Y, slots = _data_rows(design, Y)
    results = [list(slots) for _ in lanes]
    ok = _unfailed(slots)
    if not ok.size:
        return results
    R = ok.size
    Y, prepared = _kept_kernels(design, Y[ok])  # a copy: the caller may change its array after
    for lane in lanes:
        if lane.key not in prepared:  # a fixed theta is one evaluation
            prepared[lane.key] = lane.kernel(design, Y, lane.box.a < lane.box.A)
    keys = list(dict.fromkeys(lane.key for lane in lanes))
    for searching in (True, False):
        stacked = sorted((j for j, lane in enumerate(lanes) if (lane.box.a < lane.box.A) == searching),
                         key=lambda j: keys.index(lanes[j].key))
        if not stacked:
            continue
        found = _Stack([lanes[j] for j in stacked], [prepared[lanes[j].key] for j in stacked], R).search()
        for k, j in enumerate(stacked):
            for i, res in zip(ok, found[k * R:(k + 1) * R]):
                results[j][i] = res
    _LAST["search"] = (design, Y, prepared)
    return results


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
# what each kind of estimator fixes, by the name of the argument and the
# experiment config field that hold it
_FIXED_NAMES = {"sigma2": "sigma1_sq", "theta": "theta2", "trend": "trend"}


def _check_fixed(name: str, value) -> Estimator:
    """The table row of estimator ``name``, which takes ``value`` as its
    fixed parameter: None for a joint estimator, a positive finite number
    for a fixed variance or theta."""
    row = ESTIMATOR_TABLE.get(name)
    if row is None:
        raise InvalidParameterError(f"unknown estimator {name!r}")
    if (value is None) != (row.fixes is None):
        raise InvalidParameterError(f"{name} needs a fixed {_FIXED_NAMES[row.fixes]}" if value is None
                                    else f"{name} fixes no parameter, got {value!r}")
    if row.fixes in ("sigma2", "theta") and not positive_finite(value):
        raise InvalidParameterError(
            f"{name} needs a positive finite fixed {_FIXED_NAMES[row.fixes]}, got {value!r}"
        )
    return row


def _lane(name: str, design: Design, box: ParameterBox, value) -> _Lane:
    """Estimator ``name`` at its fixed ``value``, checked, as a lane."""
    row = _check_fixed(name, value)
    kernel = row.kernel
    if row.fixes == "sigma2":
        box = ParameterBox(box.a, box.A, value, value)
    elif row.fixes == "theta":
        box = ParameterBox(value, value, box.b, box.B)
    key = (row.kernel, box.a < box.A)
    if row.fixes == "trend":
        F = _prepare_F(design, value)
        kernel, key = partial(kernel, F=F), key + (F.tobytes(),)
    return _Lane(box, kernel, key)


def _lanes(names, design: Design, box: ParameterBox, fixed: dict) -> list[_Lane]:
    """Estimators ``names`` as lanes, each at its value in ``fixed`` and
    checked once, to search any number of data arrays; the first estimator
    whose name or fixed value is refused raises that refusal."""
    lanes = []
    for name in names:
        row = ESTIMATOR_TABLE.get(name)
        lanes.append(_lane(name, design, box, fixed.get(row.fixes) if row else None))
    return lanes


def estimate_batch(name: str, design: Design, Y, box: ParameterBox, value=None) -> list:
    """Estimator ``name`` on every row of Y (R, n), at the fixed ``value``
    of the variance or theta (the collapsed range of the box) or of the
    trend columns F (n, p); a joint estimator takes none. A fixed variance
    or theta must be a positive finite number.

    Returns one entry per row: an :class:`EstimateResult`, or the
    :class:`OucvError` that row failed with. It is :func:`estimate_lanes`
    with one estimator.
    """
    return _search_lanes(design, Y, [_lane(name, design, box, value)])[0]


def estimate_lanes(names, design: Design, Y, box: ParameterBox, fixed: dict) -> list[list]:
    """Estimators ``names`` on every row of Y (R, n), each in its own lane
    and all in one search; per name what :func:`estimate_batch` returns
    for it, bitwise.

    ``fixed`` maps what an estimator fixes (``"sigma2"``, ``"theta"`` or
    ``"trend"``) to its value. The estimators of one kernel share it:
    ``cv-joint`` and ``cv-fixed-sigma`` evaluate the same rows on one
    prepared :class:`~oucv.scoring.CvKernel`, its theta grid once for
    both. ``cv-fixed-theta`` evaluates its one point on a kernel of its
    own. An estimator whose name or fixed value is refused raises that
    refusal, as in :func:`estimate_batch`, before any row is searched.
    """
    return _search_lanes(design, Y, _lanes(names, design, box, fixed))


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
    _check_fixed("cv-fixed-sigma", sigma1_sq)
    return _estimate("cv-fixed-sigma", design, y, ParameterBox(*theta_range, sigma1_sq, sigma1_sq), sigma1_sq)


def estimate_cv_fixed_theta(
    design: Design, y, theta2: float, sigma_range: tuple[float, float]
) -> EstimateResult:
    """Closed-form score minimizer in sigma2 at a predetermined theta.

    The estimand is theta0 * sigma0^2 / theta2. The optimum is the
    clamped profile value, so no search is needed; the reported gradient
    is the sigma2-derivative of the score at the optimum.
    """
    _check_fixed("cv-fixed-theta", theta2)
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
