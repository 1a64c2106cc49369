"""Batched estimation: each row of a batch is its own single-path estimate.

The batch functions run the theta search for many data rows in
lockstep. A row's result must not depend on the other rows of its
batch, so every field of every row is compared bitwise (through repr)
with the single-path estimator on that row alone.
"""

import dataclasses
import gc
from concurrent.futures import ThreadPoolExecutor
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oucv
from oucv import (
    ConditioningError,
    CovarianceParams,
    ExperimentConfig,
    NumericalFailureError,
    ParameterBox,
    build_design,
    estimate_cv_fixed_sigma,
    estimate_cv_fixed_theta,
    estimate_cv_joint,
    estimate_cv_reg,
    estimate_ml_joint,
    from_points,
    loo_trend_prediction,
    make_preset,
    maximal_design,
    minimal_design,
    polynomial_basis,
    reg_log_score,
    reg_score_decomposition,
    regular_design,
    run_experiment,
    sample_path,
    scoring,
)
from oucv import estimation, regression
from oucv.estimation import ESTIMATOR_TABLE, estimate_batch, estimate_lanes
from oucv.regression import TrendKernel, reg_parts
from oucv.scoring import CvKernel, MlKernel, _GapKernel
from conftest import random_design

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
PARAMS0 = CovarianceParams(theta=3.0, sigma2=1.0)


def _outcome(call):
    try:
        return repr(call())
    except oucv.OucvError as err:
        return f"{type(err).__name__}: {err}"


def _batched(results):
    return [
        f"{type(r).__name__}: {r}" if isinstance(r, oucv.OucvError) else repr(r) for r in results
    ]


def _assert_rows_match_single(design, Y, box, sigma1_sq, theta2, F=None):
    """Each estimator's batch on the rows of Y against its single-path
    estimate on each row; with trend columns F, also ``cv-regression`` on
    the rows with a trend added."""
    cases = [
        (Y, estimate_batch("cv-joint", design, Y, box), lambda y: estimate_cv_joint(design, y, box)),
        (Y, estimate_batch("ml-joint", design, Y, box), lambda y: estimate_ml_joint(design, y, box)),
        (
            Y, estimate_batch("cv-fixed-sigma", design, Y, box, sigma1_sq),
            lambda y: estimate_cv_fixed_sigma(design, y, sigma1_sq, box.theta_range),
        ),
        (
            Y, estimate_batch("cv-fixed-theta", design, Y, box, theta2),
            lambda y: estimate_cv_fixed_theta(design, y, theta2, box.sigma2_range),
        ),
    ]
    if F is not None:
        Z = Y + F @ np.arange(1.0, F.shape[1] + 1)
        cases.append(
            (Z, estimate_batch("cv-regression", design, Z, box, F), lambda z: estimate_cv_reg(design, z, F, box))
        )
    for data, batch, single in cases:
        assert len(batch) == data.shape[0]
        assert _batched(batch) == [_outcome(lambda y=y: single(y)) for y in data]


@st.composite
def designs(draw):
    kind = draw(st.sampled_from(["dirichlet", "regular", "minimal", "maximal"]))
    if kind == "minimal":  # factorial gap ratios, down to 1/17! at n = 18
        return minimal_design(draw(st.integers(5, 18)), draw(st.sampled_from([0.5, 0.9])))
    n = draw(st.integers(5, 40))
    if kind == "regular":
        return regular_design(n)
    if kind == "maximal":
        return maximal_design(n, draw(st.sampled_from([1.0 / n, 0.5])))
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@st.composite
def boxes(draw):
    """Boxes around and away from the generating theta0 = 3, sigma0^2 = 1,
    so that optima land inside and on every edge; some collapse to a point."""
    a = draw(st.sampled_from([0.1, 0.5, 2.0, 6.0]))
    A = a * draw(st.sampled_from([1.0, 1.5, 20.0, 100.0]))
    b = draw(st.sampled_from([0.05, 0.3, 2.0]))
    B = b * draw(st.sampled_from([1.0, 3.0, 100.0]))
    return ParameterBox(a, A, b, B)


@settings(max_examples=30)
@given(
    design=designs(),
    rows=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e3]),
    box=boxes(),
    sigma1_sq=st.sampled_from([0.5, 2.0]),
    theta2=st.sampled_from([0.1, 1.5, 10.0]),
)
def test_batch_rows_equal_single_estimates(design, rows, seed, scale, box, sigma1_sq, theta2):
    Y = scale * np.stack([sample_path(design, PARAMS0, (seed, r)) for r in range(rows)])
    _assert_rows_match_single(design, Y, box, sigma1_sq, theta2)


def _trend_matrix(design, degree):
    return np.column_stack([f(design.points) for f in polynomial_basis(degree)])


@settings(max_examples=30)
@given(
    design=designs(),
    degree=st.integers(0, 2),
    rows=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e3]),
    box=boxes(),
)
def test_regression_batch_rows_equal_single_estimates(design, degree, rows, seed, scale, box):
    beta = np.array([1.0, -2.0, 0.5])[: degree + 1]
    Y = scale * np.stack([sample_path(design, PARAMS0, (seed, r)) for r in range(rows)])
    try:
        F = _trend_matrix(design, degree)
        Z = F @ beta + Y
        batch = _batched(estimate_batch("cv-regression", design, Z, box, F))
    except oucv.OucvError as err:  # a basis dependent on this design fails every row
        batch = [f"{type(err).__name__}: {err}"] * rows
        F = _trend_matrix(design, degree)
        Z = F @ beta + Y
    assert batch == [_outcome(lambda z=z: estimate_cv_reg(design, z, F, box)) for z in Z]


@pytest.mark.parametrize("box", [BOX, ParameterBox(0.1, 300.0, 0.3, 30.0)], ids=["inside", "straddling"])
def test_series_rows_equal_single_estimates(box):
    # Dirichlet gaps above the series' size floor: the fig2 box lies inside
    # the series' domain, and the wider box reaches past its edge, where
    # the rows sampled at theta0 = 150 search point by point
    d = random_design(np.random.default_rng(11), scoring._SERIES_MIN_N + 500)
    Y = np.stack([sample_path(d, params, (12, r)) for r in range(3)
                  for params in (PARAMS0, CovarianceParams(theta=150.0, sigma2=1.0))])
    assert CvKernel(d, Y).route == MlKernel(d, Y).route == "series"
    _assert_rows_match_single(d, Y, box, 2.0, 1.5)


def test_estimate_batch_refuses_an_unknown_name_and_a_missing_or_stray_value():
    # the table's names, in the order the records and the CLI have always used
    assert oucv.ESTIMATORS == ("cv-joint", "cv-fixed-sigma", "cv-fixed-theta", "ml-joint", "cv-regression")
    d = regular_design(12)
    Y = np.stack([sample_path(d, PARAMS0, (2, r)) for r in range(2)])
    for name, value in (("cv-join", None), ("cv-fixed-sigma", None), ("cv-fixed-theta", None),
                        ("cv-regression", None), ("cv-joint", 2.0), ("ml-joint", 2.0)):
        with pytest.raises(oucv.InvalidParameterError):
            estimate_batch(name, d, Y, BOX, value)


@pytest.mark.parametrize("name, param", [("cv-fixed-sigma", "sigma1_sq"), ("cv-fixed-theta", "theta2")])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0, "2", True],
                         ids=["nan", "inf", "zero", "negative", "text", "bool"])
def test_a_bad_fixed_value_is_named_with_its_estimator(name, param, value):
    d = regular_design(12)
    Y = np.stack([sample_path(d, PARAMS0, (2, r)) for r in range(2)])
    with pytest.raises(oucv.InvalidParameterError, match=f"^{name} needs a positive finite fixed {param}, got "):
        estimate_batch(name, d, Y, BOX, value)


def test_the_public_fixed_estimators_check_the_value_before_the_box():
    d = regular_design(12)
    y = sample_path(d, PARAMS0, 2)
    for call, message in [
        (lambda: estimate_cv_fixed_sigma(d, y, math.nan, (0.1, 10.0)),
         "cv-fixed-sigma needs a positive finite fixed sigma1_sq, got nan"),
        (lambda: estimate_cv_fixed_theta(d, y, -1.0, (0.3, 30.0)),
         "cv-fixed-theta needs a positive finite fixed theta2, got -1.0"),
        (lambda: estimate_cv_fixed_sigma(d, y, "2", (0.1, 10.0)),
         "cv-fixed-sigma needs a positive finite fixed sigma1_sq, got '2'"),
        (lambda: ParameterBox("a", 1, 1, 2), "box bound 'a' must be positive and finite, got 'a'"),
        (lambda: ParameterBox(0.1, 10.0, 0.3, True), "box bound 'B' must be positive and finite, got True"),
    ]:
        with pytest.raises(oucv.InvalidParameterError) as err:
            call()
        assert str(err.value) == message


@pytest.mark.parametrize("preset", oucv.PRESET_NAMES)
def test_preset_design_rows_equal_single_estimates(preset):
    # the seven fig2 designs: at n = 50 and 200 a row takes the class
    # route, which the drawn designs (n <= 40) do not reach; the rows at
    # theta = 0.01 stop on the lower edge two steps early, and the last
    # row left searching takes those steps alone
    d = build_design(make_preset(preset).design)
    Y = np.stack([sample_path(d, CovarianceParams(theta=theta, sigma2=1.0), (17, r))
                  for r, theta in enumerate([3.0, 0.01, 3.0, 0.01, 30.0])])
    _assert_rows_match_single(d, Y, BOX, 2.0, 1.5)


def test_trend_rows_on_the_class_route_equal_single_estimates():
    d = regular_design(200)
    Y = np.stack([sample_path(d, CovarianceParams(theta=theta, sigma2=1.0), (19, r))
                  for r, theta in enumerate([3.0, 0.01, 3.0])])
    _assert_rows_match_single(d, Y, BOX, 2.0, 1.5, _trend_matrix(d, 1))


def test_grid_blocks_do_not_change_rows():
    # at n = 2000 sixteen rows split the 64-node grid into blocks of two
    d = regular_design(2000)
    Y = np.stack([sample_path(d, PARAMS0, (3, r)) for r in range(16)])
    batch = estimate_batch("cv-joint", d, Y, BOX)
    for r in (0, 7, 15):
        assert repr(batch[r]) == repr(estimate_cv_joint(d, Y[r], BOX))


def test_regression_rows_equal_single_estimates():
    d = regular_design(30)
    F = np.column_stack([np.ones(d.n), d.points])
    Z = np.stack([F @ [1.0, 2.0] + sample_path(d, PARAMS0, (9, r)) for r in range(4)])
    Z[1, 0] = np.inf
    batch = estimate_batch("cv-regression", d, Z, BOX, F)
    assert isinstance(batch[1], NumericalFailureError)
    for r in (0, 2, 3):
        assert repr(batch[r]) == repr(estimate_cv_reg(d, Z[r], F, BOX))


class TestProfileCount:
    """The search profiles the variance over the kernel's ``count``."""

    def test_every_kernel_counts_the_points(self):
        d = regular_design(30)
        Y = np.stack([sample_path(d, PARAMS0, (6, r)) for r in range(2)])
        kernels = (CvKernel(d, Y), MlKernel(d, Y), TrendKernel(d, Y, True, _trend_matrix(d, 1)))
        assert [kernel.count for kernel in kernels] == [d.n] * 3

    @pytest.mark.parametrize("name", ["cv-joint", "cv-fixed-theta", "ml-joint", "cv-regression"])
    def test_a_kernel_counting_one_less_gets_the_profile_over_n_minus_1(self, monkeypatch, name):
        d = regular_design(40)
        F = _trend_matrix(d, 1)
        Y = np.stack([sample_path(d, PARAMS0, (16, r)) for r in range(3)])
        row = ESTIMATOR_TABLE[name]
        value = {"cv-fixed-theta": 1.5, "cv-regression": F}.get(name)
        kwargs = {"F": F} if row.fixes == "trend" else {}

        class Fewer(row.kernel):
            def __init__(self, *args, **kw):
                super().__init__(*args, **kw)
                self.count = d.n - 1

        monkeypatch.setitem(ESTIMATOR_TABLE, name, dataclasses.replace(row, kernel=Fewer))
        results = estimate_batch(name, d, Y, BOX, value)
        theta = np.array([[res.theta_hat] for res in results])
        L, Q = Fewer(d, Y, row.fixes != "theta", **kwargs).parts(None, theta)
        m = d.n - 1
        sigma2 = np.minimum(np.maximum(Q / m, BOX.b), BOX.B)
        assert [res.sigma2_hat for res in results] == sigma2[:, 0].tolist()
        assert not np.array_equal(sigma2, np.minimum(np.maximum(Q / d.n, BOX.b), BOX.B))
        objective = m * np.log(sigma2) + L + Q / sigma2
        for j, res in enumerate(results):
            assert res.objective_value == pytest.approx(objective[j, 0], rel=1e-12)
            if row.fixes == "theta":  # the variance derivative
                assert res.gradient_at_opt == m / sigma2[j, 0] - Q[j, 0] / (sigma2[j, 0] * sigma2[j, 0])


class TestRegressionKernel:
    def test_parts_match_the_scalar_and_dense_routes_on_box_edges(self):
        # theta on both box edges and inside; the dense route predicts each
        # point from the deleted design, sharing no code with the kernel
        box = ParameterBox(0.1, 10.0, 0.3, 30.0)
        thetas = np.array([box.a, 1.0, box.A])
        for design, degree in [(regular_design(200), 1), (maximal_design(40, 0.5), 2),
                               (regular_design(12), 0)]:
            F = _trend_matrix(design, degree)
            Z = np.stack([F @ np.arange(1.0, degree + 2) + sample_path(design, PARAMS0, (6, r))
                          for r in range(3)])
            L, Q = reg_parts(design, Z, thetas, F)
            per_row_L, per_row_Q = reg_parts(design, Z, np.tile(thetas, (3, 1)), F)
            assert np.array_equal(per_row_L, np.tile(L, (3, 1))) and np.array_equal(per_row_Q, Q)
            n = design.n
            for r, z in enumerate(Z[:2]):
                for j, theta in enumerate(thetas):
                    value = n * np.log(2.0) + L[j] + Q[r, j] / 2.0
                    scalar = reg_log_score(design, z, float(theta), 2.0, F).value
                    assert value == scalar
                    d = reg_score_decomposition(design, z, float(theta), F)
                    assert (d.L, d.Q) == (L[j], Q[r, j])
            z = Z[0]
            for j, theta in enumerate(thetas):
                dense = 0.0
                for i in range(n):
                    pred, v = loo_trend_prediction(design, z, float(theta), F, i)
                    dense += np.log(2.0 * v) + (z[i] - pred) ** 2 / (2.0 * v)
                value = n * np.log(2.0) + L[j] + Q[0, j] / 2.0
                assert abs(value - dense) <= 1e-7 * (1.0 + abs(dense))

    @pytest.mark.parametrize("n", [12, 200, 2000])
    def test_grid_blocks_equal_one_node_one_row_calls(self, n):
        # the kernel builds the trend factor for blocks of 2^13 // (n p)
        # grid nodes and projects the rows in blocks of 2^13 // (rows n):
        # at these sizes a block holds one node, several or the whole grid,
        # and no value may depend on where its node falls
        rng = np.random.default_rng(n)
        design = random_design(rng, n)
        grid = np.geomspace(BOX.a, BOX.A, 64)
        for p in (1, 2, 3):
            F = _trend_matrix(design, p - 1)
            Z = F @ np.arange(1.0, p + 1) + rng.standard_normal((40, n)).cumsum(axis=1) / np.sqrt(n)
            want = [[reg_parts(design, z[None, :], grid[j:j + 1], F) for j in range(grid.size)] for z in Z]
            want_L = np.array([L[0] for L, _ in want[0]])
            want_Q = np.array([[Q[0, 0] for _, Q in row] for row in want])
            for rows in (1, 3, 11, 12, 40):
                L, Q = TrendKernel(design, Z[:rows], True, F).parts(None, grid)
                assert np.array_equal(L, want_L) and np.array_equal(Q, want_Q[:rows]), (p, rows)

    def test_forty_rows_equal_single_estimates(self):
        # a chunk of 2^13 // n rows at n = 200, one node per projection block
        d = regular_design(200)
        F = _trend_matrix(d, 1)
        Z = np.stack([F @ [1.0, 2.0] + sample_path(d, PARAMS0, (13, r)) for r in range(40)])
        batch = estimate_batch("cv-regression", d, Z, BOX, F)
        assert _batched(batch) == [_outcome(lambda z=z: estimate_cv_reg(d, z, F, BOX)) for z in Z]

    def test_nonfinite_and_overflowing_rows_fail_alone(self):
        d = regular_design(30)
        F = _trend_matrix(d, 1)
        Z = np.stack([F @ [1.0, 2.0] + sample_path(d, PARAMS0, (10, r)) for r in range(5)])
        Z[1, 7] = np.nan
        Z[3] = 1e200 * (-1.0) ** np.arange(d.n)  # the quadratic part overflows
        batch = estimate_batch("cv-regression", d, Z, BOX, F)
        for r in (1, 3):
            assert isinstance(batch[r], NumericalFailureError)
            with pytest.raises(NumericalFailureError):
                estimate_cv_reg(d, Z[r], F, BOX)
        for r in (0, 2, 4):
            assert repr(batch[r]) == repr(estimate_cv_reg(d, Z[r], F, BOX))

    def test_collapsed_projection_fails_rows_with_conditioning_error(self):
        # a trend column that moves the first point alone leaves nothing to
        # predict it from: its projected precision diagonal is zero in exact
        # arithmetic and not positive at most thetas of the grid
        d = regular_design(10)
        F = np.column_stack([np.ones(d.n), np.eye(d.n)[:, 0]])
        Z = np.stack([sample_path(d, PARAMS0, (11, r)) for r in range(3)])
        Z[2, 4] = np.inf
        batch = estimate_batch("cv-regression", d, Z, BOX, F)
        assert [type(res) for res in batch] == [ConditioningError, ConditioningError, NumericalFailureError]
        with pytest.raises(ConditioningError):
            estimate_cv_reg(d, Z[0], F, BOX)
        L, _ = reg_parts(d, Z[:1], np.geomspace(BOX.a, BOX.A, 64), F)
        theta = float(np.geomspace(BOX.a, BOX.A, 64)[np.argmax(np.isnan(L))])
        assert str(theta) in str(batch[0])
        # the single-theta entry points share the kernel's trend factor and refuse it too
        for scalar in (lambda: reg_score_decomposition(d, Z[0], theta, F),
                       lambda: reg_log_score(d, Z[0], theta, 2.0, F),
                       lambda: oucv.gls_beta(d, Z[0], theta, F)):
            with pytest.raises(ConditioningError, match=str(theta)):
                scalar()


class TestFailureIsolation:
    def test_overflowing_row_fails_alone(self):
        d = regular_design(10)
        Y = np.stack([sample_path(d, PARAMS0, (8, r)) for r in range(5)])
        Y[2] = 1e200  # the quadratic part overflows on the grid
        for batch, single in [
            (estimate_batch("cv-joint", d, Y, BOX), lambda y: estimate_cv_joint(d, y, BOX)),
            (estimate_batch("ml-joint", d, Y, BOX), lambda y: estimate_ml_joint(d, y, BOX)),
            (estimate_batch("cv-fixed-sigma", d, Y, BOX, 2.0),
             lambda y: estimate_cv_fixed_sigma(d, y, 2.0, BOX.theta_range)),
        ]:
            assert isinstance(batch[2], NumericalFailureError)
            assert batch[2].theta is not None
            with pytest.raises(NumericalFailureError):
                single(Y[2])
            for r in (0, 1, 3, 4):
                assert repr(batch[r]) == repr(single(Y[r]))

    def test_nonfinite_row_fails_alone(self):
        d = regular_design(10)
        Y = np.stack([sample_path(d, PARAMS0, (8, r)) for r in range(3)])
        Y[1, 4] = np.nan
        batch = estimate_batch("cv-joint", d, Y, BOX)
        assert isinstance(batch[1], NumericalFailureError)
        assert repr(batch[0]) == repr(estimate_cv_joint(d, Y[0], BOX))
        assert repr(batch[2]) == repr(estimate_cv_joint(d, Y[2], BOX))

    def test_collapsed_theta_range_fails_the_overflowing_row_alone(self):
        # with a == A the search evaluates the one point only, and a
        # non-finite value there fails the row as it does on a grid
        d = regular_design(20)
        Y = np.stack([sample_path(d, PARAMS0, (8, r)) for r in range(4)])
        Y[1, 5] = 1e200  # the quadratic part overflows
        box = ParameterBox(1.5, 1.5, 0.3, 30.0)
        for batch, single in [
            (estimate_batch("cv-fixed-theta", d, Y, box, 1.5),
             lambda y: estimate_cv_fixed_theta(d, y, 1.5, box.sigma2_range)),
            (estimate_batch("cv-joint", d, Y, box), lambda y: estimate_cv_joint(d, y, box)),
        ]:
            assert isinstance(batch[1], NumericalFailureError) and batch[1].theta == 1.5
            with pytest.raises(NumericalFailureError):
                single(Y[1])
            for r in (0, 2, 3):
                assert repr(batch[r]) == repr(single(Y[r]))
                assert batch[r].evaluations == 1

    def test_run_experiment_records_the_failed_replicate(self, monkeypatch):
        cfg = ExperimentConfig(
            design={"kind": "regular", "n": 10}, theta0=3.0, sigma0_sq=1.0, replicates=6,
            box=BOX, estimators=("cv-joint", "ml-joint", "cv-fixed-sigma", "cv-fixed-theta"), seed=12,
            sigma1_sq=2.0, theta2=1.5,
        )
        clean = run_experiment(cfg)

        def overflow_third(design, params, seed):
            y = sample_path(design, params, seed)
            return np.full_like(y, 1e200) if seed[1] == 3 else y

        monkeypatch.setattr(oucv.montecarlo, "sample_path", overflow_third)
        dirty = run_experiment(cfg)
        for name in cfg.estimators:
            for a, b in zip(clean.panels[name].records, dirty.panels[name].records):
                if a.replicate == 3:
                    assert b.flags == "failed:NumericalFailureError"
                    assert math.isnan(b.product)
                else:
                    assert repr(a) == repr(b)
            assert dirty.panels[name].summary["excluded"] == 1

    def test_run_experiment_records_every_replicate_failed(self):
        # every path overflows, so each chunk of every estimator loses all
        # its rows on the grid; the run completes with each one recorded.
        # The generating product 3e307 is finite, as a config's must be.
        cfg = ExperimentConfig(
            design={"kind": "regular", "n": 200}, theta0=3.0, sigma0_sq=1e307, replicates=4, box=BOX,
            estimators=oucv.ESTIMATORS, seed=12, sigma1_sq=2.0, theta2=1.5,
            trend=oucv.TrendSpec(beta=np.array([1.0, 2.0]), basis=polynomial_basis(1)),
        )
        report = run_experiment(cfg)
        for panel in report.panels.values():
            assert [rec.flags for rec in panel.records] == ["failed:NumericalFailureError"] * 4
            assert panel.summary["excluded"] == 4


def _counted_calls(monkeypatch, name):
    """The theta shapes of every ``parts`` call that estimator ``name``'s
    kernel makes from here on, in order."""
    calls = []
    row = ESTIMATOR_TABLE[name]

    class Counting(row.kernel):
        def parts(self, rows, thetas):
            calls.append(np.shape(thetas))
            return super().parts(rows, thetas)

    monkeypatch.setitem(ESTIMATOR_TABLE, name, dataclasses.replace(row, kernel=Counting))
    return calls


def _lone_row_entries(monkeypatch):
    """The step counts at which searches from here on go on with one row
    alone, in order."""
    entered = []
    search_row = estimation._search_row

    def spy(*args):
        entered.append(args[-2])
        return search_row(*args)

    monkeypatch.setattr(estimation, "_search_row", spy)
    return entered


class TestEvaluationCount:
    def test_exact_count_matches_the_objective_calls(self, monkeypatch):
        from oucv import estimation

        d = regular_design(12)
        y = sample_path(d, PARAMS0, (20260808, 1))
        pairs = []

        class Counting(estimation.CvKernel):
            def parts(self, rows, thetas):
                L, Q = super().parts(rows, thetas)
                pairs.append(Q.size)  # one (row, theta) pair per objective value
                return L, Q

        row = ESTIMATOR_TABLE["cv-joint"]
        monkeypatch.setitem(ESTIMATOR_TABLE, "cv-joint", dataclasses.replace(row, kernel=Counting))
        res = estimate_cv_joint(d, y, BOX)
        # 64 grid nodes, the two interior golden-section points, one point
        # per iteration and the final bracket midpoint; the last kernel
        # call is the variance profile at the optimum, not the search
        assert res.evaluations == 64 + 2 + res.iterations + 1
        assert sum(pairs[:-1]) == res.evaluations and pairs[-1] == 1
        assert (res.iterations, res.evaluations) == (35, 102)

    @pytest.mark.parametrize("name", oucv.ESTIMATORS)
    def test_kernel_calls_per_search(self, monkeypatch, name):
        # one kernel call each for the grid, the two interior points, every
        # iteration, the midpoint and the variance profile, and one for the
        # central difference of a kernel without a gradient; a fixed theta
        # is one point, which gives the value and the profile
        d = regular_design(50)
        F = _trend_matrix(d, 1)
        Y = np.stack([sample_path(d, PARAMS0, (14, r)) for r in range(3)])
        value = {"cv-fixed-sigma": 2.0, "cv-fixed-theta": 1.5, "cv-regression": F}.get(name)
        row = ESTIMATOR_TABLE[name]
        calls = _counted_calls(monkeypatch, name)
        results = estimate_batch(name, d, Y + F @ [1.0, 2.0] if row.fixes == "trend" else Y, BOX, value)
        if row.fixes == "theta":
            assert calls == [(3, 1)]
            return
        iterations = max(res.iterations for res in results)
        assert len(calls) == 4 + iterations + (row.kernel.gradient is None)
        assert calls[:2] == [(64,), (3, 2)]

    @pytest.mark.parametrize("name", ["cv-joint", "ml-joint"])
    @pytest.mark.parametrize("n", [12, 200, 1502])
    def test_a_lone_row_makes_one_kernel_call_per_step(self, monkeypatch, name, n):
        # the grid, the two interior points, one point per iteration, the
        # midpoint and the variance profile at the estimate
        d = regular_design(n)
        calls, entered = _counted_calls(monkeypatch, name), _lone_row_entries(monkeypatch)
        res = (estimate_cv_joint if name == "cv-joint" else estimate_ml_joint)(d, sample_path(d, PARAMS0, 21), BOX)
        assert len(calls) == res.iterations + 4
        assert calls == [(64,), (1, 2)] + [(1, 1)] * (res.iterations + 2)
        assert entered == [0]  # a batch of one searches alone from the start

    def test_the_last_row_searching_steps_alone(self, monkeypatch):
        # a row whose estimate sits on the lower theta edge stops two steps
        # before the other row, which then takes them alone, on Python floats
        d = regular_design(50)
        Y = np.stack([sample_path(d, CovarianceParams(theta=theta, sigma2=1.0), (18, r))
                      for r, theta in enumerate([3.0, 0.01])])
        for name, single in (("cv-joint", estimate_cv_joint), ("ml-joint", estimate_ml_joint)):
            calls, entered = _counted_calls(monkeypatch, name), _lone_row_entries(monkeypatch)
            results = estimate_batch(name, d, Y, BOX)
            assert [res.iterations for res in results] == [35, 33]
            assert calls == [(64,), (2, 2)] + [(2, 1)] * 33 + [(1, 1)] * 2 + [(2, 1)] * 2
            assert entered == [33]
            assert _batched(results) == [repr(single(d, y, BOX)) for y in Y]

    def test_trend_grid_builds_a_factor_per_block_of_nodes(self, monkeypatch):
        from oucv import regression

        d = regular_design(200)
        F = _trend_matrix(d, 1)
        Z = np.stack([F @ [1.0, 2.0] + sample_path(d, PARAMS0, (15, r)) for r in range(12)])
        builds = []
        build = regression._trend_factor
        monkeypatch.setattr(regression, "_trend_factor", lambda *args: builds.append(args[1].size) or build(*args))
        TrendKernel(d, Z, True, F).parts(None, np.geomspace(BOX.a, BOX.A, 64))
        assert len(builds) <= 4 and sum(builds) == 64  # 2^13 // (n p) nodes per factor

    def test_closed_form_and_collapsed_box_take_one(self):
        d = regular_design(12)
        y = sample_path(d, PARAMS0, 4)
        assert estimate_cv_fixed_theta(d, y, 1.5, (0.3, 30.0)).evaluations == 1
        assert estimate_cv_joint(d, y, ParameterBox(2.0, 2.0, 0.3, 30.0)).evaluations == 1

    def test_counts_are_per_row(self):
        d = regular_design(50)
        Y = np.stack([sample_path(d, PARAMS0, (5, r)) for r in range(8)])
        for res in estimate_batch("ml-joint", d, Y, BOX):
            assert res.evaluations == 64 + 2 + res.iterations + 1


FIXED = {"sigma2": 2.0, "theta": 1.5}


def _lanes_against_alone(names, design, Y, box, fixed):
    """estimate_lanes on ``names`` and each estimator's own estimate_batch,
    both as outcome strings."""
    def alone(name):
        return _batched(estimate_batch(name, design, Y, box, fixed.get(ESTIMATOR_TABLE[name].fixes)))

    return [_batched(results) for results in estimate_lanes(names, design, Y, box, fixed)], [alone(n) for n in names]


class TestLanes:
    """Several estimators in one search give each one's results alone, bitwise."""

    @pytest.mark.parametrize("design, rows", [
        (minimal_design(12, 0.5), 7), (regular_design(12), 3), (maximal_design(50, 0.02), 5),
        (regular_design(200), 12), (random_design(np.random.default_rng(3), 1200), 4),
    ], ids=["n12-minimal", "n12-regular", "n50-maximal", "n200-regular", "n1200-dirichlet"])
    def test_every_estimator_as_alone(self, design, rows):
        F = _trend_matrix(design, 1)
        Z = np.stack([F @ [1.0, 2.0] + sample_path(design, PARAMS0, (18, r)) for r in range(rows)])
        fixed = dict(FIXED, trend=F)
        for names in (oucv.ESTIMATORS, ("cv-fixed-sigma", "ml-joint", "cv-joint", "cv-fixed-sigma")):
            together, alone = _lanes_against_alone(names, design, Z, BOX, fixed)
            assert together == alone

    def test_collapsed_and_edge_boxes(self):
        # a collapsed theta range puts cv-joint beside cv-fixed-theta on one
        # kernel, each row at its own lane's theta; a narrow box sends the
        # searches to its edges
        d = regular_design(30)
        Y = np.stack([sample_path(d, PARAMS0, (19, r)) for r in range(5)])
        for box in (ParameterBox(2.0, 2.0, 0.3, 30.0), ParameterBox(4.0, 6.0, 0.3, 0.5),
                    ParameterBox(0.1, 0.2, 2.0, 3.0)):
            together, alone = _lanes_against_alone(oucv.ESTIMATORS[:4], d, Y, box, FIXED)
            assert together == alone

    def test_failures_stay_in_their_lane_and_row(self):
        # one chunk: a nonfinite row, an overflowing row, a trend whose
        # projection collapses on the whole grid (every cv-regression row
        # fails with ConditioningError), and a fixed variance so small that
        # every cv-fixed-sigma value overflows on the grid, on the kernel
        # that cv-joint shares
        d = regular_design(10)
        Y = np.stack([sample_path(d, PARAMS0, (8, r)) for r in range(6)])
        Y[1, 4] = np.nan
        Y[3] = 1e200
        F = np.column_stack([np.ones(d.n), np.eye(d.n)[:, 0]])
        fixed = {"sigma2": 5e-324, "theta": 1.5, "trend": F}
        together, alone = _lanes_against_alone(oucv.ESTIMATORS, d, Y, BOX, fixed)
        assert together == alone
        kinds = {name: [o.split("(")[0].split(":")[0] for o in outcomes]
                 for name, outcomes in zip(oucv.ESTIMATORS, together)}
        ok, singular, nonfinite = "EstimateResult", "ConditioningError", "NumericalFailureError"
        assert kinds["cv-regression"] == [singular, nonfinite] + [singular] * 4
        assert kinds["cv-fixed-sigma"] == [nonfinite] * 6
        for name in ("cv-joint", "cv-fixed-theta", "ml-joint"):
            assert kinds[name] == [ok, nonfinite, ok, nonfinite, ok, ok]

    def test_a_refused_estimator_raises_as_estimate_batch_does(self, monkeypatch):
        # a rank-deficient trend, a NaN theta2 and an unknown name each
        # raise from estimate_lanes what estimate_batch raises for them,
        # before any row is searched; the estimators not refused run as alone
        d = regular_design(12)
        Y = np.stack([sample_path(d, PARAMS0, (20, r)) for r in range(3)])
        fixed = {"theta": math.nan, "trend": np.ones((d.n, 2))}
        searches = []
        search = estimation._Stack.search
        monkeypatch.setattr(estimation._Stack, "search", lambda stack: searches.append(1) or search(stack))
        for refused, kind in (("cv-regression", oucv.LinearDependenceError),
                              ("cv-fixed-theta", oucv.InvalidParameterError),
                              ("no-such", oucv.InvalidParameterError)):
            value = fixed[ESTIMATOR_TABLE[refused].fixes] if refused in ESTIMATOR_TABLE else None
            with pytest.raises(oucv.OucvError) as alone:
                estimate_batch(refused, d, Y, BOX, value)
            with pytest.raises(oucv.OucvError) as together:
                estimate_lanes(("cv-joint", refused, "ml-joint"), d, Y, BOX, fixed)
            assert type(alone.value) is type(together.value) is kind
            assert str(together.value) == str(alone.value)
        assert not searches
        together, alone = _lanes_against_alone(("cv-joint", "ml-joint"), d, Y, BOX, fixed)
        assert together == alone

    def test_repeated_rows_at_the_batch_length_are_taken_as_named(self):
        # two lanes on one kernel pass each data row once per lane: as many
        # rows as the kernel holds, one of them twice, are those rows
        rows = np.array([2, 0, 2])
        thetas = np.array([[0.5], [1.0], [2.0]])
        for d in (regular_design(50), random_design(np.random.default_rng(4), 1200)):
            Y = np.stack([sample_path(d, PARAMS0, (21, r)) for r in range(3)])
            for kernel in (CvKernel(d, Y), CvKernel(d, Y, reuse=False), MlKernel(d, Y),
                           TrendKernel(d, Y, True, _trend_matrix(d, 1))):
                L, Q = kernel.parts(rows, thetas)
                gradient = kernel.gradient(rows, thetas, 2.0) if kernel.gradient else None
                for j, r in enumerate(rows):
                    one = np.array([r])
                    assert (L[j, 0], Q[j, 0]) == tuple(x[0, 0] for x in kernel.parts(one, thetas[j:j + 1]))
                    if gradient is not None:
                        assert gradient[j, 0] == kernel.gradient(one, thetas[j:j + 1], 2.0)[0, 0]


class TestOneSearchPerChunk:
    def test_one_search_and_one_kernel_of_each_kind_per_chunk(self, monkeypatch):
        # 50 replicates at n = 200 are two chunks of 40 and 10
        calls = {"searches": 0}

        def counted(key, call):
            def wrapper(*args, **kwargs):
                calls[key] = calls.get(key, 0) + 1
                return call(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(estimation, "_minimize_theta", counted("searches", estimation._minimize_theta))
        monkeypatch.setattr(regression, "check_full_rank", counted("rank checks", regression.check_full_rank))
        for kernel in (CvKernel, MlKernel, TrendKernel):
            monkeypatch.setattr(kernel, "__init__", counted(kernel.__name__, kernel.__init__))
        cfg = ExperimentConfig(
            design={"kind": "regular", "n": 200}, theta0=3.0, sigma0_sq=1.0, replicates=50, box=BOX,
            estimators=oucv.ESTIMATORS, seed=22, sigma1_sq=2.0, theta2=1.5,
            trend=oucv.TrendSpec(beta=np.array([1.0, 2.0]), basis=polynomial_basis(1)),
        )
        run_experiment(cfg)
        # per chunk: cv-joint and cv-fixed-sigma share a CvKernel, and
        # cv-fixed-theta evaluates on one of its own; the lanes, and with
        # them the trend columns' rank check, are built once
        assert calls == {"searches": 2, "rank checks": 1, "CvKernel": 4, "MlKernel": 2, "TrendKernel": 2}

    def test_the_two_cv_lanes_sum_the_series_moments_once(self, monkeypatch):
        sums = []
        prepare = _GapKernel._prepare_series

        def counted(self, *args):
            sums.append(type(self).__name__)
            return prepare(self, *args)

        monkeypatch.setattr(_GapKernel, "_prepare_series", counted)
        points = random_design(np.random.default_rng(23), 1200).points
        cfg = ExperimentConfig(
            design={"kind": "points", "points": points}, theta0=3.0, sigma0_sq=1.0, replicates=3, box=BOX,
            estimators=("cv-joint", "cv-fixed-sigma", "ml-joint"), seed=23, sigma1_sq=2.0,
        )
        report = run_experiment(cfg)
        assert not any(rec.flags.startswith("failed") for panel in report.panels.values() for rec in panel.records)
        assert sums == ["CvKernel", "MlKernel"]


def _five_estimators(design, y, box, F):
    """The five public estimators on the path y, by name, each a call that
    returns its outcome as text."""
    calls = {
        "cv-joint": lambda: estimate_cv_joint(design, y, box),
        "ml-joint": lambda: estimate_ml_joint(design, y, box),
        "cv-fixed-sigma": lambda: estimate_cv_fixed_sigma(design, y, 2.0, box.theta_range),
        "cv-fixed-theta": lambda: estimate_cv_fixed_theta(design, y, 1.5, box.sigma2_range),
        "cv-regression": lambda: estimate_cv_reg(design, y, F, box),
    }
    return {name: (lambda call=call: _outcome(call)) for name, call in calls.items()}


def _fresh(call):
    """``call()`` with no kernel kept from an earlier search."""
    estimation._LAST.clear()
    return call()


def _kept():
    """The kernels the last search kept, by lane key."""
    return estimation._LAST["search"][2]


def _counted_preparations(monkeypatch, kernel):
    """A list that grows by one each time ``kernel`` is prepared."""
    prepared = []
    init = kernel.__init__

    def counted(self, *args, **kwargs):
        prepared.append(kernel.__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel, "__init__", counted)
    return prepared


# (design, box, the route of the kernels kept for the searching lanes)
_DIRICHLET_1200 = random_design(np.random.default_rng(43), 1200)
KEPT_CASES = {
    **{f"{kind}-{n}": (build_design({"kind": kind, "n": n, **({"gamma": 0.5} if kind == "maximal" else {})}), BOX,
                       "classes" if n > 12 else "per-point")
       for kind in ("regular", "maximal") for n in (12, 200)},
    **{f"{kind}-10000": (build_design({"kind": kind, "n": 10**4, **({"gamma": 1e-4} if kind == "maximal" else {})}),
                         BOX, "classes") for kind in ("regular", "maximal")},
    # the upper theta reaches past the series' domain, so the kept series
    # kernels rebuild their point arrays there from the rows
    "dirichlet-1200": (_DIRICHLET_1200, ParameterBox(0.1, 300.0, 0.3, 30.0), "series"),
}


class TestKeptKernels:
    """A search keeps its kernels with a copy of its rows, and the next
    search on the same design object with bitwise equal rows takes them;
    what an estimator returns never depends on what it finds kept."""

    @pytest.mark.parametrize("case", KEPT_CASES)
    def test_every_order_of_the_estimators_equals_fresh_calls(self, case):
        design, box, route = KEPT_CASES[case]
        F = _trend_matrix(design, 0)  # one column keeps cv-regression at n = 10^4 quick
        y = sample_path(design, PARAMS0, 44) + 1.0
        calls = _five_estimators(design, y, box, F)
        fresh = {name: _fresh(call) for name, call in calls.items()}
        for order in itertools.permutations(calls):
            estimation._LAST.clear()
            for name in order:
                assert calls[name]() == fresh[name], (order, name)
        # one kernel per lane key: cv-joint and cv-fixed-sigma share theirs
        kept = _kept()
        assert len(kept) == 4
        assert {kernel.route for kernel in kept.values() if isinstance(kernel, _GapKernel)} == (
            {route} if route == "per-point" else {route, "per-point"})
        if route == "series":
            series = [kernel for kernel in kept.values() if getattr(kernel, "route", None) == "series"]
            assert box.A * series[0].span > scoring._SERIES_X > box.a * series[0].span
            assert all(kernel.blocks is None for kernel in series)

    def test_rows_changed_in_place_are_prepared_again(self, monkeypatch):
        d = regular_design(200)
        y = sample_path(d, PARAMS0, 45)
        other = sample_path(d, PARAMS0, 46)
        nudged = y.copy()
        nudged[7] = np.nextafter(nudged[7], np.inf)
        expected = [_fresh(lambda v=v: _outcome(lambda: estimate_cv_joint(d, v, BOX))) for v in (other, nudged)]
        assert expected[0] != expected[1]
        prepared = _counted_preparations(monkeypatch, CvKernel)
        estimation._LAST.clear()
        for row, outcome in zip((other, nudged), expected):
            estimate_cv_joint(d, y, BOX)
            y[:] = row  # the caller changes its array after the search
            assert _outcome(lambda: estimate_cv_joint(d, y, BOX)) == outcome
            y[:] = sample_path(d, PARAMS0, 45)
        assert len(prepared) == 4

    def test_a_distinct_design_with_equal_points_prepares_its_own(self, monkeypatch):
        d = regular_design(200)
        twin = from_points(d.points)
        y = sample_path(d, PARAMS0, 47)
        prepared = _counted_preparations(monkeypatch, CvKernel)
        results = [repr(estimate_cv_joint(design, y, BOX)) for design in (d, twin, twin, d)]
        assert len(prepared) == 3  # the second call on twin takes the kernel of the first
        assert len(set(results)) == 1

    def test_cv_regression_takes_only_a_kernel_of_its_own_columns(self, monkeypatch):
        d = regular_design(200)
        y = sample_path(d, PARAMS0, 48)
        columns = [_trend_matrix(d, 1), np.column_stack([np.ones(d.n), d.points ** 2]), _trend_matrix(d, 2)]
        z = y + columns[0] @ np.array([1.0, -2.0])
        fresh = [_fresh(lambda F=F: _outcome(lambda: estimate_cv_reg(d, z, F, BOX))) for F in columns]
        assert len(set(fresh)) == 3
        prepared = _counted_preparations(monkeypatch, TrendKernel)
        estimation._LAST.clear()
        for k in (0, 1, 2, 0, 1):
            assert _outcome(lambda: estimate_cv_reg(d, z, columns[k], BOX)) == fresh[k]
        assert len(prepared) == 3
        assert len(_kept()) == 3

    def test_later_calls_stay_correct_after_failed_rows(self):
        d = regular_design(50)
        y = sample_path(d, PARAMS0, 49)
        calls = _five_estimators(d, y, BOX, _trend_matrix(d, 1))
        fresh = {name: _fresh(call) for name, call in calls.items()}
        estimation._LAST.clear()
        for bad in (np.nan, 1e200):  # a row refused before the search, and one that fails in it
            batch = estimate_batch("cv-joint", d, np.stack([y, np.full(d.n, bad)]), BOX)
            assert repr(batch[0]) == fresh["cv-joint"]
            assert isinstance(batch[1], NumericalFailureError)
            for name, call in calls.items():
                assert call() == fresh[name], (bad, name)

    def test_threads_searching_at_once_keep_their_own_results(self):
        # searches that take, keep and drop kernels at once in four threads,
        # on series kernels, each give the results of a fresh call
        d = random_design(np.random.default_rng(51), 1200)
        calls = [call for r in range(4)
                 for name, call in _five_estimators(d, sample_path(d, PARAMS0, (51, r)), BOX, None).items()
                 if name != "cv-regression"]
        fresh = [_fresh(call) for call in calls]
        estimation._LAST.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                # four threads at a time on the same path, whose rows equal the slot's
                jobs = [call for call in calls for _ in range(4)]
                assert list(pool.map(lambda call: call(), jobs, timeout=120)) == [f for f in fresh for _ in range(4)]
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("kind", ["regular", "dirichlet"])
    def test_the_kept_kernels_hold_little_more_than_the_rows(self, kind):
        n = 20000
        d = regular_design(n) if kind == "regular" else random_design(np.random.default_rng(50), n)
        y = sample_path(d, PARAMS0, 50)
        estimate_cv_joint(d, y, BOX)  # the design's own derived data: its gap classes or series sums
        estimation._LAST.clear()
        gc.collect()
        tracemalloc.start()
        try:
            estimate_cv_joint(d, y, BOX)
            estimate_cv_fixed_sigma(d, y, 2.0, BOX.theta_range)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        route = "classes" if kind == "regular" else "series"
        assert [kernel.route for kernel in _kept().values()] == [route]
        assert held <= 8 * n + 64 * 1024
