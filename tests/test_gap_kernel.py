"""The gap-class kernels against 60-digit arithmetic and their per-point form.

A design's points fall into gap classes: the points whose neighbouring
gaps are bitwise equal. When classes are few the kernels sum the data's
increment statistics once per class; otherwise they evaluate each point.
Both forms must give the same objective, and both must match the exact
objective computed with 60 significant digits from the same float points
and data.
"""

import contextlib

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oucv import (
    CovarianceParams,
    NumericalFailureError,
    ParameterBox,
    estimate_cv_joint,
    estimate_ml_joint,
    from_points,
    maximal_design,
    minimal_design,
    regular_design,
    sample_path,
    scoring,
)
from oucv.estimation import cv_fixed_sigma_batch, cv_joint_batch, ml_joint_batch
from oucv.scoring import CvKernel, MlKernel
from conftest import random_design

PARAMS0 = CovarianceParams(theta=3.0, sigma2=1.0)
BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)  # the fig2 box


def grouped(gaps, keys, n):
    """The reference grouping: every point's class from ``np.unique`` on
    its tuple of neighbouring gaps, for any design."""
    tuples = np.stack([gaps[j:j + n] for j in range(keys)], axis=1)
    classes, of_point, counts = np.unique(tuples, axis=0, return_inverse=True, return_counts=True)
    return tuple(classes.T), counts, of_point.ravel()


@contextlib.contextmanager
def layout(classes: bool):
    """Every design in gap classes (True) or point by point (False)."""
    saved = scoring._gap_classes
    scoring._gap_classes = grouped if classes else (lambda gaps, keys, n: None)
    try:
        yield
    finally:
        scoring._gap_classes = saved


def exact_parts(points, y, theta):
    """(L, Q) of the score and of the likelihood in 60-digit arithmetic,
    from the textbook precision and innovations of the float inputs."""
    with mpmath.workdps(60):
        P = [mpmath.mpf(float(p)) for p in points]
        Y = [mpmath.mpf(float(v)) for v in y]
        th = mpmath.mpf(float(theta))
        n = len(P)
        E = [mpmath.exp(-th * (P[i + 1] - P[i])) for i in range(n - 1)]
        a = [mpmath.mpf(1)] + [1 / (1 - e * e) for e in E] + [mpmath.mpf(1)]
        c = [mpmath.mpf(0)] + [ai * e for ai, e in zip(a[1:-1], E)] + [mpmath.mpf(0)]
        Yp = [mpmath.mpf(0)] + Y + [mpmath.mpf(0)]
        L_cv = Q_cv = mpmath.mpf(0)
        for i in range(n):
            A = a[i] + a[i + 1] - 1
            r = Yp[i + 1] - (c[i] * Yp[i] + c[i + 1] * Yp[i + 2]) / A
            L_cv -= mpmath.log(A)
            Q_cv += A * r * r
        L_ml = n * mpmath.log(2 * mpmath.pi) + sum(mpmath.log(1 - e * e) for e in E)
        Q_ml = Y[0] ** 2 + sum((Y[i + 1] - E[i] * Y[i]) ** 2 / (1 - E[i] ** 2) for i in range(n - 1))
        return L_cv, Q_cv, L_ml, Q_ml


ACCURACY_DESIGNS = [("regular-12", regular_design(12))] + [
    (f"minimal-{n}", minimal_design(n, 0.5)) for n in range(11, 18)
]


@pytest.mark.parametrize("classes", [False, True], ids=["per-point", "classes"])
@pytest.mark.parametrize("name,design", ACCURACY_DESIGNS, ids=[n for n, _ in ACCURACY_DESIGNS])
def test_sixty_digit_accuracy(name, design, classes):
    # The per-point kernel before the increment form erred by up to
    # 5.1e-13 (n = 12) and 1.3e-10 (n = 17) relative in Q on the minimal
    # designs, whose gaps shrink like 1/k!; both forms now stay near
    # double rounding.
    thetas = np.array([BOX.a, 0.7, 3.0, BOX.A])
    worst = 0.0
    for seed in range(3):
        y = sample_path(design, PARAMS0, (20261018, seed))
        with layout(classes):
            L_cv, Q_cv = scoring.score_parts(design, y[None, :], thetas)
            L_ml, Q_ml = scoring.ml_parts(design, y[None, :], thetas)
        for j, theta in enumerate(thetas):
            exact = exact_parts(design.points, y, theta)
            for got, want in zip((L_cv[j], Q_cv[0, j], L_ml[j], Q_ml[0, j]), exact):
                worst = max(worst, float(abs((mpmath.mpf(float(got)) - want) / want)))
    assert worst <= 1e-14


def moved_regular(n: int, k: int, shift: float):
    """The regular design with interior point k moved by ``shift`` of a
    gap: its two gaps, and the classes of its neighbours, split off."""
    points = np.linspace(0.0, 1.0, n)
    points[k] += shift / (n - 1)
    return from_points(points)


@st.composite
def designs(draw):
    kind = draw(st.sampled_from(["regular", "maximal", "dirichlet", "minimal", "moved"]))
    if kind == "minimal":
        return minimal_design(draw(st.integers(5, 18)), draw(st.sampled_from([0.5, 0.9])))
    n = draw(st.integers(5, 2000))
    if kind == "regular":
        return regular_design(n)
    if kind == "maximal":
        return maximal_design(n, draw(st.sampled_from([1.0 / n, 0.5])))
    if kind == "moved":
        return moved_regular(n, draw(st.integers(1, n - 2)), draw(st.sampled_from([0.25, -0.4, 1e-6])))
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    design=designs(),
    rows=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e3]),
)
def test_classes_agree_with_the_per_point_form(design, rows, seed, scale):
    Y = scale * np.stack([sample_path(design, PARAMS0, (seed, r)) for r in range(rows)])
    # both box edges, the generating theta, and a per-row set
    thetas = np.array([BOX.a, 1.0, 3.0, BOX.A])
    per_row = np.geomspace(BOX.a, BOX.A, rows)[:, None]
    n = design.n
    for kernel in (CvKernel, MlKernel):
        results = []
        for classes in (False, True):
            with layout(classes):
                prepared = kernel(design, Y)
                assert (prepared.S is not None) == classes
                results.append(prepared.parts(None, thetas) + prepared.parts(None, per_row))
        (L0, Q0, l0, q0), (L1, Q1, l1, q1) = results
        for Q in (Q0, Q1, q0, q1):
            assert np.all(Q >= 0.0)
        np.testing.assert_allclose(Q1, Q0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(q1, q0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(L1, L0, rtol=1e-12, atol=1e-12 * n)
        np.testing.assert_allclose(l1, l0, rtol=1e-12, atol=1e-12 * n)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(design=designs())
def test_classes_are_the_reference_grouping_when_they_pay(design):
    for kernel in (CvKernel, MlKernel):
        n, keys = design.n, kernel.keys
        gaps = np.concatenate(([np.inf], design.gaps, [np.inf]))[: n + keys - 1]
        found = scoring._gap_classes(gaps, keys, n)
        if found is None:  # classes are used only when they are few
            distinct = np.unique(gaps).size
            assert distinct ** keys > n or grouped(gaps, keys, n)[1].size > n / 4
            continue
        (sides, counts, of_point), (want_sides, want_counts, want_of_point) = found, grouped(gaps, keys, n)
        assert all(np.array_equal(s, w) for s, w in zip(sides, want_sides))
        assert np.array_equal(counts, want_counts) and np.array_equal(of_point, want_of_point)


@settings(max_examples=20, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(design=designs(), classes=st.booleans())
def test_zero_data_gives_zero_quadratic_part_and_the_lower_variance(design, classes):
    Y = np.zeros((2, design.n))
    with layout(classes):
        for parts in (scoring.score_parts, scoring.ml_parts):
            _, Q = parts(design, Y, np.array([BOX.a, 3.0, BOX.A]))
            assert np.all(Q == 0.0)
        for estimate in (estimate_cv_joint, estimate_ml_joint):
            res = estimate(design, Y[0], BOX)
            assert res.sigma2_hat == BOX.b and "sigma2_lower" in res.boundary_flags


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(design=designs(), classes=st.booleans(), level=st.sampled_from([0.0, 1.0, -3.5, 1e-150, 1e150]))
def test_constant_data_in_both_layouts(design, classes, level):
    """y = c: Q >= 0 for both objectives in the layout asked for, on the
    box edges and per-row thetas; c = 0 gives Q = 0 exactly, and both
    joint estimates then sit on the lower variance edge."""
    Y = np.full((2, design.n), level)
    thetas = np.array([BOX.a, 3.0, BOX.A])
    per_row = np.array([[BOX.a], [BOX.A]])
    with layout(classes):
        for kernel in (CvKernel, MlKernel):
            prepared = kernel(design, Y)
            assert (prepared.S is not None) == classes
            for at in (thetas, per_row):
                _, Q = prepared.parts(None, at)
                assert np.all(np.isfinite(Q)) and np.all(Q >= 0.0)
                if level == 0.0:
                    assert np.all(Q == 0.0)
        for estimate in (estimate_cv_joint, estimate_ml_joint):
            res = estimate(design, Y[0], BOX)
            assert BOX.b <= res.sigma2_hat <= BOX.B
            if level == 0.0:
                assert res.sigma2_hat == BOX.b and "sigma2_lower" in res.boundary_flags


@pytest.mark.parametrize("classes", [False, True], ids=["per-point", "classes"])
def test_estimates_reach_both_theta_edges(classes):
    # rough data drives theta to the top of a box below theta0 = 3 ...
    d = regular_design(400)
    y = sample_path(d, PARAMS0, 8)
    low, high = ParameterBox(0.1, 0.5, 0.3, 30.0), ParameterBox(50.0, 100.0, 0.3, 30.0)
    with layout(classes):
        res = estimate_cv_joint(d, y, low)
        assert res.theta_hat == pytest.approx(low.A, rel=1e-8) and "theta_upper" in res.boundary_flags
        # ... and to the bottom of a box above it
        res = estimate_cv_joint(d, y, high)
        assert res.theta_hat == pytest.approx(high.a, rel=1e-8) and "theta_lower" in res.boundary_flags


@pytest.mark.parametrize("classes", [False, True], ids=["per-point", "classes"])
def test_a_batch_whose_rows_all_fail_reports_each_row(classes):
    # every row overflows on the whole grid, so no row is left for the
    # golden-section search: each fails alone, and no objective is
    # evaluated on an empty set of rows
    d = regular_design(200)
    Y = 1e200 * np.stack([sample_path(d, PARAMS0, (5, r)) for r in range(3)])
    with layout(classes):
        assert (CvKernel(d, Y).S is not None) == classes
        for results in (cv_joint_batch(d, Y, BOX), ml_joint_batch(d, Y, BOX),
                        cv_fixed_sigma_batch(d, Y, 1.0, BOX.theta_range)):
            assert all(isinstance(res, NumericalFailureError) for res in results)
        for estimate in (estimate_cv_joint, estimate_ml_joint):
            with pytest.raises(NumericalFailureError):
                estimate(d, Y[0], BOX)
