"""The objective kernels' three layouts against 60-digit arithmetic and each other.

A design's points fall into gap classes: the points whose neighbouring
gaps are bitwise equal. When classes are few the kernels sum the data's
increment statistics once per class. On a large design without classes
they sum the moments of a power series in theta once per row, where
theta times the largest sum of two neighbouring gaps is at most
``scoring._SERIES_X``. Otherwise they evaluate each point. Every layout
must give the same objective, and each must match the exact objective
computed with 60 significant digits from the same float points and data.
"""

import contextlib
import gc
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oucv import (
    ConditioningError,
    CovarianceParams,
    NumericalFailureError,
    ParameterBox,
    dense_oracle_ml,
    dense_oracle_score,
    estimate_cv_joint,
    estimate_ml_joint,
    from_points,
    maximal_design,
    minimal_design,
    log_score,
    loo_predictions,
    regular_design,
    sample_path,
    score_decomposition,
    scoring,
)
from oucv.estimation import estimate_batch
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


ROUTES = ["per-point", "classes", "series"]


@contextlib.contextmanager
def layout(route: str):
    """Every kernel prepared for more than one theta in the layout ``route``:
    in gap classes, in the series (whose thetas outside its domain are
    evaluated point by point), or point by point, whatever the design."""
    saved = scoring._design_classes, scoring._SERIES_MIN_N
    if route == "classes":
        scoring._design_classes = lambda design, keys: grouped(scoring._padded_gaps(design, keys), keys, design.n)
    else:
        scoring._design_classes = lambda design, keys: None
    scoring._SERIES_MIN_N = 0 if route == "series" else sys.maxsize
    try:
        yield
    finally:
        scoring._design_classes, scoring._SERIES_MIN_N = saved


def series_thetas(design):
    """A theta inside the series' domain, and its largest theta."""
    span = float(np.max(design.gaps[:-1] + design.gaps[1:]))
    edge = scoring._SERIES_X / span
    while edge * span > scoring._SERIES_X:
        edge = np.nextafter(edge, 0.0)
    return [0.5 * edge, edge]


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
] + [("dirichlet-400", random_design(np.random.default_rng(400), 400))]


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("name,design", ACCURACY_DESIGNS, ids=[n for n, _ in ACCURACY_DESIGNS])
def test_sixty_digit_accuracy(name, design, route):
    # The per-point kernel before the increment form erred by up to
    # 5.1e-13 (n = 12) and 1.3e-10 (n = 17) relative in Q on the minimal
    # designs, whose gaps shrink like 1/k!; every layout now stays near
    # double rounding. The last two thetas are inside the series' domain
    # and on its edge.
    thetas = np.array([BOX.a, 0.7, 3.0, BOX.A] + series_thetas(design))
    worst = 0.0
    for seed in range(3):
        y = sample_path(design, PARAMS0, (20261018, seed))
        with layout(route):
            assert CvKernel(design, y[None, :]).route == MlKernel(design, y[None, :]).route == route
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


@settings(max_examples=40)
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
        for route in ("per-point", "classes"):
            with layout(route):
                prepared = kernel(design, Y)
                assert prepared.route == route
                results.append(prepared.parts(None, thetas) + prepared.parts(None, per_row))
        (L0, Q0, l0, q0), (L1, Q1, l1, q1) = results
        for Q in (Q0, Q1, q0, q1):
            assert np.all(Q >= 0.0)
        np.testing.assert_allclose(Q1, Q0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(q1, q0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(L1, L0, rtol=1e-12, atol=1e-12 * n)
        np.testing.assert_allclose(l1, l0, rtol=1e-12, atol=1e-12 * n)


@st.composite
def fine_designs(draw):
    """Designs whose thetas up to a few units fall in the series' domain."""
    n = draw(st.integers(300, 3000))
    kind = draw(st.sampled_from(["dirichlet", "regular", "moved"]))
    if kind == "regular":
        return regular_design(n)
    if kind == "moved":
        return moved_regular(n, draw(st.integers(1, n - 2)), draw(st.sampled_from([0.25, -0.4, 1e-6])))
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@settings(max_examples=30)
@given(
    design=fine_designs(),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 1e-6, 1e3]),
)
def test_series_agrees_with_the_per_point_form(design, rows, seed, scale):
    Y = scale * np.stack([sample_path(design, PARAMS0, (seed, r)) for r in range(rows)])
    inside, edge = series_thetas(design)
    # inside the domain up to its edge, and the box edges, which may lie outside it
    thetas = np.concatenate((np.geomspace(BOX.a, edge, 6), [inside, BOX.A]))
    per_row = np.stack([np.geomspace(BOX.a, edge, rows), np.full(rows, BOX.A)], axis=1)
    n = design.n
    for kernel in (CvKernel, MlKernel):
        results = []
        for route in ("per-point", "series"):
            with layout(route):
                prepared = kernel(design, Y)
                assert prepared.route == route
                results.append(prepared.parts(None, thetas) + prepared.parts(None, per_row)
                               + (prepared.gradient(None, per_row, 2.0),))
        (L0, Q0, l0, q0, g0), (L1, Q1, l1, q1, g1) = results
        for Q in (Q1, q1):
            assert np.all(Q >= 0.0)
        np.testing.assert_allclose(Q1, Q0, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(q1, q0, rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(L1, L0, rtol=1e-14, atol=1e-14 * n)
        np.testing.assert_allclose(l1, l0, rtol=1e-14, atol=1e-14 * n)
        # the gradient's two parts cancel near the optimum
        np.testing.assert_allclose(g1, g0, rtol=1e-12, atol=1e-12 * n)


@st.composite
def large_designs(draw):
    """Regular, maximal and Dirichlet designs of 10^5 points: gap classes
    on the first two, the series on the third."""
    n = 10**5
    kind = draw(st.sampled_from(["regular", "maximal", "dirichlet"]))
    if kind == "regular":
        return regular_design(n)
    if kind == "maximal":
        return maximal_design(n, draw(st.sampled_from([1.0 / n, 0.5])))
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@settings(max_examples=10)
@given(
    design=large_designs(),
    seed=st.integers(0, 2**32 - 1),
    thetas=st.lists(st.floats(BOX.a, BOX.A), min_size=1, max_size=3),
)
def test_large_designs_agree_with_the_per_point_form(design, seed, thetas):
    y = sample_path(design, PARAMS0, seed)
    thetas = np.array(thetas)
    for kernel in (CvKernel, MlKernel):
        fast, exact = kernel(design, y[None, :]), kernel(design, y[None, :], reuse=False)
        assert fast.route in ("classes", "series") and exact.route == "per-point"
        (L1, Q1), (L0, Q0) = fast.parts(None, thetas), exact.parts(None, thetas)
        assert np.all(Q1 >= 0.0) and np.all(Q0 >= 0.0)
        np.testing.assert_allclose(Q1, Q0, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(L1, L0, rtol=1e-12, atol=0.0)
    for theta in thetas:
        assert np.all(loo_predictions(design, y, float(theta)).normalized_variances > 0.0)


def test_series_coefficients_are_the_taylor_coefficients():
    with mpmath.workdps(40):
        for table, f in ((scoring._COTH, lambda x: x * mpmath.coth(x) if x else 1),
                         (scoring._CSCH, lambda x: x / mpmath.sinh(x) if x else 1),
                         (scoring._TANH, lambda x: 2 * mpmath.tanh(x / 2) / x if x else 1),
                         (scoring._LOG_SINH, lambda x: mpmath.log(mpmath.sinh(x) / x) if x else 0)):
            want = mpmath.taylor(f, 0, 2 * len(table) - 2)
            assert list(table) == [float(c) for c in want[::2]]
            assert all(abs(c) < 1e-30 for c in want[1::2])


def test_estimates_on_a_large_fine_design_take_no_per_point_evaluation(monkeypatch):
    # the series serves every theta of the box: a Dirichlet design of
    # 10^4 points has no gap classes, and theta (g_{i-1} + g_i) <= 0.05
    d = random_design(np.random.default_rng(10_000), 10_000)
    assert d.n >= scoring._SERIES_MIN_N
    assert BOX.A * np.max(d.gaps[:-1] + d.gaps[1:]) <= scoring._SERIES_X
    y = sample_path(d, PARAMS0, 9)

    def per_point(*args):
        raise AssertionError("a per-point evaluation")

    monkeypatch.setattr(scoring._GapKernel, "_point_sums", per_point)
    for kernel in (CvKernel, MlKernel):
        assert kernel(d, y[None, :]).route == "series"
    for estimate in (estimate_cv_joint, estimate_ml_joint):
        res = estimate(d, y, BOX)
        assert res.evaluations > 64 and np.isfinite(res.gradient_at_opt)


def test_a_wide_gap_keeps_the_series_moments_unsummed(monkeypatch):
    # one wide gap puts every theta of the box outside the series'
    # domain: the estimates run point by point and never sum the moments
    fine = random_design(np.random.default_rng(2_000), 2_000).points
    d = from_points(np.concatenate((0.4 * fine, [1.0])))
    assert d.n >= scoring._SERIES_MIN_N
    assert BOX.a * np.max(d.gaps[:-1] + d.gaps[1:]) > scoring._SERIES_X
    y = sample_path(d, PARAMS0, 11)

    def summed(*args):
        raise AssertionError("series moments summed")

    for kernel in (CvKernel, MlKernel):
        assert kernel(d, y[None, :]).route == "series"
    expected = [estimate(d, y, BOX) for estimate in (estimate_cv_joint, estimate_ml_joint)]
    monkeypatch.setattr(scoring._GapKernel, "_prepare_series", summed)
    for estimate, res in zip((estimate_cv_joint, estimate_ml_joint), expected):
        assert estimate(d, y, BOX) == res


@pytest.mark.parametrize("kind", ["regular", "dirichlet"])
@pytest.mark.parametrize("decomposition", [score_decomposition, scoring.ml_decomposition], ids=["cv", "ml"])
def test_a_single_theta_keeps_no_point_block(kind, decomposition):
    # a kernel for one theta evaluates each block of points as it builds
    # it; with the blocks of all 10^5 points built first the call peaked
    # at 2.40 MB (score) and 2.14 MB (likelihood), one block at a time at
    # 0.66 and 0.60 MB
    n = 10**5
    d = regular_design(n) if kind == "regular" else random_design(np.random.default_rng(55), n)
    y = sample_path(d, PARAMS0, 55)
    expected = decomposition(d, y, 3.0)
    gc.collect()
    tracemalloc.start()
    try:
        assert decomposition(d, y, 3.0) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * n


@settings(max_examples=40)
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


def test_class_sums_over_several_blocks_are_one_bincount_bit_for_bit():
    # the statistics are summed per class one block of points at a time;
    # each class sum still adds its points in order, as one np.bincount
    # over the full-length point arrays does
    d = regular_design(20_000)
    Y = np.stack([sample_path(d, PARAMS0, seed) for seed in (1, 2, 3)])
    assert d.n * Y.shape[0] > 2 * scoring._ELEMENT_BUDGET
    padded = np.pad(Y, ((0, 0), (1, 1)))  # y_{-1} = y_n = 0
    arrays = {CvKernel: (Y, np.diff(padded)), MlKernel: (np.diff(padded)[:, :-1], padded[:, :-2])}
    for kernel, point_arrays in arrays.items():
        prepared = kernel(d, Y)
        assert prepared.route == "classes"
        _, counts, of_point = scoring._design_classes(d, kernel.keys)
        K = counts.size
        index = (of_point + K * np.arange(Y.shape[0])[:, None]).ravel()
        want = np.stack([np.bincount(index, (u * v * w).ravel(), Y.shape[0] * K).reshape(-1, K)
                         for u, v, w in kernel._pairs(*point_arrays)], axis=1)
        assert prepared.S.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["regular", "dirichlet"])
@pytest.mark.parametrize("kernel", [CvKernel, MlKernel], ids=["cv", "ml"])
def test_a_kernel_reads_a_long_row_in_point_blocks(kind, kernel):
    # preparing a kernel on one row of 10^5 points and evaluating it on the
    # search grid and at one per-row theta holds no point array of full
    # length; its block temporaries are the same at any n. Peaks measured
    # with full-length point arrays: 3.2 and 4.0 MB on the regular design,
    # 5.5 and 4.9 MB on Dirichlet gaps; in blocks 0.3-0.4, 3.2 and 1.7 MB
    n = 10**5
    d = regular_design(n) if kind == "regular" else random_design(np.random.default_rng(51), n)
    y = sample_path(d, PARAMS0, 51)[None, :]
    grid = np.geomspace(BOX.a, BOX.A, 64)
    kernel(d, y).parts(None, grid)  # the design's own derived data: its gap classes or series sums
    gc.collect()
    tracemalloc.start()
    try:
        prepared = kernel(d, y)
        prepared.parts(None, grid)
        prepared.parts(None, np.array([[3.0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prepared.route == ("classes" if kind == "regular" else "series")
    assert peak <= (8 * n if kind == "regular" else 40 * n)


@settings(max_examples=20)
@given(design=designs(), route=st.sampled_from(ROUTES))
def test_zero_data_gives_zero_quadratic_part_and_the_lower_variance(design, route):
    Y = np.zeros((2, design.n))
    with layout(route):
        for parts in (scoring.score_parts, scoring.ml_parts):
            _, Q = parts(design, Y, np.array([BOX.a, 3.0, BOX.A]))
            assert np.all(Q == 0.0)
        for estimate in (estimate_cv_joint, estimate_ml_joint):
            res = estimate(design, Y[0], BOX)
            assert res.sigma2_hat == BOX.b and "sigma2_lower" in res.boundary_flags


@settings(max_examples=40)
@given(design=designs(), route=st.sampled_from(ROUTES),
       level=st.sampled_from([0.0, 1.0, -3.5, 1e-150, 1e150]))
def test_constant_data_in_both_layouts(design, route, level):
    """y = c: Q >= 0 for both objectives in each layout, on the box
    edges, the series' domain and per-row thetas; c = 0 gives Q = 0
    exactly, and both joint estimates then sit on the lower variance edge."""
    Y = np.full((2, design.n), level)
    thetas = np.array([BOX.a, 3.0, BOX.A] + series_thetas(design))
    per_row = np.array([[BOX.a], [BOX.A]])
    with layout(route):
        for kernel in (CvKernel, MlKernel):
            prepared = kernel(design, Y)
            assert prepared.route == route
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


@pytest.mark.parametrize("route", ROUTES)
def test_estimates_reach_both_theta_edges(route):
    # rough data drives theta to the top of a box below theta0 = 3 ...
    d = regular_design(400)
    y = sample_path(d, PARAMS0, 8)
    low, high = ParameterBox(0.1, 0.5, 0.3, 30.0), ParameterBox(50.0, 100.0, 0.3, 30.0)
    with layout(route):
        res = estimate_cv_joint(d, y, low)
        assert res.theta_hat == pytest.approx(low.A, rel=1e-8) and "theta_upper" in res.boundary_flags
        # ... and to the bottom of a box above it, where the series
        # serves no theta of the box
        assert high.a * 2.0 * np.max(d.gaps) > scoring._SERIES_X
        res = estimate_cv_joint(d, y, high)
        assert res.theta_hat == pytest.approx(high.a, rel=1e-8) and "theta_lower" in res.boundary_flags
    # ... and of the same box on a design fine enough that the whole box
    # lies in the series' domain
    d = regular_design(8000)
    y = sample_path(d, PARAMS0, 8)
    assert high.A * 2.0 * np.max(d.gaps) <= scoring._SERIES_X
    with layout(route):
        res = estimate_cv_joint(d, y, high)
        assert res.theta_hat == pytest.approx(high.a, rel=1e-8) and "theta_lower" in res.boundary_flags


@pytest.mark.parametrize("route", ROUTES)
def test_a_batch_whose_rows_all_fail_reports_each_row(route):
    # every row overflows on the whole grid, so no row is left for the
    # golden-section search: each fails alone, and no objective is
    # evaluated on an empty set of rows
    d = regular_design(200)
    Y = 1e200 * np.stack([sample_path(d, PARAMS0, (5, r)) for r in range(3)])
    with layout(route):
        assert CvKernel(d, Y).route == route
        for results in (estimate_batch("cv-joint", d, Y, BOX), estimate_batch("ml-joint", d, Y, BOX),
                        estimate_batch("cv-fixed-sigma", d, Y, BOX, 1.0)):
            assert all(isinstance(res, NumericalFailureError) for res in results)
        for estimate in (estimate_cv_joint, estimate_ml_joint):
            with pytest.raises(NumericalFailureError):
                estimate(d, Y[0], BOX)


@st.composite
def corner_designs(draw):
    """Dirichlet, regular and maximal designs with n from 5 to 2000, about
    log-uniform, and minimal designs with n <= 18."""
    kind = draw(st.sampled_from(["dirichlet", "regular", "maximal", "minimal"]))
    if kind == "minimal":
        return minimal_design(draw(st.integers(5, 18)), draw(st.sampled_from([0.5, 0.9])))
    n = round(5 * 400 ** (draw(st.integers(0, 100)) / 100))
    if kind == "regular":
        return regular_design(n)
    if kind == "maximal":
        return maximal_design(n, draw(st.sampled_from([1.0 / n, 0.5])))
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)


@settings(max_examples=25)
@given(design=corner_designs(), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e-6, 1e3]))
def test_box_corners_against_the_dense_oracle(design, seed, scale):
    """Both objectives at the four corners of the fig2 box, in every layout:
    Q >= 0, the value agrees with the dense oracle wherever it answers,
    the score's decomposition reproduces log_score, and the leave-one-out
    variances are positive.

    The dense oracle factors the covariance R, so its own rounding error
    grows like eps times the condition number of R, estimated here from
    the smallest gap g as n (1 + 2 / (1 - e^(-2 theta g))), a bound on
    n max diag(R^-1) that needs none of the code under test. The values must agree to 1e-8 where that bound is
    below 1e-8, and to the bound elsewhere: on minimal designs with
    n >= 12 both oracles refuse a Cholesky pivot ratio below 1e-5, but
    answer above it off by up to 1.6e-6. Measured
    on these families, the oracle's error stayed below 0.6 of the bound;
    the kernels' own accuracy on the worst-conditioned designs is
    checked against 60-digit arithmetic in test_sixty_digit_accuracy.
    """
    _check_box_corners(design, scale * sample_path(design, PARAMS0, seed))


def clustered_design(n: int, exponents: list, seed: int | None):
    """A design of n points with gaps of 10^-e / n at 0, one per exponent e
    and the smallest first, so that no point is lost to rounding, then the
    rest of [0, 1] in regular gaps, or Dirichlet gaps drawn from ``seed``."""
    head = np.concatenate(([0.0], np.cumsum(np.sort(10.0 ** -np.array(exponents, dtype=float)) / n)))
    if seed is None:
        rest = np.linspace(head[-1], 1.0, n - head.size + 1)[1:]
    else:
        gaps = np.random.default_rng(seed).dirichlet(np.ones(n - head.size))
        rest = head[-1] + (1.0 - head[-1]) * np.cumsum(gaps)
        rest[-1] = 1.0
    return from_points(np.concatenate((head, rest)))


@st.composite
def clustered_designs(draw):
    """Clustered designs with one to four gaps of 10^-e / n, e up to 300,
    so that neighbouring gaps differ by factors down to 1e-300, and n
    from 5 to 2000, about log-uniform."""
    n = round(5 * 400 ** (draw(st.integers(0, 100)) / 100))
    exponents = draw(st.lists(st.integers(0, 300), min_size=1, max_size=min(4, n - 3)))
    return clustered_design(n, exponents, draw(st.none() | st.integers(0, 2**32 - 1)))


@settings(max_examples=25)
@given(design=clustered_designs(), seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([1.0, 1e-6, 1e3]))
@example(design=clustered_design(2000, [300, 300, 0], None), seed=1, scale=1e3)
@example(design=clustered_design(1500, [300, 150], 7), seed=2, scale=1e3)
def test_gap_ratios_down_to_1e_300_at_the_box_corners(design, seed, scale):
    """The invariants of test_box_corners_against_the_dense_oracle on
    designs with a cluster of gaps as small as 1e-300 / n next to gaps of
    about 1 / n, in every layout. The oracle's rounding bound grows like
    1 / (theta g_min) there, so it is held to that bound where it
    answers; on the most clustered designs it refuses to."""
    _check_box_corners(design, scale * sample_path(design, PARAMS0, seed))


def _check_box_corners(design, y):
    """Both objectives of data y at the four corners of the fig2 box, in
    every layout: Q >= 0, the value agrees with the dense oracle wherever
    it answers, to 1e-8 or the oracle's own rounding bound, the score's
    decomposition reproduces log_score, and the leave-one-out variances
    are positive."""
    n, thetas, variances = design.n, np.array([BOX.a, BOX.A]), (BOX.b, BOX.B)
    oracle = {}
    for j, theta in enumerate(thetas):
        tol = max(1e-8, np.finfo(float).eps * n * (1.0 + 2.0 / -np.expm1(-2.0 * theta * design.gaps.min())))
        for objective, dense in (("cv", dense_oracle_score), ("ml", dense_oracle_ml)):
            for sigma2 in variances:
                try:
                    oracle[objective, j, sigma2] = dense(design, y, float(theta), sigma2), tol
                except ConditioningError:  # the oracle does not answer
                    pass
        decomposition = score_decomposition(design, y, float(theta))
        for sigma2 in variances:
            assert decomposition.score_at(sigma2) == log_score(design, y, float(theta), sigma2)
        assert np.all(loo_predictions(design, y, float(theta)).normalized_variances > 0.0)
    for route in ROUTES:
        with layout(route):
            for objective, parts in (("cv", scoring.score_parts), ("ml", scoring.ml_parts)):
                L, Q = parts(design, y[None, :], thetas)
                assert np.all(Q >= 0.0)
                for j in range(thetas.size):
                    decomposition = scoring.ScoreDecomposition(L=float(L[j]), Q=float(Q[0, j]), n=n)
                    for sigma2 in variances:
                        if (objective, j, sigma2) in oracle:
                            want, tol = oracle[objective, j, sigma2]
                            assert abs(decomposition.score_at(sigma2) - want) <= tol * (1.0 + abs(want))
