"""Trend-aware scoring: GLS coefficients, projected score, residual terms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oucv.regression as regression_mod
from oucv import (
    ConditioningError,
    CovarianceParams,
    ParameterBox,
    TrendSpec,
    dense_precision,
    estimate_cv_joint,
    estimate_cv_reg,
    from_points,
    gls_beta,
    log_score,
    loo_beta,
    loo_trend_prediction,
    minimal_design,
    polynomial_basis,
    precision_matrix,
    reg_log_score,
    reg_score_decomposition,
    regular_design,
    sample_path,
    sample_with_trend,
)
from conftest import random_design, random_instance

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
PARAMS0 = CovarianceParams(theta=3.0, sigma2=1.0)
LINEAR = TrendSpec(beta=[1.0, 2.0], basis=polynomial_basis(1))


def random_F(rng, n, p):
    t = np.linspace(0.0, 1.0, n)
    cols = [np.ones(n)]
    for k in range(1, p):
        cols.append(t**k + 0.01 * rng.standard_normal(n))
    return np.column_stack(cols)


class TestGlsBeta:
    def test_pure_trend_interpolation(self):
        d = regular_design(60)
        F = LINEAR.design_matrix(d)
        z = F @ np.array([1.0, 2.0])
        assert np.allclose(gls_beta(d, z, 3.0, F), [1.0, 2.0], atol=1e-10)

    def test_constant_basis_matches_dense_weighted_mean(self):
        d = regular_design(3)
        F = np.ones((3, 1))
        z = np.array([0.4, -0.3, 1.1])
        theta = 2.0
        beta = gls_beta(d, z, theta, F)
        P = dense_precision(d, theta)
        expected = (np.ones(3) @ P @ z) / (np.ones(3) @ P @ np.ones(3))
        assert beta[0] == pytest.approx(expected, rel=1e-10)

    def test_matches_dense_route_random_cases(self, rng):
        for _ in range(20):
            design, z, theta, _ = random_instance(rng, n_lo=8, n_hi=40)
            F = random_F(rng, design.n, int(rng.integers(1, 4)))
            beta_fast = gls_beta(design, z, theta, F)
            P = dense_precision(design, theta)
            M = F.T @ P @ F
            beta_dense = np.linalg.solve(M, F.T @ P @ z)
            assert np.allclose(beta_fast, beta_dense, rtol=1e-8, atol=1e-10)

    def test_sampling_scatter_at_true_parameters(self):
        # exact GLS covariance sigma0^2 (F' R^-1 F)^-1 bounds the error
        d = regular_design(200)
        F = LINEAR.design_matrix(d)
        P = precision_matrix(d, 3.0)
        cov = np.linalg.inv(F.T @ P.to_dense() @ F)
        bound = 4.0 * np.sqrt(np.diag(cov))
        for r in range(5):
            z = sample_with_trend(d, PARAMS0, LINEAR, (333, r))
            err = np.abs(gls_beta(d, z, 3.0, F) - np.array([1.0, 2.0]))
            assert np.all(err <= bound)


class TestRegLogScore:
    def _dense_value(self, design, z, theta, sigma2, F):
        P = dense_precision(design, theta)
        PF = P @ F
        Q = P - PF @ np.linalg.solve(F.T @ PF, PF.T)
        diag = np.diag(Q)
        qz = Q @ z
        return float(
            design.n * np.log(sigma2) - np.sum(np.log(diag)) + np.sum(qz * qz / diag) / sigma2
        )

    def test_dense_oracle_agreement(self, rng):
        for _ in range(50):
            design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=40)
            F = random_F(rng, design.n, int(rng.integers(1, 4)))
            fast = reg_log_score(design, z, theta, sigma2, F).value
            slow = self._dense_value(design, z, theta, sigma2, F)
            assert abs(fast - slow) <= 1e-7 * (1.0 + abs(slow))

    def test_deleted_design_oracle_agreement(self, rng):
        # fully independent route: universal-kriging prediction and
        # variance on each deleted design
        for _ in range(10):
            design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=25)
            F = random_F(rng, design.n, 2)
            fast = reg_log_score(design, z, theta, sigma2, F).value
            total = 0.0
            for i in range(design.n):
                pred, v = loo_trend_prediction(design, z, theta, F, i)
                total += np.log(sigma2 * v) + (z[i] - pred) ** 2 / (sigma2 * v)
            assert abs(fast - total) <= 1e-7 * (1.0 + abs(total))

    def test_translation_invariance_with_intercept(self, rng):
        design, z, theta, sigma2 = random_instance(rng, n_lo=10, n_hi=40)
        F = random_F(rng, design.n, 2)
        a = reg_log_score(design, z, theta, sigma2, F).value
        b = reg_log_score(design, z + 11.5, theta, sigma2, F).value
        assert a == pytest.approx(b, rel=1e-8, abs=1e-7)

    def test_decomposition_identity_every_evaluation(self, rng):
        for _ in range(30):
            design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=40)
            F = random_F(rng, design.n, int(rng.integers(1, 4)))
            rs = reg_log_score(design, z, theta, sigma2, F)
            rhs = rs.base_score - rs.r1 + (rs.r2 + 2.0 * rs.r3 - rs.r4) / sigma2
            assert abs(rs.value - rhs) <= 1e-8 * (1.0 + abs(rs.value))

    def test_base_score_is_centered_score(self, rng):
        design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=30)
        F = random_F(rng, design.n, 2)
        rs = reg_log_score(design, z, theta, sigma2, F)
        assert rs.base_score == pytest.approx(log_score(design, z, theta, sigma2), rel=1e-10)

    def test_residual_terms_match_deleted_design_definitions(self, rng):
        # r2, r3, r4 from their defining epsilon formulas on deleted designs
        design, z, theta, sigma2 = random_instance(rng, n_lo=8, n_hi=20)
        F = random_F(rng, design.n, 2)
        rs = reg_log_score(design, z, theta, sigma2, F)
        P = dense_precision(design, theta)
        pd = np.diag(P)
        resid_centered = (P @ z) / pd
        eps = np.empty(design.n)
        for i in range(design.n):
            pred, _ = loo_trend_prediction(design, z, theta, F, i)
            eps[i] = (z[i] - pred) - resid_centered[i]
        PF = P @ F
        ebar = np.einsum("ij,ij->i", PF, np.linalg.solve(F.T @ PF, PF.T).T)
        r2 = float(np.sum(pd * eps * eps))
        r3 = float(np.sum(pd * eps * resid_centered))
        r4 = float(np.sum(ebar * (resid_centered + eps) ** 2))
        assert rs.r2 == pytest.approx(r2, rel=1e-6, abs=1e-9)
        assert rs.r3 == pytest.approx(r3, rel=1e-6, abs=1e-9)
        assert rs.r4 == pytest.approx(r4, rel=1e-6, abs=1e-9)

    def test_projected_diag_dominated_by_precision_diag(self, rng):
        for _ in range(10):
            design, z, theta, _ = random_instance(rng, n_lo=8, n_hi=40)
            F = random_F(rng, design.n, 2)
            _, _, _, _, proj_diag = regression_mod._trend_factor(design, [theta], regression_mod._columns(F))
            assert np.all(proj_diag > 0.0)
            assert np.all(proj_diag <= precision_matrix(design, theta).diag + 1e-12)


class TestLooBeta:
    def test_interior_deletion_equals_subdesign_gls(self, rng):
        from oucv import from_points

        design, z, theta, _ = random_instance(rng, n_lo=10, n_hi=30)
        F = random_F(rng, design.n, 2)
        i = design.n // 2
        sub = from_points(np.delete(design.points, i))
        beta_sub = gls_beta(sub, np.delete(z, i), theta, np.delete(F, i, axis=0))
        assert np.allclose(loo_beta(design, z, theta, F, i), beta_sub, rtol=1e-8, atol=1e-10)

    def test_pure_trend_recovers_beta_for_every_deletion(self):
        d = regular_design(20)
        F = LINEAR.design_matrix(d)
        z = F @ np.array([1.0, 2.0])
        for i in range(d.n):
            assert np.allclose(loo_beta(d, z, 3.0, F, i), [1.0, 2.0], atol=1e-8)

    def test_failed_factorizations_raise_conditioning_error(self):
        # two points one ulp apart have equal covariance rows at theta = 0.1,
        # so the deleted covariance has no Cholesky factor unless one of
        # them is the deleted point; deleting the one point that a trend
        # column lives on leaves a singular normal matrix
        pts = np.array([0.0, 0.2, 0.5, np.nextafter(0.5, 1.0), 0.8, 1.0])
        pair = from_points(pts)
        z = np.array([0.1, -0.3, 0.2, 0.2, 0.5, -0.1])
        F = np.column_stack([np.ones(pair.n), pts])
        spike = np.column_stack([np.ones(pair.n), np.eye(pair.n)[:, 1]])
        for d, F_, i, message in ((pair, F, 0, "deleted covariance"), (pair, F, 5, "deleted covariance"),
                                  (regular_design(6), spike, 1, "deleted normal matrix")):
            for dense in (loo_beta, loo_trend_prediction):
                with pytest.raises(ConditioningError, match=f"{message} factorization failed"):
                    dense(d, z, 0.1, F_, i)
        # deleting a point of the pair leaves a covariance that factors
        assert np.all(np.isfinite(loo_beta(pair, z, 0.1, F, 2)))

    def test_two_route_prediction_equivalence(self, rng):
        design, z, theta, _ = random_instance(rng, n_lo=8, n_hi=30)
        F = random_F(rng, design.n, 2)
        (_, h, c), W, _, _, proj_diag = regression_mod._trend_factor(design, [theta], regression_mod._columns(F))
        Pz = regression_mod._apply_precision(z, regression_mod._increments(z, 1), h, c)
        proj_diag, proj_z = proj_diag[0], regression_mod._project(Pz, W, z)[0]
        shortcut_preds = z - proj_z / proj_diag
        shortcut_vars = 1.0 / proj_diag
        for i in range(design.n):
            pred, v = loo_trend_prediction(design, z, theta, F, i)
            assert abs(pred - shortcut_preds[i]) <= 1e-7 * (1.0 + abs(pred))
            assert abs(v - shortcut_vars[i]) <= 1e-7 * (1.0 + abs(v))


class TestEstimateCvReg:
    def test_zero_trend_tracks_centered_pipeline(self):
        d = regular_design(200)
        F = LINEAR.design_matrix(d)
        for r in range(1, 6):
            y = sample_path(d, PARAMS0, (88, r))
            centered = estimate_cv_joint(d, y, BOX).product
            with_trend = estimate_cv_reg(d, y, F, BOX).product
            diff = abs(with_trend - centered)
            assert 0.0 < diff < 0.1  # criteria differ by bounded terms only

    def test_pure_trend_data_flags_boundary(self):
        d = regular_design(50)
        F = LINEAR.design_matrix(d)
        z = F @ np.array([1.0, 2.0])
        res = estimate_cv_reg(d, z, F, BOX)
        assert "sigma2_lower" in res.boundary_flags

    @pytest.mark.parametrize("replicate", [53, 775])
    def test_edge_flag_does_not_follow_rounding_noise(self, replicate):
        """Replicates 53 and 775 of the n = 200 linear-trend config with
        seed 20261018 end on the lower theta edge, where the objective is
        flat to rounding: an ulp-level change of the data moves the
        estimate by up to 4.7e-7 relative, and must not flip the flag."""
        d = regular_design(200)
        F = LINEAR.design_matrix(d)
        z = sample_with_trend(d, PARAMS0, LINEAR, (20261018, replicate))
        rng = np.random.default_rng(replicate)
        thetas = set()
        for k in range(8):
            sign = rng.choice([-1.0, 1.0], size=z.shape)
            zk = z if k == 0 else np.nextafter(z, sign * np.inf) if k % 2 else z * (1.0 + sign * 2.0**-52)
            res = estimate_cv_reg(d, zk, F, BOX)
            assert res.boundary_flags == ("theta_lower",)
            thetas.add(res.theta_hat)
        assert len(thetas) > 1 and max(thetas) > BOX.a * (1.0 + 1e-8)  # beyond the search's stopping bracket

    def test_recovers_product_on_simulated_trend_data(self):
        d = regular_design(200)
        F = LINEAR.design_matrix(d)
        errs = []
        for r in range(1, 41):
            z = sample_with_trend(d, PARAMS0, LINEAR, (444, r))
            errs.append(abs(estimate_cv_reg(d, z, F, BOX).product - 3.0))
        assert np.median(errs) < 0.5


class TestBoundednessTrend:
    def test_score_gap_does_not_grow_with_n(self):
        # correction terms are bounded: the sup over a theta grid of
        # |trend score - centered score| stays within a fixed multiple
        # of its n=50 value
        basis = polynomial_basis(2)
        thetas = np.geomspace(0.5, 8.0, 12)
        sups = {}
        for n in (50, 100, 200, 400):
            d = regular_design(n)
            F = np.column_stack([f(d.points) for f in basis])
            m = 0.0
            for r in range(1, 6):
                y = sample_path(d, PARAMS0, (99, r))
                for th in thetas:
                    gap = abs(reg_log_score(d, y, float(th), 1.0, F).value - log_score(d, y, float(th), 1.0))
                    m = max(m, gap)
            sups[n] = m
        for n in (100, 200, 400):
            assert sups[n] <= 3.0 * sups[50]


def exact_trend_parts(points, z, theta, F):
    """(L, Q) of the trend-aware score in 60-digit arithmetic, from the
    dense projected precision P - P F (F' P F)^-1 F' P of the float
    points, data and trend columns."""
    with mpmath.workdps(60):
        s = [mpmath.mpf(float(p)) for p in points]
        th = mpmath.mpf(float(theta))
        n = len(s)
        E = [mpmath.exp(-th * (s[i + 1] - s[i])) for i in range(n - 1)]
        a = [mpmath.mpf(1)] + [1 / (1 - e * e) for e in E] + [mpmath.mpf(1)]
        P = mpmath.zeros(n, n)
        for i in range(n):
            P[i, i] = a[i] + a[i + 1] - 1
        for i in range(n - 1):
            P[i, i + 1] = P[i + 1, i] = -a[i + 1] * E[i]
        Fm = mpmath.matrix(F.tolist())
        PF = P * Fm
        proj = P - PF * mpmath.inverse(Fm.T * PF) * PF.T
        pz = proj * mpmath.matrix(z.tolist())
        L = -sum(mpmath.log(proj[i, i]) for i in range(n))
        Q = sum(pz[i] ** 2 / proj[i, i] for i in range(n))
        return L, Q


def monomials(design, p):
    return np.column_stack([design.points**k for k in range(p)])


ACCURACY_DESIGNS = [("regular-12", regular_design(12))] + [
    (f"minimal-{n}", minimal_design(n, 0.5)) for n in range(11, 18)
]


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("name,design", ACCURACY_DESIGNS, ids=[n for n, _ in ACCURACY_DESIGNS])
def test_trend_sixty_digit_accuracy(name, design, p):
    # With P applied through diag/off entries, P F and P z cancelled where
    # diag(P) reaches 3.5e14: Q erred by up to 4.8e-4 and L by 5.2e-5
    # relative at n = 17, p = 2. In increment form both stay near
    # double rounding.
    F = monomials(design, p)
    thetas = np.array([0.544, 3.0])
    worst = 0.0
    for seed in range(2):
        z = sample_path(design, PARAMS0, (20261018, seed)) + F @ np.array([1.0, 2.0])[:p]
        L, Q = regression_mod.reg_parts(design, z[None, :], thetas, F)
        for j, theta in enumerate(thetas):
            single = reg_score_decomposition(design, z, theta, F)
            want_L, want_Q = exact_trend_parts(design.points, z, theta, F)
            for got, want in ((L[j], want_L), (single.L, want_L), (Q[0, j], want_Q), (single.Q, want_Q)):
                worst = max(worst, float(abs((mpmath.mpf(float(got)) - want) / want)))
    assert worst <= 1e-14


@st.composite
def trend_designs(draw):
    if draw(st.booleans()):
        return minimal_design(draw(st.integers(11, 17)), 0.5)
    return random_design(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), draw(st.integers(5, 2000)))


@settings(max_examples=40)
@given(design=trend_designs(), p=st.integers(1, 2), seed=st.integers(0, 2**32 - 1))
def test_pure_trend_is_projected_out(design, p, seed):
    # z = F beta lies in the null space of the projected precision, so its
    # Q is rounding alone; with P applied through diag/off entries it
    # reached 8e-7 of Q(z + y) on minimal_design(17, 0.5)
    F = monomials(design, p)
    rng = np.random.default_rng(seed)
    trend = F @ rng.standard_normal(p)
    y = sample_path(design, PARAMS0, seed)
    _, Q = regression_mod.reg_parts(design, np.stack([trend, trend + y]), np.array([BOX.a, BOX.A]), F)
    assert np.all(Q[0] <= 1e-15 * Q[1])
