"""Exactness and determinism of the process sampler."""

import numpy as np
import pytest

from oucv import (
    CovarianceParams,
    InvalidParameterError,
    LinearDependenceError,
    TrendSpec,
    covariance_matrix,
    from_points,
    maximal_design,
    minimal_design,
    polynomial_basis,
    precision_matrix,
    regular_design,
    sample_path,
    sample_with_trend,
)
from oucv.simulate import _RANK_TOL, _pivoted_qr_diagonal, check_full_rank


class TestCovarianceParams:
    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidParameterError):
            CovarianceParams(theta=0.0, sigma2=1.0)
        with pytest.raises(InvalidParameterError):
            CovarianceParams(theta=1.0, sigma2=-1.0)


class TestSamplePath:
    def test_deterministic_per_seed(self):
        d = regular_design(50)
        p = CovarianceParams(theta=3.0, sigma2=1.0)
        a = sample_path(d, p, 1234)
        b = sample_path(d, p, 1234)
        assert np.array_equal(a, b)
        c = sample_path(d, p, 1235)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-1, (-5, 1), 1.5, "7"])
    def test_refused_seed_is_a_domain_error(self, seed):
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_path(regular_design(5), CovarianceParams(theta=3.0, sigma2=1.0), seed)

    @pytest.mark.parametrize("design, theta", [
        (regular_design(3), 3.0),
        (regular_design(8193), 3.0),  # the recursion's 8192 steps fill one block exactly
        (regular_design(8194), 3.0),  # ... and one step more
        (regular_design(16385), 3.0),  # two blocks exactly
        (minimal_design(17, 0.5), 3.0),
        (maximal_design(1001, 1e-3), 3.0),
        (from_points([0.0, 0.9, 0.95, 1.0]), 1e3),  # exp(-900) underflows to 0
        (regular_design(3), 1e3),
    ], ids=["n3", "n8193", "n8194", "n16385", "minimal17", "maximal1001", "underflow", "n3-theta1e3"])
    def test_bitwise_equal_to_the_numpy_scalar_recursion(self, design, theta):
        params = CovarianceParams(theta=theta, sigma2=2.0)
        # the recursion on numpy scalars, one point at a time
        eps = np.random.default_rng((20261018, 3)).standard_normal(design.n)
        sd = np.sqrt(params.sigma2)
        decay = np.exp(-theta * design.gaps)
        innov_sd = sd * np.sqrt(-np.expm1(-2.0 * theta * design.gaps))
        expected = np.empty(design.n)
        expected[0] = sd * eps[0]
        for i in range(1, design.n):
            expected[i] = decay[i - 1] * expected[i - 1] + innov_sd[i - 1] * eps[i]
        got = sample_path(design, params, (20261018, 3))
        assert got.dtype == np.float64 and got.shape == (design.n,)
        assert got.tobytes() == expected.tobytes()
        if theta == 1e3 and design.n == 4:
            assert decay[0] == 0.0

    def test_degenerate_variance_limit(self):
        d = regular_design(20)
        y = sample_path(d, CovarianceParams(theta=3.0, sigma2=1e-300), 99)
        assert np.max(np.abs(y)) < 1e-140

    def test_marginal_moments_and_endpoint_correlation(self):
        # closed-form covariance sigma^2 e^{-theta |t1 - t2|}
        d = regular_design(200)
        p = CovarianceParams(theta=3.0, sigma2=1.0)
        reps = 10**4
        first = np.empty(reps)
        last = np.empty(reps)
        for r in range(reps):
            y = sample_path(d, p, (555, r))
            first[r] = y[0]
            last[r] = y[-1]
        assert 0.97 <= first.var(ddof=1) <= 1.03
        corr = np.corrcoef(first, last)[0, 1]
        assert abs(corr - np.exp(-3.0)) <= 0.03

    def test_pairwise_covariances_within_four_se(self):
        d = regular_design(30)
        p = CovarianceParams(theta=2.0, sigma2=1.5)
        reps = 10**4
        pairs = [(0, 29), (0, 15), (15, 16)]
        idx = sorted({i for pair in pairs for i in pair})
        col = {i: k for k, i in enumerate(idx)}
        ys = np.empty((reps, len(idx)))
        for r in range(reps):
            y = sample_path(d, p, (777, r))
            ys[r] = y[idx]
        for i, j in pairs:
            expected = p.sigma2 * np.exp(-p.theta * abs(d.points[i] - d.points[j]))
            sample_cov = np.cov(ys[:, col[i]], ys[:, col[j]])[0, 1]
            rho = expected / p.sigma2
            se = p.sigma2 * np.sqrt((1.0 + rho**2) / reps)
            assert abs(sample_cov - expected) <= 4.0 * se

    def test_conditional_variance_telescopes(self):
        # one-step variances compose exactly into the two-step variance
        e1, e2 = np.exp(-3.0 * 0.2), np.exp(-3.0 * 0.35)
        lhs = 1.0 - (e1 * e2) ** 2
        rhs = e2**2 * (1.0 - e1**2) + (1.0 - e2**2)
        assert lhs == pytest.approx(rhs, rel=4e-16)


class TestSampleWithTrend:
    def test_zero_trend_matches_centered_path(self):
        d = regular_design(40)
        p = CovarianceParams(theta=3.0, sigma2=1.0)
        trend = TrendSpec(beta=[0.0, 0.0], basis=polynomial_basis(1))
        assert np.array_equal(sample_with_trend(d, p, trend, 7), sample_path(d, p, 7))

    def test_constant_basis_shifts(self):
        d = regular_design(40)
        p = CovarianceParams(theta=3.0, sigma2=1.0)
        trend = TrendSpec(beta=[5.0], basis=polynomial_basis(0))
        z = sample_with_trend(d, p, trend, 11)
        y = sample_path(d, p, 11)
        assert np.allclose(z - y, 5.0, atol=1e-12)

    def test_rank_deficient_basis_rejected(self):
        d = regular_design(10)
        p = CovarianceParams(theta=3.0, sigma2=1.0)
        dependent = TrendSpec(
            beta=[1.0, 1.0],
            basis=(lambda t: np.ones_like(np.asarray(t)), lambda t: 2.0 * np.ones_like(np.asarray(t))),
        )
        with pytest.raises(LinearDependenceError):
            sample_with_trend(d, p, dependent, 3)


def _refused(F) -> bool:
    try:
        check_full_rank(F)
    except LinearDependenceError:
        return True
    return False


def _qr_refuses(F) -> bool:
    """The rank rule on LAPACK's column-pivoted QR: some |diag R| at or
    below _RANK_TOL times the Frobenius norm of F."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    _, R, _ = scipy_linalg.qr(F, mode="economic", pivoting=True)
    scale = np.linalg.norm(F)
    return bool(scale == 0.0 or np.any(np.abs(np.diag(R)) <= _RANK_TOL * scale))


def _near_dependent(t, p, rel, rng):
    """Monomials up to degree p - 2 on t, and a last column that is a
    combination of them plus a perturbation of relative size ``rel``."""
    F = np.column_stack([t**k for k in range(p - 1)] + [np.zeros_like(t)])
    col = F[:, :-1] @ rng.uniform(0.5, 2.0, p - 1)
    u = rng.standard_normal(t.size)
    F[:, -1] = col + rel * np.linalg.norm(col) * u / np.linalg.norm(u)
    return F


class TestRankCheck:
    """check_full_rank refuses exactly the bases that a column-pivoted
    LAPACK QR refuses under the same rule."""

    def test_polynomial_and_shifted_bases_match_pivoted_qr(self):
        rng = np.random.default_rng(20261019)
        decisions = []
        for p in range(1, 6):
            for n in (p + 1, p + 2, 12, 60, 300, 2000):
                t = np.sort(rng.uniform(size=n))
                for _ in range(4):
                    # monomials of random degree, some shifted; repeated
                    # degrees or too many shifts make the columns dependent
                    degrees = rng.integers(0, p + 1, size=p)
                    shifts = np.where(rng.uniform(size=p) < 0.5, 0.0, rng.uniform(-1.0, 1.0, size=p))
                    F = np.column_stack([(t - a) ** int(k) for k, a in zip(degrees, shifts)])
                    decisions.append(_refused(F))
                    assert decisions[-1] == _qr_refuses(F), (p, n, degrees, shifts)
        assert 20 <= sum(decisions) <= len(decisions) - 20  # both sides are exercised

    @pytest.mark.parametrize("rel, refused", [(1e-13, True), (1e-11, True), (1e-9, False), (1e-7, False)])
    def test_near_dependent_columns_on_both_sides_of_the_tolerance(self, rel, refused):
        rng = np.random.default_rng(7)
        for p in range(2, 6):
            for n in (p + 1, 40, 2000):
                F = _near_dependent(np.sort(rng.uniform(size=n)), p, rel, rng)
                assert _refused(F) == _qr_refuses(F) == refused, (p, n)

    def test_long_basis(self):
        t = np.linspace(0.0, 1.0, 100_000)
        rng = np.random.default_rng(3)
        for rel, refused in ((1e-13, True), (1e-7, False)):
            F = _near_dependent(t, 4, rel, rng)
            assert _refused(F) == _qr_refuses(F) == refused
        F = np.column_stack([t**k for k in range(3)])
        assert not _refused(F) and not _qr_refuses(F)

    def test_pivoted_diagonal_matches_lapack(self):
        # columns of spread scales in shuffled order, so that pivoting
        # reorders them, and near-dependent ones
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(11)
        for p in range(1, 6):
            for n in (p, p + 1, 50, 2000):
                F = rng.standard_normal((n, p)) * rng.permutation(np.geomspace(1.0, 1e-6, p))
                for G in (F, _near_dependent(np.sort(rng.uniform(size=n)), p, 1e-9, rng) if p > 1 else F):
                    _, R, _ = scipy_linalg.qr(G, mode="economic", pivoting=True)
                    assert np.allclose(_pivoted_qr_diagonal(G), np.abs(np.diag(R)), rtol=0.0,
                                       atol=1e-14 * np.linalg.norm(G))

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e160, 1e200])
    def test_extreme_scales_decide_as_unit_scale_does(self, scale):
        # the norm of F would overflow or underflow unscaled; any warning fails the test
        t = np.linspace(0.0, 1.0, 50)
        rng = np.random.default_rng(5)
        for F, refused in ((np.ones((3, 1)), False), (np.column_stack([np.ones_like(t), t]), False),
                           (np.column_stack([t, 2.0 * t]), True), (_near_dependent(t, 3, 1e-13, rng), True),
                           (_near_dependent(t, 3, 1e-7, rng), False)):
            assert _refused(F) == _refused(F * scale) == refused

    @pytest.mark.parametrize("F", [np.ones(5), np.ones((4, 2, 1)), np.ones((2, 3)), np.zeros((5, 2)),
                                   np.zeros((5, 0))], ids=["1d", "3d", "wide", "zero", "no-columns"])
    def test_shape_and_zero_refusals(self, F):
        with pytest.raises(LinearDependenceError):
            check_full_rank(F)

    def test_nonfinite_basis_is_refused(self):
        t = np.linspace(0.0, 1.0, 6)
        for bad in (np.nan, np.inf):
            F = np.column_stack([np.ones(6), t])
            F[3, 1] = bad
            with pytest.raises(InvalidParameterError, match="finite"):
                check_full_rank(F)


class TestCovarianceMatrix:
    def test_hand_values(self):
        d = regular_design(3)
        R = covariance_matrix(d, np.log(4.0))
        assert R[0, 1] == pytest.approx(0.5)
        assert R[1, 2] == pytest.approx(0.5)
        assert R[0, 2] == pytest.approx(0.25)
        assert np.all(np.diag(R) == 1.0)

    def test_symmetric_positive_definite(self, rng):
        from conftest import random_design

        for _ in range(5):
            d = random_design(rng, int(rng.integers(5, 60)))
            R = covariance_matrix(d, float(rng.uniform(0.1, 10)))
            assert np.array_equal(R, R.T)
            np.linalg.cholesky(R)  # raises if not SPD

    def test_precision_product_is_identity(self, rng):
        from conftest import random_design

        for _ in range(5):
            n = int(rng.integers(5, 200))
            d = random_design(rng, n)
            if d.gaps.min() < 1e-6:
                continue
            theta = float(rng.uniform(0.1, 10))
            R = covariance_matrix(d, theta)
            P = precision_matrix(d, theta).to_dense()
            assert np.max(np.abs(P @ R - np.eye(n))) <= 1e-8
