"""Matrix-free score vs dense oracles, decomposition, gradient, likelihood."""

import numpy as np
import pytest

from oucv import (
    ConditioningError,
    CovarianceParams,
    NumericalFailureError,
    dense_oracle_ml,
    dense_oracle_score,
    dense_precision,
    from_points,
    log_score,
    loo_predictions,
    maximal_design,
    minimal_design,
    ml_decomposition,
    ml_neg2loglik,
    precision_matrix,
    regular_design,
    sample_path,
    score_decomposition,
    score_gradient_theta,
)
from oucv.scoring import ml_gradient_theta
from conftest import random_design, random_instance

THETA_LN2 = np.log(4.0)  # theta * gap == ln 2 on {0, 1/2, 1}
D3 = from_points([0.0, 0.5, 1.0])


class TestPrecisionMatrix:
    def test_hand_values_equal_gaps(self):
        P = precision_matrix(D3, THETA_LN2)
        assert np.allclose(P.diag, [4.0 / 3.0, 5.0 / 3.0, 4.0 / 3.0], rtol=1e-15)
        assert np.allclose(P.off, [-2.0 / 3.0, -2.0 / 3.0], rtol=1e-15)

    def test_inverse_of_covariance(self, rng):
        from oucv import covariance_matrix

        for _ in range(10):
            n = int(rng.integers(5, 120))
            d = random_design(rng, n)
            if d.gaps.min() < 1e-6:
                continue
            theta = float(rng.uniform(0.1, 10.0))
            prod = precision_matrix(d, theta).to_dense() @ covariance_matrix(d, theta)
            assert np.max(np.abs(prod - np.eye(n))) <= 1e-8

    def test_decorrelation_limit(self):
        d = regular_design(6)  # gaps 0.2, theta*gap = 50
        P = precision_matrix(d, 250.0).to_dense()
        assert np.max(np.abs(P - np.eye(6))) <= 1e-15


class TestLooPredictions:
    def test_boundary_closed_form(self):
        # first point conditions on its single neighbor
        y = np.array([0.0, 4.0, 0.0])
        loo = loo_predictions(D3, y, THETA_LN2)
        assert loo.predictions[0] == pytest.approx(2.0, rel=1e-15)
        assert loo.normalized_variances[0] == pytest.approx(0.75, rel=1e-15)
        assert loo.normalized_variances[-1] == pytest.approx(0.75, rel=1e-15)

    def test_small_gap_interior_limit_is_midpoint(self):
        # as theta * gap -> 0 the interior prediction tends to the neighbor mean
        eps = 1e-8
        pts = np.array([0.0, 0.5 - eps, 0.5, 0.5 + eps, 1.0])
        d = from_points(pts)
        y = np.array([0.3, 1.0, 0.0, 2.0, -0.4])
        loo = loo_predictions(d, y, 1.0)
        assert loo.predictions[2] == pytest.approx((y[1] + y[3]) / 2.0, abs=1e-6)

    def test_matches_dense_route(self, rng):
        for _ in range(25):
            design, y, theta, _ = random_instance(rng)
            if design.gaps.min() < 1e-6:
                continue
            loo = loo_predictions(design, y, theta)
            P = dense_precision(design, theta)
            dense_preds = y - (P @ y) / np.diag(P)
            dense_vars = 1.0 / np.diag(P)
            assert np.max(np.abs(loo.predictions - dense_preds)) <= 1e-8 * (
                1.0 + np.max(np.abs(dense_preds))
            )
            assert np.max(np.abs(loo.normalized_variances - dense_vars)) <= 1e-10
            assert np.all(loo.normalized_variances > 0.0)


class TestLogScore:
    def test_zero_data_closed_form(self):
        value = log_score(D3, np.zeros(3), THETA_LN2, 1.0)
        assert value == pytest.approx(2.0 * np.log(0.75) - np.log(5.0 / 3.0), rel=1e-15)

    def test_oracle_equivalence_hundred_cases(self, rng):
        for _ in range(100):
            design, y, theta, sigma2 = random_instance(rng)
            fast = log_score(design, y, theta, sigma2)
            slow = dense_oracle_score(design, y, theta, sigma2)
            assert abs(fast - slow) <= 1e-8 * (1.0 + abs(slow))

    def test_sigma2_scaling_identity(self, rng):
        design, y, theta, _ = random_instance(rng)
        q = score_decomposition(design, y, theta).Q
        for c in (0.5, 2.0, 7.3):
            lhs = log_score(design, y, theta, c) - log_score(design, y, theta, 1.0)
            rhs = design.n * np.log(c) + (1.0 / c - 1.0) * q
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_reversal_relabeling_invariance(self, rng):
        for _ in range(10):
            design, y, theta, sigma2 = random_instance(rng, n_lo=6)
            flipped = design.reversed()
            a = log_score(design, y, theta, sigma2)
            b = log_score(flipped, y[::-1].copy(), theta, sigma2)
            assert abs(a - b) <= 1e-9 * (1.0 + abs(a))

    def test_nonfinite_data_rejected(self):
        y = np.array([0.0, np.nan, 1.0])
        with pytest.raises(NumericalFailureError):
            log_score(D3, y, 1.0, 1.0)


class TestScoreDecomposition:
    def test_zero_data_gives_zero_quadratic(self):
        d = score_decomposition(D3, np.zeros(3), THETA_LN2)
        assert d.Q == 0.0
        assert d.L == pytest.approx(2.0 * np.log(0.75) - np.log(5.0 / 3.0), rel=1e-15)

    def test_identity_at_three_sigma_levels(self, rng):
        for _ in range(30):
            design, y, theta, _ = random_instance(rng)
            d = score_decomposition(design, y, theta)
            for sigma2 in (0.3, 1.0, 30.0):
                direct = log_score(design, y, theta, sigma2)
                assert d.score_at(sigma2) == pytest.approx(direct, rel=1e-10)

    def test_quadratic_positive_for_nonzero_data(self, rng):
        for _ in range(10):
            design, y, theta, _ = random_instance(rng)
            assert score_decomposition(design, y, theta).Q > 0.0


class TestScoreGradient:
    def test_matches_central_difference(self, rng):
        for _ in range(50):
            design, y, theta, sigma2 = random_instance(rng, n_hi=100)
            g = score_gradient_theta(design, y, theta, sigma2)
            h = 1e-5 * theta
            fd = (
                log_score(design, y, theta + h, sigma2)
                - log_score(design, y, theta - h, sigma2)
            ) / (2.0 * h)
            assert abs(g - fd) <= 1e-5 * (1.0 + abs(g))

    def test_zero_data_equals_log_part_derivative(self, rng):
        design = random_design(rng, 20)
        theta = 2.0
        g = score_gradient_theta(design, np.zeros(20), theta, 1.0)
        h = 1e-6 * theta
        fd = (
            score_decomposition(design, np.zeros(20), theta + h).L
            - score_decomposition(design, np.zeros(20), theta - h).L
        ) / (2.0 * h)
        assert g == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestMlObjective:
    def test_dense_oracle_agreement(self, rng):
        for _ in range(100):
            design, y, theta, sigma2 = random_instance(rng)
            fast = ml_neg2loglik(design, y, theta, sigma2)
            slow = dense_oracle_ml(design, y, theta, sigma2)
            assert abs(fast - slow) <= 1e-8 * (1.0 + abs(slow))

    def test_zero_data_closed_form(self):
        d = regular_design(7)
        theta = 2.3
        value = ml_neg2loglik(d, np.zeros(7), theta, 1.0)
        expected = 7 * np.log(2.0 * np.pi) + np.sum(np.log(-np.expm1(-2.0 * theta * d.gaps)))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_sigma2_scaling_consistency(self, rng):
        design, y, theta, _ = random_instance(rng)
        dec = ml_decomposition(design, y, theta)
        for c in (0.5, 3.0):
            lhs = ml_neg2loglik(design, y, theta, c) - ml_neg2loglik(design, y, theta, 1.0)
            rhs = design.n * np.log(c) + (1.0 / c - 1.0) * dec.Q
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_decomposition_reproduces_value(self, rng):
        design, y, theta, sigma2 = random_instance(rng)
        dec = ml_decomposition(design, y, theta)
        assert dec.score_at(sigma2) == pytest.approx(
            ml_neg2loglik(design, y, theta, sigma2), rel=1e-12
        )


ML_GRADIENT_DESIGNS = [
    ("regular-60", regular_design(60)),
    ("maximal-60", maximal_design(60, 1.0 / 60)),
    ("minimal-15", minimal_design(15, 0.5)),
    ("random-40", random_design(np.random.default_rng(7), 40)),
]


class TestMlGradient:
    # against the fast objective: the dense oracle is ill-conditioned on
    # minimal designs, about 45x off at theta = 0.1 and n = 15
    @pytest.mark.parametrize("theta", [0.1, 0.7, 3.0, 10.0])  # the fig2 box edges and two inside
    @pytest.mark.parametrize("name,design", ML_GRADIENT_DESIGNS, ids=[n for n, _ in ML_GRADIENT_DESIGNS])
    def test_matches_central_difference(self, name, design, theta):
        h = 1e-5 * theta
        for seed in range(3):
            y = sample_path(design, CovarianceParams(3.0, 1.0), (20261018, seed))
            for sigma2 in (0.3, 1.3, 30.0):
                g = ml_gradient_theta(design, y, theta, sigma2)
                fd = (
                    ml_neg2loglik(design, y, theta + h, sigma2)
                    - ml_neg2loglik(design, y, theta - h, sigma2)
                ) / (2.0 * h)
                assert abs(g - fd) <= 1e-7 * (1.0 + abs(g))


class TestDenseOracle:
    def test_hand_value_zero_data(self):
        value = dense_oracle_score(D3, np.zeros(3), THETA_LN2, 1.0)
        assert value == pytest.approx(2.0 * np.log(0.75) - np.log(5.0 / 3.0), rel=1e-12)

    def test_near_duplicate_points_raise_conditioning(self):
        pts = np.array([0.0, 0.5, 0.5 + 1e-13, 1.0])
        d = from_points(pts)
        y = np.array([0.1, -0.2, -0.2, 0.4])
        with pytest.raises(ConditioningError):
            dense_oracle_score(d, y, 3.0, 1.0)
        # the matrix-free path survives the same inputs
        assert np.isfinite(log_score(d, y, 3.0, 1.0))

    def test_size_guard(self):
        from oucv import InvalidParameterError

        d = regular_design(2001)
        with pytest.raises(InvalidParameterError):
            dense_oracle_score(d, np.zeros(2001), 1.0, 1.0)


class TestExtremeGapStability:
    def test_score_finite_on_factorial_design(self):
        # smallest gap 1/12! ~ 2e-9; the cancellation-free kernels keep
        # every term finite across the box
        from oucv import minimal_design

        d = minimal_design(12, 0.5)
        y = sample_path(d, CovarianceParams(theta=3.0, sigma2=1.0), 5)
        for theta in (0.1, 1.0, 10.0):
            for sigma2 in (0.3, 30.0):
                assert np.isfinite(log_score(d, y, theta, sigma2))
                assert np.isfinite(ml_neg2loglik(d, y, theta, sigma2))
                assert np.isfinite(score_gradient_theta(d, y, theta, sigma2))
