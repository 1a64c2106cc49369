"""Profile optimization, the three estimation cases, and the CLT statistic."""

import numpy as np
import pytest

from oucv import (
    CovarianceParams,
    NumericalFailureError,
    ParameterBox,
    ScoreDecomposition,
    estimate_cv_fixed_sigma,
    estimate_cv_fixed_theta,
    estimate_cv_joint,
    estimate_ml_joint,
    log_score,
    maximal_design,
    minimal_design,
    ml_decomposition,
    profile_sigma2,
    regular_design,
    sample_path,
    score_decomposition,
    score_gradient_theta,
    standardized_statistic,
)
from oucv.estimation import _minimize_theta, estimate_batch
from conftest import random_instance

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
PARAMS0 = CovarianceParams(theta=3.0, sigma2=1.0)


class TestProfileSigma2:
    def test_interior_stationary_point(self):
        d = ScoreDecomposition(L=0.0, Q=5.0 * 11, n=11)
        assert profile_sigma2(d, BOX) == 5.0

    def test_upper_clamp(self):
        d = ScoreDecomposition(L=0.0, Q=100.0 * 11, n=11)
        assert profile_sigma2(d, BOX) == 30.0

    def test_beats_random_sigma_values(self, rng):
        for _ in range(50):
            design, y, theta, _ = random_instance(rng)
            dec = score_decomposition(design, y, theta)
            best = dec.score_at(profile_sigma2(dec, BOX))
            for _ in range(20):
                s2 = float(rng.uniform(BOX.b, BOX.B))
                assert best <= log_score(design, y, theta, s2) + 1e-9


class TestJointEstimation:
    def test_percentile_window_around_true_product(self):
        d = regular_design(200)
        hits = 0
        for r in range(1, 201):
            y = sample_path(d, PARAMS0, (2024, r))
            res = estimate_cv_joint(d, y, BOX)
            hits += abs(res.product - 3.0) < 0.75
        assert hits / 200 >= 0.95

    def test_never_worse_than_profile_grid(self, rng):
        for _ in range(10):
            design, y, _, _ = random_instance(rng, n_lo=10, n_hi=60)
            res = estimate_cv_joint(design, y, BOX)
            for theta in np.geomspace(BOX.a, BOX.A, 64):
                dec = score_decomposition(design, y, float(theta))
                assert res.objective_value <= dec.score_at(profile_sigma2(dec, BOX)) + 1e-9

    def test_collapsed_box_returns_the_point(self, rng):
        design, y, _, _ = random_instance(rng)
        res = estimate_cv_joint(design, y, ParameterBox(2.0, 2.0, 1.5, 1.5))
        assert res.theta_hat == 2.0
        assert res.sigma2_hat == 1.5
        assert res.objective_value == pytest.approx(log_score(design, y, 2.0, 1.5), rel=1e-12)

    def test_nonfinite_objective_reports_theta(self):
        d = regular_design(10)
        y = np.full(10, 1e200)  # quadratic part overflows on the grid
        with pytest.raises(NumericalFailureError) as exc:
            estimate_cv_joint(d, y, BOX)
        assert exc.value.theta is not None

    def test_full_box_minimum_on_dense_grid(self, rng):
        # profile optimality against a 32x32 grid of the whole box
        for _ in range(5):
            design, y, _, _ = random_instance(rng, n_lo=8, n_hi=40)
            res = estimate_cv_joint(design, y, BOX)
            thetas = np.geomspace(BOX.a, BOX.A, 32)
            sigmas = np.geomspace(BOX.b, BOX.B, 32)
            values = [
                log_score(design, y, float(t), float(s)) for t in thetas for s in sigmas
            ]
            assert res.objective_value <= min(values) + 1e-9

    def test_iteration_budget(self, rng):
        for _ in range(10):
            design, y, _, _ = random_instance(rng)
            res = estimate_cv_joint(design, y, BOX)
            assert res.iterations <= 200


def _alone(objective):
    """The lone-row objective that _minimize_theta steps: row r's value
    at one theta, through ``objective`` at a (1, 1) theta array."""
    return lambda r, failed: lambda theta: float(objective(np.array([r]), np.array([[theta]]), failed)[0, 0])


class TestGridMinima:
    """``grid_minima`` counts the local minima of a row's 64 grid values."""

    @staticmethod
    def _search(f, lo=0.1, hi=10.0, rows=2):
        def objective(idx, thetas, failed):
            thetas = np.broadcast_to(np.asarray(thetas, dtype=float), (len(idx), np.shape(thetas)[-1]))
            return f(np.log(thetas))

        theta, _, _, _, minima, failed = _minimize_theta(objective, _alone(objective), lo, hi, rows)
        assert not failed
        return theta, minima

    def test_two_wells_count_two(self):
        # wells at theta = 0.5 and 5, the one at 5 slightly deeper
        theta, minima = self._search(lambda x: (x - np.log(0.5)) ** 2 * (x - np.log(5.0)) ** 2 - 0.01 * x)
        assert minima.tolist() == [2, 2]
        assert theta == pytest.approx(5.0, rel=0.05)

    def test_single_minimum_counts_one(self):
        theta, minima = self._search(lambda x: (x - np.log(2.0)) ** 2)
        assert minima.tolist() == [1, 1]
        assert theta == pytest.approx(2.0, rel=1e-6)

    def test_monotone_and_collapsed_count_one(self):
        _, minima = self._search(lambda x: -x)  # minimum on the upper grid edge
        assert minima.tolist() == [1, 1]
        # a collapsed range is one evaluation, not a search
        d = regular_design(12)
        Y = np.stack([sample_path(d, PARAMS0, (32, r)) for r in range(2)])
        results = estimate_batch("cv-fixed-theta", d, Y, BOX, 2.0)
        assert [res.theta_hat for res in results] == [2.0, 2.0]
        assert [(res.grid_minima, res.iterations, res.evaluations) for res in results] == [(1, 0, 1)] * 2

    def test_estimates_carry_the_count(self):
        d = regular_design(40)
        y = sample_path(d, PARAMS0, 31)
        assert estimate_cv_joint(d, y, BOX).grid_minima >= 1
        assert estimate_cv_fixed_theta(d, y, 1.5, BOX.sigma2_range).grid_minima == 1


class TestBestPoint:
    """The search returns the least value it evaluated, ties to the smaller theta."""

    @pytest.mark.parametrize("power", [1, 2], ids=["vee", "square"])
    @pytest.mark.parametrize("step", [0.0, 1e-3, 1e-1], ids=["exact", "rounded", "coarse"])
    def test_least_value_seen_with_ties_and_nans(self, step, power):
        # values rounded to ``step`` tie across whole stretches of theta,
        # and one in seven golden-section points is NaN, which never wins;
        # each row's answer is checked against every point it evaluated,
        # the final bracket's midpoint included
        seen = {}

        def objective(idx, thetas, failed):
            thetas = np.broadcast_to(np.asarray(thetas, dtype=float), (len(idx), np.shape(thetas)[-1]))
            values = np.abs(np.log(thetas) - np.log(1.0 + idx[:, None])) ** power
            if step:
                values = np.round(values / step) * step
            if np.ndim(thetas) == 2 and thetas.shape[1] == 1:  # a probe or the midpoint, not the grid
                values = np.where(np.floor(thetas * 1e7) % 7 == 0, np.nan, values)
            for r, t, v in zip(np.repeat(idx, thetas.shape[1]), thetas.ravel(), values.ravel()):
                seen.setdefault(int(r), []).append((v, t))
            return values

        theta, value, _, _, _, failed = _minimize_theta(objective, _alone(objective), 0.1, 10.0, 6)
        assert not failed
        for r in range(6):
            want_value, want_theta = min((v, t) for v, t in seen[r] if not np.isnan(v))
            assert (value[r], theta[r]) == (want_value, want_theta)


class TestFirstOrderConditions:
    def test_interior_optimum_is_stationary(self, rng):
        checked = 0
        for _ in range(30):
            design, y, _, _ = random_instance(rng, n_lo=20, n_hi=100)
            res = estimate_cv_joint(design, y, BOX)
            if res.boundary_flags:
                continue
            n = design.n
            assert abs(res.gradient_at_opt) <= 1e-6 * n
            dec = score_decomposition(design, y, res.theta_hat)
            dsigma = n / res.sigma2_hat - dec.Q / res.sigma2_hat**2
            assert abs(dsigma) <= 1e-6 * n
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("design", [regular_design(60), maximal_design(60, 1.0 / 60), minimal_design(15, 0.5)],
                             ids=["regular", "maximal", "minimal"])
    def test_ml_interior_optimum_is_stationary(self, design):
        checked = 0
        for r in range(10):
            y = sample_path(design, PARAMS0, (99, r))
            res = estimate_ml_joint(design, y, BOX)
            if res.boundary_flags:
                continue
            n = design.n
            assert abs(res.gradient_at_opt) <= 1e-6 * n
            dec = ml_decomposition(design, y, res.theta_hat)
            assert abs(n / res.sigma2_hat - dec.Q / res.sigma2_hat**2) <= 1e-6 * n
            checked += 1
        assert checked >= 3

    def test_fixed_sigma_interior_gradient_vanishes(self):
        d = regular_design(200)
        checked = 0
        for r in range(1, 21):
            y = sample_path(d, PARAMS0, (11, r))
            res = estimate_cv_fixed_sigma(d, y, 1.0, (0.1, 10.0))
            if res.boundary_flags:
                continue
            psi = score_gradient_theta(d, y, res.theta_hat, 1.0)
            assert abs(psi) <= 1e-6 * d.n
            checked += 1
        assert checked >= 10


class TestFixedSigma:
    def test_consistency_at_true_sigma(self):
        d = regular_design(800)
        errs = [
            abs(estimate_cv_fixed_sigma(d, sample_path(d, PARAMS0, (31, r)), 1.0, (0.1, 10.0)).theta_hat - 3.0)
            for r in range(1, 61)
        ]
        assert np.median(errs) < 0.4

    def test_microergodic_rescaling(self):
        # halving the working variance doubles the target theta
        d = regular_design(800)
        errs = [
            abs(estimate_cv_fixed_sigma(d, sample_path(d, PARAMS0, (37, r)), 0.5, (0.1, 10.0)).theta_hat - 6.0)
            for r in range(1, 61)
        ]
        assert np.median(errs) < 0.8

    def test_scale_equivariance(self, rng):
        design, y, _, _ = random_instance(rng, n_lo=20, n_hi=60)
        c = 1.7
        a = estimate_cv_fixed_sigma(design, c * y, 2.0, (0.1, 10.0))
        b = estimate_cv_fixed_sigma(design, y, 2.0 / c**2, (0.1, 10.0))
        assert a.theta_hat == pytest.approx(b.theta_hat, rel=1e-6)


class TestFixedTheta:
    def test_consistency_at_true_theta(self):
        d = regular_design(800)
        errs = [
            abs(estimate_cv_fixed_theta(d, sample_path(d, PARAMS0, (41, r)), 3.0, (0.3, 30.0)).sigma2_hat - 1.0)
            for r in range(1, 61)
        ]
        assert np.median(errs) < 0.15

    def test_lower_clamp_sets_flag(self):
        d = regular_design(20)
        y = 1e-8 * sample_path(d, PARAMS0, 5)  # profile value collapses below b
        res = estimate_cv_fixed_theta(d, y, 3.0, (0.3, 30.0))
        assert res.sigma2_hat == 0.3
        assert "sigma2_lower" in res.boundary_flags

    def test_matches_joint_with_collapsed_theta_box(self, rng):
        design, y, _, _ = random_instance(rng)
        a = estimate_cv_fixed_theta(design, y, 2.5, (0.3, 30.0))
        b = estimate_cv_joint(design, y, ParameterBox(2.5, 2.5, 0.3, 30.0))
        assert a.sigma2_hat == pytest.approx(b.sigma2_hat, rel=1e-12)
        assert a.objective_value == pytest.approx(b.objective_value, rel=1e-12)


class TestCollapsedRanges:
    """A fixed parameter is a box range of zero width."""

    def test_fixed_estimators_are_joint_searches_on_collapsed_boxes(self, rng):
        for _ in range(5):
            design, y, _, _ = random_instance(rng)
            assert repr(estimate_cv_fixed_theta(design, y, 2.5, (0.3, 30.0))) == repr(
                estimate_cv_joint(design, y, ParameterBox(2.5, 2.5, 0.3, 30.0))
            )
            assert repr(estimate_cv_fixed_sigma(design, y, 2.0, (0.1, 10.0))) == repr(
                estimate_cv_joint(design, y, ParameterBox(0.1, 10.0, 2.0, 2.0))
            )

    def test_fixed_coordinates_carry_no_flags(self):
        d = regular_design(20)
        y = sample_path(d, PARAMS0, 5)
        assert estimate_cv_joint(d, y, ParameterBox(2.0, 2.0, 0.3, 30.0)).boundary_flags == ()
        assert estimate_ml_joint(d, y, ParameterBox(3.0, 3.0, 2.0, 2.0)).boundary_flags == ()
        # the free coordinate is still flagged on its edge
        res = estimate_cv_fixed_sigma(d, y, 1.0, (0.1, 0.2))
        assert res.boundary_flags == ("theta_upper",)

    def test_gradient_is_in_the_free_coordinate(self):
        d = regular_design(30)
        y = sample_path(d, PARAMS0, 6)
        for box in (ParameterBox(2.0, 2.0, 0.3, 30.0), ParameterBox(2.0, 2.0, 5.0, 5.0)):
            res = estimate_cv_joint(d, y, box)
            Q = score_decomposition(d, y, 2.0).Q
            s2 = res.sigma2_hat
            assert res.gradient_at_opt == pytest.approx(d.n / s2 - Q / s2**2, rel=1e-12, abs=1e-9)
        res = estimate_cv_fixed_sigma(d, y, 5.0, (0.1, 10.0))
        assert res.gradient_at_opt == score_gradient_theta(d, y, res.theta_hat, 5.0)


class TestMlJoint:
    def test_variance_near_likelihood_limit(self):
        # light version of the reproduction run; the acceptance suite
        # runs the full 2000-replicate experiment
        d = regular_design(200)
        stats = []
        for r in range(1, 301):
            y = sample_path(d, PARAMS0, (51, r))
            res = estimate_ml_joint(d, y, BOX)
            stats.append(standardized_statistic(res.product, 3.0, 200, 1.0))
        var = float(np.var(stats, ddof=1))
        assert 1.4 <= var <= 2.7

    def test_collapsed_box_returns_the_point(self, rng):
        from oucv import ml_neg2loglik

        design, y, _, _ = random_instance(rng)
        res = estimate_ml_joint(design, y, ParameterBox(3.0, 3.0, 2.0, 2.0))
        assert res.theta_hat == 3.0 and res.sigma2_hat == 2.0
        assert res.objective_value == pytest.approx(
            ml_neg2loglik(design, y, 3.0, 2.0), rel=1e-12
        )


class TestStandardizedStatistic:
    def test_zero_at_truth(self):
        assert standardized_statistic(3.0, 3.0, 200, 1.72) == 0.0

    def test_unit_displacement(self):
        tau = 1.72
        product = 3.0 * (1.0 + tau / np.sqrt(200))
        assert standardized_statistic(product, 3.0, 200, tau) == pytest.approx(1.0, rel=1e-12)

    def test_parameter_domains(self):
        from oucv import InvalidParameterError

        with pytest.raises(InvalidParameterError):
            standardized_statistic(3.0, 3.0, 200, 0.0)
        with pytest.raises(InvalidParameterError):
            standardized_statistic(3.0, 3.0, 0, 1.0)
