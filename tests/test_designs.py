"""Design construction, validation, and the variance functional."""

import math

import numpy as np
import pytest

from oucv import (
    FactorialOverflowError,
    InvalidDesignError,
    InvalidParameterError,
    from_points,
    gap_profile,
    maximal_design,
    minimal_design,
    minimal_design_gap_ratios,
    regular_design,
    tau_squared,
    tau_squared_from_gap_ratios,
)
from conftest import random_design


class TestRegularDesign:
    def test_n3_points(self):
        d = regular_design(3)
        assert np.array_equal(d.points, [0.0, 0.5, 1.0])

    def test_n12_equal_gaps(self):
        d = regular_design(12)
        assert np.allclose(d.gaps, 1.0 / 11.0, rtol=2e-15, atol=0.0)

    def test_below_minimum_size(self):
        with pytest.raises(InvalidParameterError):
            regular_design(2)


class TestMaximalDesign:
    def test_n6_hand_points(self):
        d = maximal_design(6, 1.0 / 6.0)
        expected = np.array([0.0, 5.0, 6.0, 11.0, 12.0, 18.0]) / 18.0
        assert np.allclose(d.points, expected, rtol=0, atol=1e-15)
        assert d.gaps[-1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_even_n_closing_gap(self):
        d = maximal_design(12, 1.0 / 12.0)
        assert d.gaps[-1] == pytest.approx(2.0 / 12.0, abs=1e-15)

    def test_near_degenerate_gamma_keeps_invariants(self):
        d = maximal_design(4, 0.999999)
        assert np.all(d.gaps > 0.0)
        assert np.all(np.diff(d.points) > 0.0)
        assert d.gaps.sum() == pytest.approx(1.0, abs=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(InvalidParameterError):
            maximal_design(10, 0.0)
        with pytest.raises(InvalidParameterError):
            maximal_design(10, 1.0)
        with pytest.raises(InvalidParameterError):
            maximal_design(3, 0.5)


class TestMinimalDesign:
    def test_n12_matches_direct_summation(self):
        d = minimal_design(12, 0.5)
        # floor(sqrt(12)) = 3: two flat gaps, then factorial gaps 1/4! .. 1/12!
        r = sum(1.0 / math.factorial(i) for i in range(4, 13))
        assert d.gaps[0] == pytest.approx((1.0 - r) / 2.0, rel=1e-15)
        assert d.gaps[1] == pytest.approx((1.0 - r) / 2.0, rel=1e-15)
        for k, i in enumerate(range(4, 13)):
            assert d.gaps[2 + k] == pytest.approx(1.0 / math.factorial(i), rel=1e-12)
        assert abs(d.gaps.sum() - 1.0) <= 1e-15

    def test_nine_point_cluster_near_one(self):
        d = minimal_design(12, 0.5)
        assert int(np.sum(d.points > 0.98)) == 9

    def test_factorial_overflow_guard(self):
        with pytest.raises(FactorialOverflowError):
            minimal_design(200, 0.5)

    def test_large_n_fails_on_underflow(self):
        # gaps below the double grid near 1: the points cannot stay distinct
        with pytest.raises(InvalidDesignError, match="underflow"):
            minimal_design(25, 0.5)

    def test_alpha_floor_guard(self):
        with pytest.raises(InvalidParameterError):
            minimal_design(5, 0.1)  # floor(5^0.1) = 1


class TestFromPoints:
    def test_valid_three_points(self):
        d = from_points([0.0, 0.3, 1.0])
        assert np.allclose(d.gaps, [0.3, 0.7])

    def test_duplicate_reports_index(self):
        with pytest.raises(InvalidDesignError, match="index 3"):
            from_points([0.0, 0.5, 0.5, 1.0])

    def test_endpoint_errors(self):
        with pytest.raises(InvalidDesignError, match="first point"):
            from_points([0.1, 0.5, 1.0])
        with pytest.raises(InvalidDesignError, match="last point"):
            from_points([0.0, 0.5, 0.9])

    def test_unsorted_reports_index(self):
        with pytest.raises(InvalidDesignError, match="unsorted"):
            from_points([0.0, 0.6, 0.4, 1.0])

    def test_gaps_bitwise_consistent(self, rng):
        d = random_design(rng, 50)
        assert np.array_equal(d.gaps, np.diff(d.points))

    def test_arrays_read_only(self):
        d = regular_design(5)
        with pytest.raises(ValueError):
            d.points[0] = 0.5


class TestTauSquared:
    @pytest.mark.parametrize("n", [5, 12, 200, 10**4])
    def test_regular_closed_form(self, n):
        closed = 3.0 * (n - 3) / n
        assert tau_squared(regular_design(n)) == pytest.approx(closed, rel=1e-14)

    def test_regular_limit_three(self):
        assert tau_squared(regular_design(10**5)) == pytest.approx(3.0, abs=1e-4)

    def test_maximal_limit_four(self):
        assert tau_squared(maximal_design(10**5, 1e-5)) == pytest.approx(4.0, abs=0.05)

    def test_minimal_limit_two_via_log_ratios(self):
        ratios = minimal_design_gap_ratios(10**5, 0.5)
        assert tau_squared_from_gap_ratios(ratios) == pytest.approx(2.0, abs=0.05)

    def test_maximal_matches_proof_closed_form(self):
        n, gamma = 1000, 1e-3
        closed = 4.0 * gamma**2 - 4.0 * gamma + 4.0
        assert tau_squared(maximal_design(n, gamma)) == pytest.approx(closed, abs=0.05)

    def test_minimum_size(self):
        with pytest.raises(InvalidDesignError):
            tau_squared(from_points([0.0, 0.3, 0.6, 1.0]))

    def test_reversal_invariance_up_to_window_reindexing(self, rng):
        # reversing the gaps shifts the cross-term window by one index,
        # leaving exactly the (4/n)(c_2 - c_{n-1}) boundary term; the
        # functional is invariant up to that O(1/n) re-indexing residue
        for _ in range(20):
            n = int(rng.integers(6, 60))
            d = random_design(rng, n)
            g = d.gaps
            u = g[1:] / (g[:-1] + g[1:])
            c = u * (1.0 - u)
            boundary = 4.0 / n * (c[0] - c[-1])
            diff = tau_squared(d.reversed()) - tau_squared(d)
            assert diff == pytest.approx(boundary, rel=1e-9, abs=1e-12)
            assert abs(diff) <= 1.0 / n

    def test_ratio_route_matches_gap_route(self, rng):
        for _ in range(10):
            d = random_design(rng, int(rng.integers(5, 40)))
            ratios = d.gaps[1:] / d.gaps[:-1]
            assert tau_squared_from_gap_ratios(ratios) == pytest.approx(
                tau_squared(d), rel=1e-12
            )

    def test_dirichlet_designs_within_asymptotic_slack(self):
        # finite-n slack around the [2, 4] bounds
        rng = np.random.default_rng(987654321)
        n = 10**5
        values = []
        for _ in range(1000):
            gaps = rng.dirichlet(np.ones(n - 1))
            u = gaps[1:] / (gaps[:-1] + gaps[1:])
            q = u[1:] + (1.0 - u[:-1])
            cross = u[1:] * (1.0 - u[1:])
            values.append(2.0 / n * float(np.sum(q * q + 2.0 * cross)))
        values = np.asarray(values)
        assert values.min() >= 1.9 and values.max() <= 4.1


class TestGapProfile:
    def test_invariant_ranges(self, rng):
        for _ in range(20):
            prof = gap_profile(random_design(rng, int(rng.integers(5, 80))))
            assert np.all(prof.q > 0.0) and np.all(prof.q < 2.0)
            assert np.all(prof.cross > 0.0) and np.all(prof.cross <= 0.25)

    def test_regular_profile_values(self):
        prof = gap_profile(regular_design(10))
        assert np.allclose(prof.q, 1.0)
        assert np.allclose(prof.cross, 0.25)


class TestGeneratedDesignInvariants:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: regular_design(47),
            lambda: maximal_design(47, 1.0 / 47.0),
            lambda: minimal_design(12, 0.5),
            lambda: maximal_design(6, 0.999),
        ],
    )
    def test_monotone_pinned_and_normalized(self, factory):
        d = factory()
        assert d.points[0] == 0.0 and d.points[-1] == 1.0
        assert np.all(np.diff(d.points) > 0.0)
        assert abs(float(d.gaps.sum()) - 1.0) <= 1e-12
