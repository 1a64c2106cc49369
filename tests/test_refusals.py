"""Malformed input at the library boundary fails loudly, naming what is wrong."""

import numpy as np
import pytest

from oucv import (
    CovarianceParams,
    ExperimentConfig,
    InvalidDesignError,
    InvalidParameterError,
    NumericalFailureError,
    ParameterBox,
    TrendSpec,
    estimate_cv_reg,
    from_points,
    gap_profile,
    log_score,
    loo_beta,
    minimal_design,
    polynomial_basis,
    regular_design,
    sample_path,
    score_decomposition,
    tau_squared_from_gap_ratios,
)
from oucv.estimation import estimate_batch

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
D8 = regular_design(8)
Y8 = sample_path(D8, CovarianceParams(theta=3.0, sigma2=1.0), 40)
LINEAR8 = np.column_stack([np.ones(8), D8.points])


def _config(**changes):
    fields = dict(design={"kind": "regular", "n": 12}, theta0=3.0, sigma0_sq=1.0, replicates=4, box=BOX,
                  estimators=("cv-joint",), seed=1)
    return ExperimentConfig(**dict(fields, **changes))


REFUSALS = {
    "points-2d": (lambda: from_points(np.zeros((2, 3))), InvalidDesignError, "one-dimensional"),
    "points-two": (lambda: from_points([0.0, 1.0]), InvalidDesignError, "at least 3 points, got 2"),
    "points-nan": (lambda: from_points([0.0, np.nan, 1.0]), InvalidDesignError, "nonfinite point at index 2"),
    "box-theta-inverted": (lambda: ParameterBox(5.0, 1.0, 0.3, 30.0), InvalidParameterError, "theta bounds"),
    "box-sigma2-inverted": (lambda: ParameterBox(0.1, 10.0, 30.0, 0.3), InvalidParameterError, "sigma2 bounds"),
    "config-no-replicates": (lambda: _config(replicates=0), InvalidParameterError, "at least one replicate"),
    "config-no-estimators": (lambda: _config(estimators=()), InvalidParameterError, "estimator list is empty"),
    "trend-no-basis": (lambda: TrendSpec(beta=[], basis=()), InvalidParameterError, "at least one function"),
    "trend-beta-length": (lambda: TrendSpec(beta=[1.0, 2.0, 3.0], basis=polynomial_basis(1)),
                          InvalidParameterError, "3 entries for 2 basis functions"),
    "basis-negative-degree": (lambda: polynomial_basis(-1), InvalidParameterError, "nonnegative"),
    "score-theta-zero": (lambda: log_score(D8, Y8, 0.0, 1.0), InvalidParameterError, "theta"),
    "score-sigma2-negative": (lambda: log_score(D8, Y8, 1.0, -1.0), InvalidParameterError, "sigma2"),
    "score-data-length": (lambda: score_decomposition(D8, Y8[:-1], 1.0), InvalidParameterError,
                          "does not match design size 8"),
    "reg-F-rows": (lambda: estimate_cv_reg(D8, Y8, LINEAR8[:7], BOX), InvalidParameterError, "has 7 rows"),
    "reg-F-columns": (lambda: estimate_cv_reg(D8, Y8, np.eye(8), BOX), InvalidParameterError, "fewer columns"),
    "loo-index": (lambda: loo_beta(D8, Y8, 1.0, LINEAR8, 8), InvalidParameterError, "index 8 out of range"),
    "ratios-negative": (lambda: tau_squared_from_gap_ratios([1.0, -1.0]), InvalidParameterError, "nonnegative"),
    "ratios-one": (lambda: tau_squared_from_gap_ratios([1.0]), InvalidParameterError, "at least two"),
    "minimal-n4": (lambda: minimal_design(4, 0.5), InvalidParameterError, "n >= 5, got 4"),
    "profile-n4": (lambda: gap_profile(regular_design(4)), InvalidDesignError, "n >= 5, got 4"),
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_batch_of_nonfinite_rows_fails_every_row_without_a_search():
    Y = np.full((3, 8), np.nan)
    for result in estimate_batch("cv-joint", D8, Y, BOX):
        assert type(result) is NumericalFailureError and "nonfinite" in str(result)
