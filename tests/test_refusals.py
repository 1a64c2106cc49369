"""Malformed input at the library boundary fails loudly, naming what is wrong."""

import dataclasses
import importlib
import inspect
import math
import pkgutil
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oucv
from oucv import (
    CovarianceParams,
    ExperimentConfig,
    InvalidDesignError,
    InvalidParameterError,
    NumericalFailureError,
    OucvError,
    ParameterBox,
    TrendSpec,
    build_design,
    covariance_matrix,
    dense_oracle_ml,
    dense_oracle_score,
    dense_precision,
    estimate_cv_fixed_sigma,
    estimate_cv_fixed_theta,
    estimate_cv_reg,
    from_points,
    gap_profile,
    gls_beta,
    log_score,
    loo_beta,
    loo_predictions,
    loo_trend_prediction,
    maximal_design,
    minimal_design,
    minimal_design_gap_ratios,
    ml_decomposition,
    ml_neg2loglik,
    polynomial_basis,
    precision_matrix,
    reg_log_score,
    reg_score_decomposition,
    regular_design,
    sample_path,
    score_decomposition,
    score_gradient_theta,
    tau_squared_from_gap_ratios,
)
from oucv.errors import check_finite, positive_finite
from oucv.estimation import estimate_batch, standardized_statistic
from oucv.scoring import ml_gradient_theta

BOX = ParameterBox(0.1, 10.0, 0.3, 30.0)
D8 = regular_design(8)
Y8 = sample_path(D8, CovarianceParams(theta=3.0, sigma2=1.0), 40)
LINEAR8 = np.column_stack([np.ones(8), D8.points])


def _config(**changes):
    fields = dict(design={"kind": "regular", "n": 12}, theta0=3.0, sigma0_sq=1.0, replicates=4, box=BOX,
                  estimators=("cv-joint",), seed=1)
    return ExperimentConfig(**dict(fields, **changes))


# Every public entry point that takes theta, sigma2, or a generating or
# fixed value of them, by (callable, parameter): the call with the value in
# that place and valid arguments elsewhere.
POSITIVE_ENTRIES = {
    (CovarianceParams, "theta"): lambda v: CovarianceParams(v, 1.0),
    (CovarianceParams, "sigma2"): lambda v: CovarianceParams(1.0, v),
    (covariance_matrix, "theta"): lambda v: covariance_matrix(D8, v),
    (precision_matrix, "theta"): lambda v: precision_matrix(D8, v),
    (loo_predictions, "theta"): lambda v: loo_predictions(D8, Y8, v),
    (log_score, "theta"): lambda v: log_score(D8, Y8, v, 1.0),
    (log_score, "sigma2"): lambda v: log_score(D8, Y8, 1.0, v),
    (score_decomposition, "theta"): lambda v: score_decomposition(D8, Y8, v),
    (score_gradient_theta, "theta"): lambda v: score_gradient_theta(D8, Y8, v, 1.0),
    (score_gradient_theta, "sigma2"): lambda v: score_gradient_theta(D8, Y8, 1.0, v),
    (ml_neg2loglik, "theta"): lambda v: ml_neg2loglik(D8, Y8, v, 1.0),
    (ml_neg2loglik, "sigma2"): lambda v: ml_neg2loglik(D8, Y8, 1.0, v),
    (ml_decomposition, "theta"): lambda v: ml_decomposition(D8, Y8, v),
    (ml_gradient_theta, "theta"): lambda v: ml_gradient_theta(D8, Y8, v, 1.0),
    (ml_gradient_theta, "sigma2"): lambda v: ml_gradient_theta(D8, Y8, 1.0, v),
    (dense_precision, "theta"): lambda v: dense_precision(D8, v),
    (dense_oracle_score, "theta"): lambda v: dense_oracle_score(D8, Y8, v, 1.0),
    (dense_oracle_score, "sigma2"): lambda v: dense_oracle_score(D8, Y8, 1.0, v),
    (dense_oracle_ml, "theta"): lambda v: dense_oracle_ml(D8, Y8, v, 1.0),
    (dense_oracle_ml, "sigma2"): lambda v: dense_oracle_ml(D8, Y8, 1.0, v),
    (reg_score_decomposition, "theta"): lambda v: reg_score_decomposition(D8, Y8, v, LINEAR8),
    (reg_log_score, "theta"): lambda v: reg_log_score(D8, Y8, v, 1.0, LINEAR8),
    (reg_log_score, "sigma2"): lambda v: reg_log_score(D8, Y8, 1.0, v, LINEAR8),
    (gls_beta, "theta"): lambda v: gls_beta(D8, Y8, v, LINEAR8),
    (loo_beta, "theta"): lambda v: loo_beta(D8, Y8, v, LINEAR8, 3),
    (loo_trend_prediction, "theta"): lambda v: loo_trend_prediction(D8, Y8, v, LINEAR8, 3),
    (estimate_cv_fixed_sigma, "sigma1_sq"): lambda v: estimate_cv_fixed_sigma(D8, Y8, v, BOX.theta_range),
    (estimate_cv_fixed_theta, "theta2"): lambda v: estimate_cv_fixed_theta(D8, Y8, v, BOX.sigma2_range),
    (estimate_batch, "value"): lambda v: estimate_batch("cv-fixed-theta", D8, Y8[None, :], BOX, v),
    (ExperimentConfig, "theta0"): lambda v: _config(theta0=v),
    # at theta0 = 1 the generating product is sigma0_sq itself, which must be positive and finite too
    (ExperimentConfig, "sigma0_sq"): lambda v: _config(theta0=1.0, sigma0_sq=v),
    (ExperimentConfig, "sigma1_sq"): lambda v: _config(estimators=("cv-fixed-sigma",), sigma1_sq=v),
    (ExperimentConfig, "theta2"): lambda v: _config(estimators=("cv-fixed-theta",), theta2=v),
}

# values refused as theta or sigma2 for not being a real number, or for being a bool
NOT_REAL = {"text": "2", "none": None, "bool": True, "numpy-bool": np.True_}
NOT_REAL_AT = [(CovarianceParams, "theta"), (CovarianceParams, "sigma2"), (log_score, "theta"),
               (log_score, "sigma2"), (score_decomposition, "theta"), (ml_neg2loglik, "theta"),
               (ml_neg2loglik, "sigma2"), (precision_matrix, "theta"), (covariance_matrix, "theta"),
               (reg_score_decomposition, "theta")]

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
    "config-box-tuple": (lambda: _config(box=(0.1, 10, 0.3, 30)), InvalidParameterError,
                         "'box' must be a ParameterBox"),
    "config-trend-text": (lambda: _config(trend="polynomial:1"), InvalidParameterError,
                          "'trend' must be a TrendSpec or None"),
    "design-spec-text": (lambda: build_design("regular:12"), InvalidParameterError,
                         "design spec must be a dict, got 'regular:12'"),
    "design-spec-spare-field": (lambda: build_design({"kind": "regular", "n": 12, "gamma": 0.3}),
                                InvalidParameterError, "^regular design takes no 'gamma'$"),
    "box-bound-past-float-range": (lambda: ParameterBox(0.1, 10**400, 0.3, 30), InvalidParameterError,
                                   "^box bound 'A' must be positive and finite, got 1000"),
    "config-estimator-repeated": (lambda: _config(estimators=("cv-joint", "ml-joint", "cv-joint")),
                                  InvalidParameterError, "^estimator 'cv-joint' is listed more than once$"),
    # each generating parameter is positive and finite, their product is not
    "config-product-underflows": (lambda: _config(theta0=1e-200, sigma0_sq=1e-200), InvalidParameterError,
                                  r"^'theta0' \* 'sigma0_sq' must be positive and finite, got 0\.0$"),
    "config-product-overflows": (lambda: _config(theta0=1e200, sigma0_sq=1e200), InvalidParameterError,
                                 r"^'theta0' \* 'sigma0_sq' must be positive and finite, got inf$"),
    "statistic-true-product-zero": (lambda: standardized_statistic(1.0, 0.0, 12, 1.5), InvalidParameterError,
                                    "^true_product must be positive and finite, got 0.0$"),
    # an integer argument is an integral number: no bool, no text, no fraction is truncated
    "regular-n-fraction": (lambda: regular_design(12.5), InvalidParameterError, "^n must be an integer, got 12.5$"),
    "regular-n-text": (lambda: regular_design("12"), InvalidParameterError, "^n must be an integer, got '12'$"),
    "maximal-n-fraction": (lambda: maximal_design(12.5, 0.1), InvalidParameterError,
                           "^n must be an integer, got 12.5$"),
    "minimal-n-fraction": (lambda: minimal_design(12.5, 0.5), InvalidParameterError,
                           "^n must be an integer, got 12.5$"),
    "ratios-n-fraction": (lambda: minimal_design_gap_ratios(12.5, 0.5), InvalidParameterError,
                          "^n must be an integer, got 12.5$"),
    "basis-degree-bool": (lambda: polynomial_basis(True), InvalidParameterError,
                          "^degree must be an integer, got True$"),
    "basis-degree-fraction": (lambda: polynomial_basis(2.5), InvalidParameterError,
                              "^degree must be an integer, got 2.5$"),
    "statistic-n-fraction": (lambda: standardized_statistic(1.0, 1.0, 200.5, 1.5), InvalidParameterError,
                             "^n must be an integer, got 200.5$"),
    **{f"{call.__name__}-{param}-{kind}": (partial(POSITIVE_ENTRIES[call, param], value), InvalidParameterError,
                                           f"^{param} must be positive and finite, got ")
       for call, param in NOT_REAL_AT for kind, value in NOT_REAL.items()},
}


@pytest.mark.parametrize("call, error, match", REFUSALS.values(), ids=REFUSALS.keys())
def test_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_a_batch_of_nonfinite_rows_fails_every_row_without_a_search():
    Y = np.full((3, 8), np.nan)
    for result in estimate_batch("cv-joint", D8, Y, BOX):
        assert type(result) is NumericalFailureError and "nonfinite" in str(result)


# floats with nan, the infinities, zeros, subnormals and negatives, unbounded
# integers, bools, text, None, and numpy scalars of four kinds
VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
)


def _floats(result):
    """The floats in ``result``: itself, or those of its entries, values or
    dataclass fields, all the way down; a failed batch row holds none."""
    if isinstance(result, (float, np.floating, np.ndarray)):
        yield from np.ravel(result).astype(float).tolist()
    elif dataclasses.is_dataclass(result):
        for f in dataclasses.fields(result):
            yield from _floats(getattr(result, f.name))
    elif isinstance(result, (list, tuple, dict)):
        for entry in result.values() if isinstance(result, dict) else result:
            yield from _floats(entry)


@pytest.mark.parametrize("key", POSITIVE_ENTRIES, ids=[f"{call.__name__}-{param}" for call, param in POSITIVE_ENTRIES])
@settings(max_examples=60)
@given(value=VALUES)
@example(value=math.nan)
@example(value=5e-324)
@example(value=sys.float_info.min)
@example(value=sys.float_info.max)
@example(value=10**400)
@example(value=np.float32(1e-45))
@example(value=np.array(2.0))
def test_an_entry_accepts_exactly_the_positive_finite_values(key, value):
    call = POSITIVE_ENTRIES[key]
    if not positive_finite(value):
        with pytest.raises(InvalidParameterError):
            call(value)
        return
    try:
        result = call(value)
    except InvalidParameterError as err:
        pytest.fail(f"{value!r} refused: {err}")
    except OucvError:
        return  # a numerical failure at an extreme value is no refusal of it
    nonfinite = [x for x in _floats(result) if not math.isfinite(x)]
    assert not nonfinite, f"{value!r} gave {nonfinite}"


def _public_callables():
    """Every public function and class of the package and its modules but
    the exceptions and ``check_finite``, whose theta records where a
    computation failed."""
    for info in [None, *pkgutil.iter_modules(oucv.__path__)]:
        module = oucv if info is None else importlib.import_module(f"oucv.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or not getattr(obj, "__module__", "").startswith("oucv"):
                continue
            if not (isinstance(obj, type) and issubclass(obj, BaseException)) and obj is not check_finite:
                yield obj


def test_every_public_entry_taking_theta_or_sigma2_is_in_the_table():
    names = {"theta", "sigma2", "theta0", "sigma0_sq", "theta2", "sigma1_sq"}
    found = {(obj, param) for obj in _public_callables() for param in inspect.signature(obj).parameters
             if param in names}
    assert {(log_score, "sigma2"), (ExperimentConfig, "theta0")} <= found  # the scan sees the package
    missing = sorted(f"{obj.__module__}.{obj.__qualname__}({param})" for obj, param in found - POSITIVE_ENTRIES.keys())
    assert not missing, f"entry points missing from POSITIVE_ENTRIES: {missing}"
