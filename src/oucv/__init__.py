"""Cross-validation estimation of the microergodic parameter of a 1-D
exponential-covariance Gaussian process under infill sampling.

The package provides observation designs with their estimation-variance
functional, exact process simulation, O(n) matrix-free scoring with
dense oracles, box-constrained estimation, a trend (unknown-mean)
extension, and a reproducible Monte Carlo harness.
"""

# set before the submodules load: montecarlo reads it at import
__version__ = "0.1.0"

from .designs import (
    Design,
    GapProfile,
    from_points,
    gap_profile,
    maximal_design,
    minimal_design,
    minimal_design_gap_ratios,
    regular_design,
    tau_squared,
    tau_squared_from_gap_ratios,
)
from .errors import (
    ConditioningError,
    FactorialOverflowError,
    InvalidDesignError,
    InvalidParameterError,
    LinearDependenceError,
    NumericalFailureError,
    OucvError,
)
from .estimation import (
    ESTIMATORS,
    EstimateResult,
    ParameterBox,
    estimate_cv_fixed_sigma,
    estimate_cv_fixed_theta,
    estimate_cv_joint,
    estimate_cv_reg,
    estimate_ml_joint,
    profile_sigma2,
    standardized_statistic,
)
from .montecarlo import (
    PRESET_NAMES,
    EstimatorPanel,
    ExperimentConfig,
    ExperimentReport,
    ReplicateRecord,
    build_design,
    export,
    make_preset,
    read_records,
    run_experiment,
    summarize,
)
from .regression import (
    RegressionScore,
    gls_beta,
    loo_beta,
    loo_trend_prediction,
    reg_log_score,
    reg_score_decomposition,
)
from .scoring import (
    LooSummary,
    ScoreDecomposition,
    TridiagonalPrecision,
    dense_oracle_ml,
    dense_oracle_score,
    dense_precision,
    log_score,
    loo_predictions,
    ml_decomposition,
    ml_neg2loglik,
    precision_matrix,
    score_decomposition,
    score_gradient_theta,
)
from .simulate import (
    CovarianceParams,
    TrendSpec,
    covariance_matrix,
    polynomial_basis,
    sample_path,
    sample_with_trend,
)
