"""groupfx: estimable group effects for strongly correlated predictors.

Individual coefficients of strongly correlated predictors in a linear model
cannot be estimated accurately, but certain linear combinations of them can.
This package fits OLS, finds the all-positive-correlations sign arrangement
for a correlated group, builds average / variability-weighted / exact-optimal
group effects with exact variances and t tests, runs constrained local
regression on the group's coefficients, and provides closed-form analytics
plus a Monte Carlo harness for the equicorrelated model.
"""

from .exceptions import (
    BudgetTooSmallError,
    ConvergenceError,
    DataFormatError,
    DegenerateCorrelationError,
    DimensionMismatchError,
    GroupFxError,
    GroupTooLargeError,
    InvalidParameterError,
    NegativeDeltaError,
    RadiusTooSmallError,
    SingularDesignError,
    UsageError,
    ZeroVarianceError,
    ZeroWeightError,
)
from .linmod import (
    CorrelationMatrix,
    Dataset,
    OlsFit,
    correlation,
    fit_ols,
    load_csv,
    standardize,
)
from .uniform import (
    TABLE1_R_VALUES,
    UniformInverse,
    UniformSpec,
    average_effect_variance,
    delta_variance,
    effect_variance,
    estimable_delta_bound,
    individual_effect_variance,
    table1,
    uniform_inverse,
)
from .effects import (
    APC_THRESHOLD,
    EffectEstimate,
    SignArrangement,
    WeightVector,
    apc_arrangement,
    check_apc_condition,
    detect_groups,
    estimate_effect,
    optimal_effect,
    silvey_variance,
    t_sf_two_sided,
    variability_weights,
)
from .clr import (
    ClrProblem,
    ClrSolution,
    min_norm_point,
    solve_clr,
    solve_clr_best_offset,
    sphere_candidates,
)
from .sim import (
    PaperSuiteResult,
    SimCaseConfig,
    SimReport,
    Transform,
    generate_design,
    paper_case_config,
    run_case,
    run_paper_suite,
)

__version__ = "0.1.0"

__all__ = [
    "APC_THRESHOLD",
    "BudgetTooSmallError",
    "ClrProblem",
    "ClrSolution",
    "ConvergenceError",
    "CorrelationMatrix",
    "DataFormatError",
    "Dataset",
    "DegenerateCorrelationError",
    "DimensionMismatchError",
    "EffectEstimate",
    "GroupFxError",
    "GroupTooLargeError",
    "InvalidParameterError",
    "NegativeDeltaError",
    "OlsFit",
    "PaperSuiteResult",
    "RadiusTooSmallError",
    "SignArrangement",
    "SimCaseConfig",
    "SimReport",
    "SingularDesignError",
    "TABLE1_R_VALUES",
    "Transform",
    "UniformInverse",
    "UniformSpec",
    "UsageError",
    "WeightVector",
    "ZeroVarianceError",
    "ZeroWeightError",
    "apc_arrangement",
    "average_effect_variance",
    "check_apc_condition",
    "correlation",
    "delta_variance",
    "detect_groups",
    "effect_variance",
    "estimable_delta_bound",
    "estimate_effect",
    "fit_ols",
    "generate_design",
    "individual_effect_variance",
    "load_csv",
    "min_norm_point",
    "optimal_effect",
    "paper_case_config",
    "run_case",
    "run_paper_suite",
    "silvey_variance",
    "solve_clr",
    "solve_clr_best_offset",
    "sphere_candidates",
    "standardize",
    "t_sf_two_sided",
    "table1",
    "uniform_inverse",
    "variability_weights",
]
