"""Entropic optimal transport on countable spaces with statistical inference:
plug-in limit variances, plan-derivative covariances, bootstrap, and Monte
Carlo verification of the limit theorems."""

__version__ = "0.1.0"

from .measures import (
    Design,
    DiscreteMeasure,
    IndexedSpace,
    SignedVector,
    TailFamily,
    empirical_measure,
    entropy_pair,
    geometric_measure,
    integer_grid,
    polynomial_measure,
    shannon_entropy,
    subweibull_measure,
    validate_measure,
)
from .costs import (
    ConditionReport,
    CostModel,
    WeightProfile,
    build_cost,
    check_plan_conditions,
    check_value_conditions,
)
from .sinkhorn import (
    BoundReport,
    GapReport,
    OTSolution,
    SinkhornSolution,
    SolveConfig,
    exact_ot_small,
    mutual_information,
    sinkhorn_divergence,
    solve,
    vanishing_reg_gap,
    verify_bounds,
)
from .sensitivity import (
    DerivativeOperators,
    ONE_SAMPLE_R,
    ONE_SAMPLE_S,
    TWO_SAMPLE,
    build_operators,
    divergence_variance,
    functional_covariance,
    plan_derivative,
    sample_limit,
    sinkhorn_cost_variance,
    value_derivative,
    value_variance,
)
from .resampling import (
    DIVERGENCE_CLT,
    ExperimentConfig,
    MCReport,
    PLAN_FUNCTIONAL_CLT,
    SINKHORN_COST_CLT,
    VALUE_CLT,
    VanishingLambdaReport,
    bootstrap_plan_functional,
    bootstrap_value,
    ks_statistic,
    mc_clt_experiment,
    vanishing_lambda_experiment,
)
from . import errors

__all__ = [name for name in dir() if not name.startswith("_")]
