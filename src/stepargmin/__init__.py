"""Argmin sets of piecewise-constant functions, step-function regression,
and compound-Poisson limit experiments."""

from stepargmin.stepfun import (
    GridFunction,
    LowerEnvelope,
    QuadrantSpec,
    StepFunction1D,
    add_scale,
    infimum,
    lower_envelope,
    normalize,
)
from stepargmin.argmin import (
    Box,
    BoxUnion,
    OpenBox,
    OpenBoxUnion,
    argmin_set,
    closed_complement,
    contained_in_open,
    hits,
    largmin,
    orthant_checks,
    sargmin,
)
from stepargmin.cpoisson import (
    CompoundPoissonSpec,
    FunctionalEstimate,
    JumpLaw,
    choose_interval_bounds,
    estimate_capacity,
    estimate_containment,
    inverse_normal_cdf,
    normal_cdf,
    sample_extreme_minimizers,
    simulate_trajectory,
)
from stepargmin.stepfit import (
    Dataset,
    FitResult,
    RegressionModelSpec,
    StepModel,
    derive_limit_spec,
    fit_step,
    optimal_levels,
    rescaled_process,
    sse,
    synthesize,
)

__version__ = "0.1.0"
