"""Trimmed-moment estimation of p-th marginal moments with exact ratio checkers."""

from .core import (
    RatioParams,
    SampleMatrix,
    TrimSpec,
    adjusted_trim_levels,
    cut_rank,
    empirical_p_mean,
    nonincreasing_rearrangement,
    project_abs,
    stated_theta_gate,
    theta_from_epsilon,
    trim_threshold,
    trimmed_p_mean,
    truncated_power_mean,
)
from .distributions import (
    DistributionSpec,
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    MarginalCDF,
    MomentDoesNotExistError,
    MomentOracle,
    draw_sample,
    marginal_cdf,
    sphere_directions,
)
from .oracle import (
    BoundCheck,
    check_tail_moment_bounds,
    error_functional,
    qnorm_error_coef,
    raw_moment,
    tail_integral_moment,
    truncated_upper_moment,
    upper_quantile,
)
from .ratio import (
    interval_excess_sup,
    rademacher_interval_complexity,
    ratio_properties_report,
)
from .checks import (
    CheckOutcome,
    Verdict,
    check_empirical_integral_sandwich,
    check_moment_sandwich,
    check_trim_threshold_sandwich,
    check_trimmed_sum_brackets,
)

__version__ = "0.1.0"
