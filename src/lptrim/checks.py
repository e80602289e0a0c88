"""Validators for the trimmed-estimator bracket inequalities on concrete samples.

Each validator takes the sample's :class:`RatioReport`, reads the sorted
sample (with core's ascending readers, which do not sort it again), the law
and the ratio parameters from it, checks its own preconditions (the ratio
properties plus the trim-level arithmetic they need) and returns a
three-valued outcome: PASS, FAIL, or NOT_APPLICABLE when a gate does not
hold.  A FAIL on a sample whose gates all pass indicates an
implementation defect, never sampling noise; the inequalities are
deterministic consequences of the gates.

Gates are evaluated in their direct form (theta >= (C + 3/2) delta,
theta > 2 C delta, and a concrete tail-mass check at the deflated quantile).
The packaged sufficient condition theta >= 4 delta max(1 + lam, C + 3/2) is
recorded as a witness but not enforced, since it is strictly stronger than
what the brackets require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import (
    SampleMatrix,
    TrimSpec,
    _ascending_threshold,
    _ascending_trimmed_mean,
    _ascending_truncated_mean,
    _blocked_projections,
    adjusted_trim_levels,
    stated_theta_gate,
    trimmed_p_mean,
    empirical_p_mean,
)
from .distributions import DistributionSpec, _closed_form, draw_sample
from .oracle import (
    error_functional,
    raw_moment,
    tail_integral_moment,
    truncated_upper_moment,
    upper_quantile,
)
from .ratio import RatioReport

__all__ = [
    "Verdict",
    "CheckOutcome",
    "check_trim_threshold_sandwich",
    "check_trimmed_sum_brackets",
    "check_empirical_integral_sandwich",
    "check_moment_sandwich",
    "scan_error_constant_grid",
    "ScanRow",
    "q90_max_errors",
    "ComparisonTrialRow",
]

_REL_TOL_EXACT = 1e-12  # empirical-only comparisons (finite sums both sides)
_REL_TOL_ORACLE = 1e-9  # comparisons with a quadrature side


class Verdict(str, Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    verdict: Verdict
    witnesses: dict = field(default_factory=dict)
    reason: str = ""


def _tol(rel: float, *magnitudes: float) -> float:
    return rel * max(1.0, *(abs(m) for m in magnitudes))


def _gate(theta: float, report: RatioReport) -> str | None:
    """Reason string when the trim-level arithmetic or a ratio property fails."""
    params = report.params
    slack = 2.0 * (params.big_c * params.delta)  # 2*C*delta, finite for every finite C
    if theta <= slack:
        return f"theta={theta} <= 2*C*delta={slack}: deflated level nonpositive"
    if theta < (params.big_c + 1.5) * params.delta:
        return (
            f"theta={theta} < (C + 3/2)*delta={(params.big_c + 1.5) * params.delta}: "
            "threshold tail mass not guaranteed"
        )
    if report.failing:
        return "ratio properties fail: " + ", ".join(report.failing)
    return None


def _bracket_quantiles(cdf, theta, params):
    theta_plus, theta_minus = adjusted_trim_levels(theta, params)
    q_lo = 0.0 if theta_plus >= 1.0 else upper_quantile(cdf, theta_plus)
    q_hi = upper_quantile(cdf, theta_minus)
    return theta_plus, theta_minus, q_lo, q_hi


def check_trim_threshold_sandwich(report: RatioReport, theta: float) -> CheckOutcome:
    """The empirical trim threshold lies strictly between the true quantiles
    at the inflated and deflated levels."""
    name = "trim_threshold_sandwich"
    params, values, cdf = report.params, report.values, report.cdf
    gate = _gate(theta, report)
    if gate is not None:
        return CheckOutcome(name, Verdict.NOT_APPLICABLE, reason=gate)
    theta_plus, theta_minus, q_lo, q_hi = _bracket_quantiles(cdf, theta, params)
    threshold = _ascending_threshold(values, theta)
    ok = q_lo < threshold < q_hi
    witnesses = {
        "quantile_at_inflated_level": q_lo,
        "trim_threshold": threshold,
        "quantile_at_deflated_level": q_hi,
        "theta_plus": theta_plus,
        "theta_minus": theta_minus,
        "stated_theta_gate": float(stated_theta_gate(theta, params)),
    }
    return CheckOutcome(name, Verdict.PASS if ok else Verdict.FAIL, witnesses)


def check_trimmed_sum_brackets(report: RatioReport, trim: TrimSpec) -> CheckOutcome:
    """The trimmed mean sits between the exact empirical tail integrals taken
    up to the bracketing quantiles (with the theta * threshold^p correction
    on the lower side)."""
    name = "trimmed_sum_brackets"
    params, values, cdf = report.params, report.values, report.cdf
    gate = _gate(trim.theta, report)
    if gate is not None:
        return CheckOutcome(name, Verdict.NOT_APPLICABLE, reason=gate)
    _, _, q_lo, q_hi = _bracket_quantiles(cdf, trim.theta, params)
    threshold = _ascending_threshold(values, trim.theta)
    threshold_p = _closed_form(trim.p, lambda: threshold ** trim.p)
    estimate = _ascending_trimmed_mean(values, trim)
    lower = _ascending_truncated_mean(values, trim.p, q_lo) - trim.theta * threshold_p
    upper = _ascending_truncated_mean(values, trim.p, q_hi)
    tol = _tol(_REL_TOL_EXACT, lower, estimate, upper)
    ok = (lower <= estimate + tol) and (estimate <= upper + tol)
    witnesses = {
        "lower": lower,
        "trimmed_mean": estimate,
        "upper": upper,
        "trim_threshold": threshold,
        "stated_theta_gate": float(stated_theta_gate(trim.theta, params)),
    }
    return CheckOutcome(name, Verdict.PASS if ok else Verdict.FAIL, witnesses)


def check_empirical_integral_sandwich(report: RatioReport, p: float, t_cap: float) -> CheckOutcome:
    """The exact empirical tail integral up to t_cap is sandwiched between the
    capped true moment minus the error functional and the full true moment
    plus the error functional."""
    name = "empirical_integral_sandwich"
    delta, values, cdf = report.params.delta, report.values, report.cdf
    tail_at_cap = float(cdf.sf(t_cap))
    if tail_at_cap < delta:
        return CheckOutcome(
            name, Verdict.NOT_APPLICABLE, reason=f"P(f > t_cap)={tail_at_cap} below delta={delta}"
        )
    if "dyadic" in report.failing:
        return CheckOutcome(name, Verdict.NOT_APPLICABLE, reason="dyadic ratio property fails")
    empirical = _ascending_truncated_mean(values, p, t_cap)
    err = error_functional(cdf, p, t_cap, delta)
    capped_moment = tail_integral_moment(cdf, p, t_cap) - _closed_form(p, lambda: t_cap ** p * tail_at_cap)
    full_moment = raw_moment(cdf, p)
    tol = _tol(_REL_TOL_ORACLE, empirical, full_moment, err)
    ok = (capped_moment - err <= empirical + tol) and (empirical <= full_moment + err + tol)
    witnesses = {
        "lower": capped_moment - err,
        "empirical_integral": empirical,
        "upper": full_moment + err,
        "error_term": err,
        "slack_lower": empirical - (capped_moment - err),
        "slack_upper": (full_moment + err) - empirical,
    }
    return CheckOutcome(name, Verdict.PASS if ok else Verdict.FAIL, witnesses)


def check_moment_sandwich(report: RatioReport, trim: TrimSpec) -> CheckOutcome:
    """The constant-free two-sided bound on the trimmed mean.

    Upper: trimmed mean <= E f^p + err(q_hi).
    Lower: trimmed mean >= E f^p - (1 + 1/(1-lam)) E f^p 1{f >= q_lo} - err(q_lo),
    with q_lo, q_hi the quantiles at the inflated and deflated trim levels.
    """
    name = "moment_sandwich"
    params, values, cdf = report.params, report.values, report.cdf
    gate = _gate(trim.theta, report)
    if gate is not None:
        return CheckOutcome(name, Verdict.NOT_APPLICABLE, reason=gate)
    theta_plus, theta_minus, q_lo, q_hi = _bracket_quantiles(cdf, trim.theta, params)
    tail_at_q_hi = float(cdf.sf(q_hi))
    if tail_at_q_hi < params.delta:
        return CheckOutcome(
            name,
            Verdict.NOT_APPLICABLE,
            reason=f"P(f > deflated quantile)={tail_at_q_hi} below delta={params.delta}",
        )
    estimate = _ascending_trimmed_mean(values, trim)
    moment = raw_moment(cdf, trim.p)
    err_hi = error_functional(cdf, trim.p, q_hi, params.delta)
    err_lo = error_functional(cdf, trim.p, q_lo, params.delta)
    if theta_plus >= 1.0:
        tail_moment = moment
    else:
        # E f^p 1{f >= q_lo}: strict-tail moment plus the point mass at q_lo
        tail_moment = truncated_upper_moment(cdf, trim.p, theta_plus)
        tail_moment += _closed_form(trim.p, lambda: q_lo ** trim.p * float(cdf.atom(q_lo)))
    upper = moment + err_hi
    lower = moment - (1.0 + 1.0 / (1.0 - params.lam)) * tail_moment - err_lo
    tol = _tol(_REL_TOL_ORACLE, estimate, upper, lower)
    ok = (lower <= estimate + tol) and (estimate <= upper + tol)
    witnesses = {
        "lower": lower,
        "trimmed_mean": estimate,
        "upper": upper,
        "moment": moment,
        "tail_moment_at_inflated_level": tail_moment,
        "error_term_upper": err_hi,
        "error_term_lower": err_lo,
        "stated_theta_gate": float(stated_theta_gate(trim.theta, params)),
    }
    return CheckOutcome(name, Verdict.PASS if ok else Verdict.FAIL, witnesses)


# ---------------------------------------------------------------------------
# Diagnostic grid over the unspecified scaling constants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    c2: float
    c3: float
    theta: float
    cap: float
    upper_holds: bool
    lower_holds: bool
    upper_slack: float
    lower_slack: float


_SCAN_GRID = (0.25, 0.5, 1.0, 2.0)  # the values of both c2 and c3


def scan_error_constant_grid(report: RatioReport, p: float) -> list[ScanRow]:
    """Diagnostic sweep of the scaled form theta = c2 delta, cap = Q at c3 delta.

    Evaluates, with unit leading constants, whether the trimmed mean stays
    within [moment - err(cap) - tail(c3 delta), moment + err(cap)].  Purely
    informational: the scaled form carries unspecified absolute constants, so
    no verdict semantics attach to these rows.
    """
    delta, values, cdf = report.params.delta, report.values, report.cdf
    n = values.size
    moment = raw_moment(cdf, p)
    rows = []
    for c2 in _SCAN_GRID:
        theta = max(c2 * delta, 1.0 / n)
        if not theta < 1.0:
            continue
        estimate = _ascending_trimmed_mean(values, TrimSpec(p=p, theta=theta))
        for c3 in _SCAN_GRID:
            level = c3 * delta
            if not 0 < level < 1:
                continue
            cap = upper_quantile(cdf, level)
            err = error_functional(cdf, p, cap, delta)
            tail_moment = truncated_upper_moment(cdf, p, level)
            upper_slack = (moment + err) - estimate
            lower_slack = estimate - (moment - err - tail_moment)
            rows.append(
                ScanRow(
                    c2=c2,
                    c3=c3,
                    theta=theta,
                    cap=cap,
                    upper_holds=upper_slack >= 0,
                    lower_holds=lower_slack >= 0,
                    upper_slack=upper_slack,
                    lower_slack=lower_slack,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Trimmed mean versus the plain p-mean
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComparisonTrialRow:
    trial: int
    q50_trimmed: float
    q95_trimmed: float
    max_trimmed: float
    q50_mean: float
    q95_mean: float
    max_mean: float
    winner: str


def _direction_estimates(sample: SampleMatrix, directions: np.ndarray, trim: TrimSpec) -> tuple[np.ndarray, np.ndarray]:
    """``trimmed_p_mean`` and ``empirical_p_mean`` of |<X, v>| for each direction v."""
    m = directions.shape[0]
    trimmed, means = np.empty(m), np.empty(m)
    for idx, values in enumerate(_blocked_projections(sample, directions)):
        trimmed[idx] = trimmed_p_mean(values, trim)
        means[idx] = empirical_p_mean(values, trim.p)
    return trimmed, means


def comparison_trial_row(
    spec: DistributionSpec,
    n: int,
    trial: int,
    trial_seed: int,
    directions: np.ndarray,
    truths: np.ndarray,
    trim: TrimSpec,
) -> ComparisonTrialRow:
    """Relative-error quantiles of both estimators for one fresh sample."""
    trimmed, means = _direction_estimates(draw_sample(spec, n, trial_seed), directions, trim)
    trimmed_errs = np.abs(trimmed - truths) / truths
    mean_errs = np.abs(means - truths) / truths
    q50_t, q95_t = np.quantile(trimmed_errs, [0.5, 0.95])
    q50_m, q95_m = np.quantile(mean_errs, [0.5, 0.95])
    winner = "trimmed" if q95_t < q95_m else ("mean" if q95_m < q95_t else "tie")
    return ComparisonTrialRow(
        trial=trial,
        q50_trimmed=float(q50_t),
        q95_trimmed=float(q95_t),
        max_trimmed=float(np.max(trimmed_errs)),
        q50_mean=float(q50_m),
        q95_mean=float(q95_m),
        max_mean=float(np.max(mean_errs)),
        winner=winner,
    )


def q90_max_errors(rows) -> tuple[float, float]:
    """The 0.90 quantiles over trials of max_trimmed and of max_mean.

    A trial's max is its uniform error over the probe directions; the paper
    bounds it with high probability over the sample, so these quantiles are
    the statistic on which the two estimators are compared.
    """
    return (
        float(np.quantile([r.max_trimmed for r in rows], 0.90)),
        float(np.quantile([r.max_mean for r in rows], 0.90)),
    )

