"""Exact verification of the empirical-ratio properties for a fixed direction.

For a sample of nonnegative values and a reference marginal law, the three
properties checked here are

1. tail ratio:      |P_N(f > t) / P(f > t) - 1| <= lam   whenever P(f > t) >= delta
2. dyadic ratios:   the same deviation is at most 2^(-j/2) whenever
                    P(f > t) >= 2^j delta, for every integer j >= 0
3. interval excess: P_N(f in I) <= (3/2) P(f in I) + C delta for every
                    generalized interval I

The empirical tail is a right-continuous step function, so each supremum is
attained at one-sided limits of sample points (plus the admissible-region
boundary) and is computed exactly rather than on a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RatioParams, project_abs, _as_finite_1d
from .distributions import (
    DistributionSpec,
    EmpiricalCDF,
    MarginalCDF,
    draw_sample,
    marginal_cdf,
    sphere_directions,
)
from .oracle import upper_quantile

__all__ = [
    "TailRatioResult",
    "DyadicLevel",
    "DyadicRatioResult",
    "IntervalExcessResult",
    "RatioReport",
    "DirectionCheckRow",
    "interval_excess_sup",
    "ratio_properties_report",
    "rademacher_interval_complexity",
    "ratio_floor",
    "probe_directions",
    "ratio_trial_rows",
]


# ---------------------------------------------------------------------------
# One pass over the distinct sample values, shared by all three properties
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Distinct:
    """The sorted sample, its distinct values and the true law at them."""

    xs: np.ndarray  # sorted |values|
    u: np.ndarray  # distinct values, ascending
    starts: np.ndarray  # index in xs of each distinct value's first copy
    counts: np.ndarray  # multiplicity of each distinct value
    sf: np.ndarray  # P(f > u)
    atom: np.ndarray  # P(f = u)
    sf_left: np.ndarray  # P(f >= u)


def _distinct_pass(values_abs, cdf: MarginalCDF) -> _Distinct:
    """Sort once, group equal values, and evaluate the law once per distinct value."""
    xs = np.sort(np.abs(_as_finite_1d(values_abs)))
    starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
    u = xs[starts]
    counts = np.diff(np.append(starts, xs.size))
    sf_u = np.asarray(cdf.sf(u), dtype=np.float64)
    atom_u = np.asarray(cdf.atom(u), dtype=np.float64)
    if isinstance(cdf, EmpiricalCDF):
        # counted exactly, not rounded as a sum of two quotients
        sfl_u = np.asarray(cdf.sf_left(u), dtype=np.float64)
    else:
        sfl_u = sf_u + atom_u  # what MarginalCDF.sf_left computes
    return _Distinct(xs=xs, u=u, starts=starts, counts=counts, sf=sf_u, atom=atom_u, sf_left=sfl_u)


def _candidate_devs(d: _Distinct, cdf: MarginalCDF):
    """Empirical/true tail pairs at both one-sided limits of every sample value.

    Returns (xs, pn, pr) where xs is the sorted sample and (pn[i], pr[i]) are
    matched empirical and true tail probabilities; the supremum of the ratio
    deviation over any admissible region {t : P(f > t) >= level} is attained
    among these pairs plus the region-boundary pairs added per level.
    """
    xs, n = d.xs, d.xs.size
    right_pn = (n - d.starts - d.counts) / n
    left_pn = (n - d.starts) / n
    pos = d.u > 0
    pn0 = (n - np.searchsorted(xs, 0.0, side="right")) / n
    pn = np.concatenate([right_pn, left_pn[pos], [pn0]])
    pr = np.concatenate([d.sf, d.sf_left[pos], [np.asarray(cdf.sf(0.0))]])
    return xs, pn, pr


def _sup_dev_at_level(xs, pn, pr, cdf: MarginalCDF, level: float) -> float | None:
    """Exact sup of |P_N/P - 1| over {t > 0 : P(f > t) >= level}; None if empty."""
    if cdf.sf(0.0) < level:
        return None
    if level >= 1.0:
        # The region is {t > 0 : P(f > t) = 1}.  An analytic tail is continuous
        # and below 1 at every t > 0, so the region is empty; a reference law's
        # tail is 1 exactly below its smallest value, which is Q(1).
        if not isinstance(cdf, EmpiricalCDF):
            return None
        q = float(cdf.values[0])
    else:
        q = upper_quantile(cdf, level)
    mask = pr >= level
    worst = 0.0
    if np.any(mask):
        worst = float(np.max(np.abs(pn[mask] / pr[mask] - 1.0)))
    n = xs.size
    pn_ge = (n - np.searchsorted(xs, q, side="left")) / n
    pn_gt = (n - np.searchsorted(xs, q, side="right")) / n
    if isinstance(cdf, EmpiricalCDF):
        pr_left = cdf.sf_left(q)
        if pr_left >= level and q > 0:
            worst = max(worst, abs(pn_ge / pr_left - 1.0))
        pr_right = cdf.sf(q)
        if pr_right >= level:
            worst = max(worst, abs(pn_gt / pr_right - 1.0))
    elif q > 0:
        # Continuous tail: its value at the region boundary is the level itself.
        worst = max(worst, abs(pn_ge / level - 1.0), abs(pn_gt / level - 1.0))
    return worst


@dataclass(frozen=True)
class TailRatioResult:
    worst_dev: float
    lam: float
    delta: float

    @property
    def ok(self) -> bool:
        return self.worst_dev <= self.lam


@dataclass(frozen=True)
class DyadicLevel:
    j: int
    level: float
    bound: float
    worst_dev: float

    @property
    def ok(self) -> bool:
        return self.worst_dev <= self.bound

    @property
    def margin(self) -> float:
        return self.bound - self.worst_dev


@dataclass(frozen=True)
class DyadicRatioResult:
    levels: tuple[DyadicLevel, ...]
    delta: float

    @property
    def ok(self) -> bool:
        return all(level.ok for level in self.levels)

    @property
    def worst_margin(self) -> float:
        return min((level.margin for level in self.levels), default=math.inf)


def _dyadic_levels(xs, pn, pr, cdf: MarginalCDF, delta: float) -> tuple[DyadicLevel, ...]:
    levels = []
    j = 0
    while True:
        level = delta * 2.0 ** j
        if level > 1.0:
            break
        worst = _sup_dev_at_level(xs, pn, pr, cdf, level)
        if worst is None:
            break
        levels.append(DyadicLevel(j=j, level=level, bound=2.0 ** (-j / 2.0), worst_dev=worst))
        j += 1
    return tuple(levels)


# ---------------------------------------------------------------------------
# Property 3: supremum of the interval excess
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalExcessResult:
    sup: float
    bound: float

    @property
    def ok(self) -> bool:
        return self.sup <= self.bound


def interval_excess_sup(values_abs, cdf: MarginalCDF, big_c: float, delta: float) -> IntervalExcessResult:
    """Exact sup over generalized intervals I of P_N(f in I) - (3/2) P(f in I).

    The optimum is attained by a closed interval whose endpoints are sample
    points: each distinct sample value contributes its empirical mass minus
    3/2 of its true point mass, each gap between consecutive values costs 3/2
    of the true open-gap mass, and the best contiguous stretch is found by a
    prefix-sum scan.  Intervals containing no sample point are bounded by 0.
    """
    if big_c < 1:
        raise ValueError(f"big_c must be >= 1, got {big_c}")
    if not (0 <= delta <= 0.5):
        raise ValueError(f"delta must lie in [0, 1/2], got {delta}")
    return _interval_excess(_distinct_pass(values_abs, cdf), big_c, delta)


def _interval_excess(d: _Distinct, big_c: float, delta: float) -> IntervalExcessResult:
    gains = d.counts / d.xs.size - 1.5 * d.atom
    gaps = 1.5 * np.maximum(d.sf[:-1] - d.sf[1:] - d.atom[1:], 0.0)
    # prefix form: value(i..j) = Q[j] - (Q[i] - gains[i])
    e = gains.copy()
    e[1:] -= gaps
    q_pref = np.cumsum(e)
    start_cost = np.minimum.accumulate(q_pref - gains)
    best = float(np.max(q_pref - start_cost))
    return IntervalExcessResult(sup=max(0.0, best), bound=big_c * delta)


def rademacher_interval_complexity(values_abs, signs) -> float:
    """(1/n) max over contiguous segments, in value order, of |sum of signs|.

    The sample is sorted ascending (stable, ties by original index) and the
    accompanying +-1 signs are rearranged along with it.
    """
    z = np.abs(_as_finite_1d(values_abs))
    s = np.asarray(signs)
    if s.shape != z.shape:
        raise ValueError("values and signs must have equal length")
    s = s.astype(np.int64)
    if not np.all(np.abs(s) == 1):
        raise ValueError("signs must be +-1")
    order = np.argsort(z, kind="stable")
    pref = np.concatenate([[0], np.cumsum(s[order])])
    best_hi = int(np.max(pref[1:] - np.minimum.accumulate(pref[:-1])))
    best_lo = int(np.min(pref[1:] - np.maximum.accumulate(pref[:-1])))
    return max(best_hi, -best_lo) / z.size


# ---------------------------------------------------------------------------
# Bundled report and the sampled failure-rate experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RatioReport:
    """Results of all three property checks against one (lam, C, delta)."""

    tail: TailRatioResult
    dyadic: DyadicRatioResult
    interval: IntervalExcessResult
    params: RatioParams

    @property
    def all_pass(self) -> bool:
        return self.tail.ok and self.dyadic.ok and self.interval.ok


def ratio_properties_report(values_abs, cdf: MarginalCDF, params: RatioParams) -> RatioReport:
    """All three properties against one (lam, C, delta): the only way to check them.

    One sort and one evaluation of the law serve all three properties, and
    the candidate pairs serve both ratio properties; the tail-ratio supremum
    is the dyadic supremum at level j = 0.
    """
    if params.delta <= 0:
        raise ValueError("property checks need delta > 0")
    d = _distinct_pass(values_abs, cdf)
    xs, pn, pr = _candidate_devs(d, cdf)
    levels = _dyadic_levels(xs, pn, pr, cdf, params.delta)
    if not levels:
        raise ValueError(f"no tail mass reaches delta={params.delta}; empty admissible range")
    return RatioReport(
        tail=TailRatioResult(worst_dev=levels[0].worst_dev, lam=params.lam, delta=params.delta),
        dyadic=DyadicRatioResult(levels=levels, delta=params.delta),
        interval=_interval_excess(d, params.big_c, params.delta),
        params=params,
    )


def ratio_floor(dim: int, n: int, floor_c0: float = 1.0) -> float:
    """The smallest delta at which uniform ratio control is expected: c0 (d/n) log(en/d)."""
    return floor_c0 * (dim / n) * math.log(math.e * n / dim)


def probe_directions(dim: int, m: int, seed: int) -> np.ndarray:
    """m uniform sphere directions plus the 2d signed coordinate directions."""
    eye = np.eye(dim)
    return np.concatenate([sphere_directions(dim, m, seed), eye, -eye])


@dataclass(frozen=True)
class DirectionCheckRow:
    direction: int
    prop1_dev: float
    prop2_margin: float
    prop3_sup: float
    passed: bool
    tail_ok: bool
    dyadic_ok: bool
    interval_ok: bool


def ratio_trial_rows(
    spec: DistributionSpec,
    n: int,
    trial_seed: int,
    directions: np.ndarray,
    params: RatioParams,
    ref_size: int = 1_000_000,
) -> list[DirectionCheckRow]:
    """Property checks for one fresh sample against every probe direction."""
    sample = draw_sample(spec, n, trial_seed)
    rows = []
    for idx, v in enumerate(directions):
        cdf = marginal_cdf(spec, v, ref_size=ref_size)
        rep = ratio_properties_report(project_abs(sample, v), cdf, params)
        rows.append(
            DirectionCheckRow(
                direction=idx,
                prop1_dev=rep.tail.worst_dev,
                prop2_margin=rep.dyadic.worst_margin,
                prop3_sup=rep.interval.sup,
                passed=rep.all_pass,
                tail_ok=rep.tail.ok,
                dyadic_ok=rep.dyadic.ok,
                interval_ok=rep.interval.ok,
            )
        )
    return rows

