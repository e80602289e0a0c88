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
from dataclasses import dataclass, field

import numpy as np

from .core import RatioParams, _as_finite, _blocked_projections, _run_starts, _sorted_abs
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
    "DyadicLevel",
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
    xs = _sorted_abs(values_abs)
    starts = _run_starts(xs)
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


def _candidates(d: _Distinct, sf0: float) -> tuple[np.ndarray, np.ndarray]:
    """Empirical/true tail pairs at every one-sided limit, in increasing t.

    Returns (pn, pr): first the t -> 0+ pair, then for each distinct value
    its left limit (none at 0) and its right limit.  The supremum of the
    ratio deviation over any admissible region {t : P(f > t) >= level} is
    attained among these pairs plus the region-boundary pairs added per
    level.  The true tail is nonincreasing in t, so each region's pairs are
    a prefix whenever the float tail is too.
    """
    xs, n = d.xs, d.xs.size
    m = 2 * d.u.size + 1
    pn = np.empty(m)
    pr = np.empty(m)
    above = n - d.starts
    np.divide(above, n, out=pn[1::2])
    above -= d.counts
    np.divide(above, n, out=pn[2::2])
    pr[1::2] = d.sf_left
    pr[2::2] = d.sf
    first = int(d.u[0] == 0.0)  # no left limit at 0: the t -> 0+ pair takes its slot
    pn[first] = (n - np.searchsorted(xs, 0.0, side="right")) / n
    pr[first] = sf0
    return pn[first:], pr[first:]


def _boundary_dev(xs, cdf: MarginalCDF, level: float, worst: float) -> float:
    """``worst`` raised to the deviation at the boundary of {t > 0 : P(f > t) >= level}."""
    if level >= 1.0:
        # The region is {t > 0 : P(f > t) = 1}, reached only by a reference
        # law, whose tail is 1 exactly below its smallest value, Q(1).
        q = float(cdf.values[0])
    else:
        q = upper_quantile(cdf, level)
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


def _admissible_levels(cdf: MarginalCDF, delta: float, sf0: float) -> list[float]:
    """The levels 2^j delta <= 1 whose region {t > 0 : P(f > t) >= level} is nonempty.

    An analytic tail is continuous and below 1 at every t > 0, so level 1 is
    admissible only for a reference law.
    """
    levels = []
    while True:
        level = math.ldexp(delta, len(levels))  # delta * 2^j without forming 2^j, which overflows at j = 1024
        if level > 1.0 or sf0 < level or (level >= 1.0 and not isinstance(cdf, EmpiricalCDF)):
            return levels
        levels.append(level)


def _dyadic_levels(xs, pn, pr, cdf: MarginalCDF, delta: float, sf0: float) -> tuple[DyadicLevel, ...]:
    """Exact sup of |P_N/P - 1| over every admissible dyadic region, from one pass.

    The regions shrink as the level rises, so each is a prefix of the
    candidates ordered by falling true tail; a float tail that is not
    nonincreasing is reordered once.  The prefix for delta is scanned once,
    from the innermost prefix outwards, one segment per level.
    """
    levels = _admissible_levels(cdf, delta, sf0)
    if not levels:
        return ()
    if np.any(pr[1:] > pr[:-1]):
        order = np.argsort(-pr, kind="stable")
        pn, pr = pn[order], pr[order]
    # size of each prefix {i : pr[i] >= level}, nonincreasing in the level
    sizes = pr.size - np.searchsorted(pr[::-1], levels, side="left")
    dev = pn[: sizes[0]] / pr[: sizes[0]]
    dev -= 1.0
    np.abs(dev, out=dev)
    sups = [0.0] * len(levels)
    worst, done = 0.0, 0
    for j in range(len(levels) - 1, -1, -1):
        size = int(sizes[j])
        if size > done:
            worst = max(worst, float(dev[done:size].max()))
            done = size
        sups[j] = worst
    return tuple(
        DyadicLevel(j=j, level=level, bound=2.0 ** (-j / 2.0), worst_dev=_boundary_dev(xs, cdf, level, sups[j]))
        for j, level in enumerate(levels)
    )


# ---------------------------------------------------------------------------
# Property 3: supremum of the interval excess
# ---------------------------------------------------------------------------


def interval_excess_sup(values_abs, cdf: MarginalCDF) -> float:
    """Exact sup over generalized intervals I of P_N(f in I) - (3/2) P(f in I).

    The optimum is attained by a closed interval whose endpoints are sample
    points: each distinct sample value contributes its empirical mass minus
    3/2 of its true point mass, each gap between consecutive values costs 3/2
    of the true open-gap mass, and the best contiguous stretch is found by a
    prefix-sum scan.  Intervals containing no sample point are bounded by 0.
    """
    return _interval_excess(_distinct_pass(values_abs, cdf))


def _interval_excess(d: _Distinct) -> float:
    gains = d.counts / d.xs.size - 1.5 * d.atom
    gaps = 1.5 * np.maximum(d.sf[:-1] - d.sf[1:] - d.atom[1:], 0.0)
    # prefix form: value(i..j) = Q[j] - (Q[i] - gains[i])
    e = gains.copy()
    e[1:] -= gaps
    q_pref = np.cumsum(e)
    start_cost = np.minimum.accumulate(q_pref - gains)
    return max(0.0, float(np.max(q_pref - start_cost)))


def rademacher_interval_complexity(values_abs, signs) -> float:
    """(1/n) max over contiguous segments, in value order, of |sum of signs|.

    The sample is sorted ascending (stable, ties by original index) and the
    accompanying +-1 signs are rearranged along with it.
    """
    z = np.abs(_as_finite(values_abs))
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
    """The three property suprema of one sample against one (lam, C, delta).

    ``levels[0]`` is the tail property: level j = 0 is delta itself, checked
    against ``lam``.  ``values`` is the sorted |sample|, ascending and
    nonnegative, and ``cdf`` the law it was checked against, so the validators
    read both from the report itself and never sort the sample again.
    """

    levels: tuple[DyadicLevel, ...]
    interval_sup: float
    params: RatioParams
    values: np.ndarray = field(compare=False, repr=False)
    cdf: MarginalCDF = field(compare=False, repr=False)

    @property
    def tail_dev(self) -> float:
        return self.levels[0].worst_dev

    @property
    def worst_margin(self) -> float:
        return min(level.margin for level in self.levels)

    @property
    def failing(self) -> tuple[str, ...]:
        """The names of the failing properties, in the order tail, dyadic, interval."""
        params = self.params
        fails = (
            ("tail", self.tail_dev > params.lam),
            ("dyadic", not all(level.ok for level in self.levels)),
            ("interval", self.interval_sup > params.big_c * params.delta),
        )
        return tuple(name for name, failed in fails if failed)


def ratio_properties_report(values_abs, cdf: MarginalCDF, params: RatioParams) -> RatioReport:
    """All three properties against one (lam, C, delta): the only way to check them.

    One sort and one evaluation of the law serve all three properties, and
    the candidate pairs serve both ratio properties; the tail-ratio supremum
    is the dyadic supremum at level j = 0.
    """
    d = _distinct_pass(values_abs, cdf)
    sf0 = float(cdf.sf(0.0))
    pn, pr = _candidates(d, sf0)
    levels = _dyadic_levels(d.xs, pn, pr, cdf, params.delta, sf0)
    if not levels:
        raise ValueError(f"no tail mass reaches delta={params.delta}; empty admissible range")
    return RatioReport(levels=levels, interval_sup=_interval_excess(d), params=params, values=d.xs, cdf=cdf)


def ratio_floor(dim: int, n: int) -> float:
    """The smallest delta at which uniform ratio control is expected: (d/n) log(en/d)."""
    return (dim / n) * math.log(math.e * n / dim)


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
    failing: tuple[str, ...]


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
    for idx, (v, values) in enumerate(zip(directions, _blocked_projections(sample, directions))):
        cdf = marginal_cdf(spec, v, ref_size=ref_size)
        rep = ratio_properties_report(values, cdf, params)
        rows.append(DirectionCheckRow(idx, rep.tail_dev, rep.worst_margin, rep.interval_sup, rep.failing))
    return rows

