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

from .core import RatioParams, _as_finite, _blocked_projections, _run_heads, _sorted_abs
from .distributions import (
    DEFAULT_REF_SIZE,
    REFERENCE_LAWS_KEPT,
    DistributionSpec,
    EmpiricalCDF,
    MarginalCDF,
    _needs_reference_law,
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
    """The sorted sample, its distinct values and the true law at them.

    Without ties ``u`` is ``xs``; for an analytic law ``sf_left`` is the same
    array as ``sf``, since its atom is 0.  No code may write into any field.
    """

    xs: np.ndarray  # sorted |values|
    u: np.ndarray  # distinct values, ascending
    above: np.ndarray  # share of xs at or above each distinct value, then 0 past the last
    share: np.ndarray | float  # share of xs equal to each distinct value; the float 1/n without ties
    sf: np.ndarray  # P(f > u)
    atom: np.ndarray  # P(f = u)
    sf_left: np.ndarray  # P(f >= u)


def _distinct_pass(values_abs, cdf: MarginalCDF) -> _Distinct:
    """Sort once, group equal values, and evaluate the law once per distinct value."""
    xs = _sorted_abs(values_abs)
    n = xs.size
    heads = _run_heads(xs)
    if heads.all():  # no ties, as for a continuous law with probability 1
        u, above, share = xs, np.arange(n, -1, -1) / n, 1.0 / n
    else:
        starts = np.flatnonzero(heads)
        u, above, share = xs[starts], np.append(n - starts, 0) / n, np.diff(np.append(starts, n)) / n
    sf_u, atom_u, sfl_u = cdf.tails(u)
    return _Distinct(xs=xs, u=u, above=above, share=share, sf=sf_u, atom=atom_u, sf_left=sfl_u)


def _boundary_devs(xs, cdf: MarginalCDF, levels: list[float], sups: list[float]) -> list[float]:
    """Each level's ``sups`` entry raised to the deviation at the boundary of {t > 0 : P(f > t) >= level}.

    The boundary is the level's upper quantile Q(level); the sample's tails
    at all of them come from one left and one right search.
    """
    # The region of level 1 is {t > 0 : P(f > t) = 1}, reached only by a
    # reference law, whose tail is 1 exactly below its smallest value, Q(1).
    qs = np.array([float(cdf.values[0]) if level >= 1.0 else upper_quantile(cdf, level) for level in levels])
    n = xs.size
    pn_ge = ((n - np.searchsorted(xs, qs, side="left")) / n).tolist()
    pn_gt = ((n - np.searchsorted(xs, qs, side="right")) / n).tolist()
    empirical = isinstance(cdf, EmpiricalCDF)
    if empirical:
        pr_gt, _, pr_ge = (a.tolist() for a in cdf.tails(qs))
    else:
        # Continuous tail: its value at the region boundary is the level itself.
        pr_gt = pr_ge = levels
    worst = []
    for j, (level, q, sup) in enumerate(zip(levels, qs.tolist(), sups)):
        if q > 0 and pr_ge[j] >= level:
            sup = max(sup, abs(pn_ge[j] / pr_ge[j] - 1.0))
        if (q > 0 or empirical) and pr_gt[j] >= level:
            sup = max(sup, abs(pn_gt[j] / pr_gt[j] - 1.0))
        worst.append(sup)
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


def _dyadic_levels(d: _Distinct, cdf: MarginalCDF, delta: float, sf0: float) -> tuple[DyadicLevel, ...]:
    """Exact sup of |P_N/P - 1| over every admissible dyadic region, from one pass.

    Each supremum is attained among the empirical/true tail pairs at the
    one-sided limits of the sample points and at the region's boundary.
    The one-sided pairs form two groups in increasing t: the left limit at
    each distinct value (none at 0) and the right limit at each.  The
    regions shrink as the level rises and the true tail is nonincreasing,
    so within a group each region is a prefix; a float tail that is not
    nonincreasing is reordered once.  Each group's prefix for delta is
    scanned once, from the innermost prefix outwards, one segment per level.

    The t -> 0+ pair ``(P_N(f > 0), sf0)`` never raises a supremum, so it is
    left out.  With a zero in the sample it is the right-limit pair at
    ``u[0] = 0``, which every admissible prefix holds since ``sf0 >= level``.
    Without one it deviates by ``1/sf0 - 1``, which is 0 for an analytic law.
    That is at most the left-limit deviation at ``u[0]`` where that pair is
    admissible, and elsewhere at most the boundary deviation at Q(level) <
    ``u[0]``, since ``P(f >= q) <= sf0`` for ``q > 0``.
    """
    levels = _admissible_levels(cdf, delta, sf0)
    if not levels:
        return ()
    first = int(d.u[0] == 0.0)  # no left limit at 0
    sups = [0.0] * len(levels)
    for pn, pr in ((d.above[first:-1], d.sf_left[first:]), (d.above[1:], d.sf)):
        if np.any(pr[1:] > pr[:-1]):
            order = np.argsort(-pr, kind="stable")
            pn, pr = pn[order], pr[order]
        # size of each prefix {i : pr[i] >= level}, nonincreasing in the level
        sizes = pr.size - np.searchsorted(pr[::-1], levels, side="left")
        dev = pn[: sizes[0]] / pr[: sizes[0]]
        dev -= 1.0
        np.abs(dev, out=dev)
        worst, done = 0.0, 0
        for j in range(len(levels) - 1, -1, -1):
            size = int(sizes[j])
            if size > done:
                worst = max(worst, float(dev[done:size].max()))
                done = size
            sups[j] = max(sups[j], worst)
    return tuple(
        DyadicLevel(j=j, level=level, bound=2.0 ** (-j / 2.0), worst_dev=worst)
        for j, (level, worst) in enumerate(zip(levels, _boundary_devs(d.xs, cdf, levels, sups)))
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
    # prefix form: value(i..j) = Q[j] - (Q[i] - gains[i]); each step in place on two working arrays
    gains = d.share - 1.5 * d.atom
    q_pref = np.empty_like(gains)
    gaps = np.subtract(d.sf[:-1], d.sf[1:], out=q_pref[1:])
    gaps -= d.atom[1:]
    np.maximum(gaps, 0.0, out=gaps)
    gaps *= 1.5
    np.subtract(gains[1:], gaps, out=gaps)
    q_pref[0] = gains[0]
    np.cumsum(q_pref, out=q_pref)
    # fmin's accumulate is faster than minimum's, and equal here: a NaN would reach q_pref too
    start_cost = np.fmin.accumulate(np.subtract(q_pref, gains, out=gains), out=gains)
    return max(0.0, float(np.max(np.subtract(q_pref, start_cost, out=start_cost))))


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
    levels = _dyadic_levels(d, cdf, params.delta, float(cdf.sf(0.0)))
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
    ref_size: int = DEFAULT_REF_SIZE,
) -> list[DirectionCheckRow]:
    """Property checks for one fresh sample against every probe direction.

    Every trial asks for its reference laws in the same order, so a cache
    smaller than their number never serves one: the laws are kept for the
    next trial only when all of them fit, and otherwise each dies with its
    report.
    """
    laws = len({v.tobytes() for v in directions if _needs_reference_law(spec, v)})
    keep = laws <= REFERENCE_LAWS_KEPT
    sample = draw_sample(spec, n, trial_seed)
    rows = []
    for idx, (v, values) in enumerate(zip(directions, _blocked_projections(sample, directions))):
        cdf = marginal_cdf(spec, v, ref_size=ref_size, keep=keep)
        rep = ratio_properties_report(values, cdf, params)
        rows.append(DirectionCheckRow(idx, rep.tail_dev, rep.worst_margin, rep.interval_sup, rep.failing))
        del cdf, rep  # an unkept law dies here, before the next one is built
    return rows

