"""Ground-truth functionals of a marginal law.

Analytic laws are integrated by adaptive quadrature; empirical reference laws
are step functions and are integrated exactly as finite sums, which removes
one source of numerical error entirely.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import integrate

from .core import (
    _ascending_truncated_mean,
    _ascending_upper_sum,
    _check_delta,
    _check_open_unit,
    _check_p,
    _run_heads,
)
from .distributions import EmpiricalCDF, MarginalCDF, MomentDoesNotExistError, _check_moment_exists, _closed_form

__all__ = [
    "upper_quantile",
    "tail_cutoff",
    "tail_integral_moment",
    "raw_moment",
    "error_functional",
    "truncated_upper_moment",
    "qnorm_error_coef",
    "BoundCheck",
    "check_tail_moment_bounds",
]

QUAD_REL_TOL = 1e-8
TAIL_MASS_CUTOFF = 1e-12
_QUANTILE_ABS_TOL = 1e-9


def upper_quantile(cdf: MarginalCDF, eta: float) -> float:
    """Q(eta) = inf{t : P(f > t) < eta}.

    Analytic mode bisects the tail function to absolute tolerance 1e-9 and
    returns the upper end of the final bracket, so that P(f > q) < eta holds
    for the returned q.  Empirical mode resolves the infimum exactly from the
    order statistics.
    """
    if isinstance(cdf, EmpiricalCDF):
        return cdf.quantile_upper(eta)
    _check_open_unit("eta", eta)
    return _bisect_quantile(cdf, eta)


@lru_cache(maxsize=4096)
def _doubling_bracket(cdf: MarginalCDF, eta: float) -> tuple[float, float]:
    """(lo, hi): hi is the first of 1, 2, 4, ... with P(f > hi) < eta, lo the one before it (0 before 1).

    The upper quantile bisects it, and its hi at TAIL_MASS_CUTOFF is the tail cutoff.
    """
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if cdf.sf(hi) < eta:
            return lo, hi
        lo, hi = hi, 2.0 * hi
    raise MomentDoesNotExistError(f"the {eta} upper quantile lies beyond {hi:g}, too far out to bisect")


@lru_cache(maxsize=4096)
def _bisect_quantile(cdf: MarginalCDF, eta: float) -> float:
    lo, hi = _doubling_bracket(cdf, eta)
    while hi - lo > _QUANTILE_ABS_TOL:
        mid = 0.5 * (lo + hi)
        if cdf.sf(mid) >= eta:
            lo = mid
        else:
            hi = mid
    return hi


def tail_cutoff(cdf: MarginalCDF) -> float:
    """A point beyond which P(f > t) < TAIL_MASS_CUTOFF; a reference law's largest value."""
    if isinstance(cdf, EmpiricalCDF):
        return float(cdf.values[-1])
    return _doubling_bracket(cdf, TAIL_MASS_CUTOFF)[1]


def tail_integral_moment(cdf: MarginalCDF, p: float, t_max: float) -> float:
    """Integral of p t^(p-1) P(f > t) dt over (0, t_max).

    For t_max at or beyond the tail cutoff this is E f^p up to the reported
    truncation mass.
    """
    return _tail_functional(cdf, p, t_max, root=False)


def error_functional(cdf: MarginalCDF, p: float, t_max: float, delta: float) -> float:
    """2 sqrt(delta) times the integral of p t^(p-1) sqrt(P(f > t)) over (0, t_max)."""
    _check_delta(delta)
    return 2.0 * math.sqrt(delta) * _tail_functional(cdf, p, t_max, root=True)


def _tail_functional(cdf: MarginalCDF, p: float, t_max: float, root: bool) -> float:
    """Integral of p t^(p-1) P(f > t), or with ``root`` of p t^(p-1) sqrt(P(f > t)), over (0, t_max)."""
    _check_p(p)
    if not t_max >= 0:
        raise ValueError(f"t_max must be nonnegative, got {t_max}")
    if t_max == 0:
        return 0.0

    def value():
        if not isinstance(cdf, EmpiricalCDF):
            return _split_at_cutoff(cdf, p, 0.0, t_max, root)
        if root:
            return _empirical_sqrt_tail_integral(cdf, p, t_max)
        # exact for a step tail: the mean of min(f, t_max)^p over the reference
        return _ascending_truncated_mean(cdf.values, p, t_max)

    return _closed_form(p, value)


def _split_at_cutoff(cdf: MarginalCDF, p: float, t_min: float, t_max: float, root: bool) -> float:
    """``_tail_integral`` over (t_min, t_max), split at the tail cutoff.

    Adaptive quadrature over (0, t_max) with t_max far beyond the cutoff
    never samples the mass near 0, and one piece over (cutoff, t_max) misses
    a heavy tail's mass just as it would.  A cap within the cutoff is one
    integral; beyond it the tail is integrated in doubling pieces
    (c 2^k, c 2^(k+1)) up to t_max or the first point where the float tail
    is 0.  The integral over (0, inf) is finite only when the law's moment
    of order p (2p for the root) is; a divergent one stopped short of t_max
    by that zero tail would be silently truncated, so it raises
    MomentDoesNotExistError instead.
    """
    cutoff = tail_cutoff(cdf)
    value = _tail_integral(cdf, p, t_min, min(t_max, cutoff), root)
    lo = max(t_min, cutoff)
    while lo < t_max and cdf.sf(lo) > 0:
        hi = min(2.0 * lo, t_max)
        value += _tail_integral(cdf, p, lo, hi, root)
        lo = hi
    order = 2.0 * p if root else p
    if lo < t_max and order >= cdf.max_finite_moment:
        raise MomentDoesNotExistError(
            f"the p={p} integral diverges as the cap grows (order {order}, finite only below "
            f"{cdf.max_finite_moment}), and the float tail is 0 beyond {lo:g}, short of the cap {t_max:g}"
        )
    return value


# The quadratures of analytic laws are memoised: a law is a hashable frozen
# dataclass and its quantiles are cached, so repeated trials ask for
# bit-identical points.  Empirical laws never reach this cache; a key would
# pin a reference array of up to 10^6 rows.  The integrand is 0 where the
# tail is 0, so that an overflowing t^(p-1) far beyond the cutoff never meets
# a zero tail as inf * 0.
@lru_cache(maxsize=4096)
def _tail_integral(cdf: MarginalCDF, p: float, lo: float, hi: float, root: bool) -> float:
    """Integral of p t^(p-1) P(f > t), or with ``root`` of p t^(p-1) sqrt(P(f > t)), over (lo, hi).

    Its callers guard against overflow.  A negative result, which the
    integrand cannot give, means the adaptive quadrature failed (a slowly
    decaying tail over a long range): it raises MomentDoesNotExistError naming
    p, without scipy's warning.  Any other result passes scipy's warnings on;
    recording them swaps process-wide state, so run concurrent calls in
    processes, as the runners do.
    """
    if hi <= lo:
        return 0.0

    def integrand(t):
        tail = cdf.sf(t)
        if not tail > 0:
            return 0.0
        return p * t ** (p - 1.0) * (math.sqrt(tail) if root else tail)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = float(integrate.quad(integrand, lo, hi, epsrel=QUAD_REL_TOL, epsabs=1e-14, limit=400)[0])
    if value < 0:
        raise MomentDoesNotExistError(
            f"the p={p} quadrature of a nonnegative integrand over ({lo:g}, {hi:g}) returned {value!r}: "
            "the quadrature failed"
        )
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return value


def raw_moment(cdf: MarginalCDF, p: float) -> float:
    """E f^p via tail integration up to the cutoff where P(f > t) < 1e-12.

    A reference law's cutoff is its largest value, so its moment is the exact
    mean of the p-th powers.
    """
    _check_moment_exists(cdf, p)
    return tail_integral_moment(cdf, p, tail_cutoff(cdf))


def _empirical_sqrt_tail_integral(cdf: EmpiricalCDF, p: float, t_max: float) -> float:
    # sqrt of a step tail is still a step function; sum its pieces exactly.
    xs, m = cdf.values, cdf.size
    u = xs[_run_heads(xs)]
    edges = np.concatenate(([0.0], np.minimum(u, t_max), [t_max]))
    # tail level on each interval (edges[k], edges[k+1]) is the mass above edges[k]
    counts_gt = m - np.searchsorted(xs, edges[:-1], side="right")
    widths_p = np.diff(edges ** p)
    return float(np.sum(np.sqrt(counts_gt / m) * widths_p))


def truncated_upper_moment(cdf: MarginalCDF, p: float, kappa: float) -> float:
    """E f^p on the event {f > Q(kappa)} where Q is the upper quantile."""
    _check_open_unit("kappa", kappa)
    _check_moment_exists(cdf, p)
    q = upper_quantile(cdf, kappa)
    if isinstance(cdf, EmpiricalCDF):
        return _closed_form(p, lambda: _ascending_upper_sum(cdf.values, p, q) / cdf.size)
    return _closed_form(
        p, lambda: q ** p * cdf.sf(q) + _split_at_cutoff(cdf, p, q, max(tail_cutoff(cdf), q), root=False)
    )


def qnorm_error_coef(p: float, q: float) -> float:
    """The nominal coefficient 2p / (q - 2p) of the q-norm error bound."""
    if q <= 2 * p:
        raise ValueError(f"need q > 2p, got q={q}, p={p}")
    return 2.0 * p / (q - 2.0 * p)


@dataclass(frozen=True)
class BoundCheck:
    """One inequality instance: lhs <= rhs with the achieved slack."""

    name: str
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def ok(self) -> bool:
        return self.lhs <= self.rhs


def check_tail_moment_bounds(
    cdf: MarginalCDF, p: float, q: float, kappa: float, delta: float
) -> list[BoundCheck]:
    """Both sides of the three tail-moment inequalities for this law.

    1. E f^p 1{f > Q(kappa)}        <=  ||f||_{2p}^p sqrt(kappa)
    2. err(Q(kappa), p)             <=  2 sqrt(delta) (||f||_p^p + sqrt(log(1/kappa)/2) ||f||_{2p}^p)
    3. err(Q(kappa), p)             <=  2 sqrt(delta) (1 + 2p/(q-2p)) ||f||_q^p

    where err is :func:`error_functional`.  The right-hand sides carry the
    explicit constants under which the inequalities are provable, so a
    violation on exact inputs indicates an implementation defect.
    """
    coef = qnorm_error_coef(p, q)
    # q > 2p, so the q-th moment is the highest needed and is asked for first
    lq_p = raw_moment(cdf, q) ** (p / q)  # ||f||_q^p
    l2p_p = math.sqrt(raw_moment(cdf, 2 * p))  # ||f||_{2p}^p
    m_p = raw_moment(cdf, p)
    tail_moment = truncated_upper_moment(cdf, p, kappa)
    err = error_functional(cdf, p, upper_quantile(cdf, kappa), delta)
    factor = 2.0 * math.sqrt(delta)
    return [
        BoundCheck("tail_moment_vs_l2p", tail_moment, l2p_p * math.sqrt(kappa)),
        BoundCheck(
            "error_fn_log_bound",
            err,
            factor * (m_p + math.sqrt(-math.log(kappa) / 2.0) * l2p_p),
        ),
        BoundCheck(
            "error_fn_qnorm_bound",
            err,
            factor * (1.0 + coef) * lq_p,
        ),
    ]
