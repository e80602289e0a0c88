"""Order-statistic machinery for trimmed estimation of p-th absolute moments.

The central estimator averages the p-th powers of the absolute sample values
after discarding a fixed fraction of the largest entries.  Each order
statistic (the trim threshold, the trimmed p-mean, the truncated power mean
and the sum of p-th powers above a quantile) has one implementation, an
``_ascending_*`` reader of a sorted, nonnegative sample: the sorted |sample|
that a ``RatioReport`` or an ``EmpiricalCDF`` holds is read without sorting it
again.  The public functions take any finite sample, sort their own working
copy of |x| and call the same reader.  No public function mutates its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SampleMatrix",
    "TrimSpec",
    "RatioParams",
    "cut_rank",
    "project_abs",
    "nonincreasing_rearrangement",
    "trimmed_p_mean",
    "trimmed_p_means",
    "empirical_p_mean",
    "trim_threshold",
    "adjusted_trim_levels",
    "stated_theta_gate",
    "theta_from_epsilon",
    "truncated_power_mean",
]


def _as_values(values, ndim: int = 1) -> np.ndarray:
    """``values`` as a nonempty float64 array of ``ndim`` dimensions."""
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array of values")
    if z.size == 0:
        raise ValueError("expected at least one value")
    return z


def _as_finite(values, ndim: int = 1) -> np.ndarray:
    """``values`` as a nonempty, finite float64 array of ``ndim`` dimensions."""
    z = _as_values(values, ndim)
    if not np.isfinite(z).all():
        raise ValueError("values must be finite")
    return z


def _check_p(p) -> None:
    """The rule for every exponent: p is a finite real >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite real >= 1, got {p}")


def _check_delta(delta) -> None:
    """The rule for the tail mass of the ratio properties: delta lies in (0, 1/2]."""
    if not (0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")


def _sorted_abs(values) -> np.ndarray:
    """|values| as an ascending working copy, which must be finite.

    The finite check reads the largest value only: NaN sorts last and |±inf|
    is the largest value, so the last entry is finite exactly when all are.
    """
    z = np.abs(_as_values(values))
    z.sort()
    if not math.isfinite(z[-1]):
        raise ValueError("values must be finite")
    return z


def _run_starts(xs: np.ndarray) -> np.ndarray:
    """The index of the first copy of each distinct value of an ascending xs."""
    return np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))


@dataclass(frozen=True)
class SampleMatrix:
    """An n x d matrix of i.i.d. draws plus the metadata needed to regenerate it.

    Regenerating with the same (dist_name, seed, n, dim) reproduces the entries
    bit for bit; loaders use that as an integrity check.
    """

    data: np.ndarray
    seed: int
    dist_name: str

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError("sample data must be a 2-d array")
        if data.shape[0] < 1 or data.shape[1] < 1:
            raise ValueError("sample must have at least one row and one column")
        if not np.isfinite(data).all():
            raise ValueError("sample entries must be finite")
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class TrimSpec:
    """Exponent p >= 1 and trim fraction theta in (0, 1).

    theta below 1/n is a no-op trim (nothing is discarded); theta values at or
    above 1 would discard everything and are rejected.
    """

    p: float
    theta: float

    def __post_init__(self):
        _check_p(self.p)
        if not (0 < self.theta < 1):
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")

    def cut_rank(self, n: int) -> int:
        return cut_rank(self.theta, n)


@dataclass(frozen=True)
class RatioParams:
    """Parameters (delta, lam, big_c) of the empirical-ratio properties.

    delta is the smallest tail mass at which ratios are trusted, lam the
    allowed relative deviation on large tails, big_c the additive interval
    slack in units of delta.
    """

    delta: float
    lam: float
    big_c: float

    def __post_init__(self):
        if not (0 <= self.delta <= 0.5):
            raise ValueError(f"delta must lie in [0, 1/2], got {self.delta}")
        if not (0 < self.lam < 1):
            raise ValueError(f"lam must lie in (0, 1), got {self.lam}")
        if not (self.big_c >= 1):
            raise ValueError(f"big_c must be >= 1, got {self.big_c}")


def cut_rank(theta: float, n: int) -> int:
    """Rank k = ceil(theta * n) of the trim threshold, counted from the top.

    The k - 1 largest values are discarded and the k-th largest is the
    threshold.  Float round-off just above an integer is forgiven so that
    e.g. theta=0.1, n=10**4 yields k=1000 rather than 1001.  Since theta < 1,
    1 <= k <= n: at least one value is always kept.
    """
    if not (0 < theta < 1):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if n < 1:
        raise ValueError("need n >= 1")
    k = math.ceil(theta * n - 1e-9)
    return max(k, 1)


def project_abs(sample: SampleMatrix, v) -> np.ndarray:
    """Absolute inner products |<row_i, v>| in row order.

    v is one direction of shape (d,), or an (m, d) block of m >= 1
    directions.  A block gives the C-contiguous (m, n) array |V X^T|, row j
    holding the projections onto direction j: one matrix product, whose rows
    agree with the one-direction products up to round-off.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 2:
        if v.shape[0] < 1 or v.shape[1] != sample.dim:
            raise ValueError(f"direction block has shape {v.shape}, expected (m >= 1, {sample.dim})")
    elif v.shape != (sample.dim,):
        raise ValueError(f"direction has shape {v.shape}, expected ({sample.dim},)")
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    if v.ndim == 1:
        return np.abs(sample.data @ v)
    out = v @ sample.data.T
    return np.abs(out, out=out)


def nonincreasing_rearrangement(z) -> np.ndarray:
    """Absolute values sorted in descending order."""
    return _sorted_abs(z)[::-1]


def _ascending_power_sums(z: np.ndarray, p: float, keep: int) -> np.ndarray:
    """Sum of the ``keep`` smallest p-th powers of each row of z.

    z is a C-contiguous 1-d array, or (m, n) array of rows, ascending and
    nonnegative, that the caller owns; the ``keep`` head of each row is
    raised to p in place and the rest is left alone.  Summing along a
    contiguous row runs in the order of the 1-d sum, so a 1-d call and a row
    of a many-row call agree bit for bit.  Every p-mean is one call of this
    kernel; its caller divides by the sample size.
    """
    head = z[..., :keep]
    head **= p
    return head.sum(axis=-1)


def _sorted_power_sums(z: np.ndarray, p: float, keep: int) -> np.ndarray:
    """:func:`_ascending_power_sums` of z, a C-contiguous (m, n) working copy of
    nonnegative values, after sorting each row in place."""
    z.sort(axis=1)
    return _ascending_power_sums(z, p, keep)


# The ascending readers.  Each reads xs, a 1-d ascending array of nonnegative
# values, such as the sorted |sample| of a RatioReport or the values of an
# EmpiricalCDF, and leaves it unchanged: a reader copies only the part it
# raises to the power.  ``own=True`` hands xs over as the caller's working
# copy instead, which the reader may overwrite; the sort-first public
# functions below pass theirs that way.


def _ascending_head_mean(xs: np.ndarray, p: float, keep: int, own: bool = False) -> float:
    """(1/n) times the sum of the ``keep`` smallest p-th powers of xs."""
    head = xs[:keep]
    return float(_ascending_power_sums(head if own else head.copy(), p, keep)) / xs.size


def _ascending_threshold(xs: np.ndarray, theta: float) -> float:
    """The ceil(theta * n)-th largest value of xs."""
    return float(xs[xs.size - cut_rank(theta, xs.size)])


def _ascending_trimmed_mean(xs: np.ndarray, spec: TrimSpec, own: bool = False) -> float:
    """Mean of the p-th powers of xs without its cut_rank - 1 largest values."""
    n = xs.size
    return _ascending_head_mean(xs, spec.p, n - spec.cut_rank(n) + 1, own)


def _ascending_truncated_mean(xs: np.ndarray, p: float, cap: float, own: bool = False) -> float:
    """Mean of min(x_i, cap)^p; capping keeps xs ascending."""
    _check_p(p)
    if not cap >= 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    z = np.minimum(xs, cap, out=xs if own else None)
    return _ascending_head_mean(z, p, z.size, own=True)


def _ascending_upper_sum(xs: np.ndarray, p: float, q: float) -> float:
    """Sum of x_i^p over the values of xs above q."""
    above = xs[np.searchsorted(xs, q, side="right"):].copy()
    return float(_ascending_power_sums(above, p, above.size))


def trimmed_p_mean(values_abs, spec: TrimSpec) -> float:
    """Mean of the p-th powers after discarding the cut_rank - 1 largest values.

    Equivalently: with k = ceil(theta * n), sum the n - k + 1 smallest p-th
    powers and divide by n.  Summation runs over the ascending sort so that
    the untrimmed case agrees bit for bit with ``empirical_p_mean``.
    """
    return _ascending_trimmed_mean(_sorted_abs(values_abs), spec, own=True)


def trimmed_p_means(rows_abs, spec: TrimSpec) -> np.ndarray:
    """:func:`trimmed_p_mean` of every row of an (m, n) matrix, in one sort.

    Every entry equals ``trimmed_p_mean`` of that row bit for bit.  Pass one
    row per direction; the working copy is made C-contiguous whatever the
    input's layout, because a row sum only runs in the order of the 1-d sum
    when the row is contiguous.
    """
    z = np.abs(_as_finite(rows_abs, 2), order="C")
    n = z.shape[1]
    return _sorted_power_sums(z, spec.p, n - spec.cut_rank(n) + 1) / n


def empirical_p_mean(values_abs, p: float) -> float:
    """Plain mean of |values|^p.

    Summed over the ascending sort, which keeps the result identical to the
    trimmed mean whenever the trim is a no-op.
    """
    _check_p(p)
    z = _sorted_abs(values_abs)
    return _ascending_head_mean(z, p, z.size, own=True)


def trim_threshold(values_abs, theta: float) -> float:
    """The ceil(theta * n)-th largest absolute value (the trim threshold)."""
    return _ascending_threshold(_sorted_abs(values_abs), theta)


def truncated_power_mean(values_abs, p: float, cap: float) -> float:
    """Mean of min(|x_i|, cap)^p.

    This equals the integral of p t^(p-1) times the empirical tail fraction
    over (0, cap), computed exactly as a finite sum.
    """
    return _ascending_truncated_mean(_sorted_abs(values_abs), p, cap, own=True)


def adjusted_trim_levels(theta: float, params: RatioParams) -> tuple[float, float]:
    """Inflated and deflated trim levels (theta_plus, theta_minus).

    theta_plus  = (theta + 2 C delta) / (1 - lam)
    theta_minus = (theta - 2 C delta) / (1 + lam)

    Requires theta > 2 C delta so that theta_minus is positive.
    """
    if not (0 < theta < 1):
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    slack = 2.0 * params.big_c * params.delta
    if theta <= slack:
        raise ValueError(
            f"theta={theta} must exceed 2*C*delta={slack}: deflated level would be nonpositive"
        )
    theta_plus = (theta + slack) / (1.0 - params.lam)
    theta_minus = (theta - slack) / (1.0 + params.lam)
    if stated_theta_gate(theta, params) and theta_minus < 2.0 * params.delta - 1e-15:
        raise AssertionError("deflated level below 2*delta despite the theta gate")
    return theta_plus, theta_minus


def stated_theta_gate(theta: float, params: RatioParams) -> bool:
    """Whether theta >= 4 delta max(1 + lam, C + 3/2), the packaged sufficient gate."""
    return theta >= 4.0 * params.delta * max(1.0 + params.lam, params.big_c + 1.5)


def theta_from_epsilon(epsilon: float, n: int, c0: float = 0.25) -> float:
    """Default trim fraction c0 * epsilon**2, floored at 1/n."""
    if not (0 < epsilon < 1):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 2:
        raise ValueError("need n >= 2 for a valid trim fraction")
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    theta = max(c0 * epsilon * epsilon, 1.0 / n)
    if theta >= 1:
        raise ValueError(f"derived theta {theta} is not below 1")
    return theta
