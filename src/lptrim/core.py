"""Order-statistic machinery for trimmed estimation of p-th absolute moments.

The central estimator averages the p-th powers of the absolute sample values
after discarding a fixed fraction of the largest entries.  Each order
statistic (the trim threshold, the trimmed p-mean, the truncated power mean
and the sum of p-th powers above a quantile) has one implementation, an
``_ascending_*`` reader of a sorted, nonnegative sample: the sorted |sample|
that a ``RatioReport`` or an ``EmpiricalCDF`` holds is read without sorting it
again.  The public functions take any finite sample, sort a copy of |x| and
call the same reader.  Shared sorted arrays are read-only, and no reader
writes its input.
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
    "empirical_p_mean",
    "trim_threshold",
    "adjusted_trim_levels",
    "stated_theta_gate",
    "theta_from_epsilon",
    "truncated_power_mean",
]

# Rows are taken in blocks sized by this many float64 values: the streamed
# moment pass projects reference rows max(1, this // m) at a time, m being the
# number of directions, and draws at once the most whole blocks (at least one)
# whose draw fits in this; a reference law draws the largest power of two of
# rows with rows x d <= this at a time, d being the draw's width; the probe
# directions of every multi-direction command are projected max(1, this // n)
# at a time, n being the sample size.  In MomentOracle's streamed pass a
# block's projections are powered and summed (by one einsum), and a reference
# law's draw is transformed, while they and their scratch copy still sit in a
# 2 MiB L2 cache.  Fixed, so results never depend on available memory.
_BLOCK_ELEMENTS = 1 << 15


def _as_values(values) -> np.ndarray:
    """``values`` as a nonempty 1-d float64 array."""
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1:
        raise ValueError("expected a 1-d array of values")
    if z.size == 0:
        raise ValueError("expected at least one value")
    return z


def _as_finite(values) -> np.ndarray:
    """``values`` as a nonempty, finite 1-d float64 array."""
    z = _as_values(values)
    if not np.isfinite(z).all():
        raise ValueError("values must be finite")
    return z


def _check_p(p) -> None:
    """The rule for every exponent: p is a finite real >= 1."""
    if not (math.isfinite(p) and p >= 1):
        raise ValueError(f"p must be a finite real >= 1, got {p}")


def _as_directions(v, dim: int, block: bool = True) -> np.ndarray:
    """The rule for every direction: a finite float64 array of shape (dim,), or with ``block`` (m >= 1, dim)."""
    v = np.asarray(v, dtype=np.float64)
    if block and v.ndim == 2:
        if v.shape[0] < 1 or v.shape[1] != dim:
            raise ValueError(f"direction block has shape {v.shape}, expected (m >= 1, {dim})")
    elif v.shape != (dim,):
        raise ValueError(f"direction has shape {v.shape}, expected ({dim},)")
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    return v


def _check_delta(delta) -> None:
    """The rule for the tail mass of the ratio properties: delta lies in (0, 1/2]."""
    if not (0 < delta <= 0.5):
        raise ValueError(f"delta must lie in (0, 1/2], got {delta}")


def _check_open_unit(name: str, value, error: type[ValueError] = ValueError) -> None:
    """The rule for every level and fraction (theta, eta, kappa, lam, epsilon): it lies in (0, 1)."""
    if not (0 < value < 1):
        raise error(f"{name} must lie in (0, 1), got {value}")


def _block_sizes(n: int, width: int) -> list[int]:
    """Row counts of n rows taken max(1, _BLOCK_ELEMENTS // width) at a time.

    ``width`` counts the values of one row of the block: the m directions
    reference draws are projected onto, the d columns of a reference law's
    draw (rounded up to a power of two, see ``distributions._reference_law``)
    or the m points of a sample that directions are projected over.  Split
    draws equal one draw bit for bit, so the reference rows never depend on
    the blocks.
    A reference law's block is drawn where it is projected: with two draw
    buffers alive at once, every reference build faulted them in anew.
    """
    block_rows = max(1, _BLOCK_ELEMENTS // width)
    return [min(block_rows, n - start) for start in range(0, n, block_rows)]


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


def _run_heads(xs: np.ndarray) -> np.ndarray:
    """A mask of an ascending xs, true at the first copy of each distinct value."""
    return np.concatenate(([True], xs[1:] != xs[:-1]))


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
        _check_open_unit("theta", self.theta)


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
        _check_delta(self.delta)
        _check_open_unit("lam", self.lam)
        if not (self.big_c >= 1):
            raise ValueError(f"big_c must be >= 1, got {self.big_c}")


def cut_rank(theta: float, n: int) -> int:
    """Rank k of the trim threshold, counted from the top: k - 1 is the largest count c with c / n < theta.

    The k - 1 largest values are discarded and the k-th largest is the
    threshold, which a share below theta of the values exceeds, c / n
    rounded as an ``EmpiricalCDF`` tail rounds it.  The loops take back the
    round-off of ceil(theta * n) in a step or two (theta = 0.1, n = 10**4
    gives 1000, not 1001).  Since 0 < theta < 1, 1 <= k <= n.
    """
    _check_open_unit("theta", theta)
    if n < 1:
        raise ValueError("need n >= 1")
    k = math.ceil(theta * n)
    while (k - 1) / n >= theta:
        k -= 1
    while k / n < theta:
        k += 1
    return k


def project_abs(sample: SampleMatrix, v) -> np.ndarray:
    """Absolute inner products |<row_i, v>| in row order.

    v is one direction of shape (d,), or an (m, d) block of m >= 1
    directions.  A block gives the C-contiguous (m, n) array |V X^T|, row j
    holding the projections onto direction j: one matrix product, whose rows
    agree with the one-direction products up to round-off.
    """
    v = _as_directions(v, sample.dim)
    if v.ndim == 1:
        return np.abs(sample.data @ v)
    out = v @ sample.data.T
    return np.abs(out, out=out)


def _blocked_projections(sample: SampleMatrix, directions: np.ndarray):
    """|<X, v>| for each row v of an (m, d) ``directions``, in order.

    The directions are projected max(1, _BLOCK_ELEMENTS // n) at a time, one
    :func:`project_abs` matrix product per block, so no more than one block of
    projections is held; each yielded row is a view into its block.
    """
    start = 0
    for rows in _block_sizes(directions.shape[0], sample.n):
        yield from project_abs(sample, directions[start:start + rows])
        start += rows


def nonincreasing_rearrangement(z) -> np.ndarray:
    """Absolute values sorted in descending order."""
    return _sorted_abs(z)[::-1]


# The ascending readers.  Each reads xs, a 1-d ascending array of nonnegative
# values, such as the sorted |sample| of a RatioReport or the values of an
# EmpiricalCDF, which are read-only, and powers a fresh array: no reader
# writes its input.


def _ascending_head_mean(xs: np.ndarray, p: float, keep: int) -> float:
    """(1/n) times the sum of the ``keep`` smallest p-th powers of xs."""
    return float((xs[:keep] ** p).sum()) / xs.size


def _ascending_threshold(xs: np.ndarray, theta: float) -> float:
    """The cut_rank(theta, n)-th largest value of xs: the smallest value that fewer than a share theta exceed."""
    return float(xs[xs.size - cut_rank(theta, xs.size)])


def _ascending_trimmed_mean(xs: np.ndarray, spec: TrimSpec) -> float:
    """Mean of the p-th powers of xs without its cut_rank - 1 largest values."""
    n = xs.size
    return _ascending_head_mean(xs, spec.p, n - cut_rank(spec.theta, n) + 1)


def _ascending_truncated_mean(xs: np.ndarray, p: float, cap: float) -> float:
    """Mean of min(x_i, cap)^p."""
    _check_p(p)
    if not cap >= 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    z = np.minimum(xs, cap)
    z **= p
    return float(z.sum()) / z.size


def _ascending_upper_sum(xs: np.ndarray, p: float, q: float) -> float:
    """Sum of x_i^p over the values of xs above q."""
    return float((xs[np.searchsorted(xs, q, side="right"):] ** p).sum())


def trimmed_p_mean(values_abs, spec: TrimSpec) -> float:
    """Mean of the p-th powers after discarding the cut_rank - 1 largest values.

    Equivalently: with k = cut_rank(theta, n), sum the n - k + 1 smallest p-th
    powers and divide by n.  Summation runs over the ascending sort so that
    the untrimmed case agrees bit for bit with ``empirical_p_mean``.
    """
    return _ascending_trimmed_mean(_sorted_abs(values_abs), spec)


def empirical_p_mean(values_abs, p: float) -> float:
    """Plain mean of |values|^p.

    Summed over the ascending sort, which keeps the result identical to the
    trimmed mean whenever the trim is a no-op.
    """
    _check_p(p)
    z = _sorted_abs(values_abs)
    return _ascending_head_mean(z, p, z.size)


def trim_threshold(values_abs, theta: float) -> float:
    """The cut_rank(theta, n)-th largest absolute value (the trim threshold)."""
    return _ascending_threshold(_sorted_abs(values_abs), theta)


def truncated_power_mean(values_abs, p: float, cap: float) -> float:
    """Mean of min(|x_i|, cap)^p.

    This equals the integral of p t^(p-1) times the empirical tail fraction
    over (0, cap), computed exactly as a finite sum.
    """
    return _ascending_truncated_mean(_sorted_abs(values_abs), p, cap)


def adjusted_trim_levels(theta: float, params: RatioParams) -> tuple[float, float]:
    """Inflated and deflated trim levels (theta_plus, theta_minus).

    theta_plus  = (theta + 2 C delta) / (1 - lam)
    theta_minus = (theta - 2 C delta) / (1 + lam)

    Requires theta > 2 C delta so that theta_minus is positive.
    """
    _check_open_unit("theta", theta)
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
    _check_open_unit("epsilon", epsilon)
    if n < 2:
        raise ValueError("need n >= 2 for a valid trim fraction")
    if c0 <= 0:
        raise ValueError(f"c0 must be positive, got {c0}")
    theta = max(c0 * epsilon * epsilon, 1.0 / n)
    if theta >= 1:
        raise ValueError(f"derived theta {theta} is not below 1")
    return theta
