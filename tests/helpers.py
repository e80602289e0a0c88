"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (dense grids, O(n^2) enumeration,
rational arithmetic) and never shares code with the implementation paths it
checks.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
from scipy import special

from lptrim.checks import ComparisonTrialRow, scan_error_constant_grid
from lptrim.core import empirical_p_mean, project_abs, trimmed_p_mean
from lptrim.core import _block_sizes
from lptrim.distributions import (
    _MAX_MULTIPLY_POWER,
    _REF_SEED_ROOT,
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    _closed_form,
    _reference_rows,
    draw_sample,
    marginal_cdf,
)
from lptrim.oracle import upper_quantile
from lptrim.ratio import DirectionCheckRow, DyadicLevel, ratio_properties_report
from lptrim.seeding import child_seed


def trapezoid_tail_integral(sf, p: float, t_max: float, n_grid: int = 200_001) -> float:
    """Dense-grid trapezoid value of the integral of p t^(p-1) sf(t) over (0, t_max)."""
    t = np.linspace(0.0, t_max, n_grid)
    y = p * t ** (p - 1.0) * np.asarray(sf(t), dtype=np.float64)
    if p < 1.0 + 1e-12 and p > 1.0 - 1e-12:
        y[0] = float(sf(0.0))  # p=1 integrand is sf itself at t=0
    return float(np.trapezoid(y, t))


def trapezoid_sqrt_tail_integral(sf, p: float, t_max: float, delta: float, n_grid: int = 200_001) -> float:
    t = np.linspace(0.0, t_max, n_grid)
    y = p * t ** (p - 1.0) * np.sqrt(np.maximum(np.asarray(sf(t), dtype=np.float64), 0.0))
    if abs(p - 1.0) < 1e-12:
        y[0] = float(np.sqrt(sf(0.0)))
    return 2.0 * np.sqrt(delta) * float(np.trapezoid(y, t))


def per_law_sf(cdf, t):
    """P(f > t) of an analytic law as each law wrote its own tail function.

    These are the four ``sf`` bodies that the shared tail template in
    ``lptrim.distributions`` replaced, operation for operation; a float for a
    scalar t, else an array.
    """
    a = np.asarray(t, dtype=np.float64)
    if isinstance(cdf, FoldedNormalCDF):
        out = np.where(a < 0, 1.0, special.erfc(np.maximum(a, 0.0) / (cdf.scale * math.sqrt(2.0))))
    elif isinstance(cdf, HalfUniformCDF):
        out = np.clip(1.0 - a / cdf.width, 0.0, 1.0)
    elif isinstance(cdf, ExponentialCDF):
        out = np.where(a < 0, 1.0, np.exp(-np.maximum(a, 0.0) / cdf.scale))
    elif isinstance(cdf, FoldedStudentTCDF):
        z = np.maximum(a, 0.0) / cdf.scale
        out = np.where(a < 0, 1.0, 2.0 * special.stdtr(cdf.nu, -z))
    else:
        raise TypeError(f"no per-law tail for {type(cdf).__name__}")
    return float(out) if a.ndim == 0 else out


def fraction_trimmed_mean(values: list[int], p: int, k0: int) -> Fraction:
    """Exact rational trimmed p-mean for integer inputs."""
    powered = sorted(Fraction(abs(v)) ** p for v in values)
    kept = powered[: len(values) - k0 + 1]
    return sum(kept, Fraction(0)) / len(values)


def naive_power_mean(values, p: float, cap: float = np.inf, drop: int = 0) -> float:
    """(1/n) times the sum of min(|x|, cap)^p in ascending order, without the ``drop`` largest terms."""
    x = np.sort(np.minimum(np.abs(np.asarray(values, dtype=float)), cap))
    return float(np.sum(x[: x.size - drop] ** p) / x.size)


def naive_upper_power_mean(values, p: float, q: float) -> float:
    """(1/n) times the sum of |x|^p over |x| > q, in ascending order."""
    x = np.sort(np.abs(np.asarray(values, dtype=float)))
    return float(np.sum(x[x > q] ** p) / x.size)


def binary_search_quantile_upper(values, eta: float) -> float:
    """Smallest sample value whose share of values above it, count / size as the law's tail rounds it,
    is below eta, by binary search."""
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    m = xs.size

    def share_gt(j: int) -> float:
        return (m - int(np.searchsorted(xs, xs[j], side="right"))) / m

    lo, hi = 0, m - 1
    if share_gt(lo) < eta:
        return float(xs[0])
    while lo < hi:
        mid = (lo + hi) // 2
        if share_gt(mid) < eta:
            hi = mid
        else:
            lo = mid + 1
    return float(xs[lo])


def brute_force_cut_rank(theta: float, n: int) -> int:
    """1 + the largest count c in 0..n whose share c / n is below theta, by trying every c."""
    return 1 + max(c for c in range(n + 1) if c / n < theta)


def grid_ratio_deviation(values, cdf, level: float, t_grid) -> float:
    """Worst ratio deviation over an explicit grid of admissible t values."""
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    n = xs.size
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        pr = float(cdf.sf(t))
        if pr < level or t <= 0:
            continue
        pn = (n - np.searchsorted(xs, t, side="right")) / n
        worst = max(worst, abs(pn / pr - 1.0))
    return worst


def masked_dyadic_levels(values, cdf, delta: float) -> tuple[DyadicLevel, ...]:
    """Every dyadic level's ratio supremum by a fresh mask over all candidate pairs.

    The candidates are the (empirical, true) tail pairs at both one-sided
    limits of every distinct sample value, plus the t -> 0+ pair, in no
    particular order; each level masks the pairs whose true tail reaches it
    and adds the two pairs at its region boundary Q(level).  This is the
    per-level scan that the one-pass scan in ``lptrim.ratio`` replaced; the
    two share only the law's upper quantile Q.
    """
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    n = xs.size
    u, starts, counts = np.unique(xs, return_index=True, return_counts=True)
    sf_u = np.asarray(cdf.sf(u), dtype=np.float64)
    if isinstance(cdf, EmpiricalCDF):
        sfl_u = np.asarray(cdf.sf_left(u), dtype=np.float64)
    else:
        sfl_u = sf_u + np.asarray(cdf.atom(u), dtype=np.float64)
    pos = u > 0
    pn0 = (n - np.searchsorted(xs, 0.0, side="right")) / n
    pn = np.concatenate([(n - starts - counts) / n, ((n - starts) / n)[pos], [pn0]])
    pr = np.concatenate([sf_u, sfl_u[pos], [np.asarray(cdf.sf(0.0))]])

    def sup_at(level):
        if cdf.sf(0.0) < level:
            return None
        if level >= 1.0:
            if not isinstance(cdf, EmpiricalCDF):
                return None
            q = float(cdf.values[0])
        else:
            q = upper_quantile(cdf, level)
        mask = pr >= level
        worst = 0.0
        if np.any(mask):
            worst = float(np.max(np.abs(pn[mask] / pr[mask] - 1.0)))
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
            worst = max(worst, abs(pn_ge / level - 1.0), abs(pn_gt / level - 1.0))
        return worst

    levels = []
    j = 0
    while True:
        level = math.ldexp(delta, j)
        if level > 1.0:
            break
        worst = sup_at(level)
        if worst is None:
            break
        levels.append(DyadicLevel(j=j, level=level, bound=2.0 ** (-j / 2.0), worst_dev=worst))
        j += 1
    return tuple(levels)


def exhaustive_interval_excess(values, cdf) -> float:
    """Max over all closed sample-endpoint intervals of P_N(I) - 1.5 P(I).

    Enumerates every endpoint pair through the same prefix quantities the
    production scan reduces to, so agreement is exact; a mass-based variant
    is provided separately for independent cross-checking of the reduction.
    """
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    n = xs.size
    u, counts = np.unique(xs, return_counts=True)
    sf_u = np.asarray(cdf.sf(u), dtype=float)
    atom_u = np.asarray(cdf.atom(u), dtype=float)
    gains = counts / n - 1.5 * atom_u
    gaps = 1.5 * np.maximum(sf_u[:-1] - sf_u[1:] - atom_u[1:], 0.0)
    e = gains.copy()
    e[1:] -= gaps
    q_pref = np.cumsum(e)
    start = q_pref - gains
    best = 0.0
    for i in range(u.size):
        for j in range(i, u.size):
            best = max(best, q_pref[j] - start[i])
    return best


def allocating_interval_excess(values, cdf) -> float:
    """The interval-excess scan as first written, one fresh array per step: the reference for the in-place scan.

    The body is the scan's first form verbatim, over the distinct values and
    counts of ``np.unique`` and the law's own ``sf`` and ``atom``; O(n), so it
    reaches the sample sizes the exhaustive search cannot.
    """
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    u, counts = np.unique(xs, return_counts=True)
    sf = np.asarray(cdf.sf(u), dtype=float)
    atom = np.asarray(cdf.atom(u), dtype=float)
    gains = counts / xs.size - 1.5 * atom
    gaps = 1.5 * np.maximum(sf[:-1] - sf[1:] - atom[1:], 0.0)
    # prefix form: value(i..j) = Q[j] - (Q[i] - gains[i])
    e = gains.copy()
    e[1:] -= gaps
    q_pref = np.cumsum(e)
    start_cost = np.minimum.accumulate(q_pref - gains)
    return max(0.0, float(np.max(q_pref - start_cost)))


def interval_excess_by_masses(values, cdf) -> float:
    """Same maximum, but interval masses are evaluated directly from the CDF."""
    xs = np.sort(np.abs(np.asarray(values, dtype=float)))
    n = xs.size
    u = np.unique(xs)
    best = 0.0
    for i in range(u.size):
        for j in range(i, u.size):
            pn = (np.searchsorted(xs, u[j], side="right") - np.searchsorted(xs, u[i], side="left")) / n
            # P(f in [u_i, u_j]) = P(f >= u_i) - P(f > u_j)
            pr = float(cdf.sf_left(u[i])) - float(cdf.sf(u[j]))
            best = max(best, pn - 1.5 * pr)
    return best


def exhaustive_rademacher(values, signs) -> float:
    """Max |segment sum| / n over all contiguous segments in value order."""
    z = np.abs(np.asarray(values, dtype=float))
    s = np.asarray(signs, dtype=np.int64)
    order = np.argsort(z, kind="stable")
    ss = s[order]
    n = ss.size
    best = 0
    for i in range(n):
        total = 0
        for j in range(i, n):
            total += int(ss[j])
            best = max(best, abs(total))
    return best / n


def monte_carlo_moment(spec, v, p: float, size: int, seed: int) -> tuple[float, float]:
    """Plain Monte Carlo E |<X, v>|^p over one draw of ``size`` rows, and its standard error."""
    powered = np.abs(draw_sample(spec, size, seed).data @ np.asarray(v, dtype=float)) ** p
    return float(np.mean(powered)), float(np.std(powered) / np.sqrt(size))


def naive_laplace(rng, scale: float, shape) -> np.ndarray:
    """numpy's ``random_laplace`` transcribed one draw at a time, with ``math.log``.

    Each draw takes one uniform ``u`` from ``rng.random()``; a zero uniform is
    rejected and the next one taken.  ``Generator.laplace(0, scale, shape)``
    must equal it bit for bit and leave the generator in the same state.
    """
    out = np.empty(shape)
    flat = out.reshape(-1)
    for i in range(flat.size):
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        if u >= 0.5:
            flat[i] = 0.0 - scale * math.log(2.0 - u - u)
        else:
            flat[i] = 0.0 + scale * math.log(u + u)
    return out


class StubUniforms:
    """A generator stand-in whose ``random`` hands out the given uniforms in order.

    ``random()`` returns one float, ``random(size)`` an array of that shape;
    ``used`` counts the uniforms handed out.
    """

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, size=None):
        count = 1 if size is None else int(np.prod(size))
        if self.used + count > self._values.size:
            raise IndexError("the stub's uniform stream ran out")
        out = self._values[self.used : self.used + count].copy()
        self.used += count
        return float(out[0]) if size is None else out.reshape(size)


def chunked_reference_moments(spec, dirs, p: float, ref_size: int, rng, chunk_rows: int, block_rows: int) -> np.ndarray:
    """The mean of |X @ dirs.T|^p over ``ref_size`` rows of ``rng``, chunk by chunk.

    The moment oracle's earlier pass: ``chunk_rows``-row chunks of draws
    (200,000 in production), each projected ``block_rows`` rows at a time
    (4,096), with |x|^p for the integers 3 <= p <= 5 as a chain of multiplies
    by a copy of |x|; the rows come from ``_reference_rows``, as the oracle's
    do.  The streamed pass in ``lptrim.distributions`` must agree with it to
    round-off.
    """
    dirs = np.asarray(dirs, dtype=float)
    acc = np.zeros(dirs.shape[0])
    for chunk_start in range(0, ref_size, chunk_rows):
        chunk = _reference_rows(spec, min(chunk_rows, ref_size - chunk_start), rng)
        for start in range(0, chunk.shape[0], block_rows):
            out = np.abs(chunk[start : start + block_rows] @ dirs.T)
            acc += copyto_power_chain(out, p).sum(axis=0)
    return acc / ref_size


def per_block_streamed_moments(spec, dirs: np.ndarray, p: float, ref_size: int, rng) -> np.ndarray:
    """The streamed moment pass as it was before draws were grouped and sums fused: the reference for both.

    The body is ``distributions._streamed_moments`` of that time verbatim: one
    ``_reference_rows`` draw per projection block of ``2^15 // m`` rows, and
    ``out.sum(axis=0)`` after the in-place power of :func:`abs_power_in_place`.
    The grouped, fused pass must equal it bit for bit.
    """
    m = dirs.shape[0]
    sizes = _block_sizes(ref_size, m)
    block = np.empty((sizes[0], m))
    scratch = np.empty_like(block)
    acc = np.zeros(m)
    for i, rows in enumerate(sizes):
        out = block[:rows]
        np.matmul(_reference_rows(spec, rows, rng), dirs.T, out=out)
        abs_power_in_place(out, p, scratch[:rows])
        acc += out.sum(axis=0)
        if i == 0:  # an order that overflows does so here: raise now, not after every block
            _closed_form(p, lambda: acc)
    return acc / ref_size


def abs_power_in_place(x: np.ndarray, p: float, scratch: np.ndarray) -> None:
    """x = |x| ** p, by repeated multiplication for the integers 3 <= p <= 5.

    A chain of p - 1 multiplies beats float ``pow`` up to p = 5 (p = 3 by
    about a third) and loses from p = 8 on; it agrees with ``pow`` to a few
    ulps.  The chain starts from x * x, which equals |x| * |x| exactly, so
    |x| is written to ``scratch`` once and x itself is never copied.
    """
    if 3 <= p <= _MAX_MULTIPLY_POWER and p == int(p):
        np.abs(x, out=scratch)
        x *= x
        for _ in range(int(p) - 2):
            x *= scratch
    else:
        np.abs(x, out=x)
        x **= p


def copyto_power_chain(x: np.ndarray, p: float) -> np.ndarray:
    """x ** p for nonnegative x: p - 1 multiplies by a copy of x for the integers 3 <= p <= 5, else pow."""
    if 3 <= p <= 5 and p == int(p):
        base = x.copy()
        out = x.copy()
        for _ in range(int(p) - 1):
            out *= base
        return out
    return x ** p


def chunked_reference_values(spec, ref_size: int, v) -> np.ndarray:
    """The sorted |<x_i, v>| of a reference law, drawn in 200,000-row chunks.

    ``marginal_cdf``'s earlier reference build, seeded as it is by (label,
    ref_size, v) and drawn through ``_reference_rows`` as it is; the
    block-built reference law must equal it bit for bit.
    """
    v = np.asarray(v, dtype=float)
    digest = hashlib.blake2s(v.tobytes()).hexdigest()
    rng = np.random.default_rng(child_seed(_REF_SEED_ROOT, "marginal-ref", spec.label, ref_size, digest))
    parts = []
    remaining = ref_size
    while remaining > 0:
        rows = min(200_000, remaining)
        parts.append(np.abs(_reference_rows(spec, rows, rng) @ v))
        remaining -= rows
    return np.sort(np.concatenate(parts))


def cumulant_fourth_moments(spec, dirs) -> np.ndarray:
    """E <X, v>^4 = 3 |v|^4 + kappa4 sum v_i^4, with each law's fourth cumulant written out."""
    if spec.name == "cube_uniform":
        kappa4 = -1.2
    elif spec.name == "product_laplace":
        kappa4 = 3.0
    elif spec.name == "product_student_t":
        kappa4 = 6.0 / (spec.nu - 4.0)
    else:
        kappa4 = 0.0
    dirs = np.asarray(dirs, dtype=float)
    return 3.0 * np.sum(dirs ** 2, axis=1) ** 2 + kappa4 * np.sum(dirs ** 4, axis=1)


def second_pass_scan_rows(config) -> list[tuple]:
    """The rows of ``lemma_scan_rows.csv`` for a grid run, by a second pass.

    ``run_lemma_check``'s earlier serial pass: for each law it re-draws the
    trial-0 sample, projects it and rebuilds the law, then sweeps the
    scaled-constant grid at the first p.
    """
    n = config.n if config.n is not None else 10_000
    p = config.lemma_ps[0]
    params = config.ratio_params
    rows = []
    for dist in config.lemma_dists:
        spec = config.spec(name=dist, dim=1)
        sample = draw_sample(spec, n, child_seed(config.seed, "lemma", dist, 0))
        report = ratio_properties_report(project_abs(sample, np.ones(1)), marginal_cdf(spec, np.ones(1)), params)
        for row in scan_error_constant_grid(report, p):
            rows.append((spec.label, p, row.c2, row.c3, row.theta, row.cap,
                         bool(row.upper_holds), bool(row.lower_holds), row.upper_slack, row.lower_slack))
    return rows


def per_direction_comparison(spec, n, trial, trial_seed, directions, truths, trim):
    """Compare's trial row, projecting one direction at a time.

    The loop ``checks.comparison_trial_row`` ran before it projected
    directions in blocks: one matrix-vector product per direction, its two
    estimates and their relative errors.  Returns the row and the arrays of
    trimmed and plain estimates, one per direction.
    """
    sample = draw_sample(spec, n, trial_seed)
    m = directions.shape[0]
    trimmed, means = np.empty(m), np.empty(m)
    trimmed_errs, mean_errs = np.empty(m), np.empty(m)
    for idx, v in enumerate(directions):
        values = project_abs(sample, v)
        trimmed[idx] = trimmed_p_mean(values, trim)
        means[idx] = empirical_p_mean(values, trim.p)
        trimmed_errs[idx] = abs(trimmed[idx] - truths[idx]) / truths[idx]
        mean_errs[idx] = abs(means[idx] - truths[idx]) / truths[idx]
    q50_t, q95_t = np.quantile(trimmed_errs, [0.5, 0.95])
    q50_m, q95_m = np.quantile(mean_errs, [0.5, 0.95])
    winner = "trimmed" if q95_t < q95_m else ("mean" if q95_m < q95_t else "tie")
    row = ComparisonTrialRow(trial, float(q50_t), float(q95_t), float(np.max(trimmed_errs)),
                             float(q50_m), float(q95_m), float(np.max(mean_errs)), winner)
    return row, trimmed, means


def per_direction_sandwich(spec, n, trial_seed, directions, trim) -> np.ndarray:
    """The sandwich trial's estimates, projecting one direction at a time.

    One matrix-vector product and one ``trimmed_p_mean`` per direction.
    """
    sample = draw_sample(spec, n, trial_seed)
    return np.array([trimmed_p_mean(project_abs(sample, v), trim) for v in directions])


def per_direction_ratio_rows(spec, n, trial_seed, directions, params, ref_size) -> list[DirectionCheckRow]:
    """``ratio_trial_rows`` by the loop it ran before it projected directions in
    blocks: one matrix-vector product and one property report per direction."""
    sample = draw_sample(spec, n, trial_seed)
    rows = []
    for idx, v in enumerate(directions):
        report = ratio_properties_report(project_abs(sample, v), marginal_cdf(spec, v, ref_size=ref_size), params)
        rows.append(DirectionCheckRow(idx, report.tail_dev, report.worst_margin, report.interval_sup, report.failing))
    return rows
