"""Independent brute-force oracles used to pin expected values.

Everything here is deliberately naive (dense grids, O(n^2) enumeration,
rational arithmetic) and never shares code with the implementation paths it
checks.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from lptrim.distributions import draw_sample


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


def fraction_trimmed_mean(values: list[int], p: int, k0: int) -> Fraction:
    """Exact rational trimmed p-mean for integer inputs."""
    powered = sorted(Fraction(abs(v)) ** p for v in values)
    kept = powered[: len(values) - k0 + 1]
    return sum(kept, Fraction(0)) / len(values)


def naive_power_mean(values, p: float, cap: float = np.inf, drop: int = 0) -> float:
    """(1/n) times the sum of min(|x|, cap)^p in ascending order, without the ``drop`` largest terms."""
    x = np.sort(np.minimum(np.abs(np.asarray(values, dtype=float)), cap))
    return float(np.sum(x[: x.size - drop] ** p) / x.size)


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
