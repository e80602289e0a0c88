#!/usr/bin/env python3
"""Calibration scans behind the constants frozen in tests/test_acceptance.py.

Two scans:

1. sandwich: grid over (sample_c1, theta_c0) for the accuracy experiment at
   d=20, eps=0.25, reporting the fraction of trials whose worst direction
   stays within eps and the overall worst relative error.  The frozen values
   SAMPLE_C1=8.0, THETA_C0=0.0625 come from this table (the smallest theta_c0
   tried; larger trims push the worst relative error past eps at p=3).

2. compare: trim-fraction grid for the heavy-tailed comparison at nu=4.5,
   p=2, n=50*d.  Per trial, each estimator's uniform error is its worst
   relative error over the probe directions (max_trimmed, max_mean); the
   q90_max columns are the 0.90 quantiles of those over the trials, the
   statistic acceptance criterion 6 compares.  The trimmed column is lowest
   at the smallest trims, theta in {0.0015, 0.002}, which both cut the single
   largest value at n=1000 (COMPARE_THETA=0.002).  It rises with theta, and
   the trim bias makes it exceed the plain mean's from theta=0.008 up at the
   acceptance seed (--seed 20240817; 0.2376 against 0.2334) and from
   theta=0.016 up at the default seed 123.  The table also reports the
   fraction of trials in which the trimmed estimator's 95th-percentile
   relative error beats the plain mean's: it peaks at theta=2/n and stays
   far below 0.9, a per-trial win the paper does not promise at p=2; see
   the README's results section.

Usage:
    python scripts/calibrate_sandwich.py sandwich [--trials 20] [--seed 123]
    python scripts/calibrate_sandwich.py compare  [--trials 200] [--seed 123]
"""

import argparse
import math
import sys

import numpy as np

from lptrim.checks import compare_estimators, q90_max_errors
from lptrim.core import TrimSpec, cut_rank, trimmed_p_means
from lptrim.distributions import DistributionSpec, MomentOracle, draw_sample, sphere_directions
from lptrim.seeding import child_seed


def scan_sandwich(trials: int, seed: int) -> None:
    eps, d, m = 0.25, 20, 500
    print("dist             p    c1   theta_c0     n    k0  pass_rate  worst_max_rel_err")
    for c1 in (4.0, 8.0, 12.0):
        n = math.ceil(c1 * d * math.log(2 / eps) / eps ** 2)
        for theta_c0 in (0.25, 0.125, 0.0625):
            theta = max(theta_c0 * eps * eps, 1.0 / n)
            k0 = cut_rank(theta, n)
            for dist in ("gaussian", "product_laplace"):
                spec = DistributionSpec(dist, d)
                dirs = sphere_directions(d, m, child_seed(seed, "directions"))
                for p in (2.0, 3.0):
                    trim = TrimSpec(p=p, theta=theta)
                    oracle = MomentOracle(spec, ref_size=10 ** 6, seed=child_seed(seed, "oracle"))
                    truths = oracle.moments(dirs, p)
                    n_pass, worst = 0, 0.0
                    for t in range(trials):
                        sample = draw_sample(spec, n, child_seed(seed, "trial", t))
                        estimates = trimmed_p_means((sample.data @ dirs.T).T, trim)
                        max_err = float(np.max(np.abs(estimates - truths) / truths))
                        worst = max(worst, max_err)
                        n_pass += max_err <= eps
                    print(
                        f"{dist:16s} {p:.0f}  {c1:4.0f}   {theta_c0:8.4f} {n:6d} {k0:5d}"
                        f"   {n_pass / trials:8.2f}  {worst:12.4f}"
                    )


def scan_compare(trials: int, seed: int) -> None:
    d, n, m, p = 20, 1000, 500, 2.0
    spec = DistributionSpec("product_student_t", d, nu=4.5)
    print("theta     k0   win_rate   med_q95_trimmed   med_q95_mean   q90_max_trimmed   q90_max_mean")
    for theta in (0.0015, 0.002, 0.004, 0.008, 0.016, 0.032):
        rep = compare_estimators(spec, n=n, p=p, m_directions=m, trials=trials, theta=theta, seed=seed)
        q95_t = float(np.median([r.q95_trimmed for r in rep.rows]))
        q95_m = float(np.median([r.q95_mean for r in rep.rows]))
        sup_t, sup_m = q90_max_errors(rep.rows)
        k0 = cut_rank(theta, n)
        print(
            f"{theta:7.4f} {k0:4d}   {rep.trimmed_win_rate:8.3f}   {q95_t:15.4f}   {q95_m:12.4f}"
            f"   {sup_t:15.4f}   {sup_m:12.4f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scan", choices=("sandwich", "compare"))
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=123)
    args = parser.parse_args()
    if args.scan == "sandwich":
        scan_sandwich(args.trials or 20, args.seed)
    else:
        scan_compare(args.trials or 200, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
