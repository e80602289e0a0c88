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

Each scan point is one run_sandwich or run_compare call, the code the CLI
runs, with its result files written to a temporary directory.

Usage:
    python scripts/calibrate_sandwich.py sandwich [--trials 20] [--seed 123]
    python scripts/calibrate_sandwich.py compare  [--trials 200] [--seed 123]
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from lptrim.config import ExperimentConfig
from lptrim.core import cut_rank
from lptrim.runner import run_compare, run_sandwich


def scan_sandwich(trials: int, seed: int, out_dir: Path) -> None:
    print("dist             p    c1   theta_c0     n    k0  pass_rate  worst_max_rel_err")
    for c1 in (4.0, 8.0, 12.0):
        for theta_c0 in (0.25, 0.125, 0.0625):
            for dist in ("gaussian", "product_laplace"):
                for p in (2.0, 3.0):
                    cfg = ExperimentConfig(
                        dist=dist, dim=20, p=p, epsilon=0.25, directions=500, trials=trials, seed=seed,
                        theta_c0=theta_c0, sample_c1=c1, out_dir=str(out_dir),
                    )
                    summary = run_sandwich(cfg).summary
                    n = cfg.resolved_n
                    k0 = cut_rank(cfg.resolved_theta, n)
                    print(
                        f"{dist:16s} {p:.0f}  {c1:4.0f}   {theta_c0:8.4f} {n:6d} {k0:5d}"
                        f"   {summary['pass_rate']:8.2f}  {max(summary['per_trial_max_rel_error']):12.4f}"
                    )


def scan_compare(trials: int, seed: int, out_dir: Path) -> None:
    print("theta     k0   win_rate   med_q95_trimmed   med_q95_mean   q90_max_trimmed   q90_max_mean")
    for theta in (0.0015, 0.002, 0.004, 0.008, 0.016, 0.032):
        cfg = ExperimentConfig(
            dist="product_student_t", nu=4.5, dim=20, n=1000, p=2.0, directions=500, trials=trials,
            theta=theta, seed=seed, out_dir=str(out_dir),
        )
        result = run_compare(cfg)
        rows = np.genfromtxt(result.rows_path, delimiter=",", names=True, skip_header=1)
        summary = result.summary
        print(
            f"{theta:7.4f} {cut_rank(theta, cfg.n):4d}   {summary['trimmed_win_rate']:8.3f}"
            f"   {np.median(rows['q95_trimmed']):15.4f}   {np.median(rows['q95_mean']):12.4f}"
            f"   {summary['q90_max_trimmed']:15.4f}   {summary['q90_max_mean']:12.4f}"
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scan", choices=("sandwich", "compare"))
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=123)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as out_dir:
        if args.scan == "sandwich":
            scan_sandwich(args.trials or 20, args.seed, Path(out_dir))
        else:
            scan_compare(args.trials or 200, args.seed, Path(out_dir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
