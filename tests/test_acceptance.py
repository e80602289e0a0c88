"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Calibrated constants, recorded here and in the README:

* sample-size constant   SAMPLE_C1 = 8.0      (n = ceil(c1 d log(2/eps) / eps^2))
* trim-fraction constant THETA_C0  = 0.0625   (theta = max(c0 eps^2, 1/n))
* heavy-tail comparison  COMPARE_THETA = 0.002 (smallest non-trivial trim at n=1000;
  lowest 0.90 trial-quantile of the trimmed sup error in the compare scan)

Chosen by the scans in scripts/calibrate_sandwich.py.
"""

import math

import numpy as np

from helpers import exhaustive_interval_excess, exhaustive_rademacher
from lptrim.cli import main
from lptrim.config import ExperimentConfig
from lptrim.core import TrimSpec, empirical_p_mean, trimmed_p_mean
from lptrim.distributions import (
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    gaussian_abs_moment,
)
from lptrim.oracle import check_tail_moment_bounds, raw_moment
from lptrim.ratio import interval_excess_sup, rademacher_interval_complexity
from lptrim.runner import run_compare, run_lemma_check, run_ratio_check, run_sandwich

SAMPLE_C1 = 8.0
THETA_C0 = 0.0625
COMPARE_THETA = 0.002
MASTER_SEED = 20_240_817


def report(criterion: int, name: str, passed: bool, detail: str = "") -> bool:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status} {detail}")
    return passed


def test_criterion_1_deterministic_invariants():
    rng = np.random.default_rng(MASTER_SEED)
    ok = True
    for _ in range(10_000):
        n = int(rng.integers(2, 40))
        values = rng.normal(scale=10.0, size=n)
        theta = float(rng.uniform(0.02, 0.95))
        p = float(rng.uniform(1.0, 4.0))
        spec = TrimSpec(p=p, theta=theta)
        trimmed = trimmed_p_mean(values, spec)
        plain = empirical_p_mean(values, p)
        ok &= trimmed <= plain  # exact comparison, no tolerance
        c = float(rng.uniform(1e-3, 1e3))
        scaled = trimmed_p_mean(c * values, spec)
        ok &= math.isclose(scaled, c ** p * trimmed, rel_tol=1e-12, abs_tol=1e-300)
        shuffled = values[rng.permutation(n)]
        ok &= trimmed_p_mean(shuffled, spec) == trimmed
        no_trim = TrimSpec(p=p, theta=0.5 / n)
        ok &= trimmed_p_mean(values, no_trim) == plain
    assert report(1, "deterministic invariants", ok)


def test_criterion_2_oracle_consistency():
    gauss_ok = True
    for p in (1, 2, 3, 4, 6):
        got = raw_moment(FoldedNormalCDF(scale=1.0), float(p))
        gauss_ok &= math.isclose(got, gaussian_abs_moment(float(p)), rel_tol=1e-6)

    laws = [
        FoldedNormalCDF(scale=1.0),
        HalfUniformCDF(width=math.sqrt(3.0)),
        ExponentialCDF(scale=1.0 / math.sqrt(2.0)),
        FoldedStudentTCDF(nu=6.0, scale=math.sqrt(4.0 / 6.0)),
    ]
    grid_ok, n_points = True, 0
    for cdf in laws:
        for p in (1.0, 2.0, 3.0):
            q = 2 * p + 2
            if max(2 * p, q) >= cdf.max_finite_moment:
                q = p + cdf.max_finite_moment / 2
                if q <= 2 * p or q >= cdf.max_finite_moment:
                    continue  # required moments do not exist
            for kappa in (0.3, 0.1, 0.01):
                rows = check_tail_moment_bounds(cdf, p, q, kappa, 0.02)
                grid_ok &= all(r.ok and r.slack > 0 for r in rows)
                n_points += 1
    assert report(
        2, "oracle consistency", gauss_ok and grid_ok,
        f"(gaussian moments to 1e-6; {n_points} bound grid points, all positive slack)",
    )


def test_criterion_3_scan_vs_brute_force():
    uniform = HalfUniformCDF(width=1.0)
    ok = True
    for trial in range(100):
        local = np.random.default_rng(trial)
        n = int(local.integers(2, 201))
        if trial % 2 == 0:
            values = local.uniform(0, 1, n)
            cdf = uniform
        else:
            values = local.exponential(size=n)
            cdf = EmpiricalCDF(local.exponential(size=300))
        got = interval_excess_sup(values, cdf)
        ok &= got == max(0.0, exhaustive_interval_excess(values, cdf))
        signs = local.choice([-1, 1], size=n)
        ok &= rademacher_interval_complexity(values, signs) == exhaustive_rademacher(values, signs)
    assert report(3, "scan equals exhaustive search", ok, "(100 instances, exact equality)")


def test_criterion_4_lemma_suite(tmp_path):
    trials = 1000
    cfg = ExperimentConfig(
        nu=6.0, n=10_000, trials=trials, theta=0.1, t_level=0.1, delta=0.01,
        seed=MASTER_SEED, out_dir=str(tmp_path),
    )
    summary = run_lemma_check(cfg).summary
    counts = summary["counts"]
    passed = counts["fail"] == 0
    assert report(
        4, "lemma suite", passed,
        f"(checks: {counts['pass']} pass, {counts['not_applicable']} n/a, {counts['fail']} fail"
        f" over {4 * trials} trials x 3 exponents x 4 validators)",
    ), summary["failures"][:5]


def test_criterion_5_sandwich_experiment(tmp_path):
    all_ok = True
    details = []
    for dist in ("gaussian", "product_laplace"):
        for p in (2.0, 3.0):
            cfg = ExperimentConfig(
                dist=dist, dim=20, p=p, epsilon=0.25, directions=500, trials=20,
                seed=MASTER_SEED, out_dir=str(tmp_path / f"{dist}_{p}"),
                theta_c0=THETA_C0, sample_c1=SAMPLE_C1,
            )
            result = run_sandwich(cfg)
            all_ok &= result.summary["pass_rate"] >= 0.95
            details.append(f"{dist} p={p}: rate {result.summary['pass_rate']:.2f}")
    assert report(5, "sandwich experiment", all_ok, "(" + "; ".join(details) + ")")


def test_criterion_6_heavy_tail_superiority(tmp_path):
    cfg = ExperimentConfig(
        dist="product_student_t", nu=4.5, dim=20, n=50 * 20, p=2.0, directions=500, trials=200,
        theta=COMPARE_THETA, seed=MASTER_SEED, out_dir=str(tmp_path),
    )
    summary = run_compare(cfg).summary
    # The paper bounds the error uniformly over directions, with high probability
    # over the sample; it promises no per-trial win at p=2.  So: with probability
    # 0.90 over the sample, the trimmed estimator's uniform error is smaller than
    # the plain mean's.  A trial's uniform error is its worst relative error over
    # the probe directions.
    sup_trimmed, sup_mean = summary["q90_max_trimmed"], summary["q90_max_mean"]
    passed = sup_trimmed < sup_mean
    assert report(
        6, "heavy-tail superiority", passed,
        f"(0.90 trial-quantile of the sup error: trimmed {sup_trimmed:.3f}, mean {sup_mean:.3f},"
        f" required trimmed < mean; per-trial 95th-percentile win rate"
        f" {summary['trimmed_win_rate']:.3f}, not promised at p=2)",
    )


def test_criterion_7_ratio_property_event(tmp_path):
    rates = []
    for n in (5000, 10_000, 20_000):
        cfg = ExperimentConfig(
            dist="gaussian", dim=10, n=n, delta=0.05, directions=200, trials=50,
            seed=MASTER_SEED, out_dir=str(tmp_path / str(n)),
        )
        rates.append(run_ratio_check(cfg).summary["failure_rate"])
    passed = rates[0] <= 0.05 and rates[1] <= rates[0] and rates[2] <= rates[1]
    assert report(
        7, "ratio-property event", passed,
        f"(failure rates at n=5000,10000,20000: {rates[0]:.3f}, {rates[1]:.3f}, {rates[2]:.3f})",
    )


def _command_outputs(out_dir):
    return sorted(p for p in out_dir.iterdir() if p.suffix in (".csv", ".json"))


def test_criterion_8_reproducibility(tmp_path):
    commands = {
        "sandwich": ["sandwich", "--dist", "gaussian", "--dim", "3", "--n", "1200", "--p", "2",
                     "--epsilon", "0.3", "--directions", "10", "--trials", "4"],
        "ratio": ["ratio-check", "--dist", "gaussian", "--dim", "3", "--n", "1500",
                  "--delta", "0.05", "--directions", "6", "--trials", "4"],
        "lemma": ["lemma-check", "--n", "2500", "--trials", "2", "--theta", "0.1", "--delta", "0.01"],
        "compare": ["compare", "--dist", "product_student_t", "--nu", "4.5", "--dim", "4",
                    "--n", "600", "--p", "2", "--theta", "0.01", "--directions", "8", "--trials", "4"],
        "oracle": ["oracle", "--dist", "gaussian", "--query", "upper-moment", "--p", "2", "--kappa", "0.1"],
    }
    ok = True
    details = []
    for name, args in commands.items():
        out_dir = tmp_path / name
        blobs = []
        for threads in (1, 4, 8):
            extra = ["--seed", "99", "--threads", str(threads), "--out-dir", str(out_dir)]
            if name == "oracle":
                extra += ["--out-file", str(out_dir / "oracle_result.json")]
                out_dir.mkdir(exist_ok=True)
            code = main(args + extra)
            assert code == 0, f"{name} exited {code}"
            blobs.append({p.name: p.read_bytes() for p in _command_outputs(out_dir)})
        identical = blobs[0] == blobs[1] == blobs[2]
        ok &= identical
        details.append(f"{name}: {'identical' if identical else 'DIFFERS'}")
    assert report(8, "reproducibility across worker counts", ok, "(" + "; ".join(details) + ")")
