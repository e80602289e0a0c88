from fractions import Fraction

import numpy as np
import pytest

from helpers import per_direction_comparison
from lptrim import checks
from lptrim.checks import (
    Verdict,
    _direction_estimates,
    check_empirical_integral_sandwich,
    check_moment_sandwich,
    check_trim_threshold_sandwich,
    check_trimmed_sum_brackets,
    comparison_trial_row,
    scan_error_constant_grid,
)
from lptrim.config import ExperimentConfig
from lptrim.core import RatioParams, TrimSpec, project_abs, trim_threshold, trimmed_p_mean, truncated_power_mean
from lptrim.distributions import (
    DistributionSpec,
    EmpiricalCDF,
    HalfUniformCDF,
    MomentOracle,
    draw_sample,
    marginal_cdf,
    sphere_directions,
)
from lptrim.oracle import upper_quantile
from lptrim.ratio import ratio_properties_report
from lptrim.runner import run_compare

PARAMS = RatioParams(delta=0.01, lam=0.5, big_c=2.0)
UNIFORM01 = HalfUniformCDF(width=1.0)


def report(values, cdf, params=PARAMS):
    return ratio_properties_report(values, cdf, params)


def at_delta(delta):
    """PARAMS with another tail mass delta."""
    return RatioParams(delta=delta, lam=PARAMS.lam, big_c=PARAMS.big_c)


def gaussian_values(n=10_000, seed=7):
    spec = DistributionSpec("gaussian", 1)
    sample = draw_sample(spec, n, seed)
    return project_abs(sample, [1.0]), marginal_cdf(spec, [1.0])


class TestThresholdSandwich:
    def test_gaussian_sandwich_holds(self):
        values, cdf = gaussian_values()
        out = check_trim_threshold_sandwich(report(values, cdf), 0.1)
        assert out.verdict is Verdict.PASS
        w = out.witnesses
        assert w["quantile_at_inflated_level"] < w["trim_threshold"] < w["quantile_at_deflated_level"]
        # the packaged sufficient gate is not met at these parameters; recorded only
        assert w["stated_theta_gate"] == 0.0

    def test_exact_sample_threshold_is_the_quantile(self, rng):
        values = rng.uniform(0, 1, 400)
        cdf = EmpiricalCDF(values)
        out = check_trim_threshold_sandwich(report(values, cdf), 0.1)
        assert out.verdict is Verdict.PASS
        assert trim_threshold(values, 0.1) == upper_quantile(cdf, 0.1)

    def test_theta_below_gate_not_applicable(self):
        # big_c < 3/2 so that the threshold-tail gate binds before the
        # deflated-level one: 2 C delta = 0.024 < theta < (C + 3/2) delta = 0.027
        params = RatioParams(delta=0.01, lam=0.5, big_c=1.2)
        values, cdf = gaussian_values(2000)
        out = check_trim_threshold_sandwich(report(values, cdf, params), 0.025)
        assert out.verdict is Verdict.NOT_APPLICABLE
        assert "threshold tail mass" in out.reason

    def test_theta_below_level_floor_not_applicable(self):
        values, cdf = gaussian_values(2000)
        out = check_trim_threshold_sandwich(report(values, cdf), 0.015)
        assert out.verdict is Verdict.NOT_APPLICABLE
        assert "2*C*delta" in out.reason

    def test_property_violation_is_not_a_failure(self):
        # a flat sample has a huge interval atom: the gates fail, never the check
        values = np.full(200, 0.5)
        out = check_trim_threshold_sandwich(report(values, UNIFORM01), 0.1)
        assert out.verdict is Verdict.NOT_APPLICABLE
        assert "ratio properties fail" in out.reason


class TestTrimmedSumBrackets:
    def test_gaussian_brackets_hold(self):
        values, cdf = gaussian_values()
        for p in (1.0, 2.0, 3.0):
            out = check_trimmed_sum_brackets(report(values, cdf), TrimSpec(p=p, theta=0.1))
            assert out.verdict is Verdict.PASS
            w = out.witnesses
            assert w["lower"] <= w["trimmed_mean"] <= w["upper"]

    def test_four_point_hand_arithmetic(self):
        # the exact empirical tail integral behind the brackets, checked in
        # rational arithmetic: (1/N) sum min(x_i, cap)^p
        values = [1.0, 2.0, 3.0, 10.0]
        cap = 2.5
        expected = (Fraction(1) + Fraction(4) + 2 * Fraction(25, 4)) / 4
        assert truncated_power_mean(values, 2, cap) == float(expected)
        # and the deterministic inner bracket around the trimmed mean
        theta = 0.5
        threshold = trim_threshold(values, theta)  # 2nd largest = 3
        psi = trimmed_p_mean(values, TrimSpec(p=2, theta=theta))
        below = truncated_power_mean(values, 2, threshold) - threshold ** 2 * (
            np.sum(np.asarray(values) > threshold) / len(values)
        )
        assert below - theta * threshold ** 2 <= psi <= truncated_power_mean(values, 2, threshold)

    def test_no_trim_upper_bound_tight(self, rng):
        # k0 = 1: the trimmed mean equals the plain mean and the upper bracket
        # capped above the maximum is exactly the plain mean
        values = rng.uniform(0.1, 1.0, 50)
        psi = trimmed_p_mean(values, TrimSpec(p=2, theta=0.01))
        assert truncated_power_mean(values, 2, float(values.max())) == pytest.approx(psi, rel=1e-12)


class TestIntegralSandwich:
    def test_gaussian_passes(self):
        values, cdf = gaussian_values()
        t_cap = upper_quantile(cdf, 0.1)
        out = check_empirical_integral_sandwich(report(values, cdf, at_delta(0.02)), 2.0, t_cap)
        assert out.verdict is Verdict.PASS

    def test_exact_sample_slack_at_least_error_term(self, rng):
        values = rng.uniform(0, 1, 500)
        cdf = EmpiricalCDF(values)
        t_cap = upper_quantile(cdf, 0.2)
        out = check_empirical_integral_sandwich(report(values, cdf, at_delta(0.05)), 2.0, t_cap)
        assert out.verdict is Verdict.PASS
        assert out.witnesses["slack_upper"] >= out.witnesses["error_term"] - 1e-12
        assert out.witnesses["slack_lower"] >= out.witnesses["error_term"] - 1e-12

    def test_cap_beyond_admissible_mass_not_applicable(self):
        values, cdf = gaussian_values(2000)
        out = check_empirical_integral_sandwich(report(values, cdf, at_delta(0.02)), 2.0, 5.0)
        assert out.verdict is Verdict.NOT_APPLICABLE

    def test_property_violation_gates_the_check(self):
        values = np.full(300, 0.5)
        out = check_empirical_integral_sandwich(report(values, UNIFORM01, at_delta(0.05)), 2.0, 0.7)
        assert out.verdict is Verdict.NOT_APPLICABLE


class TestMomentSandwich:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_gaussian_passes(self, p):
        values, cdf = gaussian_values()
        out = check_moment_sandwich(report(values, cdf), TrimSpec(p=p, theta=0.1))
        assert out.verdict is Verdict.PASS
        w = out.witnesses
        assert w["lower"] <= w["trimmed_mean"] <= w["upper"]

    def test_student_t_passes(self):
        spec = DistributionSpec("product_student_t", 1, nu=6.0)
        sample = draw_sample(spec, 10_000, 13)
        values = project_abs(sample, [1.0])
        cdf = marginal_cdf(spec, [1.0])
        out = check_moment_sandwich(report(values, cdf), TrimSpec(p=2.0, theta=0.1))
        assert out.verdict is Verdict.PASS

    def test_exact_sample_within_oracle_error_terms(self, rng):
        values = rng.uniform(0, 1, 1000)
        cdf = EmpiricalCDF(values)
        out = check_moment_sandwich(report(values, cdf), TrimSpec(p=2.0, theta=0.1))
        assert out.verdict is Verdict.PASS

    def test_gate_violation_not_applicable(self):
        values, cdf = gaussian_values(2000)
        out = check_moment_sandwich(report(values, cdf), TrimSpec(p=2.0, theta=0.015))
        assert out.verdict is Verdict.NOT_APPLICABLE


class TestScanGrid:
    def test_grid_shape_and_fields(self):
        values, cdf = gaussian_values(2000)
        rows = scan_error_constant_grid(report(values, cdf), 2.0)
        assert len(rows) == 16
        assert all(row.theta >= 1 / 2000 for row in rows)
        # informational only: slacks are finite and recorded
        assert all(np.isfinite(row.upper_slack) and np.isfinite(row.lower_slack) for row in rows)


def compare_rows(tmp_path, **fields):
    """The rows file of one run_compare call, as a structured array."""
    result = run_compare(ExperimentConfig(out_dir=str(tmp_path), **fields))
    return np.genfromtxt(result.rows_path, delimiter=",", names=True, skip_header=1, dtype=None, encoding="utf-8")


# (n, directions): a block holds max(1, 2**15 // n) directions, 32 at n = 1000
BLOCK_CASES = {
    "one-direction": (1000, 1),
    "below-one-block": (1000, 5),
    "one-block": (1000, 32),
    "above-one-block": (1000, 70),
    "one-direction-per-block": (40_000, 3),
}


@pytest.mark.parametrize("theta", [1e-6, 0.01], ids=["no-trim", "trim"])
@pytest.mark.parametrize("case", list(BLOCK_CASES))
def test_blocked_projection_matches_the_per_direction_loop(case, theta, monkeypatch):
    n, m = BLOCK_CASES[case]
    spec = DistributionSpec("product_student_t", 4, nu=4.5)
    directions = sphere_directions(4, m, 7)
    trim = TrimSpec(p=2.0, theta=theta)
    truths = MomentOracle(spec).moments(directions, trim.p)
    blocks = []

    def recording_project_abs(sample, v):
        out = project_abs(sample, v)
        blocks.append(out.shape)
        return out

    monkeypatch.setattr(checks, "project_abs", recording_project_abs)
    row = comparison_trial_row(spec, n, 0, 11, directions, truths, trim)
    trimmed, means = _direction_estimates(draw_sample(spec, n, 11), directions, trim)
    naive_row, naive_trimmed, naive_means = per_direction_comparison(spec, n, 0, 11, directions, truths, trim)

    per_block = max(1, 2**15 // n)
    sizes = [min(per_block, m - start) for start in range(0, m, per_block)]
    assert blocks == [(rows, n) for rows in sizes] * 2
    np.testing.assert_allclose(trimmed, naive_trimmed, rtol=1e-12, atol=0)
    np.testing.assert_allclose(means, naive_means, rtol=1e-12, atol=0)
    assert row.winner == naive_row.winner
    if trim.cut_rank(n) == 1:
        for row_ in (row, naive_row):
            assert (row_.q50_trimmed, row_.q95_trimmed, row_.max_trimmed) == (
                row_.q50_mean, row_.q95_mean, row_.max_mean)
            assert row_.winner == "tie"


class TestCompareEstimators:
    def test_no_trim_gives_identical_columns(self, tmp_path):
        rows = compare_rows(tmp_path, dist="gaussian", dim=3, n=500, p=2.0, directions=10, trials=3,
                            theta=0.001, seed=3)
        assert rows.size == 3
        for col in ("q50", "q95", "max"):
            assert np.array_equal(rows[f"{col}_trimmed"], rows[f"{col}_mean"])
        assert all(rows["winner"] == "tie")

    def test_gaussian_medians_within_factor_two(self, tmp_path):
        # light tails: a trim of a few points costs little (theta calibrated
        # so the trim bias sits at the sampling-noise scale)
        rows = compare_rows(tmp_path, dist="gaussian", dim=5, n=5000, p=2.0, directions=50, trials=10,
                            theta=0.001, seed=9)
        med_t = np.median(rows["q50_trimmed"])
        med_m = np.median(rows["q50_mean"])
        assert med_t <= 2 * med_m
        assert med_m <= 2 * med_t

    def test_winner_column_semantics(self, tmp_path):
        rows = compare_rows(tmp_path, dist="product_student_t", nu=4.5, dim=4, n=400, p=2.0, directions=20,
                            trials=5, theta=0.01, seed=5)
        for row in rows:
            if row["q95_trimmed"] < row["q95_mean"]:
                assert row["winner"] == "trimmed"
            elif row["q95_mean"] < row["q95_trimmed"]:
                assert row["winner"] == "mean"
