import math

import numpy as np
import pytest

from helpers import (
    exhaustive_interval_excess,
    exhaustive_rademacher,
    grid_ratio_deviation,
    interval_excess_by_masses,
)
from lptrim.config import ConfigError, ExperimentConfig
from lptrim.core import RatioParams, project_abs
from lptrim.distributions import (
    DistributionSpec,
    EmpiricalCDF,
    FoldedNormalCDF,
    HalfUniformCDF,
    draw_sample,
    marginal_cdf,
)
from lptrim.ratio import (
    _distinct_pass,
    interval_excess_sup,
    rademacher_interval_complexity,
    ratio_floor,
    ratio_properties_report,
)
from lptrim.oracle import upper_quantile
from lptrim.runner import run_ratio_check
from lptrim.seeding import child_seed

UNIFORM01 = HalfUniformCDF(width=1.0)


def exact_sample_cdf(values):
    """Reference law equal to the empirical law of the sample itself."""
    return EmpiricalCDF(values, seed=0)


def report(values, cdf, delta, lam=0.5):
    """The ratio report at (delta, lam); the ratio suprema do not depend on lam or C."""
    return ratio_properties_report(values, cdf, RatioParams(delta=delta, lam=lam, big_c=2.0))


class TestTailRatio:
    def test_identity_sample_has_zero_deviation(self, rng):
        values = rng.uniform(0, 1, 200)
        res = report(values, exact_sample_cdf(values), 0.1).tail
        assert res.worst_dev == 0.0
        assert res.ok

    def test_two_point_sample_against_uniform(self):
        # exact supremum is 1, attained on [0.75, quantile(0.2)]
        res = report([0.25, 0.75], UNIFORM01, 0.2).tail
        assert res.worst_dev == pytest.approx(1.0, abs=1e-9)
        assert not res.ok
        # brute force over a dense admissible grid never exceeds the reported sup
        grid = np.linspace(1e-6, 0.8, 40_001)
        assert grid_ratio_deviation([0.25, 0.75], UNIFORM01, 0.2, grid) <= res.worst_dev + 1e-9

    def test_single_point_at_median(self):
        res = report([0.5], UNIFORM01, 0.4).tail
        assert res.worst_dev == pytest.approx(1.0, abs=1e-9)
        assert not res.ok

    def test_breakpoint_completeness_random_grids(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 80))
            values = rng.exponential(size=n)
            delta = float(rng.uniform(0.05, 0.4))
            cdf = EmpiricalCDF(rng.exponential(size=1000), seed=0)
            res = report(values, cdf, delta).tail
            grid = rng.uniform(0, np.max(values) * 1.5, size=400)
            assert grid_ratio_deviation(values, cdf, delta, grid) <= res.worst_dev + 1e-9

    def test_empty_admissible_range_rejected(self):
        sub_unit = EmpiricalCDF([0.0, 0.0, 1.0], seed=0)  # sf(0) = 1/3
        with pytest.raises(ValueError):
            report([0.5], sub_unit, 0.5)


class TestDyadicRatio:
    def test_level_zero_matches_tail_check(self, rng):
        values = rng.exponential(size=150)
        cdf = EmpiricalCDF(rng.exponential(size=2000), seed=0)
        delta = 0.07
        levels = report(values, cdf, delta).dyadic.levels
        assert levels[0].j == 0
        assert levels[0].bound == 1.0
        assert levels[0].worst_dev == report(values, cdf, delta, lam=0.9).tail.worst_dev

    def test_identity_sample_all_levels_zero(self, rng):
        values = rng.uniform(0, 1, 300)
        res = report(values, exact_sample_cdf(values), 0.02).dyadic
        assert all(level.worst_dev == 0.0 for level in res.levels)
        assert len(res.levels) == 6  # 0.02 * 2^5 = 0.64 <= 1 < 1.28

    def test_golden_record_reproduces_bit_for_bit(self):
        # frozen from a fixed-seed gaussian run; any drift in the candidate
        # machinery or the quantile bisection shows up here
        spec = DistributionSpec("gaussian", 1)
        sample = draw_sample(spec, 10_000, child_seed(2024, "golden"))
        values = project_abs(sample, [1.0])
        cdf = marginal_cdf(spec, [1.0])
        res = report(values, cdf, 0.05).dyadic
        expected = [
            (0, 0.04007691082639531),
            (1, 0.026308637522789002),
            (2, 0.02032638211647786),
            (3, 0.011749113278906487),
            (4, 0.0035906456740379955),
        ]
        got = [(level.j, level.worst_dev) for level in res.levels]
        assert got == expected
        assert res.ok

    def test_passing_level_one_implies_tail_at_inverse_sqrt2(self, rng):
        for trial in range(20):
            values = np.random.default_rng(trial).standard_normal(500) ** 2
            cdf = EmpiricalCDF(np.random.default_rng(1000 + trial).standard_normal(20_000) ** 2, seed=0)
            res = report(values, cdf, 0.03).dyadic
            if len(res.levels) > 1 and res.levels[1].ok:
                assert report(values, cdf, 2 * 0.03, lam=2.0 ** -0.5).tail.ok


    def test_level_one_region_of_a_reference_law(self, rng):
        # the reference's smallest value is 0.5, so P(f > t) = 1 exactly on
        # (0, 0.5): with delta = 2^-3 the last dyadic level is that region
        values = rng.exponential(size=200)
        cdf = EmpiricalCDF(0.5 + rng.exponential(size=500), seed=0)
        levels = report(values, cdf, 0.125).dyadic.levels
        assert [level.level for level in levels] == [0.125, 0.25, 0.5, 1.0]
        r_min = float(cdf.values[0])
        grid = np.append(np.linspace(1e-9, r_min, 10_001)[:-1], np.nextafter(r_min, 0.0))
        assert levels[-1].worst_dev == grid_ratio_deviation(values, cdf, 1.0, grid)
        assert levels[-1].worst_dev == 1.0 - np.mean(values >= r_min)
        wide = np.linspace(1e-9, 2.0 * np.max(values), 4001)
        for level in levels:
            assert grid_ratio_deviation(values, cdf, level.level, wide) <= level.worst_dev + 1e-12

    @pytest.mark.parametrize("cdf", [FoldedNormalCDF(scale=1.0), EmpiricalCDF([0.0, 0.3, 1.0, 2.0], seed=0)],
                             ids=["analytic", "reference_with_zero"])
    def test_level_one_region_empty(self, rng, cdf):
        # a continuous tail, or a reference with mass at 0, is below 1 for every t > 0
        values = rng.exponential(size=300)
        levels = report(values, cdf, 0.125).dyadic.levels
        assert all(level.level < 1.0 for level in levels)
        assert grid_ratio_deviation(values, cdf, 1.0, np.linspace(1e-9, 5.0, 2001)) == 0.0


class TestIntervalExcess:
    def test_three_point_example(self):
        res = interval_excess_sup([0.1, 0.2, 0.9], UNIFORM01, 2.0, 0.05)
        assert res.sup == pytest.approx(2 / 3 - 1.5 * 0.1, rel=1e-12)

    def test_single_far_point(self):
        res = interval_excess_sup([0.95], UNIFORM01, 2.0, 0.05)
        # the singleton interval keeps 1/N and pays (3/2) * 0 point mass
        assert res.sup == pytest.approx(1.0 - 1.5 * 0.0, rel=1e-12) or res.sup <= 1.0
        assert res.sup >= 0.0

    def test_identity_sample_sup_is_zero(self, rng):
        values = rng.uniform(0, 1, 100)
        res = interval_excess_sup(values, exact_sample_cdf(values), 2.0, 0.05)
        assert res.sup == 0.0

    def test_scan_equals_exhaustive_exactly(self, rng):
        for trial in range(100):
            local = np.random.default_rng(trial)
            n = int(local.integers(2, 200))
            if trial % 3 == 0:
                values = local.uniform(0, 1, n)
                cdf = UNIFORM01
            elif trial % 3 == 1:
                values = local.exponential(size=n)
                cdf = EmpiricalCDF(local.exponential(size=500), seed=0)
            else:
                # duplicated values exercise the atom merging
                values = local.integers(0, 8, size=n) / 7.0
                cdf = EmpiricalCDF(local.integers(0, 8, size=300) / 7.0, seed=0)
            got = interval_excess_sup(values, cdf, 2.0, 0.05).sup
            assert got == max(0.0, exhaustive_interval_excess(values, cdf))

    def test_scan_matches_mass_based_search(self, rng):
        for trial in range(30):
            local = np.random.default_rng(200 + trial)
            values = local.exponential(size=int(local.integers(2, 60)))
            cdf = EmpiricalCDF(local.exponential(size=400), seed=0)
            got = interval_excess_sup(values, cdf, 2.0, 0.05).sup
            brute = max(0.0, interval_excess_by_masses(values, cdf))
            assert got == pytest.approx(brute, abs=1e-10)


class TestRademacher:
    def test_three_values(self):
        assert rademacher_interval_complexity([1, 2, 3], [1, -1, 1]) == pytest.approx(1 / 3)

    def test_all_plus(self):
        assert rademacher_interval_complexity([5, 1, 9, 2], [1, 1, 1, 1]) == 1.0

    def test_matches_exhaustive_search(self, rng):
        for trial in range(100):
            local = np.random.default_rng(trial)
            n = int(local.integers(1, 50))
            values = local.uniform(0, 10, n)
            signs = local.choice([-1, 1], size=n)
            got = rademacher_interval_complexity(values, signs)
            assert got == exhaustive_rademacher(values, signs)

    def test_monitoring_curve_scale(self, rng):
        # averaged over sign draws the complexity tracks sqrt(log n / n);
        # recorded as a scale check, factor-two band around the fitted constant
        n = 1000
        values = rng.uniform(0, 1, n)
        draws = []
        for k in range(200):
            signs = np.random.default_rng(k).choice([-1, 1], size=n)
            draws.append(rademacher_interval_complexity(values, signs))
        avg = float(np.mean(draws))
        fitted = 0.85 * math.sqrt(math.log(math.e * n) / n)
        assert fitted / 2 <= avg <= 2 * fitted

    def test_rejects_bad_signs(self):
        with pytest.raises(ValueError):
            rademacher_interval_complexity([1, 2], [1, 0])


def ratio_summary(tmp_path, **fields):
    return run_ratio_check(ExperimentConfig(dist="gaussian", out_dir=str(tmp_path), **fields)).summary


class TestFailureRate:
    def test_gaussian_small_run_zero_failures(self, tmp_path):
        summary = ratio_summary(tmp_path, dim=3, n=2000, delta=0.05, directions=10, trials=5, seed=11)
        assert summary["failure_rate"] == 0.0
        assert summary["n_directions"] == 10 + 2 * 3
        assert summary["delta_above_floor"]

    def test_delta_above_half_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            ratio_summary(tmp_path, dim=3, n=100, delta=0.6, directions=2, trials=1, seed=0)

    def test_below_floor_flagged_but_runs(self, tmp_path):
        summary = ratio_summary(tmp_path, dim=4, n=300, delta=0.011, directions=2, trials=1, seed=0)
        assert not summary["delta_above_floor"]
        assert 0.0 <= summary["failure_rate"] <= 1.0

    def test_floor_formula(self):
        assert ratio_floor(10, 5000) == pytest.approx((10 / 5000) * math.log(math.e * 500))

    def test_report_bundle_consistency(self, rng):
        values = rng.standard_normal(500) ** 2
        cdf = EmpiricalCDF(rng.standard_normal(20_000) ** 2, seed=0)
        params = RatioParams(delta=0.05, lam=0.5, big_c=2.0)
        rep = ratio_properties_report(values, cdf, params)
        assert rep.tail.worst_dev == rep.dyadic.levels[0].worst_dev
        assert rep.interval.sup == interval_excess_sup(values, cdf, 2.0, 0.05).sup
        assert rep.all_pass == (rep.tail.ok and rep.dyadic.ok and rep.interval.ok)


def _report_cases():
    local = np.random.default_rng(7)
    ties = local.integers(0, 8, size=400) / 7.0  # ties and a point mass at 0
    return [
        ("ties_vs_reference_with_atoms", ties, EmpiricalCDF(local.integers(0, 8, size=3000) / 7.0, seed=0)),
        ("ties_vs_half_uniform", np.round(local.uniform(0, 1, 500), 2), UNIFORM01),
        ("zeros_vs_folded_normal", np.append(local.standard_normal(600), np.zeros(5)), FoldedNormalCDF(scale=1.0)),
        ("continuous_vs_reference", local.exponential(size=700), EmpiricalCDF(local.exponential(size=5000), seed=0)),
    ]


REPORT_CASES = _report_cases()


class TestSharedDistinctPass:
    @pytest.mark.parametrize("name, values, cdf", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
    @pytest.mark.parametrize("delta", [0.05, 0.125])
    def test_report_equals_the_standalone_checkers(self, name, values, cdf, delta):
        params = RatioParams(delta=delta, lam=0.5, big_c=2.0)
        rep = ratio_properties_report(values, cdf, params)
        assert rep.tail.worst_dev == rep.dyadic.levels[0].worst_dev
        assert (rep.tail.delta, rep.tail.lam, rep.dyadic.delta) == (delta, 0.5, delta)
        # a grid holding the one-sided limits at sample points and region
        # boundaries attains the reported suprema
        xs = np.abs(np.asarray(values, dtype=float))
        qs = np.array([upper_quantile(cdf, level.level) for level in rep.dyadic.levels if level.level < 1])
        grid = np.concatenate([np.linspace(1e-9, 1.5 * xs.max(), 3001), xs, np.nextafter(xs, 0.0),
                               qs, np.nextafter(qs, 0.0), qs - 2e-9])
        for level in rep.dyadic.levels:
            assert grid_ratio_deviation(values, cdf, level.level, grid) == pytest.approx(level.worst_dev, abs=1e-12)
        assert rep.interval == interval_excess_sup(values, cdf, 2.0, delta)
        assert rep.interval.sup == max(0.0, exhaustive_interval_excess(values, cdf))

    @pytest.mark.parametrize("values", [
        [3.0],
        [2.0, 2.0, 2.0],
        [0.0, 0.0, 1.0, 2.0, 2.0],
        [-1.0, 1.0, 0.5, -0.5, 0.0],
        np.random.default_rng(3).integers(0, 5, size=200) / 4.0,
        np.random.default_rng(4).standard_normal(300),
    ], ids=["single", "all_equal", "zeros_first", "signed_ties", "many_ties", "no_ties"])
    def test_distinct_values_and_counts_equal_np_unique(self, values):
        d = _distinct_pass(values, UNIFORM01)
        xs = np.sort(np.abs(np.asarray(values, dtype=float)))
        u, first, counts = np.unique(xs, return_index=True, return_counts=True)
        assert np.array_equal(d.xs, xs)
        assert np.array_equal(d.u, u)
        assert np.array_equal(d.starts, first)
        assert np.array_equal(d.counts, counts)
        assert np.array_equal(d.sf, UNIFORM01.sf(u))
        assert np.array_equal(d.sf_left, UNIFORM01.sf_left(u))

    def test_reference_law_tails_are_counted_exactly(self):
        cdf = EmpiricalCDF(np.random.default_rng(5).integers(0, 6, size=999) / 5.0, seed=0)
        d = _distinct_pass([0.0, 0.2, 0.2, 0.7, 1.0], cdf)
        assert np.array_equal(d.sf, cdf.sf(d.u))
        assert np.array_equal(d.atom, cdf.atom(d.u))
        assert np.array_equal(d.sf_left, cdf.sf_left(d.u))
