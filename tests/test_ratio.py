import math
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    allocating_interval_excess,
    exhaustive_interval_excess,
    exhaustive_rademacher,
    grid_ratio_deviation,
    interval_excess_by_masses,
    masked_dyadic_levels,
)
from lptrim import ratio, runner
from lptrim.config import ConfigError, ExperimentConfig
from lptrim.core import RatioParams, project_abs
from lptrim.distributions import (
    DistributionSpec,
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    REFERENCE_LAWS_KEPT,
    MarginalCDF,
    _reference_law,
    draw_sample,
    marginal_cdf,
)
from lptrim.ratio import (
    _distinct_pass,
    interval_excess_sup,
    probe_directions,
    rademacher_interval_complexity,
    ratio_floor,
    ratio_properties_report,
    ratio_trial_rows,
)
from lptrim.oracle import upper_quantile
from lptrim.runner import run_ratio_check
from lptrim.seeding import child_seed

UNIFORM01 = HalfUniformCDF(width=1.0)


def exact_sample_cdf(values):
    """Reference law equal to the empirical law of the sample itself."""
    return EmpiricalCDF(values)


def report(values, cdf, delta, lam=0.5):
    """The ratio report at (delta, lam); the ratio suprema do not depend on lam or C."""
    return ratio_properties_report(values, cdf, RatioParams(delta=delta, lam=lam, big_c=2.0))


class TestTailRatio:
    def test_identity_sample_has_zero_deviation(self, rng):
        values = rng.uniform(0, 1, 200)
        rep = report(values, exact_sample_cdf(values), 0.1)
        assert rep.tail_dev == 0.0
        assert "tail" not in rep.failing

    def test_two_point_sample_against_uniform(self):
        # exact supremum is 1, attained on [0.75, quantile(0.2)]
        rep = report([0.25, 0.75], UNIFORM01, 0.2)
        assert rep.tail_dev == pytest.approx(1.0, abs=1e-9)
        assert "tail" in rep.failing
        # brute force over a dense admissible grid never exceeds the reported sup
        grid = np.linspace(1e-6, 0.8, 40_001)
        assert grid_ratio_deviation([0.25, 0.75], UNIFORM01, 0.2, grid) <= rep.tail_dev + 1e-9

    def test_single_point_at_median(self):
        rep = report([0.5], UNIFORM01, 0.4)
        assert rep.tail_dev == pytest.approx(1.0, abs=1e-9)
        assert "tail" in rep.failing

    def test_breakpoint_completeness_random_grids(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 80))
            values = rng.exponential(size=n)
            delta = float(rng.uniform(0.05, 0.4))
            cdf = EmpiricalCDF(rng.exponential(size=1000))
            rep = report(values, cdf, delta)
            grid = rng.uniform(0, np.max(values) * 1.5, size=400)
            assert grid_ratio_deviation(values, cdf, delta, grid) <= rep.tail_dev + 1e-9

    def test_empty_admissible_range_rejected(self):
        sub_unit = EmpiricalCDF([0.0, 0.0, 1.0])  # sf(0) = 1/3
        with pytest.raises(ValueError):
            report([0.5], sub_unit, 0.5)


class TestDyadicRatio:
    def test_level_zero_matches_tail_check(self, rng):
        values = rng.exponential(size=150)
        cdf = EmpiricalCDF(rng.exponential(size=2000))
        delta = 0.07
        levels = report(values, cdf, delta).levels
        assert levels[0].j == 0
        assert levels[0].bound == 1.0
        assert levels[0].worst_dev == report(values, cdf, delta, lam=0.9).tail_dev

    def test_identity_sample_all_levels_zero(self, rng):
        values = rng.uniform(0, 1, 300)
        rep = report(values, exact_sample_cdf(values), 0.02)
        assert all(level.worst_dev == 0.0 for level in rep.levels)
        assert len(rep.levels) == 6  # 0.02 * 2^5 = 0.64 <= 1 < 1.28

    def test_golden_record_reproduces_bit_for_bit(self):
        # frozen from a fixed-seed gaussian run; any drift in the candidate
        # machinery or the quantile bisection shows up here
        spec = DistributionSpec("gaussian", 1)
        sample = draw_sample(spec, 10_000, child_seed(2024, "golden"))
        values = project_abs(sample, [1.0])
        cdf = marginal_cdf(spec, [1.0])
        rep = report(values, cdf, 0.05)
        expected = [
            (0, 0.04007691082639531),
            (1, 0.026308637522789002),
            (2, 0.02032638211647786),
            (3, 0.011749113278906487),
            (4, 0.0035906456740379955),
        ]
        got = [(level.j, level.worst_dev) for level in rep.levels]
        assert got == expected
        assert rep.interval_sup == 0.0010447621108626293
        assert "dyadic" not in rep.failing

    def test_golden_record_with_ties_reproduces_bit_for_bit(self):
        # the same size with ties on both sides, frozen like the record above:
        # values rounded to 2 decimals (310 distinct |values|, zero among them)
        # against a reference law rounded alike, with an atom at all but 3
        local = np.random.default_rng(child_seed(2024, "golden-ties"))
        values = np.round(local.standard_normal(10_000), 2)
        cdf = EmpiricalCDF(np.round(local.standard_normal(100_000), 2))
        rep = report(values, cdf, 0.05)
        expected = [
            (0, 0.05, 0.03857416944360281),
            (1, 0.1, 0.03857416944360281),
            (2, 0.2, 0.03743231578121331),
            (3, 0.4, 0.01785890966656778),
            (4, 0.8, 0.004108765025539585),
        ]
        assert [(level.j, level.level, level.worst_dev) for level in rep.levels] == expected
        assert rep.interval_sup == 0.0007050000000000112

    def test_passing_level_one_implies_tail_at_inverse_sqrt2(self, rng):
        for trial in range(20):
            values = np.random.default_rng(trial).standard_normal(500) ** 2
            cdf = EmpiricalCDF(np.random.default_rng(1000 + trial).standard_normal(20_000) ** 2)
            rep = report(values, cdf, 0.03)
            if len(rep.levels) > 1 and rep.levels[1].ok:
                assert "tail" not in report(values, cdf, 2 * 0.03, lam=2.0 ** -0.5).failing


    def test_level_one_region_of_a_reference_law(self, rng):
        # the reference's smallest value is 0.5, so P(f > t) = 1 exactly on
        # (0, 0.5): with delta = 2^-3 the last dyadic level is that region
        values = rng.exponential(size=200)
        cdf = EmpiricalCDF(0.5 + rng.exponential(size=500))
        levels = report(values, cdf, 0.125).levels
        assert [level.level for level in levels] == [0.125, 0.25, 0.5, 1.0]
        r_min = float(cdf.values[0])
        grid = np.append(np.linspace(1e-9, r_min, 10_001)[:-1], np.nextafter(r_min, 0.0))
        assert levels[-1].worst_dev == grid_ratio_deviation(values, cdf, 1.0, grid)
        assert levels[-1].worst_dev == 1.0 - np.mean(values >= r_min)
        wide = np.linspace(1e-9, 2.0 * np.max(values), 4001)
        for level in levels:
            assert grid_ratio_deviation(values, cdf, level.level, wide) <= level.worst_dev + 1e-12

    @pytest.mark.parametrize("cdf", [FoldedNormalCDF(scale=1.0), EmpiricalCDF([0.0, 0.3, 1.0, 2.0])],
                             ids=["analytic", "reference_with_zero"])
    def test_level_one_region_empty(self, rng, cdf):
        # a continuous tail, or a reference with mass at 0, is below 1 for every t > 0
        values = rng.exponential(size=300)
        levels = report(values, cdf, 0.125).levels
        assert all(level.level < 1.0 for level in levels)
        assert grid_ratio_deviation(values, cdf, 1.0, np.linspace(1e-9, 5.0, 2001)) == 0.0


class OneUlpWigglyCDF(MarginalCDF):
    """A staircase tail, 1 - floor(4t)/8 on [0, 2), one ulp higher at every t with an odd last bit.

    On each flat step the float tail rises and falls by one ulp as t grows,
    so the candidates in t order are not nonincreasing.
    """

    def sf(self, t):
        a = np.asarray(t, dtype=np.float64)
        base = np.clip(1.0 - np.floor(4.0 * np.maximum(a, 0.0)) / 8.0, 0.0, 1.0)
        odd = (a.view(np.int64) & 1) == 1
        out = np.where(odd & (base > 0.0) & (base < 1.0), np.nextafter(base, 2.0), base)
        return float(out) if a.ndim == 0 else out


# (sampler, law) pairs for the differential gates at ratio-check's sample size, n = 10^4, and at n = 1, 2 and 7
SIZED_LAWS = [
    (lambda rng, n: rng.standard_normal(n), FoldedNormalCDF(scale=1.0)),
    (lambda rng, n: rng.uniform(-1.0, 1.0, n), HalfUniformCDF(width=1.0)),
    (lambda rng, n: rng.laplace(0.0, 1.0, n), ExponentialCDF(scale=1.0)),
    (lambda rng, n: rng.standard_t(4.5, n), FoldedStudentTCDF(nu=4.5, scale=1.0)),
    (lambda rng, n: rng.integers(0, 8, n) / 7.0, EmpiricalCDF(np.random.default_rng(8).integers(0, 8, 10**5) / 7.0)),
    (lambda rng, n: rng.laplace(0.0, 1.0, n), EmpiricalCDF(np.abs(np.random.default_rng(9).laplace(0.0, 1.0, 10**5)))),
]
SIZED_LAW_IDS = ["folded_normal", "half_uniform", "exponential", "student", "reference_with_atoms",
                 "continuous_reference"]


def sample_kinds(values) -> dict[str, np.ndarray]:
    """A continuous sample, and a tied and a zero-containing one of its size made from it.

    Against an analytic law each takes its own path through the report: the
    cached share ladder and one scan for both candidate groups; shares per
    distinct value; and candidate groups that read different tail arrays.
    """
    values = np.asarray(values, dtype=float)
    return {"continuous": values, "tied": np.repeat(values[: (values.size + 1) // 2], 2)[: values.size],
            "with_zero": np.append(0.0, values[1:])}


def _scan_cases():
    """(name, values, law) for the differential gate of the level scan."""
    # Tiny samples leave one candidate between some pairs of levels; against
    # a small reference with atoms that one can be a left limit alone.
    tiny = {"single": [0.5], "pair": [0.25, 0.75], "zero_and_one": [0.0, 1.0], "three": [0.1, 0.45, 1.0],
            "quarter_and_one": [1.0, 0.25]}
    tiny_laws = {"half_uniform": UNIFORM01, "exponential": ExponentialCDF(scale=0.5),
                 "small_reference": EmpiricalCDF(np.array([0, 0, 1, 3, 2, 3, 4, 4, 3, 4, 3]) / 4.0)}
    cases = [(f"{name}-{law_name}", values, cdf) for name, values in tiny.items() for law_name, cdf in tiny_laws.items()]
    for seed in range(12):
        local = np.random.default_rng(900 + seed)
        n = int(local.integers(1, 300))
        samples = {
            "ties_and_zeros": local.integers(0, 6, size=n) / 5.0,
            "rounded_student": np.round(local.standard_t(4.5, size=n), 1),
            "zeros_then_continuous": np.append(np.zeros(int(local.integers(1, 4))), local.uniform(0, 2, n)),
            "continuous": local.exponential(size=n),
        }
        laws = {
            "folded_normal": FoldedNormalCDF(scale=1.0),
            "half_uniform": HalfUniformCDF(width=math.sqrt(3.0)),
            "exponential": ExponentialCDF(scale=1.0 / math.sqrt(2.0)),
            "student": FoldedStudentTCDF(nu=4.5, scale=math.sqrt(2.5 / 4.5)),
            "reference_with_atoms": EmpiricalCDF(local.integers(0, 8, size=500) / 7.0),
            "reference_above_zero": EmpiricalCDF(0.3 + local.exponential(size=700)),
        }
        for sample_name, values in samples.items():
            for law_name, cdf in laws.items():
                cases.append((f"{sample_name}-{law_name}-{seed}", values, cdf))
    # every sample kind at n = 1, 2 and 7 against the four analytic laws and two reference laws
    for n in (1, 2, 7):
        for (draw, cdf), law_name in zip(SIZED_LAWS, SIZED_LAW_IDS):
            for kind, values in sample_kinds(draw(np.random.default_rng(80 + n), n)).items():
                cases.append((f"{kind}-n{n}-{law_name}", values, cdf))
    return cases


SCAN_CASES = _scan_cases()


class TestLevelScanAgainstMasks:
    """The one-pass level scan equals a fresh mask per level, bit for bit."""

    @pytest.mark.parametrize("delta", [1e-4, 0.01, 0.05, 0.1, 0.125, 0.3, 0.5])
    def test_every_level_equals_the_masked_scan(self, delta):
        compared = 0
        for _, values, cdf in SCAN_CASES:
            if cdf.sf(0.0) < delta:
                continue
            assert report(values, cdf, delta).levels == masked_dyadic_levels(values, cdf, delta)
            compared += 1
        assert compared >= len(SCAN_CASES) // 2

    @pytest.mark.parametrize("draw, cdf", SIZED_LAWS, ids=SIZED_LAW_IDS)
    @pytest.mark.parametrize("delta", [0.01, 0.05])
    def test_every_level_equals_the_masked_scan_at_the_workload_size(self, draw, cdf, delta):
        for seed in range(3):
            for values in sample_kinds(draw(np.random.default_rng(70 + seed), 10_000)).values():
                assert report(values, cdf, delta).levels == masked_dyadic_levels(values, cdf, delta)

    def test_interval_sup_equals_the_exhaustive_search(self):
        for _, values, cdf in SCAN_CASES:
            assert report(values, cdf, 0.05).interval_sup == max(0.0, exhaustive_interval_excess(values, cdf))

    def test_half_reaches_level_one_on_a_reference_law(self):
        _, values, cdf = next(c for c in SCAN_CASES if c[0].endswith("reference_above_zero-0"))
        levels = report(values, cdf, 0.5).levels
        assert [level.level for level in levels] == [0.5, 1.0]
        assert levels == masked_dyadic_levels(values, cdf, 0.5)

    @pytest.mark.parametrize("cdf, count", [
        (EmpiricalCDF(0.3 + np.random.default_rng(1).exponential(size=700)), 1075),
        (FoldedNormalCDF(scale=1.0), 1074),
    ], ids=["reference", "analytic"])
    def test_smallest_subnormal_delta_scans_every_level(self, cdf, count):
        values = np.random.default_rng(2).exponential(size=150)
        levels = report(values, cdf, 5e-324).levels
        assert len(levels) == count
        assert levels == masked_dyadic_levels(values, cdf, 5e-324)

    # one ulp above 1/8 puts every level one ulp above a step of the staircase,
    # so each region holds the odd-bit candidates of that step and not the others
    @pytest.mark.parametrize("delta", [0.01, 0.125, float(np.nextafter(0.125, 1.0))])
    def test_tail_not_nonincreasing_in_float_is_reordered(self, delta):
        cdf = OneUlpWigglyCDF()
        for seed in range(5):
            local = np.random.default_rng(40 + seed)
            values = np.append(local.uniform(0.0, 2.0, 400), local.integers(0, 8, 40) / 4.0)
            assert np.any(values == 0.0)
            # with a zero the two candidate groups read different arrays, without one both read sf;
            # in 60 values single candidates, one ulp apart in the tail, can set the suprema
            for sample in (values, values[values > 0.0], values[:60]):
                d = _distinct_pass(sample, cdf)
                assert d.sf_left is d.sf and np.any(d.sf[1:] > d.sf[:-1])  # both candidate groups are reordered
                assert report(sample, cdf, delta).levels == masked_dyadic_levels(sample, cdf, delta)


class TestIntervalExcess:
    def test_three_point_example(self):
        sup = interval_excess_sup([0.1, 0.2, 0.9], UNIFORM01)
        assert sup == pytest.approx(2 / 3 - 1.5 * 0.1, rel=1e-12)

    def test_single_far_point(self):
        sup = interval_excess_sup([0.95], UNIFORM01)
        # the singleton interval keeps 1/N and pays (3/2) * 0 point mass
        assert sup == pytest.approx(1.0 - 1.5 * 0.0, rel=1e-12) or sup <= 1.0
        assert sup >= 0.0

    def test_identity_sample_sup_is_zero(self, rng):
        values = rng.uniform(0, 1, 100)
        assert interval_excess_sup(values, exact_sample_cdf(values)) == 0.0

    def test_scan_equals_exhaustive_exactly(self, rng):
        for trial in range(100):
            local = np.random.default_rng(trial)
            n = int(local.integers(2, 200))
            if trial % 3 == 0:
                values = local.uniform(0, 1, n)
                cdf = UNIFORM01
            elif trial % 3 == 1:
                values = local.exponential(size=n)
                cdf = EmpiricalCDF(local.exponential(size=500))
            else:
                # duplicated values exercise the atom merging
                values = local.integers(0, 8, size=n) / 7.0
                cdf = EmpiricalCDF(local.integers(0, 8, size=300) / 7.0)
            got = interval_excess_sup(values, cdf)
            assert got == max(0.0, exhaustive_interval_excess(values, cdf))

    def test_scan_matches_mass_based_search(self, rng):
        for trial in range(30):
            local = np.random.default_rng(200 + trial)
            values = local.exponential(size=int(local.integers(2, 60)))
            cdf = EmpiricalCDF(local.exponential(size=400))
            got = interval_excess_sup(values, cdf)
            brute = max(0.0, interval_excess_by_masses(values, cdf))
            assert got == pytest.approx(brute, abs=1e-10)


class TestIntervalExcessAgainstTheAllocatingScan:
    """The in-place interval scan equals its first, allocating form bit for bit."""

    def test_scan_cases(self):
        for _, values, cdf in SCAN_CASES:
            assert interval_excess_sup(values, cdf) == allocating_interval_excess(values, cdf)

    @pytest.mark.parametrize("draw, cdf", SIZED_LAWS, ids=SIZED_LAW_IDS)
    def test_samples_at_the_workload_size(self, draw, cdf):
        for seed in range(3):
            for values in sample_kinds(draw(np.random.default_rng(60 + seed), 10_000)).values():
                assert interval_excess_sup(values, cdf) == allocating_interval_excess(values, cdf)


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
        cdf = EmpiricalCDF(rng.standard_normal(20_000) ** 2)
        params = RatioParams(delta=0.05, lam=0.5, big_c=2.0)
        rep = ratio_properties_report(values, cdf, params)
        assert rep.tail_dev == rep.levels[0].worst_dev
        assert rep.interval_sup == interval_excess_sup(values, cdf)
        assert rep.worst_margin == min(level.bound - level.worst_dev for level in rep.levels)
        fails = (("tail", rep.tail_dev > 0.5), ("dyadic", not all(level.ok for level in rep.levels)),
                 ("interval", rep.interval_sup > 2.0 * 0.05))
        assert rep.failing == tuple(name for name, failed in fails if failed)


def _report_cases():
    local = np.random.default_rng(7)
    ties = local.integers(0, 8, size=400) / 7.0  # ties and a point mass at 0
    return [
        ("ties_vs_reference_with_atoms", ties, EmpiricalCDF(local.integers(0, 8, size=3000) / 7.0)),
        ("ties_vs_half_uniform", np.round(local.uniform(0, 1, 500), 2), UNIFORM01),
        ("zeros_vs_folded_normal", np.append(local.standard_normal(600), np.zeros(5)), FoldedNormalCDF(scale=1.0)),
        ("continuous_vs_reference", local.exponential(size=700), EmpiricalCDF(local.exponential(size=5000))),
    ]


REPORT_CASES = _report_cases()


class TestSharedDistinctPass:
    @pytest.mark.parametrize("name, values, cdf", REPORT_CASES, ids=[c[0] for c in REPORT_CASES])
    @pytest.mark.parametrize("delta", [0.05, 0.125])
    def test_report_equals_the_standalone_checkers(self, name, values, cdf, delta):
        params = RatioParams(delta=delta, lam=0.5, big_c=2.0)
        rep = ratio_properties_report(values, cdf, params)
        assert rep.tail_dev == rep.levels[0].worst_dev
        assert (rep.levels[0].level, rep.params.lam, rep.params.delta) == (delta, 0.5, delta)
        # a grid holding the one-sided limits at sample points and region
        # boundaries attains the reported suprema
        xs = np.abs(np.asarray(values, dtype=float))
        qs = np.array([upper_quantile(cdf, level.level) for level in rep.levels if level.level < 1])
        grid = np.concatenate([np.linspace(1e-9, 1.5 * xs.max(), 3001), xs, np.nextafter(xs, 0.0),
                               qs, np.nextafter(qs, 0.0), qs - 2e-9])
        for level in rep.levels:
            assert grid_ratio_deviation(values, cdf, level.level, grid) == pytest.approx(level.worst_dev, abs=1e-12)
        assert rep.interval_sup == interval_excess_sup(values, cdf)
        assert rep.interval_sup == max(0.0, exhaustive_interval_excess(values, cdf))

    @pytest.mark.parametrize("values", [
        [3.0],
        [2.0, 2.0, 2.0],
        [0.0, 0.0, 1.0, 2.0, 2.0],
        [-1.0, 1.0, 0.5, -0.5, 0.0],
        np.random.default_rng(3).integers(0, 5, size=200) / 4.0,
        np.random.default_rng(4).standard_normal(300),
        [0.75, -0.25],
        np.random.default_rng(6).standard_normal(7),
        np.random.default_rng(7).standard_normal(10_000),
    ], ids=["single", "all_equal", "zeros_first", "signed_ties", "many_ties", "no_ties", "pair", "seven",
            "workload_size"])
    def test_distinct_values_and_counts_equal_np_unique(self, values):
        d = _distinct_pass(values, UNIFORM01)
        xs = np.sort(np.abs(np.asarray(values, dtype=float)))
        u, first, counts = np.unique(xs, return_index=True, return_counts=True)
        assert np.array_equal(d.xs, xs)
        assert np.array_equal(d.u, u)
        assert d.above.tobytes() == (np.append(xs.size - first, 0) / xs.size).tobytes()
        if u.size == xs.size:  # no ties: one read-only ladder serves every report at this n
            assert d.above.tobytes() == (np.arange(xs.size, -1, -1) / xs.size).tobytes()
            assert _distinct_pass(xs[::-1], FoldedNormalCDF(scale=1.0)).above is d.above
            with pytest.raises(ValueError, match="read-only"):
                d.above[-1] = 1.0
        assert np.broadcast_to(d.share, u.shape).tobytes() == (counts / xs.size).tobytes()
        assert np.array_equal(d.sf, UNIFORM01.sf(u))
        assert np.array_equal(d.sf_left, UNIFORM01.sf_left(u))

    def test_reference_law_tails_are_counted_exactly(self):
        cdf = EmpiricalCDF(np.random.default_rng(5).integers(0, 6, size=999) / 5.0)
        d = _distinct_pass([0.0, 0.2, 0.2, 0.7, 1.0], cdf)
        assert np.array_equal(d.sf, cdf.sf(d.u))
        assert np.array_equal(d.atom, cdf.atom(d.u))
        assert np.array_equal(d.sf_left, cdf.sf_left(d.u))


LAPLACE3 = DistributionSpec("product_laplace", 3)


def laplace_trials(directions, trials=2):
    """``trials`` trials of ratio_trial_rows on product_laplace at d = 3 over ``directions``."""
    params = RatioParams(delta=0.05, lam=0.5, big_c=2.0)
    return [ratio_trial_rows(LAPLACE3, 500, child_seed(5, "trial", t), directions, params, ref_size=2000)
            for t in range(trials)]


class TestReferenceLawsKept:
    """A trial keeps its reference laws for the next one only when all of them fit in the cache."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _reference_law.cache_clear()
        yield
        _reference_law.cache_clear()

    def test_few_laws_are_built_once_over_two_trials(self):
        laplace_trials(probe_directions(3, 4, seed=1))  # the 4 sphere directions need reference laws
        info = _reference_law.cache_info()
        assert (info.misses, info.hits, info.currsize) == (4, 4, 4)

    def test_more_laws_than_the_cache_holds_are_not_kept(self):
        laplace_trials(probe_directions(3, REFERENCE_LAWS_KEPT + 2, seed=1), trials=1)
        info = _reference_law.cache_info()
        assert (info.misses, info.hits, info.currsize) == (0, 0, 0)

    # the capacity the keep rule reads is moved so that each case takes the other path
    @pytest.mark.parametrize("sphere, capacity, kept", [(4, 0, 0), (REFERENCE_LAWS_KEPT + 2, 10**6, 32)],
                             ids=["few_laws_unkept", "many_laws_kept"])
    def test_rows_are_bit_equal_whether_or_not_laws_are_kept(self, sphere, capacity, kept, monkeypatch):
        directions = probe_directions(3, sphere, seed=1)
        rows = laplace_trials(directions)
        _reference_law.cache_clear()
        monkeypatch.setattr(ratio, "REFERENCE_LAWS_KEPT", capacity)
        other = laplace_trials(directions)
        assert _reference_law.cache_info().currsize == kept
        assert repr(other) == repr(rows)


class TestRunDropsItsLaws:
    """A ratio-check run empties the reference-law cache when it returns or raises."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        _reference_law.cache_clear()
        yield
        _reference_law.cache_clear()

    @staticmethod
    def rows_of(tmp_path):
        # 30 sphere directions at d = 5: every law fits in the cache, so the trials keep them for each other
        config = ExperimentConfig(dist="product_laplace", dim=5, n=400, directions=30, trials=2, ref_size=5_000,
                                  delta=0.05, seed=3, out_dir=str(tmp_path))
        return run_ratio_check(config).rows_path.read_bytes()

    def test_a_returning_run_leaves_no_law_and_the_same_rows(self, tmp_path, monkeypatch):
        rows = self.rows_of(tmp_path / "cleared")
        assert _reference_law.cache_info().currsize == 0
        # a run that leaves the cache alone, as every run did before
        monkeypatch.setattr(runner, "_reference_law", SimpleNamespace(cache_clear=lambda: None))
        kept = self.rows_of(tmp_path / "kept")
        assert _reference_law.cache_info().currsize == 30
        assert kept == rows

    def test_a_raising_run_leaves_no_law(self, tmp_path, monkeypatch):
        def failing_trial(*args):
            ratio_trial_rows(*args)
            raise RuntimeError("trial failed")

        monkeypatch.setattr(runner, "ratio_trial_rows", failing_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            self.rows_of(tmp_path)
        assert _reference_law.cache_info().currsize == 0
