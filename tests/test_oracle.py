import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from helpers import binary_search_quantile_upper, trapezoid_sqrt_tail_integral, trapezoid_tail_integral
from lptrim import distributions, oracle
from lptrim.config import ExperimentConfig
from lptrim.distributions import (
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    MarginalCDF,
    MomentDoesNotExistError,
    gaussian_abs_moment,
)
from lptrim.oracle import (
    QUAD_REL_TOL,
    check_tail_moment_bounds,
    error_functional,
    qnorm_error_coef,
    raw_moment,
    tail_cutoff,
    tail_integral_moment,
    truncated_upper_moment,
    upper_quantile,
)
from lptrim.runner import run_lemma_check

UNIFORM01 = HalfUniformCDF(width=1.0)
EXP1 = ExponentialCDF(scale=1.0)
FOLDED_NORMAL = FoldedNormalCDF(scale=1.0)

ANALYTIC_LAWS = [
    FOLDED_NORMAL,
    HalfUniformCDF(width=math.sqrt(3.0)),
    ExponentialCDF(scale=1.0 / math.sqrt(2.0)),
    FoldedStudentTCDF(nu=6.0, scale=math.sqrt(4.0 / 6.0)),
]
LAW_IDS = ["folded_normal", "half_uniform", "exponential", "folded_student_t6"]


# reference samples with one value, ties and atoms, for the quantile rule of a reference law
REFERENCE_VALUES = [
    [0.7],
    [2.0, 2.0, 2.0, 2.0],
    [0.0, 0.0, 0.0, 1.0, 1.0, 3.0],
    np.random.default_rng(11).integers(0, 4, size=37) / 3.0,
    np.random.default_rng(12).exponential(size=50),
    np.random.default_rng(13).integers(0, 50, size=1000) / 7.0,
]
REFERENCE_IDS = ["size_one", "all_equal", "atoms", "ties", "no_ties", "many_ties"]


def edge_etas(size: int) -> list[float]:
    """eta at k/size for 0 < k < size, one ulp either side of it, and the extremes of (0, 1)."""
    etas = [5e-324, 1e-300, np.nextafter(1.0, 0.0)]
    for eta in np.arange(1, size) / size:
        etas += [eta, np.nextafter(eta, 1.0), np.nextafter(eta, 0.0)]
    return list(map(float, etas))


class TestUpperQuantile:
    def test_uniform(self):
        assert upper_quantile(UNIFORM01, 0.1) == pytest.approx(0.9, abs=1e-8)

    def test_exponential_closed_form(self):
        for kappa in (0.5, 0.1, 0.01):
            assert upper_quantile(EXP1, kappa) == pytest.approx(math.log(1 / kappa), abs=1e-8)

    def test_folded_normal(self):
        # P(|Z| > t) = 0.05 at the two-sided normal critical point
        assert upper_quantile(FOLDED_NORMAL, 0.05) == pytest.approx(1.95996, abs=1e-4)

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    def test_quantile_cdf_consistency(self, cdf):
        for eta in (0.5, 0.3, 0.25, 0.1, 0.07, 0.05, 0.01, 0.0039, 0.002, 1e-4, 1e-9):
            q = upper_quantile(cdf, eta)
            assert cdf.sf(q) < eta, eta
            assert cdf.sf(q - 1e-6) >= eta, eta

    def test_empirical_quantile_consistency(self, rng):
        values = rng.exponential(size=997)
        cdf = EmpiricalCDF(values)
        for eta in (0.5, 0.25, 0.03):
            q = upper_quantile(cdf, eta)
            assert cdf.sf(q) < eta
            assert cdf.sf_left(q) >= eta
            assert q in cdf.values

    @pytest.mark.parametrize("values", REFERENCE_VALUES, ids=REFERENCE_IDS)
    def test_reference_law_quantile_equals_the_binary_search(self, values):
        cdf = EmpiricalCDF(values)
        for eta in edge_etas(cdf.size):
            assert upper_quantile(cdf, eta) == binary_search_quantile_upper(values, eta), eta

    @pytest.mark.parametrize("values", REFERENCE_VALUES, ids=REFERENCE_IDS)
    def test_reference_law_quantile_keeps_its_contract(self, values):
        # P(f > q) < eta, and P(f > t) >= eta at the next smaller distinct value t, where there is one
        cdf = EmpiricalCDF(values)
        for eta in edge_etas(cdf.size):
            q = upper_quantile(cdf, eta)
            assert cdf.sf(q) < eta, eta
            below = cdf.values[cdf.values < q]
            if below.size:
                assert cdf.sf(below[-1]) >= eta, eta

    def test_the_share_at_eta_is_not_below_it(self):
        # 7 of 100 values exceed 93, a share of 0.07, which is not below eta = 0.07
        cdf = EmpiricalCDF(np.arange(1, 101))
        assert upper_quantile(cdf, 0.07) == 94.0
        assert cdf.sf(94.0) == 0.06 and cdf.sf(93.0) == 0.07


class TestTailIntegralMoment:
    def test_uniform_full(self):
        assert tail_integral_moment(UNIFORM01, 2, 1.0) == pytest.approx(1 / 3, rel=1e-8)

    def test_uniform_half(self):
        assert tail_integral_moment(UNIFORM01, 2, 0.5) == pytest.approx(1 / 6, rel=1e-8)

    def test_zero_cap(self):
        assert tail_integral_moment(FOLDED_NORMAL, 2, 0.0) == 0.0

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_full_moment_matches_closed_form(self, cdf, p):
        assert raw_moment(cdf, p) == pytest.approx(cdf.exact_moment(p), rel=1e-6)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_gaussian_moment_to_1e6(self, p):
        got = raw_moment(FoldedNormalCDF(scale=1.0), float(p))
        assert got == pytest.approx(gaussian_abs_moment(float(p)), rel=1e-6)

    def test_empirical_is_exact_finite_sum(self, rng):
        values = rng.uniform(0, 2, size=101)
        cdf = EmpiricalCDF(values)
        cap = 1.2
        exact = np.mean(np.minimum(values, cap) ** 3)
        assert tail_integral_moment(cdf, 3, cap) == pytest.approx(exact, rel=1e-15)

    def test_divergent_moment_flagged(self):
        heavy = FoldedStudentTCDF(nu=4.5, scale=1.0)
        with pytest.raises(MomentDoesNotExistError):
            raw_moment(heavy, 5.0)

    @pytest.mark.parametrize("integral", [
        lambda: raw_moment(FOLDED_NORMAL, 400.0),
        lambda: error_functional(FOLDED_NORMAL, 400.0, 10.0, 0.01),
    ], ids=["tail_integral", "sqrt_tail_integral"])
    def test_overflowing_quadrature_raises_naming_p(self, integral):
        # p t^(p-1) overflows a float inside the integrand
        with pytest.raises(MomentDoesNotExistError, match="p=400"):
            integral()

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_negative_quadrature_of_a_slow_tail_raises(self):
        # the unit-variance Student-t coordinate at nu = 2.01: E|X|^2 = 1, but one
        # adaptive quad over (0, cutoff) misses the slowly decaying tail and goes negative
        heavy = FoldedStudentTCDF(nu=2.01, scale=math.sqrt(0.01 / 2.01))
        with pytest.raises(MomentDoesNotExistError, match="quadrature failed"):
            tail_integral_moment(heavy, 2.0, 1e6)


class TestErrorFunctional:
    def test_zero_cap(self):
        assert error_functional(FOLDED_NORMAL, 2, 0.0, 0.25) == 0.0

    def test_uniform_closed_form(self):
        # 2 sqrt(1/4) * int_0^1 sqrt(1 - t) dt = 2/3
        got = error_functional(UNIFORM01, 1, 1.0, 0.25)
        assert got == pytest.approx(2 / 3, rel=1e-8)

    def test_folded_normal_vs_trapezoid(self):
        cap = upper_quantile(FOLDED_NORMAL, 0.01)
        got = error_functional(FOLDED_NORMAL, 2, cap, 0.01)
        brute = trapezoid_sqrt_tail_integral(FOLDED_NORMAL.sf, 2, cap, 0.01)
        assert got == pytest.approx(brute, rel=1e-4)

    def test_empirical_step_exactness(self, rng):
        values = rng.uniform(0, 1, size=40)
        cdf = EmpiricalCDF(values)
        cap = 0.7
        # brute force over the step pieces with its own arithmetic
        xs = np.sort(values)
        edges = np.concatenate([[0.0], xs[xs < cap], [cap]])
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            total += math.sqrt(float(cdf.sf(a))) * (b ** 2 - a ** 2)
        assert error_functional(cdf, 2, cap, 0.25) == pytest.approx(2 * math.sqrt(0.25) * total, rel=1e-12)

    def test_monotone_in_cap_and_delta(self):
        caps = [0.5, 1.0, 2.0, 3.0]
        vals = [error_functional(FOLDED_NORMAL, 2, c, 0.1) for c in caps]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        deltas = [0.01, 0.05, 0.2, 0.5]
        vals = [error_functional(FOLDED_NORMAL, 2, 1.5, d) for d in deltas]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


class TestTruncatedUpperMoment:
    def test_uniform_hand_value(self):
        got = truncated_upper_moment(UNIFORM01, 2, 0.1)
        assert got == pytest.approx((1 - 0.9 ** 3) / 3, rel=1e-6)

    def test_kappa_to_one_recovers_full_moment(self):
        got = truncated_upper_moment(UNIFORM01, 2, 1 - 1e-9)
        assert got == pytest.approx(1 / 3, abs=1e-6)

    def test_folded_normal_vs_monte_carlo(self, rng):
        kappa = 0.05
        got = truncated_upper_moment(FOLDED_NORMAL, 2, kappa)
        z = np.abs(rng.standard_normal(2_000_000))
        q = upper_quantile(FOLDED_NORMAL, kappa)
        sample_vals = np.where(z > q, z ** 2, 0.0)
        mc = sample_vals.mean()
        stderr = sample_vals.std() / math.sqrt(z.size)
        assert abs(got - mc) < 3 * stderr

    def test_empirical_exact(self, rng):
        values = rng.exponential(size=200)
        cdf = EmpiricalCDF(values)
        kappa = 0.25
        q = upper_quantile(cdf, kappa)
        exact = values[values > q].sum() / values.size
        assert truncated_upper_moment(cdf, 1, kappa) == pytest.approx(exact, rel=1e-12)

    def test_quantile_beyond_the_cutoff_adds_no_integral(self):
        # the integral runs over (q, max(cutoff, q)), which is empty here
        q = upper_quantile(FOLDED_NORMAL, 1e-15)
        assert q > tail_cutoff(FOLDED_NORMAL)
        assert truncated_upper_moment(FOLDED_NORMAL, 2.0, 1e-15) == q ** 2.0 * FOLDED_NORMAL.sf(q)


class TestTailMomentBounds:
    def test_qnorm_coefficient(self):
        assert qnorm_error_coef(2, 8) == 1.0

    def test_uniform_first_inequality_hand_values(self):
        rows = check_tail_moment_bounds(UNIFORM01, 2, 8, 0.1, 0.02)
        first = rows[0]
        assert first.lhs == pytest.approx(0.090333, abs=1e-5)
        assert first.rhs == pytest.approx(math.sqrt(1 / 5) * math.sqrt(0.1), rel=1e-6)
        assert first.ok

    def test_folded_normal_all_hold_with_slack(self):
        rows = check_tail_moment_bounds(FOLDED_NORMAL, 2, 8, 0.01, 0.02)
        assert all(r.ok and r.slack > 0 for r in rows)

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("kappa", [0.3, 0.1, 0.01])
    def test_grid_positive_slack(self, cdf, p, kappa):
        q = 2 * p + 2
        if max(2 * p, q) >= cdf.max_finite_moment:
            q = p + cdf.max_finite_moment / 2  # keep q > 2p only when it exists
            if q <= 2 * p or q >= cdf.max_finite_moment:
                pytest.skip("required moments do not exist for this law")
        rows = check_tail_moment_bounds(cdf, p, q, kappa, 0.02)
        assert all(r.ok and r.slack > 0 for r in rows)

    def test_requires_q_above_2p(self):
        with pytest.raises(ValueError):
            check_tail_moment_bounds(UNIFORM01, 2, 4, 0.1, 0.02)

    def test_missing_moments_flagged(self):
        heavy = FoldedStudentTCDF(nu=6.0, scale=1.0)
        with pytest.raises(MomentDoesNotExistError):
            check_tail_moment_bounds(heavy, 3.0, 8.0, 0.1, 0.02)


class TestTailCutoff:
    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    def test_cutoff_mass_below_threshold(self, cdf):
        assert cdf.sf(tail_cutoff(cdf)) < 1e-12

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    def test_cutoff_is_the_first_power_of_two_below_the_mass(self, cdf):
        cutoff = tail_cutoff(cdf)
        assert cutoff == 2.0 ** round(math.log2(cutoff))
        assert cutoff == 1.0 or cdf.sf(cutoff / 2.0) >= 1e-12

    def test_a_tail_that_never_drops_raises_from_both_brackets(self):
        # 200 doublings reach 2^199, still a negligible fraction of the scale
        wide = FoldedNormalCDF(scale=1e300)
        with pytest.raises(MomentDoesNotExistError, match="too far out"):
            tail_cutoff(wide)
        with pytest.raises(MomentDoesNotExistError, match="too far out"):
            upper_quantile(wide, 0.5)

    def test_full_moment_agrees_with_trapezoid(self):
        cap = tail_cutoff(FOLDED_NORMAL)
        brute = trapezoid_tail_integral(FOLDED_NORMAL.sf, 2.0, cap)
        assert raw_moment(FOLDED_NORMAL, 2.0) == pytest.approx(brute, rel=1e-5)


# the product_student_t coordinate law at nu = 4.5: its tail decays as t^-4.5
HEAVY = FoldedStudentTCDF(nu=4.5, scale=math.sqrt(2.5 / 4.5))


class TestBeyondTheTailCutoff:
    """A cap far beyond the cutoff keeps a heavy tail's mass, with no quadrature warning."""

    @pytest.mark.parametrize("cdf", [HEAVY, FOLDED_NORMAL, ExponentialCDF(scale=1.0 / math.sqrt(2.0))],
                             ids=["student_t4.5", "folded_normal", "exponential"])
    @pytest.mark.parametrize("t", [1e6, 1e12, 1e308])
    def test_tail_moment_reaches_the_closed_form(self, cdf, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = tail_integral_moment(cdf, 3.0, t)
        assert got == pytest.approx(cdf.exact_moment(3.0), rel=1e-8)

    @pytest.mark.parametrize("p, caps", [
        (2.0, [10.0, 1e3, 1e6, 1e12, 1e100, 1e308]),
        (3.0, [10.0, 1e3, 1e6, 1e12, 1e30]),
    ], ids=["p2", "p3"])
    def test_error_functional_never_decreases_in_the_cap(self, p, caps):
        # at p = 2 the integral converges; at p = 3 the integrand decays as
        # t^-1/4 and the value grows without bound, finite at every cap the
        # float tail reaches
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [error_functional(HEAVY, p, t, 0.05) for t in caps]
        assert all(math.isfinite(v) for v in values)
        assert values == sorted(values)
        assert values[-1] > values[2]

    @pytest.mark.parametrize("query", [
        lambda t: tail_integral_moment(HEAVY, 5.0, t),
        lambda t: error_functional(HEAVY, 3.0, t, 0.05),
    ], ids=["tail_moment_p5", "error_functional_p3"])
    def test_divergent_integral_past_the_zero_float_tail_raises(self, query):
        # the float tail is 0 from about 1e72 on; a divergent integral cut
        # there would be a finite value far below the one up to the cap
        assert math.isfinite(query(1e6))
        with pytest.raises(MomentDoesNotExistError, match="diverges"):
            query(1e308)


def _fresh_quad(integrand, lo, hi):
    return scipy.integrate.quad(integrand, lo, hi, epsrel=QUAD_REL_TOL, epsabs=1e-14, limit=400)[0]


class TestMemoisedQuadrature:
    def test_lemma_check_quadrature_count_does_not_grow_with_trials(self, tmp_path, monkeypatch):
        calls = []
        real_quad = scipy.integrate.quad

        def counting_quad(*args, **kwargs):
            calls.append(1)
            return real_quad(*args, **kwargs)

        monkeypatch.setattr(scipy.integrate, "quad", counting_quad)
        per_run = []
        for trials in (2, 5):
            oracle._tail_integral.cache_clear()
            calls.clear()
            run_lemma_check(ExperimentConfig(trials=trials, seed=5, out_dir=str(tmp_path / str(trials))))
            per_run.append(len(calls))
        assert per_run[0] > 0
        assert per_run[0] == per_run[1]

    def test_empirical_laws_never_enter_the_caches(self, rng):
        cdf = EmpiricalCDF(rng.exponential(size=500))
        before = oracle._tail_integral.cache_info().currsize
        for p in (1.0, 2.0, 3.0):
            raw_moment(cdf, p)
            tail_integral_moment(cdf, p, 1.5)
            error_functional(cdf, p, 1.5, 0.01)
            truncated_upper_moment(cdf, p, 0.1)
        after = oracle._tail_integral.cache_info().currsize
        assert after == before

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_memoised_values_equal_a_fresh_quad_bit_for_bit(self, cdf, p):
        def tail(t):
            return p * t ** (p - 1.0) * cdf.sf(t)

        def sqrt_tail(t):
            return p * t ** (p - 1.0) * math.sqrt(max(cdf.sf(t), 0.0))

        delta, kappa = 0.01, 0.1
        cap = upper_quantile(cdf, kappa)
        cutoff = tail_cutoff(cdf)
        expected = {
            "raw": _fresh_quad(tail, 0.0, cutoff),
            "below_cap": _fresh_quad(tail, 0.0, cap),
            "error": 2.0 * math.sqrt(delta) * _fresh_quad(sqrt_tail, 0.0, cap),
            "upper": cap ** p * cdf.sf(cap) + _fresh_quad(tail, cap, max(cutoff, cap)),
        }
        for _ in range(2):  # the second round is served from the caches
            hits = oracle._tail_integral.cache_info().hits
            got = {
                "raw": raw_moment(cdf, p),
                "below_cap": tail_integral_moment(cdf, p, cap),
                "error": error_functional(cdf, p, cap, delta),
                "upper": truncated_upper_moment(cdf, p, kappa),
            }
            assert got == expected
        new_hits = oracle._tail_integral.cache_info().hits
        assert new_hits - hits == 4


def _clear_oracle_caches():
    for cache in (oracle._doubling_bracket, oracle._bisect_quantile, oracle._tail_integral):
        cache.cache_clear()


class TestFloatTailPath:
    @staticmethod
    def _functionals(cdf):
        _clear_oracle_caches()
        values = []
        for p in (1.0, 2.0, 3.0):
            values.append(raw_moment(cdf, p))
            for kappa in (0.3, 1e-3):
                q = upper_quantile(cdf, kappa)
                values += [q, error_functional(cdf, p, q, 0.01), truncated_upper_moment(cdf, p, kappa)]
        _clear_oracle_caches()
        return [value.hex() for value in values]

    @pytest.mark.parametrize("cdf", ANALYTIC_LAWS, ids=LAW_IDS)
    def test_functionals_equal_the_array_round_trip_bit_for_bit(self, cdf, monkeypatch):
        array_calls = []
        scalar_or_array = distributions._scalar_or_array

        def counting(t, fn):
            array_calls.append(t)
            return scalar_or_array(t, fn)

        monkeypatch.setattr(distributions, "_scalar_or_array", counting)
        float_path = self._functionals(cdf)
        assert array_calls == []  # quadrature nodes and bisection steps reach sf as floats

        # the path the float one replaced: every query through a 0-d array, and np.clip for the uniform
        def array_sf(self, t):
            return scalar_or_array(t, lambda a: np.where(a < 0, 1.0, self._tail(np.maximum(a, 0.0))))

        monkeypatch.setattr(MarginalCDF, "sf", array_sf)
        monkeypatch.setattr(HalfUniformCDF, "_tail", lambda self, x: np.clip(1.0 - x / self.width, 0.0, 1.0))
        assert self._functionals(cdf) == float_path
