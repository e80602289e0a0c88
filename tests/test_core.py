import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import integrate

import lptrim
from helpers import fraction_trimmed_mean, naive_power_mean, naive_upper_power_mean
from lptrim.core import (
    _ascending_head_mean,
    _ascending_threshold,
    _ascending_trimmed_mean,
    _ascending_truncated_mean,
    _ascending_upper_sum,
    RatioParams,
    SampleMatrix,
    TrimSpec,
    adjusted_trim_levels,
    cut_rank,
    empirical_p_mean,
    nonincreasing_rearrangement,
    project_abs,
    stated_theta_gate,
    theta_from_epsilon,
    trim_threshold,
    trimmed_p_mean,
    truncated_power_mean,
)
from lptrim.distributions import DistributionSpec, EmpiricalCDF, FoldedNormalCDF, MomentOracle, marginal_cdf
from lptrim.oracle import error_functional, raw_moment, tail_integral_moment, truncated_upper_moment, upper_quantile
from lptrim.ratio import ratio_properties_report

finite_values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=120,
)
thetas = st.floats(min_value=0.01, max_value=0.99)
exponents = st.floats(min_value=1.0, max_value=4.0)


class TestProjectAbs:
    def test_coordinate_projection(self):
        s = SampleMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]), seed=0, dist_name="test")
        assert project_abs(s, [1.0, 0.0]).tolist() == [1.0, 0.0]

    def test_orthogonal_direction(self):
        s = SampleMatrix(np.array([[1.0, 2.0]]), seed=0, dist_name="test")
        assert project_abs(s, [2.0, -1.0]).tolist() == [0.0]

    def test_one_dimensional(self):
        s = SampleMatrix(np.array([[3.0]]), seed=0, dist_name="test")
        assert project_abs(s, [-2.0]).tolist() == [6.0]

    def test_dimension_mismatch(self):
        s = SampleMatrix(np.array([[1.0, 2.0]]), seed=0, dist_name="test")
        with pytest.raises(ValueError):
            project_abs(s, [1.0])

    def test_zero_direction_allowed(self):
        s = SampleMatrix(np.array([[1.0, 2.0]]), seed=0, dist_name="test")
        assert project_abs(s, [0.0, 0.0]).tolist() == [0.0]

    def test_block_rows_are_the_one_direction_projections(self, rng):
        s = SampleMatrix(rng.standard_normal((300, 4)), seed=0, dist_name="test")
        block = rng.standard_normal((7, 4))
        out = project_abs(s, block)
        assert out.shape == (7, 300) and out.flags.c_contiguous
        assert np.all(out >= 0)
        for row, v in zip(out, block):
            np.testing.assert_allclose(row, project_abs(s, v), rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("block", [
        np.ones((2, 3)),
        np.array([[1.0, 0.0], [np.nan, 1.0]]),
        np.array([[1.0, 0.0], [1.0, np.inf]]),
        np.ones((1, 2, 2)),
        np.empty((0, 2)),
    ], ids=["wrong-d", "nan-entry", "inf-entry", "3-d", "empty"])
    def test_bad_block_rejected(self, block):
        s = SampleMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]), seed=0, dist_name="test")
        with pytest.raises(ValueError):
            project_abs(s, block)


class TestRearrangement:
    def test_sorts_descending(self):
        assert nonincreasing_rearrangement([3, 1, 2]).tolist() == [3, 2, 1]

    def test_absolute_values(self):
        assert nonincreasing_rearrangement([-5, 2]).tolist() == [5, 2]

    def test_ties(self):
        assert nonincreasing_rearrangement([1, 1, 1]).tolist() == [1, 1, 1]

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            nonincreasing_rearrangement([1.0, np.inf])


class TestTrimmedPMean:
    def test_half_trim(self):
        assert trimmed_p_mean([1, 2, 3, 10], TrimSpec(p=2, theta=0.5)) == 3.5

    def test_no_trim_equals_mean(self):
        assert trimmed_p_mean([1, 2, 3, 10], TrimSpec(p=2, theta=0.25)) == 28.5

    def test_homogeneity_example(self):
        doubled = trimmed_p_mean([2, 4, 6, 20], TrimSpec(p=2, theta=0.5))
        assert doubled == pytest.approx(14.0, rel=1e-12)

    def test_cut_rank_float_roundoff(self):
        # 0.1 * 10**4 is not exactly 1000 in floats; the rank must still be 1000
        assert cut_rank(0.1, 10_000) == 1000
        assert cut_rank(0.5, 4) == 2
        assert cut_rank(1e-9, 50) == 1

    def test_matches_exact_rational_arithmetic(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            values = rng.integers(-50, 50, size=n).tolist()
            theta = float(rng.uniform(0.05, 0.9))
            p = int(rng.integers(1, 4))
            k0 = cut_rank(theta, n)
            exact = fraction_trimmed_mean(values, p, k0)
            got = trimmed_p_mean(values, TrimSpec(p=float(p), theta=theta))
            assert got == pytest.approx(float(exact), rel=1e-12)


class TestTrimmedPMeanRows:
    """``trimmed_p_mean`` of each row of a projection block, against the naive sort-then-power sum."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("theta", [1e-6, 0.002, 0.1, 0.5])
    def test_rows_equal_the_naive_sum(self, rng, p, theta):
        continuous = rng.standard_t(3.0, size=(6, 9000))
        ties = np.round(continuous, 1)
        atoms = np.where(rng.random((6, 9000)) < 0.3, 0.0, continuous)
        spec = TrimSpec(p=p, theta=theta)
        for rows in (continuous, ties, atoms, continuous[:, :1], -np.abs(ties[:1, :17])):
            drop = spec.cut_rank(rows.shape[1]) - 1
            expected = [naive_power_mean(row, p, drop=drop) for row in rows]
            assert [trimmed_p_mean(row, spec) for row in rows] == expected
            # strided rows, as of the transpose of an (n, m) projection matrix
            assert [trimmed_p_mean(row, spec) for row in np.asfortranarray(rows)] == expected

    def test_leaves_the_block_unchanged(self):
        # compare estimates both means from the same view into a projection block
        rows = np.array([[3.0, -1.0, 2.0], [0.5, -4.0, 1.0]])
        for row in rows:
            trimmed_p_mean(row, TrimSpec(p=2.0, theta=0.5))
            empirical_p_mean(row, 2.0)
        assert rows.tolist() == [[3.0, -1.0, 2.0], [0.5, -4.0, 1.0]]

    def test_rejects_bad_input(self):
        spec = TrimSpec(p=2.0, theta=0.1)
        with pytest.raises(ValueError, match="1-d"):
            trimmed_p_mean([[1.0, 2.0]], spec)
        with pytest.raises(ValueError, match="at least one"):
            trimmed_p_mean(np.empty((2, 0))[0], spec)
        with pytest.raises(ValueError, match="finite"):
            trimmed_p_mean(np.array([[1.0, np.nan]])[0], spec)


class TestEmpiricalPMean:
    def test_basic(self):
        assert empirical_p_mean([1, 2, 3, 10], 2) == 28.5

    def test_zeros(self):
        assert empirical_p_mean([0, 0], 3) == 0.0

    def test_constants(self):
        assert empirical_p_mean([1, 1, 1], 7) == 1.0


class TestTrimThreshold:
    def test_second_largest(self):
        assert trim_threshold([1, 2, 3, 10], 0.5) == 3.0

    def test_maximum(self):
        assert trim_threshold([1, 2, 3, 10], 0.25) == 10.0

    def test_ties(self):
        assert trim_threshold([4, 4, 4, 4], 0.75) == 4.0

    def test_count_at_or_above_threshold(self, rng):
        # with distinct values exactly ceil(theta n) entries are >= the threshold
        for _ in range(25):
            n = int(rng.integers(3, 60))
            values = rng.permutation(np.arange(1, n + 1)).astype(float)
            theta = float(rng.uniform(0.05, 0.95))
            q = trim_threshold(values, theta)
            assert int(np.sum(values >= q)) == cut_rank(theta, n)


class TestAdjustedTrimLevels:
    def test_formula(self):
        assert adjusted_trim_levels(0.1, RatioParams(0.01, 0.5, 2.0)) == (0.28, pytest.approx(0.04))

    def test_degenerate_delta(self):
        # delta = 0 is no RatioParams; a tiny delta leaves the levels theta / (1 -+ lam)
        hi, lo = adjusted_trim_levels(0.1, RatioParams(1e-300, 0.5, 2.0))
        assert hi == pytest.approx(0.2)
        assert lo == pytest.approx(0.1 / 1.5)

    def test_theta_too_small(self):
        with pytest.raises(ValueError):
            adjusted_trim_levels(0.05, RatioParams(0.02, 0.5, 2.0))

    def test_gate_implies_deflated_level_above_two_delta(self, rng):
        for _ in range(200):
            params = RatioParams(
                delta=float(rng.uniform(0.001, 0.5)),
                lam=float(rng.uniform(0.05, 0.95)),
                big_c=float(rng.uniform(1.0, 4.0)),
            )
            theta = float(rng.uniform(0.0, 1.0))
            if not 0 < theta < 1 or not stated_theta_gate(theta, params):
                continue
            if theta <= 2 * params.big_c * params.delta:
                continue
            _, lo = adjusted_trim_levels(theta, params)
            assert lo >= 2 * params.delta - 1e-15


class TestThetaFromEpsilon:
    def test_default_constant(self):
        assert theta_from_epsilon(0.2, 10_000) == pytest.approx(0.25 * 0.04)

    def test_floor_at_one_over_n(self):
        assert theta_from_epsilon(0.01, 100) == pytest.approx(1 / 100)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            theta_from_epsilon(1.5, 100)


class TestTruncatedPowerMean:
    def test_hand_values(self):
        # min with cap 2.5: [1, 2, 2.5, 2.5] -> squares (1 + 4 + 6.25 + 6.25)/4
        assert truncated_power_mean([1, 2, 3, 10], 2, 2.5) == 4.375

    def test_cap_above_max_is_plain_mean(self):
        assert truncated_power_mean([1, 2, 3, 10], 2, 10.0) == 28.5

    def test_cap_zero(self):
        assert truncated_power_mean([1, 2, 3], 2, 0.0) == 0.0


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------



F_ORDERED = np.asfortranarray(np.random.default_rng(12).standard_normal((6, 50)))


def _kernel_cases():
    local = np.random.default_rng(11)
    return {
        "ties_and_zeros": local.integers(0, 5, size=40) / 3.0,
        "zeros_then_tail": np.append(np.zeros(7), local.exponential(size=30)),
        "negative": local.standard_normal(57),
        "f_ordered_row": F_ORDERED[3],
        "n_equals_one": np.array([-2.5]),
        "heavy_tail": local.standard_t(3.0, size=200),
    }


KERNEL_CASES = _kernel_cases()


class TestSortedPowerKernel:
    """Every p-mean equals the naive sort-then-power sum of tests/helpers.py exactly."""

    @pytest.mark.parametrize("name", list(KERNEL_CASES))
    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0, 7.3])
    def test_p_means_equal_the_naive_sum(self, name, p):
        values = KERNEL_CASES[name]
        before = values.copy()
        x = np.abs(values)
        n = values.size
        reference = EmpiricalCDF(values)
        assert empirical_p_mean(values, p) == naive_power_mean(values, p)
        assert raw_moment(reference, p) == naive_power_mean(values, p)
        for cap in (0.5 * x.min(), float(np.median(x)), 2.0 * x.max(), np.inf):
            assert truncated_power_mean(values, p, cap) == naive_power_mean(values, p, cap)
            assert tail_integral_moment(reference, p, cap) == naive_power_mean(values, p, cap)
        for kappa in (0.9, 0.5, 0.1, 0.01):
            q = upper_quantile(reference, kappa)
            assert truncated_upper_moment(reference, p, kappa) == naive_upper_power_mean(values, p, q)
        for drop in sorted({0, min(1, n - 1), n // 3, n - 1}):
            # theta inside ((drop) / n, (drop + 1) / n] discards exactly ``drop`` values
            spec = TrimSpec(p=p, theta=(drop + 0.5) / n)
            assert trimmed_p_mean(values, spec) == naive_power_mean(values, p, drop=drop)
        assert np.array_equal(values, before)

    @pytest.mark.parametrize("p", [1.0, 1.7, 2.0, 3.0, 7.3])
    @pytest.mark.parametrize("drop", [0, 1, 17])
    def test_rows_of_an_f_ordered_block_equal_the_naive_sum(self, p, drop):
        spec = TrimSpec(p=p, theta=(drop + 0.5) / F_ORDERED.shape[1])
        expected = [naive_power_mean(row, p, drop=drop) for row in F_ORDERED]
        assert [trimmed_p_mean(row, spec) for row in F_ORDERED] == expected

@given(values=finite_values, theta=thetas, p=exponents)
def test_trim_never_exceeds_plain_mean(values, theta, p):
    trimmed = trimmed_p_mean(values, TrimSpec(p=p, theta=theta))
    assert trimmed <= empirical_p_mean(values, p)


@given(values=finite_values, theta=thetas, p=exponents, c=st.floats(min_value=1e-3, max_value=1e3))
def test_positive_homogeneity(values, theta, p, c):
    spec = TrimSpec(p=p, theta=theta)
    scaled = trimmed_p_mean([c * v for v in values], spec)
    base = trimmed_p_mean(values, spec)
    assert scaled == pytest.approx(c ** p * base, rel=1e-12, abs=1e-300)


@given(values=finite_values, p=exponents, t1=thetas, t2=thetas)
def test_monotone_in_trim_fraction(values, p, t1, t2):
    lo, hi = sorted((t1, t2))
    assert trimmed_p_mean(values, TrimSpec(p=p, theta=hi)) <= trimmed_p_mean(
        values, TrimSpec(p=p, theta=lo)
    )


@given(values=finite_values, theta=thetas, p=exponents, seed=st.integers(0, 2**16))
def test_permutation_invariance(values, theta, p, seed):
    perm = np.random.default_rng(seed).permutation(len(values))
    shuffled = [values[i] for i in perm]
    spec = TrimSpec(p=p, theta=theta)
    assert trimmed_p_mean(values, spec) == trimmed_p_mean(shuffled, spec)
    assert trim_threshold(values, theta) == trim_threshold(shuffled, theta)


@given(values=finite_values, p=exponents)
def test_no_op_trim_is_exactly_the_mean(values, p):
    theta = 0.5 / len(values) if len(values) > 1 else 0.4
    assert trimmed_p_mean(values, TrimSpec(p=p, theta=theta)) == empirical_p_mean(values, p)


# ---------------------------------------------------------------------------
# The ascending readers against the sort-first path they replace
# ---------------------------------------------------------------------------

ATOMS = (0.0, -0.0, 1.0, -1.0, 2.5, -2.5, 1e-300, 7.0)
# ties, zeros of both signs and repeated atoms, mixed with continuous values
atom_values = st.lists(
    st.one_of(
        st.sampled_from(ATOMS),
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=80,
)
SINGLE_AND_ATOMS = ([0.0], [-0.0], [-3.5], [-0.0, 0.0, -0.0], [2.5] * 7, [1.0, -1.0, 0.0, 1.0, -0.0, 7.0])


def _with_examples(test):
    for values in SINGLE_AND_ATOMS:
        test = example(values=values, theta=0.3, p=2.0, seed=1)(test)
    return test


@_with_examples
@given(values=atom_values, theta=thetas, p=exponents, seed=st.integers(0, 2**16))
def test_ascending_readers_equal_the_sort_first_functions_bit_for_bit(values, theta, p, seed):
    x = np.array(values)
    xs = np.sort(np.abs(x))
    before = xs.copy()
    shuffled = np.random.default_rng(seed).permutation(x)
    spec = TrimSpec(p=p, theta=theta)
    assert _ascending_threshold(xs, theta) == trim_threshold(shuffled, theta)
    assert _ascending_trimmed_mean(xs, spec) == trimmed_p_mean(shuffled, spec)
    assert _ascending_head_mean(xs, p, xs.size) == empirical_p_mean(shuffled, p)
    for cap in (0.0, float(xs[0]), float(np.median(xs)), float(xs[-1]), np.inf):
        assert _ascending_truncated_mean(xs, p, cap) == truncated_power_mean(shuffled, p, cap)
    for q in (0.0, float(xs[0]), float(np.median(xs)), float(xs[-1])):
        # the sort-first sum that truncated_upper_moment made on a reference law
        above = np.sort(np.abs(shuffled)[np.abs(shuffled) > q])
        assert _ascending_upper_sum(xs, p, q) == float(np.sum(above ** p))
    assert xs.tobytes() == before.tobytes()


@_with_examples
@given(values=atom_values, theta=thetas, p=exponents, seed=st.integers(0, 2**16))
def test_report_values_are_the_ascending_nonnegative_sample(values, theta, p, seed):
    """The validators read ``report.values`` as sorted and nonnegative, for any signed, unsorted input."""
    x = np.random.default_rng(seed).permutation(np.array(values))
    before = x.copy()
    report = ratio_properties_report(x, FoldedNormalCDF(scale=1.0), RatioParams(0.05, 0.5, 2.0))
    xs = report.values
    assert np.all(xs[1:] >= xs[:-1])
    assert not np.signbit(xs).any()
    assert xs.tobytes() == np.sort(np.abs(before)).tobytes()
    assert x.tobytes() == before.tobytes()


NAN = float("nan")
SAMPLE = np.array([3.0, -1.0, 2.0, 0.5])
REFERENCE = EmpiricalCDF(np.linspace(-3.0, 3.0, 101))
FOLDED = FoldedNormalCDF(scale=1.0)
ONE_RULE_CASES = {
    "TrimSpec p=nan": (lambda: TrimSpec(p=NAN, theta=0.1), "p"),
    "empirical_p_mean p=nan": (lambda: empirical_p_mean(SAMPLE, NAN), "p"),
    "empirical_p_mean p=inf": (lambda: empirical_p_mean(SAMPLE, np.inf), "p"),
    "truncated_power_mean p=nan": (lambda: truncated_power_mean(SAMPLE, NAN, 2.0), "p"),
    "truncated_power_mean p=0.5": (lambda: truncated_power_mean(SAMPLE, 0.5, 2.0), "p"),
    "truncated_power_mean cap=nan": (lambda: truncated_power_mean(SAMPLE, 2.0, NAN), "cap"),
    "truncated_power_mean cap=-1": (lambda: truncated_power_mean(SAMPLE, 2.0, -1.0), "cap"),
    "ascending reader p=nan": (lambda: _ascending_truncated_mean(np.sort(np.abs(SAMPLE)), NAN, 2.0), "p"),
    "ascending reader cap=nan": (lambda: _ascending_truncated_mean(np.sort(np.abs(SAMPLE)), 2.0, NAN), "cap"),
    "MomentOracle.moments p=nan": (
        lambda: MomentOracle(DistributionSpec("product_laplace", 3)).moments(np.ones((1, 3)), NAN), "p"),
    "MomentOracle.moments p=0.5": (
        lambda: MomentOracle(DistributionSpec("gaussian", 2)).moments(np.ones((1, 2)), 0.5), "p"),
}
for _name, _cdf in (("analytic", FOLDED), ("reference", REFERENCE)):
    ONE_RULE_CASES.update({
        f"raw_moment {_name} p=nan": (lambda cdf=_cdf: raw_moment(cdf, NAN), "p"),
        f"tail_integral_moment {_name} p=nan": (lambda cdf=_cdf: tail_integral_moment(cdf, NAN, 1.0), "p"),
        f"tail_integral_moment {_name} t_max=nan": (lambda cdf=_cdf: tail_integral_moment(cdf, 2.0, NAN), "t_max"),
        f"error_functional {_name} p=nan": (lambda cdf=_cdf: error_functional(cdf, NAN, 1.0, 0.1), "p"),
        f"truncated_upper_moment {_name} p=nan": (lambda cdf=_cdf: truncated_upper_moment(cdf, NAN, 0.1), "p"),
        f"truncated_upper_moment {_name} p=0.5": (lambda cdf=_cdf: truncated_upper_moment(cdf, 0.5, 0.1), "p"),
    })


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(ONE_RULE_CASES))
def test_bad_exponent_or_cap_is_a_value_error_before_any_quadrature(name, monkeypatch):
    call, field = ONE_RULE_CASES[name]

    def no_quad(*args, **kwargs):
        raise AssertionError("quad was called")

    monkeypatch.setattr(integrate, "quad", no_quad)
    message = "p must be a finite real >= 1" if field == "p" else f"{field} must be nonnegative"
    with pytest.raises(ValueError, match="^" + message):
        call()


NEG_NAN = -NAN
assert np.signbit(NEG_NAN)
SORT_FIRST = {
    "trimmed_p_mean": lambda x: trimmed_p_mean(x, TrimSpec(p=2.0, theta=0.3)),
    "empirical_p_mean": lambda x: empirical_p_mean(x, 2.0),
    "trim_threshold": lambda x: trim_threshold(x, 0.3),
    "truncated_power_mean": lambda x: truncated_power_mean(x, 2.0, 1.0),
    "nonincreasing_rearrangement": nonincreasing_rearrangement,
    "ratio_properties_report": lambda x: ratio_properties_report(x, FOLDED, RatioParams(0.05, 0.5, 2.0)),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("where", ["first", "middle", "last", "alone"])
@pytest.mark.parametrize("bad", [NAN, NEG_NAN, np.inf, -np.inf], ids=["nan", "-nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", list(SORT_FIRST))
def test_sort_first_functions_reject_a_non_finite_value_anywhere(name, bad, where):
    # the check reads only the largest value after the sort, so the non-finite
    # value must sort last wherever it stands and whatever its sign
    rest = [3.0, -1.0, 2.0, 0.5]
    x = {"first": [bad, *rest], "middle": [*rest[:2], bad, *rest[2:]], "last": [*rest, bad], "alone": [bad]}[where]
    with pytest.raises(ValueError, match="^values must be finite$"):
        SORT_FIRST[name](np.array(x))


DELTA_RULE_CASES = {
    "error_functional analytic delta=0": lambda: error_functional(FOLDED, 2.0, 1.0, 0.0),
    "error_functional reference delta=0.6": lambda: error_functional(REFERENCE, 2.0, 1.0, 0.6),
    "error_functional delta=nan": lambda: error_functional(FOLDED, 2.0, 1.0, NAN),
    "ratio_properties_report delta=0": lambda: ratio_properties_report(SAMPLE, FOLDED, RatioParams(0.0, 0.5, 2.0)),
    "RatioParams delta=0": lambda: RatioParams(delta=0.0, lam=0.5, big_c=2.0),
    "RatioParams delta=nan": lambda: RatioParams(delta=NAN, lam=0.5, big_c=2.0),
}


@pytest.mark.parametrize("name", list(DELTA_RULE_CASES))
def test_property_checks_state_one_delta_rule(name):
    with pytest.raises(ValueError, match=r"^delta must lie in \(0, 1/2\], got "):
        DELTA_RULE_CASES[name]()


DIRECTION_RULE_CASES = {
    "project_abs": lambda v: project_abs(SampleMatrix(np.ones((2, 3)), seed=0, dist_name="test"), v),
    "project_abs block": lambda v: project_abs(SampleMatrix(np.ones((2, 3)), seed=0, dist_name="test"), [v, v]),
    "marginal_cdf gaussian": lambda v: marginal_cdf(DistributionSpec("gaussian", 3), v),
    "marginal_cdf product_laplace": lambda v: marginal_cdf(DistributionSpec("product_laplace", 3), v, ref_size=10),
    "MomentOracle.moments gaussian": lambda v: MomentOracle(DistributionSpec("gaussian", 3)).moments(v, 3.0),
    "MomentOracle.moments product_laplace block": lambda v: MomentOracle(
        DistributionSpec("product_laplace", 3), ref_size=10).moments([v, v], 3.0),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [NAN, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("name", list(DIRECTION_RULE_CASES))
def test_every_direction_taker_states_one_direction_rule(name, bad):
    with pytest.raises(ValueError, match="^direction must be finite$"):
        DIRECTION_RULE_CASES[name]([1.0, bad, 0.0])
    with pytest.raises(ValueError, match=r"^direction (block )?has shape .*, expected \((m >= 1, )?3,?\)$"):
        DIRECTION_RULE_CASES[name]([1.0, 0.0])


def test_trimspec_validation():
    with pytest.raises(ValueError):
        TrimSpec(p=0.5, theta=0.1)
    with pytest.raises(ValueError):
        TrimSpec(p=2.0, theta=1.0)
    with pytest.raises(ValueError):
        TrimSpec(p=2.0, theta=0.0)


def test_sample_matrix_validation():
    with pytest.raises(ValueError):
        SampleMatrix(np.array([1.0, 2.0]), seed=0, dist_name="x")
    with pytest.raises(ValueError):
        SampleMatrix(np.array([[np.nan]]), seed=0, dist_name="x")
    s = SampleMatrix(np.zeros((3, 2)), seed=0, dist_name="x")
    assert (s.n, s.dim) == (3, 2)


def test_ratio_params_validation():
    with pytest.raises(ValueError):
        RatioParams(delta=0.6, lam=0.5, big_c=2.0)
    with pytest.raises(ValueError):
        RatioParams(delta=0.1, lam=1.0, big_c=2.0)
    with pytest.raises(ValueError):
        RatioParams(delta=0.1, lam=0.5, big_c=0.5)


@pytest.mark.parametrize("module", sorted(m.name for m in pkgutil.iter_modules(lptrim.__path__)))
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"lptrim.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing
