import math
from functools import lru_cache

import numpy as np
import pytest

from helpers import (
    StubUniforms,
    chunked_reference_moments,
    chunked_reference_values,
    copyto_power_chain,
    cumulant_fourth_moments,
    monte_carlo_moment,
    naive_laplace,
    per_block_streamed_moments,
    per_law_sf,
)
from lptrim import core, distributions
from lptrim.cli import main
from lptrim.distributions import (
    LAPLACE_SCALE,
    DistributionSpec,
    EmpiricalCDF,
    ExponentialCDF,
    FoldedNormalCDF,
    FoldedStudentTCDF,
    HalfUniformCDF,
    MarginalCDF,
    MomentDoesNotExistError,
    MomentOracle,
    draw_sample,
    gaussian_abs_moment,
    marginal_cdf,
    spec_from_label,
    sphere_directions,
    student_abs_moment,
    _abs_power_sums,
    _closed_form,
    _draw_matrix,
    _reference_law,
    _reference_rows,
    _streamed_moments,
)
from lptrim.oracle import raw_moment, upper_quantile
from lptrim.seeding import child_rng

ALL_SPECS = [
    DistributionSpec("gaussian", 5),
    DistributionSpec("cube_uniform", 5),
    DistributionSpec("product_laplace", 5),
    DistributionSpec("product_student_t", 5, nu=4.5),
]


class TestDrawSample:
    def test_deterministic_in_seed(self):
        spec = DistributionSpec("gaussian", 4)
        a = draw_sample(spec, 100, 7)
        b = draw_sample(spec, 100, 7)
        assert np.array_equal(a.data, b.data)
        assert a.dist_name == "gaussian"

    def test_label_round_trip(self):
        spec = DistributionSpec("product_student_t", 3, nu=6.0)
        sample = draw_sample(spec, 10, 1)
        assert spec_from_label(sample.dist_name, 3) == spec

    def test_equal_specs_have_equal_labels(self):
        # the label seeds the reference laws and the moment oracle's rows
        assert DistributionSpec("product_student_t", 3, nu=5).label == "product_student_t(nu=5.0)"
        assert DistributionSpec("product_student_t", 3, nu=np.float64(5.0)).label == "product_student_t(nu=5.0)"

    def test_gaussian_covariance_close_to_identity(self):
        spec = DistributionSpec("gaussian", 5)
        s = draw_sample(spec, 100_000, 11)
        cov = np.cov(s.data, rowvar=False)
        assert np.max(np.abs(cov - np.eye(5))) < 0.05

    def test_cube_support(self):
        s = draw_sample(DistributionSpec("cube_uniform", 3), 10_000, 3)
        assert np.all(np.abs(s.data) <= math.sqrt(3.0))

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            DistributionSpec("cauchy", 3)

    def test_student_needs_nu_above_two(self):
        with pytest.raises(ValueError):
            DistributionSpec("product_student_t", 3, nu=2.0)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_isotropy(self, spec):
        s = draw_sample(spec, 100_000, 23)
        mean = s.data.mean(axis=0)
        cov = (s.data.T @ s.data) / s.n
        assert np.max(np.abs(mean)) < 0.05
        assert np.max(np.abs(cov - np.eye(spec.dim))) < 0.05


def oracle_moment(spec, v, p):
    return MomentOracle(spec).moments([v], p)[0]


class TestTrueMoment:
    def test_gaussian_isotropic_second_moment(self):
        spec = DistributionSpec("gaussian", 4)
        v = np.array([0.5, 0.5, 0.5, 0.5])
        assert oracle_moment(spec, v, 2) == pytest.approx(1.0)

    def test_gaussian_fourth_moment(self):
        spec = DistributionSpec("gaussian", 2)
        assert oracle_moment(spec, [1.0, 0.0], 4) == pytest.approx(3.0)

    def test_student_fourth_moment_coordinate(self):
        # unit-variance scaling leaves E x^4 = 3 (nu - 2) / (nu - 4)
        spec = DistributionSpec("product_student_t", 3, nu=10.0)
        v = np.array([1.0, 0.0, 0.0])
        analytic = oracle_moment(spec, v, 4)
        assert analytic == pytest.approx(4.0, rel=1e-12)
        mc, stderr = monte_carlo_moment(spec, v, 4, 400_000, seed=1)
        assert abs(mc - analytic) < 3 * stderr

    def test_nonexistent_moment_raises(self):
        spec = DistributionSpec("product_student_t", 2, nu=4.5)
        with pytest.raises(MomentDoesNotExistError):
            oracle_moment(spec, [1.0, 0.0], 5)

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError, match="p must be a finite real >= 1"):
            oracle_moment(DistributionSpec("gaussian", 2), [1.0, 0.0], 0.5)

    @pytest.mark.parametrize(
        "moment, p",
        [
            (lambda p: gaussian_abs_moment(p), 400.0),
            (lambda p: student_abs_moment(1000.0, p), 400.0),
            (lambda p: ExponentialCDF(scale=1.0).exact_moment(p), 171.0),
            (lambda p: ExponentialCDF(scale=10.0).exact_moment(p), 150.0),
            (lambda p: FoldedNormalCDF(scale=3.0).exact_moment(p), 300.0),
            (lambda p: _closed_form(p, lambda: np.array([1.0, 10.0]) ** p), 400.0),
            (lambda p: _closed_form(p, lambda: np.diff(np.array([10.0, 20.0]) ** p)), 400.0),
        ],
        ids=["gaussian_gamma", "student_exp", "exponential_gamma", "exponential_product", "folded_normal_product",
             "array_inf", "array_inf_minus_inf"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_closed_form_raises_naming_p(self, moment, p):
        # math.gamma and math.exp raise OverflowError; a product of two finite
        # factors overflows to inf instead, and an array to inf or to nan;
        # each must surface as infeasible
        with pytest.raises(MomentDoesNotExistError, match=f"p={p}"):
            moment(p)

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 6])
    def test_gaussian_analytic_matches_monte_carlo(self, p):
        spec = DistributionSpec("gaussian", 3)
        v = np.array([0.6, -0.3, 1.1])
        analytic = oracle_moment(spec, v, p)
        mc, stderr = monte_carlo_moment(spec, v, p, 500_000, seed=2)
        assert abs(mc - analytic) < 3 * stderr

    def test_isotropy_shortcut_all_specs(self):
        for spec in ALL_SPECS:
            v = np.full(spec.dim, 1.0 / math.sqrt(spec.dim))
            assert oracle_moment(spec, v, 2) == pytest.approx(1.0, rel=1e-12)

    def test_product_fourth_moment_cumulant_formula(self):
        spec = DistributionSpec("product_laplace", 4)
        v = np.array([0.5, -0.5, 0.5, 0.5])
        analytic = oracle_moment(spec, v, 4)
        mc, stderr = monte_carlo_moment(spec, v, 4, 400_000, seed=3)
        assert abs(mc - analytic) < 3 * stderr


class TestMomentEquivalenceMetadata:
    # L with ||<X, v>||_4 <= L ||<X, v>||_2 for every direction: a unit v has
    # E <X, v>^4 = 3 + kappa4 sum v_i^4 between 3 and E Y^4 of one
    # unit-variance coordinate Y, so L = max(3, E Y^4)^(1/4)
    @pytest.mark.parametrize(
        "spec, bound",
        [
            (DistributionSpec("gaussian", 8), 3.0 ** 0.25),
            (DistributionSpec("cube_uniform", 8), 3.0 ** 0.25),
            (DistributionSpec("product_laplace", 8), 6.0 ** 0.25),
            (DistributionSpec("product_student_t", 8, nu=10.0), (3.0 * 8.0 / 6.0) ** 0.25),
        ],
        ids=["gaussian", "cube_uniform", "product_laplace", "product_student_t"],
    )
    def test_l4_l2_ratio_never_exceeds_stored_bound(self, spec, bound, rng):
        # per-direction L4/L2 ratio evaluated exactly through the fourth-moment
        # closed form; Monte Carlo only over the 100 random directions
        directions = sphere_directions(spec.dim, 100, 17)
        oracle = MomentOracle(spec)
        ratio = oracle.moments(directions, 4) ** 0.25 / oracle.moments(directions, 2) ** 0.5
        assert np.all(ratio <= bound * (1 + 1e-12))


class TestMarginalCDF:
    def test_gaussian_folded_normal(self):
        spec = DistributionSpec("gaussian", 3)
        cdf = marginal_cdf(spec, [1.0, 0.0, 0.0])
        assert isinstance(cdf, FoldedNormalCDF)
        assert 1.0 - cdf.sf(0.0) - cdf.atom(0.0) == pytest.approx(0.0)
        # P(|Z| <= 1.96) ~ 0.95
        assert cdf.sf(1.96) == pytest.approx(0.05, abs=1e-3)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            marginal_cdf(DistributionSpec("gaussian", 2), [0.0, 0.0])

    def test_every_marginal_type_is_hashable(self):
        # the quadrature caches in oracle.py key on the cdf object itself
        examples = {
            MarginalCDF: MarginalCDF(),
            FoldedNormalCDF: FoldedNormalCDF(scale=1.5),
            HalfUniformCDF: HalfUniformCDF(width=2.0),
            ExponentialCDF: ExponentialCDF(scale=0.7),
            FoldedStudentTCDF: FoldedStudentTCDF(nu=4.5, scale=0.8),
            EmpiricalCDF: EmpiricalCDF([0.5, 1.0, 1.0]),
        }
        types = {
            obj for obj in vars(distributions).values()
            if isinstance(obj, type) and issubclass(obj, MarginalCDF)
        }
        assert types == set(examples)
        for cdf in examples.values():
            assert hash(cdf) == hash(cdf)
        assert hash(FoldedNormalCDF(scale=1.5)) == hash(examples[FoldedNormalCDF])

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # an atom that evaluates the tail overflows at 1e308
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_tail_template_equals_the_per_law_sf_bit_for_bit(self, spec):
        v = np.zeros(spec.dim)
        v[0] = 0.7
        cdf = marginal_cdf(spec, v)
        quartiles = [upper_quantile(cdf, eta) for eta in (0.75, 0.5, 0.25)]
        points = [-1.0, -0.0, 0.0, *quartiles, 1e308, math.inf, math.nan]
        points += [np.float64(t) for t in points]
        array = np.array(points)
        with np.errstate(over="ignore"):  # 1e308 / scale overflows to inf on both sides
            for t in points:
                got, want = cdf.sf(t), per_law_sf(cdf, t)
                assert type(got) is float and type(want) is float
                assert np.float64(got).tobytes() == np.float64(want).tobytes(), t
                assert cdf.atom(t) == 0.0 and type(cdf.atom(t)) is float
            assert cdf.sf(array).tobytes() == per_law_sf(cdf, array).tobytes()
        assert cdf.atom(array).tobytes() == np.zeros(array.size).tobytes()

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda spec: spec.name)
    def test_analytic_tails_are_sf_atom_and_their_sum(self, spec):
        v = np.zeros(spec.dim)
        v[0] = 0.7
        cdf = marginal_cdf(spec, v)
        quartiles = [upper_quantile(cdf, eta) for eta in (0.75, 0.5, 0.25)]
        points = [-1.0, 0.0, *quartiles, 40.0]
        for t in [*points, np.array(points)]:
            sf, atom = cdf.sf(t), cdf.atom(t)
            got = cdf.tails(t)
            assert [type(x) for x in got] == [type(sf)] * 3
            assert np.array(got).tobytes() == np.array([sf, atom, sf + atom]).tobytes()
        # sf_left is the sf array itself, which no reader may write
        sf, _, sf_left = cdf.tails(np.array(points))
        assert sf_left is sf
        with pytest.raises(ValueError, match="read-only"):
            sf[0] = 0.5

    def test_reference_law_tails_are_the_three_counts_bit_for_bit(self):
        # 999 signed values on 13 levels, 0 among them: every |value| is tied and carries an atom
        values = np.random.default_rng(5).integers(-6, 7, size=999) / 4.0
        cdf = EmpiricalCDF(values)
        assert cdf.values[0] == 0.0
        levels = np.unique(cdf.values)
        between = (levels[1:] + levels[:-1]) / 2
        points = np.concatenate(([-math.inf, -1.0, -0.25, -0.0, 0.0], levels, between, [1.6, 2.0, math.inf, math.nan]))
        m, magnitudes = values.size, np.abs(values)
        counts = np.array([
            [np.count_nonzero(magnitudes > t) / m for t in points],
            [np.count_nonzero(magnitudes == t) / m for t in points],
            [np.count_nonzero(magnitudes >= t) / m for t in points],
        ])

        def each_query(t):
            return [*cdf.tails(t), cdf.sf(t), cdf.atom(t), cdf.sf_left(t)]

        got = each_query(points)
        assert all(type(x) is np.ndarray and x.dtype == np.float64 for x in got)
        assert np.array(got).tobytes() == np.concatenate((counts, counts)).tobytes()
        for i, t in enumerate(points.tolist()):
            want = counts[:, i].tolist() * 2
            for query in (t, np.float64(t), np.array(t)):
                got = each_query(query)
                assert all(type(x) is float for x in got), query
                assert np.array(got).tobytes() == np.array(want).tobytes(), query

    def test_empirical_below_minimum_is_zero(self):
        cdf = EmpiricalCDF([1.0, 2.0, 3.0])
        assert 1.0 - cdf.sf(0.5) - cdf.atom(0.5) == 0.0
        assert cdf.sf(0.5) == 1.0

    @pytest.mark.parametrize("values", [[[1.0, 2.0], [3.0, 4.0]], [], [1.0, math.nan], [1.0, math.inf],
                                        [-math.inf, 1.0]], ids=["2-d", "empty", "nan", "inf", "-inf"])
    def test_empirical_rejects_a_bad_reference_at_construction(self, values):
        with pytest.raises(ValueError):
            EmpiricalCDF(values)

    def test_empirical_mode_reproducible_from_seed(self):
        _reference_law.cache_clear()
        spec = DistributionSpec("product_laplace", 3)
        v = np.array([0.6, 0.8, 0.1])
        a = marginal_cdf(spec, v, ref_size=5_000)
        _reference_law.cache_clear()
        b = marginal_cdf(spec, v, ref_size=5_000)
        assert np.array_equal(a.values, b.values)

    def test_unkept_law_equals_the_kept_one_and_stays_out_of_the_cache(self):
        _reference_law.cache_clear()
        spec = DistributionSpec("product_laplace", 3)
        v = np.array([0.6, 0.8, 0.1])
        built = marginal_cdf(spec, v, ref_size=5_000, keep=False)
        assert _reference_law.cache_info().currsize == 0
        kept = marginal_cdf(spec, v, ref_size=5_000)
        assert kept is not built and np.array_equal(kept.values, built.values)
        assert marginal_cdf(spec, v, ref_size=5_000, keep=False) is not kept
        _reference_law.cache_clear()

    def test_coordinate_marginals_are_analytic(self):
        for spec in ALL_SPECS:
            v = np.zeros(spec.dim)
            v[1] = -1.3
            cdf = marginal_cdf(spec, v)
            assert not isinstance(cdf, EmpiricalCDF)
            assert cdf.sf(0.0) == pytest.approx(1.0)

    def test_empirical_matches_law(self):
        # reference CDF of a gaussian mixture direction vs the exact folded normal
        _reference_law.cache_clear()
        spec = DistributionSpec("product_laplace", 4)
        v = np.array([0.5, 0.5, 0.5, 0.5])
        cdf = marginal_cdf(spec, v, ref_size=200_000)
        exact_m2 = oracle_moment(spec, v, 2)
        assert raw_moment(cdf, 2.0) == pytest.approx(exact_m2, abs=0.02)


class TestSphereDirections:
    def test_unit_norms(self):
        dirs = sphere_directions(7, 500, 3)
        assert np.max(np.abs(np.linalg.norm(dirs, axis=1) - 1.0)) < 1e-12

    def test_one_dimension_gives_signs(self):
        dirs = sphere_directions(1, 50, 5)
        assert set(np.unique(dirs)) <= {-1.0, 1.0}

    def test_mean_near_origin(self):
        dirs = sphere_directions(3, 100_000, 9)
        assert np.max(np.abs(dirs.mean(axis=0))) < 0.02


class TestMomentOracle:
    def test_matches_single_direction_path(self):
        spec = DistributionSpec("product_laplace", 3)
        dirs = sphere_directions(3, 8, 21)
        batch = MomentOracle(spec, ref_size=300_000, seed=4).moments(dirs, 3.0)
        for j, v in enumerate(dirs):
            single, stderr = monte_carlo_moment(spec, v, 3.0, 300_000, seed=4)
            # both sides are Monte Carlo; allow 5 combined standard errors
            assert abs(batch[j] - single) < 5 * math.sqrt(2.0) * stderr

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 5.0])
    @pytest.mark.parametrize("m", [1, 7])
    def test_blocked_sum_matches_single_shot(self, p, m):
        # 205_000 rows end in a partial block at m = 1 and at m = 7
        spec = DistributionSpec("product_laplace", 5)
        dirs = sphere_directions(5, m, 8)
        got = MomentOracle(spec, ref_size=205_000, seed=6).moments(dirs, p)
        rng = child_rng(6, "moment-ref", spec.label)
        X = np.vstack([_draw_matrix(spec, 200_000, rng), _draw_matrix(spec, 5_000, rng)])
        naive = np.sum(np.abs(X @ dirs.T) ** p, axis=0) / 205_000
        assert got == pytest.approx(naive, rel=1e-12)

    def test_gaussian_closed_form(self):
        spec = DistributionSpec("gaussian", 4)
        dirs = sphere_directions(4, 5, 2) * 1.7
        got = MomentOracle(spec).moments(dirs, 3.0)
        assert got == pytest.approx(1.7 ** 3 * gaussian_abs_moment(3.0) * np.ones(5), rel=1e-12)


STREAMED_LAWS = [
    DistributionSpec("product_laplace", 4),
    DistributionSpec("cube_uniform", 4),
    DistributionSpec("product_student_t", 4, nu=4.5),
]


# The chunked pass's chunk and projection block, 200,000 and 4,096 rows at the production block of 2^15 values,
# scale with the block.  At a block of 2^10 values (a chunk of 6,250 rows, a projection block of 128), 6,407
# rows leave a partial chunk and a partial last block at each m, as 205,001 rows do at the production block.
SMALL_BLOCK_ELEMENTS, SMALL_REF_SIZE = 2**10, 6_407
PRODUCTION_BLOCK_ELEMENTS, PRODUCTION_STREAM_SIZE = core._BLOCK_ELEMENTS, 205_001


class TestStreamedMomentsAgainstChunkedPass:
    """The block-streamed oracle pass against the chunked pass it replaced."""

    @pytest.mark.parametrize("m", [1, 7, 500])
    @pytest.mark.parametrize("spec, p", [
        pytest.param(spec, p, id=f"{spec.name}-p{p:g}")
        for spec in STREAMED_LAWS for p in (1.0, 1.5, 3.0, 4.0, 5.0) if p < spec.max_finite_moment
    ])
    def test_truths_agree_to_round_off(self, monkeypatch, spec, p, m):
        # one case per law at the production block, every other at the small one; both bindings patched
        production = (p, m) == (3.0, 7)
        block = PRODUCTION_BLOCK_ELEMENTS if production else SMALL_BLOCK_ELEMENTS
        ref_size = PRODUCTION_STREAM_SIZE if production else SMALL_REF_SIZE
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", block)
        monkeypatch.setattr(distributions, "_BLOCK_ELEMENTS", block)
        scale = block / PRODUCTION_BLOCK_ELEMENTS
        chunk_rows, block_rows = int(200_000 * scale), int(4096 * scale)
        assert ref_size > chunk_rows and ref_size % chunk_rows and ref_size % max(1, block // m)
        dirs = sphere_directions(spec.dim, m, 8)
        got = _streamed_moments(spec, dirs, p, ref_size, child_rng(6, "stream"))
        naive = chunked_reference_moments(spec, dirs, p, ref_size, child_rng(6, "stream"), chunk_rows, block_rows)
        assert got == pytest.approx(naive, rel=1e-13, abs=0)

    @pytest.mark.parametrize("draw", [_draw_matrix, _reference_rows], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
    def test_split_draws_equal_one_draw(self, spec, draw):
        # the streamed pass draws block by block; the reference rows must not depend on the split
        whole = draw(spec, 5_000, child_rng(2, "split"))
        rng = child_rng(2, "split")
        parts = [draw(spec, rows, rng) for rows in (1, 511, 512, 3_000, 976)]
        assert np.vstack(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("m", [1, 17])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0, 7.5])
    def test_copy_free_power_equals_the_copyto_chain(self, p, m, rng):
        # 17 columns take the einsum for 3 <= p <= 5, one column the whole chain and a pairwise sum
        x = rng.standard_normal((300, m)) * np.exp(rng.uniform(-20, 20, (300, m)))
        x[0, :3] = [0.0, -0.0, -1e-300][:m]
        want = copyto_power_chain(np.abs(x), p).sum(axis=0)
        assert np.array_equal(_abs_power_sums(x, p, np.empty_like(x)), want)


def streamed_draws(ref_size: int, m: int, dim: int) -> list[int]:
    """The rows of each draw of the streamed pass: the most whole blocks of ``core._BLOCK_ELEMENTS // m``
    rows whose rows x d values fit in ``core._BLOCK_ELEMENTS``, at least one block, a draw after another
    until ``ref_size`` rows are drawn."""
    rows = core._BLOCK_ELEMENTS // m
    group_rows = max(1, core._BLOCK_ELEMENTS // (rows * dim)) * rows
    return [min(group_rows, ref_size - start) for start in range(0, ref_size, group_rows)]


# A block of 2^10 values, at which 1,169 rows cross the boundaries below at every (m, dim) of the gate; the
# production block of 2^15 values needs 65,537 rows for that.
GATE_BLOCK_ELEMENTS = 2**10
GATE_REF_SIZE = 1_169
PRODUCTION_REF_SIZE = 65_537

LAWS = {"laplace": ("product_laplace", None), "cube": ("cube_uniform", None), "student_t": ("product_student_t", 4.5)}


class TestStreamedMomentsAgainstPerBlockDraws:
    """The grouped draws and fused sums of the streamed pass against the per-block pass they replaced."""

    @staticmethod
    def assert_truths_equal(law, dim, p, m, ref_size):
        name, nu = LAWS[law]
        spec = DistributionSpec(name, dim, nu)
        rows, draws = core._BLOCK_ELEMENTS // m, streamed_draws(ref_size, m, dim)
        # a draw boundary is crossed, and the last draw is a partial group (if a group can be) of whole
        # blocks and a partial one
        assert len(draws) > 1 and draws[-1] % rows
        assert draws[0] == rows or -(-draws[-1] // rows) < draws[0] // rows
        dirs = sphere_directions(dim, m, 8)
        got = _streamed_moments(spec, dirs, p, ref_size, child_rng(6, "stream"))
        want = per_block_streamed_moments(spec, dirs, p, ref_size, child_rng(6, "stream"))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 2, 7, 163, 200, 500])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.5, 3.0, 5.0])
    @pytest.mark.parametrize("dim", [1, 3, 20])
    @pytest.mark.parametrize("law", list(LAWS))
    def test_truths_equal_bit_for_bit(self, monkeypatch, law, dim, p, m):
        # both bindings: _block_sizes reads core's, the streamed pass its own for the draw group
        monkeypatch.setattr(core, "_BLOCK_ELEMENTS", GATE_BLOCK_ELEMENTS)
        monkeypatch.setattr(distributions, "_BLOCK_ELEMENTS", GATE_BLOCK_ELEMENTS)
        self.assert_truths_equal(law, dim, p, m, GATE_REF_SIZE)

    @pytest.mark.parametrize("law, dim, p, m", [
        ("laplace", 20, 3.0, 200),  # the sandwich's shape
        *[(law, dim, p, 1) for law in LAWS for dim in (1, 20) for p in (2.5, 3.0)],
    ])
    def test_truths_equal_bit_for_bit_at_the_production_block(self, law, dim, p, m):
        self.assert_truths_equal(law, dim, p, m, PRODUCTION_REF_SIZE)


LAPLACE_SHAPES = [(1, 1), (163, 20), (32_768, 10)]


@lru_cache(maxsize=None)
def naive_laplace_draw(seed: int, shape: tuple) -> tuple[np.ndarray, dict]:
    """``naive_laplace`` on ``default_rng(seed)``: the draws and the generator's state after them."""
    rng = np.random.default_rng(seed)
    return naive_laplace(rng, LAPLACE_SCALE, shape), rng.bit_generator.state


def assert_within_two_ulp(got: np.ndarray, want: np.ndarray) -> None:
    """Equal sign bits, and every value within 2 ulp (adjacent doubles of one sign differ by 1 in their bits)."""
    assert got.shape == want.shape
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 2


class TestLaplaceReferenceRows:
    """product_laplace reference rows as array operations, against numpy's scalar sampler."""

    @pytest.mark.parametrize("shape", LAPLACE_SHAPES, ids=str)
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_transcription_equals_generator_laplace(self, seed, shape):
        want, state = naive_laplace_draw(seed, shape)
        rng = np.random.default_rng(seed)
        assert rng.laplace(0.0, LAPLACE_SCALE, shape).tobytes() == want.tobytes()
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("shape", LAPLACE_SHAPES, ids=str)
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_rows_match_the_transcription(self, seed, shape):
        want, state = naive_laplace_draw(seed, shape)
        rng = np.random.default_rng(seed)
        assert_within_two_ulp(_reference_rows(DistributionSpec("product_laplace", shape[1]), shape[0], rng), want)
        assert rng.bit_generator.state == state

    def test_edge_uniforms(self):
        half_up, half_down = np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0)
        uniforms = [0.5, half_up, half_down, 2.0 ** -53, 1.0 - 2.0 ** -53]
        got = _reference_rows(DistributionSpec("product_laplace", 5), 1, StubUniforms(uniforms))[0]
        assert_within_two_ulp(got, naive_laplace(StubUniforms(uniforms), LAPLACE_SCALE, 5))
        assert got[0] == 0.0 and not np.signbit(got[0])  # numpy's 0.0 - 0.0
        assert got[1] > 0.0 > got[2]
        # (2 - u) - u rounds to 2^-53 at u = 1 - 2^-53, where 2 - 2u is 2^-52
        assert got[4] == pytest.approx(-LAPLACE_SCALE * math.log(2.0 ** -53), rel=1e-15)

    @pytest.mark.parametrize("stream", [
        [0.0, 0.3, 0.7, 0.1, 0.9, 0.6, 0.2, 0.4],
        [0.3, 0.7, 0.1, 0.9, 0.6, 0.0, 0.2, 0.4],
        [0.3, 0.0, 0.7, 0.0, 0.1, 0.9, 0.0, 0.6, 0.2, 0.4],  # the refill of two zeros draws a zero
    ], ids=["first", "last", "in-refill"])
    def test_zero_uniforms_are_skipped(self, stream):
        nonzero = [u for u in stream[:-1] if u != 0.0]
        spec = DistributionSpec("product_laplace", 2)
        stub = StubUniforms(stream)
        got = _reference_rows(spec, 3, stub)
        assert stub.used == len(stream) - 1
        assert got.tobytes() == _reference_rows(spec, 3, StubUniforms(nonzero)).tobytes()
        naive_stub = StubUniforms(stream)
        assert_within_two_ulp(got, naive_laplace(naive_stub, LAPLACE_SCALE, (3, 2)))
        assert naive_stub.used == stub.used

    @pytest.mark.parametrize("n, dim, seed", [(1, 1, 0), (500, 3, 9), (2_000, 20, 31)])
    def test_samples_stay_generator_laplace(self, n, dim, seed):
        # samples are regenerated bit for bit by load_sample, so they keep numpy's sampler
        want = np.random.default_rng(seed).laplace(0.0, 1.0 / math.sqrt(2.0), (n, dim))
        assert draw_sample(DistributionSpec("product_laplace", dim), n, seed).data.tobytes() == want.tobytes()


class TestReferenceLawAgainstChunkedBuild:
    """Reference laws drawn in the oracle's blocks against the 200,000-row chunks they replaced."""

    @pytest.mark.parametrize("ref_size", [100_000, 1_000_000, 205_001])
    @pytest.mark.parametrize("spec", [
        DistributionSpec("product_laplace", 3),
        DistributionSpec("product_laplace", 10),
        DistributionSpec("product_laplace", 20),
        DistributionSpec("cube_uniform", 20),
        DistributionSpec("product_student_t", 20, nu=4.5),
    ], ids=lambda s: f"{s.name}-d{s.dim}")
    def test_values_equal_bit_for_bit(self, spec, ref_size):
        # 205,001 rows end in a partial block; the unwrapped build keeps 10^6-row laws out of the cache
        for v in sphere_directions(spec.dim, 3, 11):
            built = _reference_law.__wrapped__(spec, ref_size, v.tobytes())
            assert np.array_equal(built.values, chunked_reference_values(spec, ref_size, v))


def record_reference_blocks(monkeypatch) -> list[tuple]:
    """The shape of every draw of reference rows from now on, recorded through ``_reference_rows``."""
    blocks = []

    def recording_reference_rows(spec, rows, rng):
        out = _reference_rows(spec, rows, rng)
        blocks.append(out.shape)
        return out

    # both reference passes look _reference_rows up in distributions
    monkeypatch.setattr(distributions, "_reference_rows", recording_reference_rows)
    return blocks


def record_projection_blocks(monkeypatch) -> list[tuple]:
    """The shape of every block of projections the streamed pass powers from now on."""
    blocks = []

    def recording_power_sums(x, p, scratch):
        blocks.append(x.shape)
        return _abs_power_sums(x, p, scratch)

    monkeypatch.setattr(distributions, "_abs_power_sums", recording_power_sums)
    return blocks


class TestReferenceBlocks:
    """The blocks the two reference passes draw: at most 2^15 values in the draw and in the projections."""

    @pytest.mark.parametrize("dim, rows", [(1, 32_768), (3, 8_192), (10, 2_048), (20, 1_024)])
    def test_reference_law_blocks_are_the_largest_power_of_two(self, dim, rows, monkeypatch):
        blocks = record_reference_blocks(monkeypatch)
        v = sphere_directions(dim, 1, 3)[0]
        _reference_law.__wrapped__(DistributionSpec("cube_uniform", dim), 70_001, v.tobytes())
        sizes = [shape[0] for shape in blocks]
        assert all(shape[1] == dim for shape in blocks)
        assert sum(sizes) == 70_001
        # a power of two, so a multiple of 4 rows as OpenBLAS's dgemv groups them; all full but the last
        assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] <= rows
        assert rows & (rows - 1) == 0 and rows * dim <= 2**15 < 2 * rows * dim

    @pytest.mark.parametrize("dim, m", [
        (dim, m) for dim in (1, 3, 10, 20) for m in (1, 7, 200) if m >= dim
    ])
    def test_streamed_moment_blocks_are_sized_by_m(self, dim, m, monkeypatch):
        # only m >= d: below d a block's draw holds more than 2^15 values (ROADMAP smaller points)
        draws = record_reference_blocks(monkeypatch)
        blocks = record_projection_blocks(monkeypatch)
        dirs = sphere_directions(dim, m, 4)
        _streamed_moments(DistributionSpec("cube_uniform", dim), dirs, 3.0, 70_001, child_rng(6, "stream"))
        rows = 2**15 // m
        sizes = [shape[0] for shape in blocks]
        assert all(shape[1] == m for shape in blocks) and sum(sizes) == 70_001
        assert sizes[:-1] == [rows] * (len(sizes) - 1) and 0 < sizes[-1] <= rows
        assert rows * dim <= 2**15
        # each draw is whole blocks, as many as fit in 2^15 values; the last ends with the partial block
        drawn = [shape[0] for shape in draws]
        assert all(shape[1] == dim for shape in draws) and sum(drawn) == 70_001
        assert all(r % rows == 0 and r * dim <= 2**15 < r * dim + rows * dim for r in drawn[:-1])
        assert drawn == streamed_draws(70_001, m, dim)
        if (dim, m) == (20, 200):
            assert rows == 163 and drawn[0] == 1_630  # the sandwich's blocks, ten to a draw

    def test_overflowing_order_stops_after_the_first_block(self, tmp_path, capsys, monkeypatch):
        # at the default --ref-size of 10^6 rows and 500 directions the stream holds 15,385 blocks in 616 draws
        draws = record_reference_blocks(monkeypatch)
        blocks = record_projection_blocks(monkeypatch)
        code = main(["sandwich", "--dist=product_laplace", "--p=1e308", "--threads=1", f"--out-dir={tmp_path}"])
        assert code == 3
        assert capsys.readouterr().err.startswith("infeasible: the p=1e+308 moment or its estimate overflows float64")
        assert blocks == [(2**15 // 500, 500)]
        assert draws == [(25 * (2**15 // 500), 20)]  # one draw of the 25 blocks whose 20 columns fit in 2^15


class TestFourthMomentsFromCoordinateLaws:
    @pytest.mark.parametrize("spec", [
        DistributionSpec("cube_uniform", 6),
        DistributionSpec("product_laplace", 6),
        DistributionSpec("product_student_t", 6, nu=4.5),
    ], ids=lambda s: s.name)
    def test_truths_equal_the_cumulant_formula(self, spec):
        dirs = np.vstack([np.eye(6)[:2], sphere_directions(6, 20, 4) * 1.3])
        got = MomentOracle(spec).moments(dirs, 4.0)
        assert got == pytest.approx(cumulant_fourth_moments(spec, dirs), rel=1e-14, abs=0)
