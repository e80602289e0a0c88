"""Isotropic sample generators and oracles for their one-dimensional marginals.

Every law is centred with identity covariance by construction:

* ``gaussian``            standard normal coordinates
* ``cube_uniform``        uniform on [-sqrt(3), sqrt(3)]^d
* ``product_laplace``     independent Laplace coordinates, scale 1/sqrt(2)
* ``product_student_t``   independent Student-t(nu) coordinates scaled by
                          sqrt((nu - 2) / nu); requires nu > 2

The marginal law of |<X, v>| is available analytically for the gaussian (any
direction) and for single-coordinate directions of the product laws; any other
case falls back to a high-resolution empirical reference sample, which a
process-wide cache keeps for reuse unless its caller says otherwise.

Samples (``draw_sample``) are numpy's ``Generator`` draws, which
``load_sample`` regenerates bit for bit.  The reference streams behind the
empirical laws and ``MomentOracle`` draw product_laplace as one vectorised
transform of the same uniform stream (``_reference_rows``): every sign
agrees with ``Generator.laplace`` and every value to within 2 ulp, so the
sums and order statistics built from them agree to round-off.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .core import _BLOCK_ELEMENTS, SampleMatrix, _as_directions, _block_sizes, _check_p, _sorted_abs
from .seeding import child_rng, child_seed

__all__ = [
    "DistributionSpec",
    "MomentDoesNotExistError",
    "MomentOracle",
    "MarginalCDF",
    "FoldedNormalCDF",
    "HalfUniformCDF",
    "ExponentialCDF",
    "FoldedStudentTCDF",
    "EmpiricalCDF",
    "draw_sample",
    "marginal_cdf",
    "sphere_directions",
    "gaussian_abs_moment",
    "student_abs_moment",
]

DIST_NAMES = ("gaussian", "cube_uniform", "product_laplace", "product_student_t")

CUBE_HALF_WIDTH = math.sqrt(3.0)
LAPLACE_SCALE = 1.0 / math.sqrt(2.0)

# Largest integer exponent raised by repeated multiplication in place of pow.
_MAX_MULTIPLY_POWER = 5


class MomentDoesNotExistError(ValueError):
    """Requested a moment of an order at or above the law's tail exponent."""


def _student_coord_scale(nu: float) -> float:
    return math.sqrt((nu - 2.0) / nu)


@dataclass(frozen=True)
class DistributionSpec:
    """A named isotropic law on R^d."""

    name: str
    dim: int
    nu: float | None = None

    def __post_init__(self):
        if self.name not in DIST_NAMES:
            raise ValueError(f"unknown distribution {self.name!r}; expected one of {DIST_NAMES}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.name == "product_student_t":
            if self.nu is None or not (self.nu > 2):
                raise ValueError(f"product_student_t requires nu > 2, got nu={self.nu}")
        elif self.nu is not None:
            raise ValueError(f"nu is only meaningful for product_student_t, got nu={self.nu}")

    @property
    def label(self) -> str:
        if self.name == "product_student_t":
            return f"product_student_t(nu={float(self.nu)!r})"
        return self.name

    @property
    def max_finite_moment(self) -> float:
        """Moments of order p exist exactly for p below this value."""
        return self.nu if self.name == "product_student_t" else math.inf


def spec_from_label(label: str, dim: int) -> DistributionSpec:
    """Inverse of ``DistributionSpec.label``."""
    if label.startswith("product_student_t(nu="):
        nu = float(label[len("product_student_t(nu="):-1])
        return DistributionSpec("product_student_t", dim, nu)
    return DistributionSpec(label, dim)


def draw_sample(spec: DistributionSpec, n: int, seed: int) -> SampleMatrix:
    """n i.i.d. rows from the law; deterministic in the seed."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    data = _draw_matrix(spec, n, np.random.default_rng(seed))
    return SampleMatrix(data=data, seed=int(seed), dist_name=spec.label)


def _draw_matrix(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    d = spec.dim
    if spec.name == "gaussian":
        return rng.standard_normal((n, d))
    if spec.name == "cube_uniform":
        return rng.uniform(-CUBE_HALF_WIDTH, CUBE_HALF_WIDTH, size=(n, d))
    if spec.name == "product_laplace":
        return rng.laplace(0.0, LAPLACE_SCALE, size=(n, d))
    return rng.standard_t(spec.nu, size=(n, d)) * _student_coord_scale(spec.nu)


def _reference_rows(spec: DistributionSpec, rows: int, rng: np.random.Generator) -> np.ndarray:
    """``rows`` reference rows of the law; ``_draw_matrix``'s except for product_laplace.

    product_laplace applies numpy's ``random_laplace`` to ``rng.random`` as
    array operations, not one libm ``log`` call per element:
    ``-s log((2 - u) - u)`` for u >= 1/2 and ``s log(u + u)`` below.  A zero
    uniform is skipped and the next one takes its place, so the stream is
    consumed as ``Generator.laplace`` consumes it and a split of the rows into
    blocks does not change them.  numpy's SIMD ``log`` may differ from libm's
    by 2 ulp, which is why samples keep ``_draw_matrix``.
    """
    if spec.name != "product_laplace":
        return _draw_matrix(spec, rows, rng)
    u = rng.random(rows * spec.dim)
    while not u.all():
        kept = u[u != 0.0]
        u = np.concatenate((kept, rng.random(u.size - kept.size)))
    u = u.reshape(rows, spec.dim)
    # (2 - u) - u, rounded as numpy rounds it: 2 - 2u differs by up to 2^-53
    w = np.subtract(2.0, u)
    w -= u
    u += u
    np.minimum(w, u, out=w)
    np.log(w, out=w)
    w *= LAPLACE_SCALE
    u -= 1.0
    # the sign of 2u - 1 is exact, and +0.0 at u = 1/2 as numpy's 0.0 - 0.0
    return np.copysign(w, u, out=w)


def sphere_directions(dim: int, m: int, seed: int) -> np.ndarray:
    """m i.i.d. uniform directions on the unit sphere (normalized gaussians)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if dim < 1:
        raise ValueError(f"need dim >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    out = rng.standard_normal((m, dim))
    norms = np.linalg.norm(out, axis=1)
    while np.any(norms == 0.0):  # probability zero, handled anyway
        bad = norms == 0.0
        out[bad] = rng.standard_normal((int(bad.sum()), dim))
        norms = np.linalg.norm(out, axis=1)
    return out / norms[:, None]


# ---------------------------------------------------------------------------
# Marginal CDFs of |<X, v>|
# ---------------------------------------------------------------------------


class MarginalCDF:
    """Law of |<X, v>| for a fixed direction.

    The strict tail ``sf(t) = P(f > t)`` and the point mass ``atom(t) = P(f = t)``
    both accept scalars or arrays.  Every law defines its tail at t >= 0,
    ``_tail``; ``sf`` is 1 below 0, and a law with atoms also defines
    ``tails``, from which ``sf_left`` reads.  A float query (Python ``float``
    or ``np.float64``) to ``sf`` returns a Python float without building an
    array: quadrature and bisection ask for one point per call.  Objects are
    immutable after construction and safe for concurrent queries.
    """

    #: moments of order >= this bound diverge (math.inf when all exist)
    max_finite_moment: float = math.inf

    @property
    def label(self) -> str:
        """The law's name in messages: its repr, which holds its parameters."""
        return repr(self)

    def sf(self, t):
        """P(f > t): 1 below 0, ``_tail`` elsewhere; a fresh array for an array query.

        An array whose least entry is >= 0 (a ratio report's sorted absolute
        values) goes to ``_tail`` as it is; one with a negative entry or a
        NaN is clamped at 0 and its negative entries set to 1.
        """
        if isinstance(t, float):
            return 1.0 if t < 0 else float(self._tail(t))
        def tail(a):
            if a.size and a.min() >= 0:
                return np.asarray(self._tail(a))
            out = np.asarray(self._tail(np.maximum(a, 0.0)))  # a fresh array, 0-d for a 0-d a
            np.copyto(out, 1.0, where=a < 0)
            return out
        return _scalar_or_array(t, tail)

    def _tail(self, x):
        """P(f > x) for a float or an array of x >= 0."""
        raise NotImplementedError

    def atom(self, t):
        return _scalar_or_array(t, np.zeros_like)

    def sf_left(self, t):
        """P(f >= t), the left limit of the tail function."""
        return self.tails(t)[2]

    def tails(self, t):
        """``(sf(t), atom(t), sf_left(t))``: the atom is 0, so sf_left is the sf array itself, read-only.

        A law with atoms overrides this; there too ``sf_left is sf`` when it
        has no mass at the queried points.
        """
        sf = self.sf(t)
        if isinstance(sf, np.ndarray):
            sf.flags.writeable = False
        return sf, self.atom(t), sf

    def exact_moment(self, p: float) -> float | None:
        """Closed-form E f^p when one is known, else None."""
        return None


def _scalar_or_array(t, fn):
    arr = np.asarray(t, dtype=np.float64)
    out = fn(arr)
    if arr.ndim == 0:
        return float(out)
    return out


def _closed_form(p: float, formula):
    """The value of ``formula()``, a float or an array; one beyond float64 raises MomentDoesNotExistError.

    The only float64-overflow check, for every value of order p that may
    overflow: an OverflowError, an inf or a nan (inf - inf) raises here,
    naming p.
    """
    try:
        value = formula()
    except OverflowError:
        value = math.inf
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise MomentDoesNotExistError(f"the p={p} moment or its estimate overflows float64")
    return value


def gaussian_abs_moment(p: float) -> float:
    """E |Z|^p for a standard normal Z."""
    return _closed_form(p, lambda: 2.0 ** (p / 2.0) * math.gamma((p + 1.0) / 2.0) / math.sqrt(math.pi))


def student_abs_moment(nu: float, p: float) -> float:
    """E |T|^p for Student-t with nu degrees of freedom; requires p < nu."""
    if p >= nu:
        raise MomentDoesNotExistError(f"|T|^p with p={p} diverges for nu={nu}")
    log_val = (
        (p / 2.0) * math.log(nu)
        + special.gammaln((p + 1.0) / 2.0)
        + special.gammaln((nu - p) / 2.0)
        - 0.5 * math.log(math.pi)
        - special.gammaln(nu / 2.0)
    )
    return _closed_form(p, lambda: float(math.exp(log_val)))


@dataclass(frozen=True)
class FoldedNormalCDF(MarginalCDF):
    """|s Z| for standard normal Z."""

    scale: float

    def _tail(self, x):
        return special.erfc(x / (self.scale * math.sqrt(2.0)))

    def exact_moment(self, p: float) -> float:
        return _closed_form(p, lambda: self.scale ** p * gaussian_abs_moment(p))


@dataclass(frozen=True)
class HalfUniformCDF(MarginalCDF):
    """|U| for U uniform on [-width, width]; uniform on [0, width]."""

    width: float

    def _tail(self, x):
        return np.minimum(np.maximum(1.0 - x / self.width, 0.0), 1.0)

    def exact_moment(self, p: float) -> float:
        return _closed_form(p, lambda: self.width ** p / (p + 1.0))


@dataclass(frozen=True)
class ExponentialCDF(MarginalCDF):
    """Exponential with the given scale; the law of |L| for Laplace L."""

    scale: float

    def _tail(self, x):
        return np.exp(-x / self.scale)

    def exact_moment(self, p: float) -> float:
        return _closed_form(p, lambda: self.scale ** p * math.gamma(p + 1.0))


@dataclass(frozen=True)
class FoldedStudentTCDF(MarginalCDF):
    """|s T| for Student-t T with nu degrees of freedom."""

    nu: float
    scale: float

    @property
    def max_finite_moment(self) -> float:
        return self.nu

    def _tail(self, x):
        return 2.0 * special.stdtr(self.nu, -(x / self.scale))

    def exact_moment(self, p: float) -> float:
        return _closed_form(p, lambda: self.scale ** p * student_abs_moment(self.nu, p))


class EmpiricalCDF(MarginalCDF):
    """Step CDF over the sorted, read-only |values| of a nonempty, finite 1-d reference sample; queries are O(log M)."""

    def __init__(self, values):
        self.values = _sorted_abs(values)
        self.values.flags.writeable = False

    @property
    def size(self) -> int:
        return self.values.size

    def _tail(self, x):
        return (self.size - np.searchsorted(self.values, x, side="right")) / self.size

    def atom(self, t):
        return self.tails(t)[1]

    def tails(self, t):
        """``(sf(t), atom(t), sf_left(t))``, each counted exactly from the sorted values.

        An array query makes one right search.  When no queried point equals
        a value, the counts left and right of each point agree, so the atoms
        are 0 and, as for an analytic law, ``sf_left`` is the read-only
        ``sf`` array itself.  Otherwise, and for a float or 0-d query, a left
        search counts the values below each point.
        """
        xs, m = self.values, self.values.size
        a = np.asarray(t, dtype=np.float64)
        right = np.searchsorted(xs, a, side="right")
        # a point ties when xs[right - 1] equals it; right = 0 reads xs[-1], which a point below xs[0] is not
        if a.ndim and not np.any(xs[right - 1] == a):
            sf = (m - right) / m
            sf.flags.writeable = False
            return sf, np.zeros(a.shape), sf
        left = np.searchsorted(xs, a, side="left")
        if a.ndim == 0:
            left, right = float(left), float(right)
        return (m - right) / m, (right - left) / m, (m - left) / m


def _coordinate_abs_cdf(spec: DistributionSpec, weight: float) -> MarginalCDF:
    if spec.name == "gaussian":
        return FoldedNormalCDF(scale=weight)
    if spec.name == "cube_uniform":
        return HalfUniformCDF(width=weight * CUBE_HALF_WIDTH)
    if spec.name == "product_laplace":
        return ExponentialCDF(scale=weight * LAPLACE_SCALE)
    return FoldedStudentTCDF(nu=spec.nu, scale=weight * _student_coord_scale(spec.nu))


def _single_coordinate_weight(v: np.ndarray) -> float | None:
    """|v_j| when v has exactly one nonzero coordinate, else None."""
    nz = np.nonzero(v)[0]
    if nz.size == 1:
        return float(abs(v[nz[0]]))
    return None


def _needs_reference_law(spec: DistributionSpec, v: np.ndarray) -> bool:
    """Whether ``marginal_cdf`` answers v with a sampled reference law: no analytic law is known."""
    return spec.name != "gaussian" and _single_coordinate_weight(v) is None


# Fixed root of the reference seeds, which derive from (law, v, ref_size).
_REF_SEED_ROOT = 20_260_810

# Rows of a reference law, and of the moment oracle's reference stream, unless a caller says otherwise.
DEFAULT_REF_SIZE = 1_000_000

# Reference laws the process keeps for reuse, the most recently used first.
REFERENCE_LAWS_KEPT = 32


def marginal_cdf(spec: DistributionSpec, v, ref_size: int = DEFAULT_REF_SIZE, *, keep: bool = True) -> MarginalCDF:
    """The law of |<X, v>|; analytic where known, a sampled reference law otherwise.

    A reference law is kept in a cache of ``REFERENCE_LAWS_KEPT`` laws, or
    with ``keep=False`` built afresh and left to die with its last reference.
    """
    v = _as_directions(v, spec.dim, block=False)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ValueError("direction v = 0 gives a degenerate marginal")
    weight = norm if spec.name == "gaussian" else _single_coordinate_weight(v)
    if weight is not None:
        return _coordinate_abs_cdf(spec, weight)
    # The direction is keyed by its bytes: -0.0 == 0.0 would merge two
    # directions whose reference seeds differ.
    build = _reference_law if keep else _reference_law.__wrapped__
    return build(spec, ref_size, v.tobytes())


@lru_cache(maxsize=REFERENCE_LAWS_KEPT)
def _reference_law(spec: DistributionSpec, ref_size: int, v_bytes: bytes) -> EmpiricalCDF:
    """The law of |<X, v>| over ``ref_size`` reference rows, seeded by (label, ref_size, v)."""
    digest = hashlib.blake2s(v_bytes).hexdigest()
    rng = np.random.default_rng(child_seed(_REF_SEED_ROOT, "marginal-ref", spec.label, ref_size, digest))
    v = np.frombuffer(v_bytes)
    # The largest power of two of rows with rows x d <= 2^15 (2,048 at d = 10):
    # OpenBLAS's dgemv computes the rows of ``rows @ v`` in groups of four, so
    # power-of-two blocks keep each row in the group it has in any split into
    # multiples of four, and the law does not depend on the block (blocks of
    # 2^15 // 20 = 1,638 rows move values at round-off).
    width = 1 << (spec.dim - 1).bit_length()
    parts = [_reference_rows(spec, rows, rng) @ v for rows in _block_sizes(ref_size, width)]
    return EmpiricalCDF(np.concatenate(parts))


# ---------------------------------------------------------------------------
# Moment oracle
# ---------------------------------------------------------------------------


def _check_moment_exists(law: DistributionSpec | MarginalCDF, p: float) -> None:
    """Reject p unless it is a finite real >= 1; raise MomentDoesNotExistError, naming the law, when
    its moment of order p diverges."""
    _check_p(p)
    if p >= law.max_finite_moment:
        raise MomentDoesNotExistError(
            f"p={p} moment of {law.label} diverges (finite only below {law.max_finite_moment})"
        )


class MomentOracle:
    """Batched E |<X, v>|^p over many directions.

    Uses closed forms whenever available; otherwise streams one shared
    reference sample of ``ref_size`` draws past all the directions at once:
    blocks of about ``core._BLOCK_ELEMENTS / m`` rows are projected, raised to
    p and summed by column one by one, drawn as many whole blocks at a time as
    fit in ``_BLOCK_ELEMENTS`` values (at least one).  The rows are
    deterministic in (spec, ref_size, seed) whatever the split; the sums are
    associated per block, so a truth depends on m at round-off only.  The rows
    come from ``_reference_rows``: product_laplace rows agree with
    ``Generator.laplace`` draws to round-off, where ``draw_sample`` agrees
    with them bit for bit.
    """

    def __init__(self, spec: DistributionSpec, ref_size: int = DEFAULT_REF_SIZE, seed: int = 0):
        self.spec = spec
        self.ref_size = int(ref_size)
        self.seed = int(seed)

    def moments(self, directions, p: float) -> np.ndarray:
        """E |<X, v>|^p for one direction v of shape (d,), or each row v of an (m, d) block."""
        dirs = np.atleast_2d(_as_directions(directions, self.spec.dim))
        _check_moment_exists(self.spec, p)
        norms = np.linalg.norm(dirs, axis=1)
        if self.spec.name == "gaussian":
            return norms ** p * gaussian_abs_moment(p)
        if p == 2.0:
            return norms * norms
        if p == 4.0:
            # the fourth cumulant of one unit-variance coordinate
            kappa4 = _coordinate_abs_cdf(self.spec, 1.0).exact_moment(4.0) - 3.0
            return 3.0 * norms ** 4 + kappa4 * np.sum(dirs ** 4, axis=1)

        rng = child_rng(self.seed, "moment-ref", self.spec.label)
        return _streamed_moments(self.spec, dirs, p, self.ref_size, rng)


def _streamed_moments(spec: DistributionSpec, dirs: np.ndarray, p: float, ref_size: int,
                      rng: np.random.Generator) -> np.ndarray:
    """The mean of |X @ dirs.T|^p over ``ref_size`` rows of ``rng``, a block at a time."""
    m = dirs.shape[0]
    sizes = _block_sizes(ref_size, m)
    group = max(1, _BLOCK_ELEMENTS // (sizes[0] * spec.dim))  # whole blocks per draw
    block = np.empty((sizes[0], m))
    scratch = np.empty_like(block)
    acc = np.zeros(m)
    for i, rows in enumerate(sizes):
        if i % group == 0:
            drawn = _reference_rows(spec, sum(sizes[i:i + group]), rng)
        start = (i % group) * sizes[0]
        out = block[:rows]
        np.matmul(drawn[start:start + rows], dirs.T, out=out)
        acc += _abs_power_sums(out, p, scratch[:rows])
        if i == 0:  # an order that overflows does so here: raise now, not after every block
            _closed_form(p, lambda: acc)
    return acc / ref_size


def _abs_power_sums(x: np.ndarray, p: float, scratch: np.ndarray) -> np.ndarray:
    """The column sums of |x| ** p, by repeated multiplication for the integers 3 <= p <= 5; x is overwritten.

    A chain of p - 1 multiplies beats float ``pow`` up to p = 5 (p = 3 by
    about a third) and loses from p = 8 on; it agrees with ``pow`` to a few
    ulps.  The chain starts from x * x, which equals |x| * |x| exactly, so
    |x| is written to ``scratch`` once and x itself is never copied.  Over two
    columns or more one ``np.einsum`` makes the last two multiplies and the
    sums, with the products and the row order of ``x.sum(axis=0)``; that
    adds a lone column pairwise, so there the chain runs to its end.
    """
    if 3 <= p <= _MAX_MULTIPLY_POWER and p == int(p):
        np.abs(x, out=scratch)
        factors = [x] + [scratch] * (int(p) - 2)  # x's multipliers in the chain, in order
        fused = x.shape[1] > 1
        for factor in factors[:len(factors) - 2 * fused]:
            x *= factor
        if fused:
            return np.einsum("ij,ij,ij->j", x, *factors[-2:])
    else:
        np.abs(x, out=x)
        x **= p
    return x.sum(axis=0)
