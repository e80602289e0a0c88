"""Experiment configuration: a JSON file plus flag overrides, flags winning."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import RatioParams, TrimSpec, _check_open_unit, _check_p, theta_from_epsilon
from .distributions import DEFAULT_REF_SIZE, DIST_NAMES, DistributionSpec

__all__ = ["ExperimentConfig", "ConfigError", "ENV_OUT_DIR", "MAX_THREADS"]

ENV_OUT_DIR = "LPTRIM_OUT_DIR"

LEMMA_DEFAULT_PS = (1.0, 2.0, 3.0)
# Under the fork start method a process pool starts every worker at the first
# submit, so the worker count is bounded by a constant, not by the host's cores.
MAX_THREADS = 64
# numpy refuses an array of more than np.intp's largest value in bytes before it allocates anything
_MAX_ARRAY_FLOATS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
_KINDS = {"str": "a string", "int": "an integer", "float": "a number"}


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment run.

    ``n`` and ``theta`` may be left unset: the sample size then defaults to
    ceil(sample_c1 * dim * log(2/epsilon) / epsilon^2) and the trim fraction
    to max(theta_c0 * epsilon^2, 1/n).
    """

    dist: str = "gaussian"
    nu: float = 4.5
    dim: int = 20
    n: int | None = None
    p: float = 2.0
    epsilon: float = 0.25
    theta: float | None = None
    delta: float = 0.01
    lam: float = 0.5
    big_c: float = 2.0
    directions: int = 500
    trials: int = 20
    seed: int = 1
    out_dir: str | None = None
    threads: int = 1
    format: str = "csv"
    theta_c0: float = 0.25
    sample_c1: float = 8.0
    pass_rate_threshold: float = 0.95
    ratio_fail_threshold: float = 0.05
    min_win_rate: float | None = None
    ref_size: int = DEFAULT_REF_SIZE
    t_level: float | None = None
    lemma_dists: tuple[str, ...] = DIST_NAMES
    lemma_ps: tuple[float, ...] = LEMMA_DEFAULT_PS
    sample_file: str | None = None

    def __post_init__(self):
        for f in dataclasses.fields(self):
            setattr(self, f.name, _typed(f.name, getattr(self, f.name), f.type))
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ConfigError(f"{name} must be finite, got {value}")
        # DistributionSpec checks dim and nu, then each law name, before n and theta are
        # derived; nu whatever dist is, because lemma-check runs product_student_t
        for field, name in [("", "product_student_t"), ("dist: ", self.dist),
                            *(("lemma_dists: ", law) for law in self.lemma_dists)]:
            try:
                self.spec(name)
            except ValueError as exc:
                raise ConfigError(field + str(exc)) from None
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        _check_open_unit("epsilon", self.epsilon, ConfigError)
        if self.n is not None and self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.directions < 1:
            raise ConfigError(f"directions must be >= 1, got {self.directions}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (1 <= self.threads <= MAX_THREADS):
            raise ConfigError(f"threads must lie in [1, {MAX_THREADS}], got {self.threads}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.format!r}")
        if not (0 <= self.pass_rate_threshold <= 1):
            raise ConfigError(f"pass_rate_threshold must lie in [0, 1], got {self.pass_rate_threshold}")
        if not (0 <= self.ratio_fail_threshold <= 1):
            raise ConfigError(f"ratio_fail_threshold must lie in [0, 1], got {self.ratio_fail_threshold}")
        if self.min_win_rate is not None and not (0 <= self.min_win_rate <= 1):
            raise ConfigError(f"min_win_rate must lie in [0, 1], got {self.min_win_rate}")
        if self.ref_size < 1:
            raise ConfigError(f"ref_size must be >= 1, got {self.ref_size}")
        if self.theta_c0 <= 0 or self.sample_c1 <= 0:
            raise ConfigError("constant overrides must be positive")
        if self.t_level is not None:
            _check_open_unit("t_level", self.t_level, ConfigError)
        for name in ("lemma_dists", "lemma_ps"):
            if not getattr(self, name):
                raise ConfigError(f"{name} must not be empty")
        for p in self.lemma_ps:
            try:
                _check_p(p)
            except ValueError as exc:
                raise ConfigError(f"lemma_ps: {exc}") from None
        try:  # fails when theta_c0 * epsilon^2 reaches 1 or epsilon^2 underflows to 0
            self.resolved_n, self.resolved_theta
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot derive n and theta from epsilon={self.epsilon}: {exc}") from None
        # float64 values: the sample is n x dim, the probe directions directions x dim, a reference
        # law ref_size, and run_sandwich's rows trials x directions
        for name, sizes in (("n x dim", (self.resolved_n, self.dim)), ("directions x dim", (self.directions, self.dim)),
                            ("ref_size", (self.ref_size,)), ("trials x directions", (self.trials, self.directions))):
            if math.prod(sizes) > _MAX_ARRAY_FLOATS:
                raise ConfigError(f"{name} = {' x '.join(map(str, sizes))} exceeds numpy's largest float64 array, "
                                  f"{_MAX_ARRAY_FLOATS} values")
        try:  # TrimSpec checks p and theta, RatioParams delta, lam and C
            self.trim, self.ratio_params
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    # -- derived quantities -------------------------------------------------

    def spec(self, name: str | None = None, dim: int | None = None) -> DistributionSpec:
        name = self.dist if name is None else name
        nu = self.nu if name == "product_student_t" else None
        return DistributionSpec(name=name, dim=self.dim if dim is None else dim, nu=nu)

    @property
    def resolved_n(self) -> int:
        if self.n is not None:
            return self.n
        eps = self.epsilon
        return math.ceil(self.sample_c1 * self.dim * math.log(2.0 / eps) / (eps * eps))

    @property
    def resolved_theta(self) -> float:
        if self.theta is not None:
            return self.theta
        return theta_from_epsilon(self.epsilon, self.resolved_n, self.theta_c0)

    @property
    def trim(self) -> TrimSpec:
        return TrimSpec(p=self.p, theta=self.resolved_theta)

    @property
    def ratio_params(self) -> RatioParams:
        return RatioParams(delta=self.delta, lam=self.lam, big_c=self.big_c)

    @property
    def resolved_out_dir(self) -> Path:
        if self.out_dir is not None:
            return Path(self.out_dir)
        env = os.environ.get(ENV_OUT_DIR)
        return Path(env) if env else Path("lptrim-out")

    def echo(self) -> dict:
        """The complete resolved experiment configuration, embedded in every output.

        Execution-only fields (worker count, output location) are excluded:
        they cannot affect any result, and outputs must be byte-identical
        across worker counts.
        """
        out = dataclasses.asdict(self)
        del out["threads"]
        del out["out_dir"]
        out["lemma_dists"] = list(self.lemma_dists)
        out["lemma_ps"] = list(self.lemma_ps)
        out["resolved_n"] = self.resolved_n
        out["resolved_theta"] = self.resolved_theta
        return out

    # -- construction -------------------------------------------------------

    @classmethod
    def from_sources(cls, config_path: str | None = None, overrides: dict | None = None) -> "ExperimentConfig":
        """Build from an optional JSON file and a dict of flag overrides."""
        fields = {}
        if config_path is not None:
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError) as exc:  # missing, a directory, unreadable or not UTF-8
                raise ConfigError(f"cannot read config file {config_path}: {exc}")
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file is not valid JSON: {exc}")
            if not isinstance(raw, dict):
                raise ConfigError("config file must contain a JSON object")
            fields.update(raw)
        if overrides:
            fields.update({k: v for k, v in overrides.items() if v is not None})
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(fields) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ConfigError(str(exc))


def _typed(name: str, value, annotation: str):
    """``value`` as the field's annotated type, or ConfigError.

    A JSON file writes a tuple as a list and may write 1.0 as 1, so a list
    becomes a tuple and a number a float: a value reads the same from a file
    as from a flag.  JSON has no integer type of its own, so 2.0 and true
    count or seed nothing, and true is no number.
    """
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation.startswith("tuple["):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return tuple(_typed(f"{name} entry", v, annotation[len("tuple["):-len(", ...]")]) for v in value)
    if (annotation == "str" and isinstance(value, str)) or (annotation == "int" and type(value) is int):
        return value
    if annotation == "float" and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be finite, got {value}") from None
    raise ConfigError(f"{name} must be {_KINDS[annotation]}, got {value!r}")
