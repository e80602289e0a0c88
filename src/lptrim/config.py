"""Experiment configuration: a JSON file plus flag overrides, flags winning."""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .core import theta_from_epsilon
from .distributions import DIST_NAMES, DistributionSpec

__all__ = ["ExperimentConfig", "ConfigError", "ENV_OUT_DIR"]

ENV_OUT_DIR = "LPTRIM_OUT_DIR"

LEMMA_DEFAULT_DISTS = ("gaussian", "cube_uniform", "product_laplace", "product_student_t")
LEMMA_DEFAULT_PS = (1.0, 2.0, 3.0)


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
    delta_floor_c0: float = 1.0
    pass_rate_threshold: float = 0.95
    ratio_fail_threshold: float = 0.05
    min_win_rate: float | None = None
    ref_size: int = 1_000_000
    t_level: float | None = None
    lemma_dists: tuple[str, ...] = LEMMA_DEFAULT_DISTS
    lemma_ps: tuple[float, ...] = LEMMA_DEFAULT_PS
    sample_file: str | None = None

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        for name, value in vars(self).items():
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v) for v in entries):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.dist not in DIST_NAMES:
            raise ConfigError(f"unknown dist {self.dist!r}; expected one of {DIST_NAMES}")
        if self.dist == "product_student_t" and not self.nu > 2:
            raise ConfigError(f"product_student_t requires nu > 2, got {self.nu}")
        if not (0 < self.epsilon < 1):
            raise ConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.n is not None and self.n < 2:
            raise ConfigError(f"n must be >= 2, got {self.n}")
        if self.theta is not None and not (0 < self.theta < 1):
            raise ConfigError(f"theta must lie in (0, 1), got {self.theta}")
        if not (0 < self.delta <= 0.5):
            raise ConfigError(f"delta must lie in (0, 1/2], got {self.delta}")
        if not (0 < self.lam < 1):
            raise ConfigError(f"lam must lie in (0, 1), got {self.lam}")
        if self.big_c < 1:
            raise ConfigError(f"big_c must be >= 1, got {self.big_c}")
        if self.directions < 1:
            raise ConfigError(f"directions must be >= 1, got {self.directions}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")
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
        if self.theta_c0 <= 0 or self.sample_c1 <= 0 or self.delta_floor_c0 <= 0:
            raise ConfigError("constant overrides must be positive")
        if self.t_level is not None and not (0 < self.t_level < 1):
            raise ConfigError(f"t_level must lie in (0, 1), got {self.t_level}")
        for name in self.lemma_dists:
            if name not in DIST_NAMES:
                raise ConfigError(f"unknown lemma dist {name!r}")
        for p in self.lemma_ps:
            if p < 1:
                raise ConfigError(f"lemma p values must be >= 1, got {p}")
        try:
            self.resolved_n, self.resolved_theta
        except (ValueError, OverflowError) as exc:  # e.g. theta_c0 * epsilon^2 at or above 1
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
                raw = json.loads(Path(config_path).read_text())
            except FileNotFoundError:
                raise ConfigError(f"config file not found: {config_path}")
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
        if "lemma_dists" in fields:
            fields["lemma_dists"] = tuple(fields["lemma_dists"])
        if "lemma_ps" in fields:
            fields["lemma_ps"] = tuple(float(p) for p in fields["lemma_ps"])
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ConfigError(str(exc))
