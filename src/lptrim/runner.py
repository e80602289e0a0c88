"""Experiment orchestration, reproducible fan-out, and result emission.

All randomness is pre-derived from the master seed per work unit, results are
assembled in deterministic key order, and floats are serialized with 17
significant digits, so repeated runs with a fixed seed produce byte-identical
CSV/JSON files regardless of the worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import (
    Verdict,
    check_empirical_integral_sandwich,
    check_moment_sandwich,
    check_trim_threshold_sandwich,
    check_trimmed_sum_brackets,
    comparison_trial_row,
    q90_max_errors,
    scan_error_constant_grid,
)
from .config import ConfigError, ExperimentConfig
from .core import RatioParams, SampleMatrix, TrimSpec, project_abs, trimmed_p_means
from .distributions import (
    DistributionSpec,
    MomentOracle,
    draw_sample,
    marginal_cdf,
    spec_from_label,
    sphere_directions,
)
from .oracle import upper_quantile
from .ratio import probe_directions, ratio_floor, ratio_properties_report, ratio_trial_rows
from .seeding import child_seed

__all__ = [
    "RunResult",
    "SampleIntegrityError",
    "run_sandwich",
    "run_ratio_check",
    "run_lemma_check",
    "lemma_trial_rows",
    "run_compare",
    "save_sample",
    "load_sample",
]


class SampleIntegrityError(RuntimeError):
    """A stored sample does not reproduce from its own metadata."""


@dataclass(frozen=True)
class RunResult:
    passed: bool
    summary: dict
    rows_path: Path
    summary_path: Path
    runtime_s: float


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def _config_line(config: ExperimentConfig) -> str:
    return "# config: " + json.dumps(config.echo(), sort_keys=True, separators=(",", ":"))


def _write_rows(out_dir: Path, name: str, fmt: str, header: list[str], rows: list[tuple], config: ExperimentConfig) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        path = out_dir / f"{name}_rows.csv"
        lines = [_config_line(config), ",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:
        path = out_dir / f"{name}_rows.json"
        payload = {
            "config": config.echo(),
            "rows": [dict(zip(header, row)) for row in rows],
        }
        path.write_text(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n")
    return path


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, Path):
        return str(obj)
    return obj


def _write_summary(out_dir: Path, name: str, summary: dict, config: ExperimentConfig) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}_summary.json"
    payload = {"config": config.echo(), "results": _jsonable(summary)}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return path


# ---------------------------------------------------------------------------
# Parallel fan-out
# ---------------------------------------------------------------------------


def _map_tasks(task_fn, arg_tuples: list[tuple], threads: int) -> list:
    """Ordered ``task_fn(*args)`` over the work units; results never depend on the worker count."""
    if threads <= 1 or len(arg_tuples) <= 1:
        return [task_fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(task_fn, *zip(*arg_tuples)))


def _sandwich_task(spec, n, trial_seed, directions, p, theta) -> np.ndarray:
    sample = draw_sample(spec, n, trial_seed)
    return trimmed_p_means((sample.data @ directions.T).T, TrimSpec(p=p, theta=theta))


def lemma_trial_rows(
    spec: DistributionSpec,
    n: int,
    trial: int,
    trial_seed: int,
    ps,
    theta: float,
    params: RatioParams,
    cap_level: float,
) -> list[tuple]:
    """The four validators on one fresh d=1 sample, for every p in ``ps``.

    Each row is (dist, p, trial, check, verdict, reason, detail), the columns
    of ``lemma_rows.csv``.  The integral sandwich is capped at the true
    quantile at ``cap_level``.
    """
    sample = draw_sample(spec, n, trial_seed)
    values = project_abs(sample, np.ones(1))
    cdf = marginal_cdf(spec, np.ones(1))
    report = ratio_properties_report(values, cdf, params)
    t_cap = upper_quantile(cdf, cap_level)
    rows = []
    for p in ps:
        trim = TrimSpec(p=p, theta=theta)
        outcomes = [
            check_trim_threshold_sandwich(values, cdf, theta, report),
            check_trimmed_sum_brackets(values, cdf, trim, report),
            check_empirical_integral_sandwich(values, cdf, p, t_cap, report),
            check_moment_sandwich(values, cdf, trim, report),
        ]
        for outcome in outcomes:
            detail = ";".join(f"{k}={_fmt(v)}" for k, v in outcome.witnesses.items())
            rows.append((spec.label, p, trial, outcome.name, outcome.verdict.value, outcome.reason, detail))
    return rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def run_sandwich(config: ExperimentConfig) -> RunResult:
    """Trimmed-mean relative error against the true moment over probe directions."""
    start = time.perf_counter()
    spec = config.spec()
    n = config.resolved_n
    theta = config.resolved_theta
    directions = sphere_directions(spec.dim, config.directions, child_seed(config.seed, "directions"))
    oracle = MomentOracle(spec, ref_size=config.ref_size, seed=child_seed(config.seed, "oracle"))
    truths = oracle.moments(directions, config.p)
    tasks = [
        (spec, n, child_seed(config.seed, "trial", t), directions, config.p, theta)
        for t in range(config.trials)
    ]
    estimates = _map_tasks(_sandwich_task, tasks, config.threads)

    rows = []
    trial_max = []
    for t, est in enumerate(estimates):
        rel = np.abs(est - truths) / truths
        trial_max.append(float(np.max(rel)))
        rows.extend(
            (t, j, float(est[j]), float(truths[j]), float(rel[j]))
            for j in range(directions.shape[0])
        )
    all_rel = np.array([r[4] for r in rows])
    pass_rate = float(np.mean([m <= config.epsilon for m in trial_max]))
    passed = pass_rate >= config.pass_rate_threshold
    summary = {
        "pass": passed,
        "pass_rate": pass_rate,
        "per_trial_max_rel_error": trial_max,
        "rel_error_quantiles": {
            "p50": float(np.quantile(all_rel, 0.5)),
            "p95": float(np.quantile(all_rel, 0.95)),
            "max": float(np.max(all_rel)),
        },
        "n_trials": config.trials,
        "n_directions": int(directions.shape[0]),
    }
    out = config.resolved_out_dir
    rows_path = _write_rows(out, "sandwich", config.format, ["trial", "direction", "estimate", "truth", "rel_error"], rows, config)
    summary_path = _write_summary(out, "sandwich", summary, config)
    return RunResult(passed, summary, rows_path, summary_path, time.perf_counter() - start)


def run_ratio_check(config: ExperimentConfig) -> RunResult:
    """Empirical failure rate of the three ratio properties over fresh samples."""
    start = time.perf_counter()
    spec = config.spec()
    n = config.resolved_n
    params = RatioParams(delta=config.delta, lam=config.lam, big_c=config.big_c)
    floor = ratio_floor(spec.dim, n, config.delta_floor_c0)
    directions = probe_directions(spec.dim, config.directions, child_seed(config.seed, "directions"))
    tasks = [
        (spec, n, child_seed(config.seed, "trial", t), directions, params, config.ref_size)
        for t in range(config.trials)
    ]
    results = _map_tasks(ratio_trial_rows, tasks, config.threads)

    rows = []
    failed_trials = []
    prop_failures = {"tail": 0, "dyadic": 0, "interval": 0}
    for t, trial_rows in enumerate(results):
        if not all(r.passed for r in trial_rows):
            failed_trials.append(t)
        for r in trial_rows:
            prop_failures["tail"] += not r.tail_ok
            prop_failures["dyadic"] += not r.dyadic_ok
            prop_failures["interval"] += not r.interval_ok
            rows.append((t, r.direction, r.prop1_dev, r.prop2_margin, r.prop3_sup, bool(r.passed)))
    failure_rate = len(failed_trials) / config.trials
    passed = failure_rate <= config.ratio_fail_threshold
    summary = {
        "pass": passed,
        "failure_rate": failure_rate,
        "failed_trials": failed_trials,
        "per_property_direction_failures": prop_failures,
        "delta_floor": floor,
        "delta_above_floor": config.delta >= floor,
        "n_trials": config.trials,
        "n_directions": int(directions.shape[0]),
    }
    out = config.resolved_out_dir
    rows_path = _write_rows(out, "ratio", config.format, ["trial", "direction", "prop1_dev", "prop2_margin", "prop3_sup", "pass"], rows, config)
    summary_path = _write_summary(out, "ratio", summary, config)
    return RunResult(passed, summary, rows_path, summary_path, time.perf_counter() - start)


def run_lemma_check(config: ExperimentConfig) -> RunResult:
    """Three-valued validator table over the seeded trial grid (or a stored sample)."""
    start = time.perf_counter()
    params = RatioParams(delta=config.delta, lam=config.lam, big_c=config.big_c)
    theta = config.theta if config.theta is not None else 0.1
    cap_level = config.t_level if config.t_level is not None else theta

    rows: list[tuple] = []
    scan_rows: list[tuple] = []
    if config.sample_file is not None:
        sample = load_sample(config.sample_file)
        if sample.dim != 1:
            raise ConfigError("lemma checks on stored samples require dim == 1")
        spec = spec_from_label(sample.dist_name, 1)
        rows.extend(lemma_trial_rows(spec, sample.n, 0, sample.seed, config.lemma_ps, theta, params, cap_level))
    else:
        n = config.n if config.n is not None else 10_000
        work = []
        for dist in config.lemma_dists:
            spec = config.spec(name=dist, dim=1)
            work.extend(
                (spec, n, trial, child_seed(config.seed, "lemma", dist, trial), config.lemma_ps, theta, params, cap_level)
                for trial in range(config.trials)
            )
        for chunk in _map_tasks(lemma_trial_rows, work, config.threads):
            rows.extend(chunk)
        # Diagnostic sweep of the scaled-constant grid on the first trial of each law.
        for dist in config.lemma_dists:
            spec = config.spec(name=dist, dim=1)
            sample = draw_sample(spec, n, child_seed(config.seed, "lemma", dist, 0))
            values = project_abs(sample, np.ones(1))
            cdf = marginal_cdf(spec, np.ones(1))
            for row in scan_error_constant_grid(values, cdf, config.lemma_ps[0], config.delta):
                scan_rows.append(
                    (spec.label, config.lemma_ps[0], row.c2, row.c3, row.theta, row.lambda_cap,
                     bool(row.upper_holds), bool(row.lower_holds), row.upper_slack, row.lower_slack)
                )

    counts = {v.value: 0 for v in Verdict}
    fails = []
    for row in rows:
        counts[row[4]] += 1
        if row[4] == Verdict.FAIL.value:
            fails.append({"dist": row[0], "p": row[1], "trial": row[2], "check": row[3]})
    passed = not fails
    summary = {
        "pass": passed,
        "counts": counts,
        "failures": fails,
        "theta": theta,
        "cap_level": cap_level,
    }
    out = config.resolved_out_dir
    rows_path = _write_rows(out, "lemma", config.format, ["dist", "p", "trial", "check", "verdict", "reason", "detail"], rows, config)
    if scan_rows:
        _write_rows(out, "lemma_scan", config.format,
                    ["dist", "p", "c2", "c3", "theta", "cap", "upper_holds", "lower_holds", "upper_slack", "lower_slack"],
                    scan_rows, config)
    summary_path = _write_summary(out, "lemma", summary, config)
    return RunResult(passed, summary, rows_path, summary_path, time.perf_counter() - start)


def run_compare(config: ExperimentConfig) -> RunResult:
    """Trimmed mean versus plain p-mean, per-trial error quantiles and winner."""
    start = time.perf_counter()
    spec = config.spec()
    n = config.resolved_n
    theta = config.resolved_theta
    trim = TrimSpec(p=config.p, theta=theta)
    directions = sphere_directions(spec.dim, config.directions, child_seed(config.seed, "directions"))
    oracle = MomentOracle(spec, ref_size=config.ref_size, seed=child_seed(config.seed, "oracle"))
    truths = oracle.moments(directions, config.p)
    tasks = [
        (spec, n, t, child_seed(config.seed, "trial", t), directions, truths, trim)
        for t in range(config.trials)
    ]
    results = _map_tasks(comparison_trial_row, tasks, config.threads)
    rows = [
        (r.trial, r.q50_trimmed, r.q95_trimmed, r.max_trimmed, r.q50_mean, r.q95_mean, r.max_mean, r.winner)
        for r in results
    ]
    win_rate = float(np.mean([r.winner == "trimmed" for r in results]))
    q90_trimmed, q90_mean = q90_max_errors(results)
    passed = config.min_win_rate is None or win_rate >= config.min_win_rate
    summary = {
        "pass": passed,
        "trimmed_win_rate": win_rate,
        "q90_max_trimmed": q90_trimmed,
        "q90_max_mean": q90_mean,
        "min_win_rate": config.min_win_rate,
        "n_trials": config.trials,
        "n_directions": int(directions.shape[0]),
        "theta": theta,
    }
    out = config.resolved_out_dir
    rows_path = _write_rows(out, "compare", config.format,
                            ["trial", "q50_trimmed", "q95_trimmed", "max_trimmed", "q50_mean", "q95_mean", "max_mean", "winner"],
                            rows, config)
    summary_path = _write_summary(out, "compare", summary, config)
    return RunResult(passed, summary, rows_path, summary_path, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Sample files
# ---------------------------------------------------------------------------


def save_sample(sample: SampleMatrix, path) -> Path:
    """Store a sample with the metadata needed to re-derive it."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    np.savez(path, data=sample.data, seed=np.int64(sample.seed), dist_name=np.str_(sample.dist_name))
    return path


def load_sample(path) -> SampleMatrix:
    """Load a stored sample and verify it by regenerating it bit for bit.

    Raises :class:`SampleIntegrityError` when the stored entries do not match
    what (dist_name, seed, n, dim) regenerate.
    """
    with np.load(path, allow_pickle=False) as payload:
        data = payload["data"]
        seed = int(payload["seed"])
        dist_name = str(payload["dist_name"])
    sample = SampleMatrix(data=data, seed=seed, dist_name=dist_name)
    regenerated = draw_sample(spec_from_label(dist_name, sample.dim), sample.n, seed)
    if not np.array_equal(regenerated.data, sample.data):
        raise SampleIntegrityError(
            f"stored sample at {path} does not reproduce from its metadata "
            f"({dist_name}, seed={seed}, n={sample.n}, dim={sample.dim})"
        )
    return sample
