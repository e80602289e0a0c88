"""Experiment orchestration, reproducible fan-out, and result emission.

All randomness is pre-derived from the master seed per work unit, results are
assembled in deterministic key order, and floats are serialized with 17
significant digits, so repeated runs with a fixed seed produce byte-identical
CSV/JSON files regardless of the worker count.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checks import (
    ComparisonTrialRow,
    ScanRow,
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
from .core import RatioParams, SampleMatrix, TrimSpec, _blocked_projections, project_abs, trimmed_p_mean
from .distributions import (
    DistributionSpec,
    MomentOracle,
    _closed_form,
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
    summary: dict
    rows_path: Path
    summary_path: Path
    runtime_s: float

    @property
    def passed(self) -> bool:
        return self.summary["pass"]


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


def _json_default(obj):
    """The Python scalar a numpy scalar holds, for the ones ``json`` cannot write itself."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_rows(config: ExperimentConfig, name: str, header: list[str], rows: list[tuple]) -> Path:
    out_dir = config.resolved_out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if config.format == "json":
        return _write_json(out_dir / f"{name}_rows.json", config, "rows", [dict(zip(header, row)) for row in rows])
    path = out_dir / f"{name}_rows.csv"
    lines = [_config_line(config), ",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_json(path: Path, config: ExperimentConfig, key: str, value) -> Path:
    payload = {"config": config.echo(), key: value}
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n")
    return path


def _finish(config: ExperimentConfig, name: str, header: list[str], rows: list[tuple], summary: dict,
            start: float) -> RunResult:
    """Write a command's rows and summary files; its result, timed from ``start``."""
    rows_path = _write_rows(config, name, header, rows)
    summary_path = _write_json(config.resolved_out_dir / f"{name}_summary.json", config, "results", summary)
    return RunResult(summary, rows_path, summary_path, time.perf_counter() - start)


# ---------------------------------------------------------------------------
# Parallel fan-out
# ---------------------------------------------------------------------------


def _map_tasks(task_fn, arg_tuples: list[tuple], threads: int) -> list:
    """Ordered ``task_fn(*args)`` over the work units; results never depend on the worker count."""
    if threads <= 1 or len(arg_tuples) <= 1:
        return [task_fn(*args) for args in arg_tuples]
    with ProcessPoolExecutor(max_workers=min(threads, len(arg_tuples))) as pool:
        return list(pool.map(task_fn, *zip(*arg_tuples)))


def _sandwich_task(spec, n, trial_seed, directions, trim) -> np.ndarray:
    sample = draw_sample(spec, n, trial_seed)
    return np.array([trimmed_p_mean(values, trim) for values in _blocked_projections(sample, directions)])


def lemma_trial_rows(
    spec: DistributionSpec,
    n: int,
    trial: int,
    trial_seed: int,
    ps,
    theta: float,
    params: RatioParams,
    cap_level: float,
) -> tuple[list[tuple], list[tuple]]:
    """The four validators on one fresh d=1 sample, for every p in ``ps``.

    Returns the rows of ``lemma_rows.csv``, each (dist, p, trial, check,
    verdict, reason, detail), and those of ``lemma_scan_rows.csv``: trial 0
    also sweeps the scaled-constant grid at ``ps[0]``, as a diagnostic.  The
    integral sandwich is capped at the true quantile at ``cap_level``.
    """
    sample = draw_sample(spec, n, trial_seed)
    cdf = marginal_cdf(spec, np.ones(1))
    report = ratio_properties_report(project_abs(sample, np.ones(1)), cdf, params)
    t_cap = upper_quantile(cdf, cap_level)
    threshold = check_trim_threshold_sandwich(report, theta)  # the same for every p
    rows = []
    for p in ps:
        trim = TrimSpec(p=p, theta=theta)
        outcomes = [
            threshold,
            check_trimmed_sum_brackets(report, trim),
            check_empirical_integral_sandwich(report, p, t_cap),
            check_moment_sandwich(report, trim),
        ]
        for outcome in outcomes:
            detail = ";".join(f"{k}={_fmt(v)}" for k, v in outcome.witnesses.items())
            rows.append((spec.label, p, trial, outcome.name, outcome.verdict.value, outcome.reason, detail))
    scan_rows = []
    if trial == 0:
        scan_rows = [(spec.label, ps[0], *dataclasses.astuple(row))
                     for row in scan_error_constant_grid(report, ps[0])]
    return rows, scan_rows


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _truths(config: ExperimentConfig) -> tuple[DistributionSpec, np.ndarray, np.ndarray]:
    """The law, the sphere probe directions and the true moments E |<X, v>|^p along them."""
    spec = config.spec()
    directions = sphere_directions(spec.dim, config.directions, child_seed(config.seed, "directions"))
    oracle = MomentOracle(spec, ref_size=config.ref_size, seed=child_seed(config.seed, "oracle"))
    return spec, directions, _closed_form(config.p, lambda: oracle.moments(directions, config.p))


def run_sandwich(config: ExperimentConfig) -> RunResult:
    """Trimmed-mean relative error against the true moment over probe directions."""
    start = time.perf_counter()
    spec, directions, truths = _truths(config)
    tasks = [
        (spec, config.resolved_n, child_seed(config.seed, "trial", t), directions, config.trim)
        for t in range(config.trials)
    ]
    estimates = _closed_form(config.p, lambda: _map_tasks(_sandwich_task, tasks, config.threads))

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
    summary = {
        "pass": pass_rate >= config.pass_rate_threshold,
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
    return _finish(config, "sandwich", ["trial", "direction", "estimate", "truth", "rel_error"], rows, summary, start)


def run_ratio_check(config: ExperimentConfig) -> RunResult:
    """Empirical failure rate of the three ratio properties over fresh samples."""
    start = time.perf_counter()
    spec = config.spec()
    n = config.resolved_n
    floor = ratio_floor(spec.dim, n)
    directions = probe_directions(spec.dim, config.directions, child_seed(config.seed, "directions"))
    tasks = [
        (spec, n, child_seed(config.seed, "trial", t), directions, config.ratio_params, config.ref_size)
        for t in range(config.trials)
    ]
    results = _map_tasks(ratio_trial_rows, tasks, config.threads)

    rows = []
    failed_trials = []
    prop_failures = {"tail": 0, "dyadic": 0, "interval": 0}
    for t, trial_rows in enumerate(results):
        if any(r.failing for r in trial_rows):
            failed_trials.append(t)
        for r in trial_rows:
            for name in r.failing:
                prop_failures[name] += 1
            rows.append((t, r.direction, r.prop1_dev, r.prop2_margin, r.prop3_sup, not r.failing))
    failure_rate = len(failed_trials) / config.trials
    summary = {
        "pass": failure_rate <= config.ratio_fail_threshold,
        "failure_rate": failure_rate,
        "failed_trials": failed_trials,
        "per_property_direction_failures": prop_failures,
        "delta_floor": floor,
        "delta_above_floor": config.delta >= floor,
        "n_trials": config.trials,
        "n_directions": int(directions.shape[0]),
    }
    return _finish(config, "ratio", ["trial", "direction", "prop1_dev", "prop2_margin", "prop3_sup", "pass"], rows,
                   summary, start)


def run_lemma_check(config: ExperimentConfig) -> RunResult:
    """Three-valued validator table over the seeded trial grid (or a stored sample)."""
    start = time.perf_counter()
    theta = config.theta if config.theta is not None else 0.1
    cap_level = config.t_level if config.t_level is not None else theta
    stored = load_sample(config.sample_file) if config.sample_file is not None else None
    if stored is not None and stored.dim != 1:
        raise ConfigError("lemma checks on stored samples require dim == 1")
    n = stored.n if stored is not None else config.n if config.n is not None else 10_000
    # the outputs echo the dimension, sample size, trim and cap level that run
    config = dataclasses.replace(config, dim=1, n=n, theta=theta, t_level=cap_level)

    task = (config.lemma_ps, theta, config.ratio_params, cap_level)
    if stored is not None:
        work = [(spec_from_label(stored.dist_name, 1), n, 0, stored.seed, *task)]
    else:
        work = [
            (config.spec(name=dist, dim=1), n, trial, child_seed(config.seed, "lemma", dist, trial), *task)
            for dist in config.lemma_dists
            for trial in range(config.trials)
        ]
    rows: list[tuple] = []
    scan_rows: list[tuple] = []
    for trial_rows, trial_scan_rows in _map_tasks(lemma_trial_rows, work, config.threads):
        rows.extend(trial_rows)
        scan_rows.extend(trial_scan_rows)

    counts = {v.value: 0 for v in Verdict}
    fails = []
    for row in rows:
        counts[row[4]] += 1
        if row[4] == Verdict.FAIL.value:
            fails.append({"dist": row[0], "p": row[1], "trial": row[2], "check": row[3]})
    summary = {
        "pass": not fails,
        "counts": counts,
        "failures": fails,
        "theta": theta,
        "cap_level": cap_level,
    }
    if scan_rows:
        scan_header = ["dist", "p", *(f.name for f in dataclasses.fields(ScanRow))]
        _write_rows(config, "lemma_scan", scan_header, scan_rows)
    return _finish(config, "lemma", ["dist", "p", "trial", "check", "verdict", "reason", "detail"], rows, summary, start)


def run_compare(config: ExperimentConfig) -> RunResult:
    """Trimmed mean versus plain p-mean, per-trial error quantiles and winner."""
    start = time.perf_counter()
    spec, directions, truths = _truths(config)
    tasks = [
        (spec, config.resolved_n, t, child_seed(config.seed, "trial", t), directions, truths, config.trim)
        for t in range(config.trials)
    ]
    results = _map_tasks(comparison_trial_row, tasks, config.threads)
    _closed_form(config.p, lambda: [(r.max_trimmed, r.max_mean) for r in results])
    rows = [dataclasses.astuple(r) for r in results]
    win_rate = float(np.mean([r.winner == "trimmed" for r in results]))
    q90_trimmed, q90_mean = q90_max_errors(results)
    summary = {
        "pass": config.min_win_rate is None or win_rate >= config.min_win_rate,
        "trimmed_win_rate": win_rate,
        "q90_max_trimmed": q90_trimmed,
        "q90_max_mean": q90_mean,
        "min_win_rate": config.min_win_rate,
        "n_trials": config.trials,
        "n_directions": int(directions.shape[0]),
        "theta": config.resolved_theta,
    }
    return _finish(config, "compare", [f.name for f in dataclasses.fields(ComparisonTrialRow)], rows, summary, start)


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

    A file that does not open as an ``.npz`` archive, missing or not, raises
    :class:`ConfigError`.  An archive that opens raises
    :class:`SampleIntegrityError` unless its entries are a sample that
    (dist_name, seed, n, dim) regenerate.
    """
    try:
        payload = np.load(path, allow_pickle=False)
    except OSError as exc:
        raise ConfigError(f"cannot open sample file {path}: {exc.strerror}") from None
    except (ValueError, EOFError, zipfile.BadZipFile):  # text, empty or a broken zip
        payload = None
    if not isinstance(payload, np.lib.npyio.NpzFile):
        raise ConfigError(f"cannot open sample file {path}: not an .npz archive")
    try:
        with payload:
            sample = SampleMatrix(data=payload["data"], seed=int(payload["seed"]),
                                  dist_name=str(payload["dist_name"]))
        regenerated = draw_sample(spec_from_label(sample.dist_name, sample.dim), sample.n, sample.seed)
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise SampleIntegrityError(f"stored sample at {path} does not hold a valid sample: {exc}") from None
    if not np.array_equal(regenerated.data, sample.data):
        raise SampleIntegrityError(
            f"stored sample at {path} does not reproduce from its metadata "
            f"({sample.dist_name}, seed={sample.seed}, n={sample.n}, dim={sample.dim})"
        )
    return sample
