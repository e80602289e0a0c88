"""lptrim benchmark: end-to-end and per-layer metrics of single CLI runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The lptrim under test is the ``src/lptrim`` next to this directory.  Every
measured run is a fresh interpreter (``child.py``) that calls
``lptrim.cli.main(argv)`` once with one worker and BLAS pinned to one thread,
so lptrim's module-level caches start cold as they do for a user.  After a
set-up-only launch, runs repeat until ``--seconds`` have passed; each metric
is the median over the runs.

Times are scaled to a reference host speed.  A shared host's speed swings by
a third within seconds, so each child times a fixed calibration load (see
``child.calibration``) right before and after its ``main(argv)`` call, and a
run's times are divided by its host factor: its calibration time over
``CALIBRATION_REFERENCE_S``.  A time thus reads as on a host where the
calibration takes ``CALIBRATION_REFERENCE_S``.  The raw times and the factors
are printed on the line before the result.

``--trace 0`` prints the end-to-end metrics: wall_s, evals_per_s, setup_s,
peak_rss_mb and correct_share.  ``--trace 1`` alternates untraced and traced
runs and prints the per-layer span metrics (see tracer.py) and the tracing
overhead.  Every run's outputs are checked against references.json; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"
REFERENCES = BENCH_DIR / "references.json"
OUT_ROOT = ROOT / ".bench_out"

SETUP_PROBES = 1  # set-up-only launches per benchmark run, besides one per measured run
RUN_CAP_S = 140.0  # start no run that would end after this; one benchmark run must end within 180 s
CHILD_TIMEOUT_S = 170.0
ROUND_OFF = 1e-9  # relative tolerance for summary statistics against the reference
CALIBRATION_REFERENCE_S = 0.15  # the calibration's time at the reference host speed

END_TO_END_UNITS = {"wall_s": "s", "evals_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB", "correct_share": "share"}
SPAN_COUNTS = [
    "distributions.MomentOracle.moments.calls",
    "distributions.draw_sample.calls",
    "distributions.marginal_cdf.calls",
    "distributions.marginal_cdf.empirical_lookups",
    "distributions.marginal_cdf.empirical_builds",
    "core.project_abs.calls",
    "core.trimmed_p_mean.calls",
    "core.empirical_p_mean.calls",
    "core.sorted_values",
    "ratio.ratio_properties_report.calls",
    "ratio.interval_excess_sup.calls",
    "ratio.ratio_trial_rows.calls",
    "oracle.quad.calls",
    "oracle.upper_quantile.calls",
    "oracle.error_functional.calls",
    "oracle.raw_moment.calls",
    "oracle.truncated_upper_moment.calls",
    "checks.validators.calls",
    "checks.comparison_trial_row.calls",
]
SPAN_SELF_TIMES = [
    "distributions.MomentOracle.moments.self_s",
    "distributions.draw_sample.self_s",
    "distributions.marginal_cdf.self_s",
    "core.project_abs.self_s",
    "core.trimmed_p_mean.self_s",
    "core.empirical_p_mean.self_s",
    "ratio.ratio_properties_report.self_s",
    "ratio.interval_excess_sup.self_s",
    "ratio.ratio_trial_rows.self_s",
    "oracle.quad.self_s",
    "oracle.upper_quantile.self_s",
    "checks.validators.self_s",
    "checks.comparison_trial_row.self_s",
    "runner.self_s",
]
PER_LAYER_UNITS = {
    **{name: "count" for name in SPAN_COUNTS},
    **{name: "s" for name in SPAN_SELF_TIMES},
    "distributions.marginal_cdf.hit_ratio": "ratio",
    "runner.output_bytes": "bytes",
    "trace.overhead_s": "s",
}


class SetupError(RuntimeError):
    """The child could not import lptrim or resolve the workload's config."""


@dataclasses.dataclass
class Sample:
    """One fresh-process run of a workload and what its outputs showed."""

    setup_s: float
    wall_s: float = math.nan
    calibration_s: list = dataclasses.field(default_factory=list)  # before and after the call
    peak_rss_mb: float = math.nan
    env: dict = dataclasses.field(default_factory=dict)
    counts: dict | None = None
    self_s: dict | None = None
    rows_sha256: str | None = None
    output_bytes: int = 0
    problems: list = dataclasses.field(default_factory=list)

    @property
    def host_factor(self) -> float:
        """How much slower than the reference speed the host ran the call."""
        return statistics.mean(self.calibration_s) / CALIBRATION_REFERENCE_S

    @property
    def scaled_wall_s(self) -> float:
        return self.wall_s / self.host_factor

    @property
    def scaled_setup_s(self) -> float:
        """Set-up time, scaled by the calibration that followed it."""
        return self.setup_s * CALIBRATION_REFERENCE_S / self.calibration_s[0]


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(workload: Workload, seed: int, out_dir: Path, trace: bool = False,
           setup_only: bool = False) -> tuple[float, dict | None, str]:
    """Start child.py; return (setup seconds, its result or None, its stderr)."""
    cmd = [sys.executable, str(CHILD), "--workload", json.dumps(dataclasses.asdict(workload)),
           "--seed", str(seed), "--out-dir", str(out_dir)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    if first.strip() != "ready":
        raise SetupError(f"{workload.name}: set-up failed (exit {proc.returncode}):\n{err}")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return setup_s, None, err
    return setup_s, json.loads(lines[-1]), err


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def differences(expected, actual, path: str = "results") -> list[str]:
    """Where ``actual`` departs from ``expected`` by more than round-off.

    Keys missing from ``expected`` are not compared, so a summary may gain
    fields without failing.
    """
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [path]
        return [d for key, value in expected.items()
                for d in differences(value, actual.get(key), f"{path}.{key}")]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [path]
        return [d for i, (e, a) in enumerate(zip(expected, actual))
                for d in differences(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        ok = math.isclose(expected, actual, rel_tol=ROUND_OFF, abs_tol=1e-12)
        return [] if ok else [f"{path}: {actual!r} != {expected!r}"]
    return [] if expected == actual else [f"{path}: {actual!r} != {expected!r}"]


@dataclasses.dataclass
class Outputs:
    """What one run wrote: its rows file, summarised, and its summary results."""

    rows_sha256: str
    rows: int
    column_sums: dict
    results: dict
    total_bytes: int


def column_sums(lines: list[str]) -> dict:
    """Per column of a rows CSV, the sum of its numeric fields and the count of each other value.

    The ``k=v`` witnesses in lemma-check's ``detail`` column are summed per key.
    Unlike the file's bytes, the sums move only by round-off when a change
    reorders arithmetic, so they can be held to the reference.
    """
    header = lines[0].split(",")
    sums: dict = {}
    for line in lines[1:]:
        for name, field in zip(header, line.split(",")):
            if name == "detail":
                items = [(f"detail.{k}", v) for k, _, v in (p.partition("=") for p in field.split(";") if p)]
            else:
                items = [(name, field)]
            for label, value in items:
                try:
                    sums[label] = sums.get(label, 0.0) + float(value)
                except ValueError:
                    sums[f"{label}={value}"] = sums.get(f"{label}={value}", 0) + 1
    return sums


def read_outputs(workload: Workload, out_dir: Path) -> Outputs | None:
    """The rows and summary files of one run, or None when either is missing."""
    rows_path = out_dir / f"{workload.prefix}_rows.csv"
    summary_path = out_dir / f"{workload.prefix}_summary.json"
    if not rows_path.exists() or not summary_path.exists():
        return None
    data = rows_path.read_bytes()
    lines = [line for line in data.decode().splitlines() if line and not line.startswith("#")]
    return Outputs(
        rows_sha256=hashlib.sha256(data).hexdigest(),
        rows=len(lines) - 1,
        column_sums=column_sums(lines),
        results=json.loads(summary_path.read_text())["results"],
        total_bytes=sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()),
    )


def measure(workload: Workload, seed: int, trace: bool, reference: dict | None,
            out_root: Path = OUT_ROOT) -> Sample:
    """One fresh-process run, with its outputs checked and then removed."""
    out_dir = out_root / f"{workload.name}-{os.getpid()}-{time.perf_counter_ns()}"
    try:
        setup_s, result, err = launch(workload, seed, out_dir, trace=trace)
        sample = Sample(setup_s=setup_s)
        if result is None:
            sample.problems.append(f"child failed: {err.strip()[-500:]}")
            return sample
        sample.wall_s = result["wall_s"]
        sample.calibration_s = result["calibration_s"]
        sample.peak_rss_mb = result["peak_rss_mb"]
        sample.env = result["env"]
        sample.counts = result.get("counts")
        sample.self_s = result.get("self_s")
        outputs = read_outputs(workload, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    expected_code = reference["exit_code"] if reference else 0
    if result["exit_code"] != expected_code:
        sample.problems.append(f"exit code {result['exit_code']}, expected {expected_code}")
    if outputs is None:
        sample.problems.append("rows or summary file missing")
        return sample
    sample.rows_sha256 = outputs.rows_sha256
    sample.output_bytes = outputs.total_bytes
    if outputs.rows != workload.rows:
        sample.problems.append(f"{outputs.rows} data rows, expected {workload.rows}")
    if reference:
        sample.problems += differences(reference["results"], outputs.results)
        sample.problems += differences(reference["column_sums"], outputs.column_sums, "rows")
    return sample


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0] if values else math.nan,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        reference: dict | None) -> tuple[dict, list[Sample], list[float]]:
    """Measure until ``seconds`` pass; return (metrics, samples, set-up times)."""
    # Set-up-only launches come first: they add set-up samples, and warm the
    # host's file cache and write lptrim's bytecode before the first measured run.
    setups = []
    for _ in range(SETUP_PROBES):
        setup_s, result, err = launch(workload, seed, OUT_ROOT / f"setup-{os.getpid()}", setup_only=True)
        if result is None:
            raise SetupError(f"{workload.name}: set-up-only launch failed:\n{err}")
        setups.append(Sample(setup_s, calibration_s=result["calibration_s"]).scaled_setup_s)
    start = time.perf_counter()
    samples: list[Sample] = []
    while True:
        began = time.perf_counter()
        # Under tracing, runs alternate untraced / traced so the overhead is measured.
        samples.append(measure(workload, seed, trace and len(samples) % 2 == 1, reference))
        now = time.perf_counter()
        done = now - start >= seconds and (not trace or len(samples) % 2 == 0)
        if done or now + (now - began) - start > RUN_CAP_S:
            break
    setups += [s.scaled_setup_s for s in samples if s.calibration_s]

    # Same seed, same inputs: every run must write the same bytes, and every
    # traced run must count the same spans.
    digests = {s.rows_sha256 for s in samples if s.rows_sha256}
    counts = [s.counts for s in samples if s.counts is not None]
    shared = []
    if len(digests) > 1:
        shared.append(f"rows differ between runs of one seed: {sorted(digests)}")
    if any(c != counts[0] for c in counts):
        shared.append("span counts differ between traced runs of one seed")
    for s in samples:
        s.problems += shared
    if trace:
        return per_layer_metrics(samples), samples, setups
    return end_to_end_metrics(workload, samples, setups), samples, setups


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def _metric_block(values: dict, units: dict) -> dict:
    """Metrics as printed; a value with no sample (every run failed) prints as null."""
    return {name: {"value": values[name] if math.isfinite(values[name]) else None, "unit": unit}
            for name, unit in units.items()}


def end_to_end_metrics(workload: Workload, samples: list[Sample], setups: list[float]) -> dict:
    good = [s for s in samples if not s.problems]
    values = {
        "wall_s": _median([s.scaled_wall_s for s in good]),
        "evals_per_s": _median([workload.units / s.scaled_wall_s for s in good]),
        "setup_s": _median(setups),
        "peak_rss_mb": _median([s.peak_rss_mb for s in good]),
        "correct_share": len(good) / len(samples),
    }
    return _metric_block(values, END_TO_END_UNITS)


def per_layer_metrics(samples: list[Sample]) -> dict:
    traced = [s for s in samples if s.counts is not None]
    untraced = [s for s in samples if s.counts is None and not s.problems]
    counts = traced[0].counts if traced else {}
    values = {name: counts.get(name, 0) for name in SPAN_COUNTS}
    values.update({name: _median([s.self_s.get(name, 0.0) / s.host_factor for s in traced])
                   for name in SPAN_SELF_TIMES})
    lookups = counts.get("distributions.marginal_cdf.empirical_lookups", 0)
    builds = counts.get("distributions.marginal_cdf.empirical_builds", 0)
    values["distributions.marginal_cdf.hit_ratio"] = (lookups - builds) / lookups if lookups else 0.0
    values["runner.output_bytes"] = traced[0].output_bytes if traced else 0
    values["trace.overhead_s"] = (_median([s.scaled_wall_s for s in traced])
                                  - _median([s.scaled_wall_s for s in untraced]))
    return _metric_block(values, PER_LAYER_UNITS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lptrim" / "__init__.py").is_file():
        print(f"no lptrim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = load_references().get(workload.name, {}).get(str(args.seed))
    try:
        metrics, samples, setups = run(workload, args.seed, args.seconds, bool(args.trace), reference)
    except SetupError as exc:
        print(exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT_ROOT, ignore_errors=True)

    failed = sum(1 for s in samples if s.problems)
    for s in samples:
        for problem in s.problems:
            print(f"problem: {problem}", file=sys.stderr)
    untraced = [s for s in samples if s.counts is None and math.isfinite(s.wall_s)]
    walls = [s.scaled_wall_s for s in untraced]
    q1, q2, q3 = quartiles(walls)
    digest = samples[0].rows_sha256
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": samples[0].env,
        "wall_s": {"median": q2, "q1": q1, "q3": q3, "n": len(walls), "runs": walls,
                   "raw_runs": [s.wall_s for s in untraced],
                   "host_factors": [s.host_factor for s in untraced]},
        "setup_s": {"median": _median(setups), "n": len(setups)},
        "error_rate": failed / len(samples),
        "units_per_run": workload.units,
        "rows_sha256": digest,
        "reference": "recorded" if reference else "none for this seed: exit code and row count checked",
        "rows_match_reference": None if not reference else digest == reference["rows_sha256"],
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(samples), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
