"""Tests of the benchmark's tracer and output checks, on tiny configs.

    PYTHONPATH=src python3 -m pytest perfbench

Each traced run is a fresh child process, as in the benchmark itself.
"""

import json
import shutil
import subprocess
import sys

import run
from tracer import Tracer
from workloads import WORKLOADS, Workload

TINY_COMPARE = Workload("tiny-compare", "compare", {
    "dist": "product_student_t", "dim": 3, "n": 200, "p": 2, "theta": 0.01,
    "directions": 5, "trials": 3,
})
# A threshold of 1 keeps the verdict a pass on samples this small.
TINY_RATIO_GAUSSIAN = Workload("tiny-ratio-gaussian", "ratio-check", {
    "dist": "gaussian", "dim": 2, "n": 300, "delta": 0.05, "directions": 4, "trials": 2,
    "ratio_fail_threshold": 1.0,
})
# 34 non-axis directions overflow the 32-entry reference cache.
TINY_RATIO_LAPLACE = Workload("tiny-ratio-laplace", "ratio-check", {
    "dist": "product_laplace", "dim": 2, "n": 200, "delta": 0.05, "directions": 34, "trials": 2,
    "ref_size": 2000, "ratio_fail_threshold": 1.0,
})
TINY_LEMMA = Workload("tiny-lemma", "lemma-check", {"n": 500, "trials": 2})


def traced_counts(workload, tmp_path, seed=3):
    sample = run.measure(workload, seed, trace=True, reference=None, out_root=tmp_path)
    assert sample.problems == []
    return sample.counts


def test_trimmed_p_mean_calls_equal_trials_times_directions(tmp_path):
    counts = traced_counts(TINY_COMPARE, tmp_path)
    assert counts["core.trimmed_p_mean.calls"] == 3 * 5
    assert counts["core.empirical_p_mean.calls"] == 3 * 5
    assert counts["core.sorted_values"] == 2 * 3 * 5 * 200
    assert counts["checks.comparison_trial_row.calls"] == 3
    assert counts["oracle.quad.calls"] == 0


def test_tracing_leaves_result_bytes_unchanged(tmp_path):
    plain = run.measure(TINY_COMPARE, 3, trace=False, reference=None, out_root=tmp_path)
    traced = run.measure(TINY_COMPARE, 3, trace=True, reference=None, out_root=tmp_path)
    assert plain.rows_sha256 is not None
    assert plain.rows_sha256 == traced.rows_sha256


def test_ratio_reports_equal_trials_times_probe_directions(tmp_path):
    counts = traced_counts(TINY_RATIO_GAUSSIAN, tmp_path)
    assert counts["ratio.ratio_properties_report.calls"] == 2 * (4 + 2 * 2)
    assert counts["ratio.ratio_trial_rows.calls"] == 2
    assert counts["distributions.marginal_cdf.empirical_builds"] == 0


def test_reference_builds_counted_when_the_cache_cycles(tmp_path):
    counts = traced_counts(TINY_RATIO_LAPLACE, tmp_path)
    assert counts["ratio.ratio_properties_report.calls"] == 2 * (34 + 2 * 2)
    assert counts["distributions.marginal_cdf.empirical_lookups"] == 2 * 34
    assert counts["distributions.marginal_cdf.empirical_builds"] == 2 * 34


def test_span_counts_repeat_exactly(tmp_path):
    first = traced_counts(TINY_LEMMA, tmp_path)
    second = traced_counts(TINY_LEMMA, tmp_path)
    assert first == second
    assert first["oracle.quad.calls"] > 0
    assert first["checks.validators.calls"] > 0


def test_tracer_replaces_every_binding_and_restores_it():
    from lptrim import cli, distributions, ratio, runner

    original = distributions.marginal_cdf
    original_run = runner.run_compare
    with Tracer():
        assert ratio.marginal_cdf is not original
        assert runner.marginal_cdf is ratio.marginal_cdf is distributions.marginal_cdf
        assert cli.run_compare is runner.run_compare is not original_run
    assert ratio.marginal_cdf is runner.marginal_cdf is distributions.marginal_cdf is original
    assert cli.run_compare is original_run


def test_differences_allow_round_off_and_new_keys():
    reference = {"pass": True, "rate": 0.25, "counts": {"pass": 4}, "per_trial": [0.1, 0.2]}
    close = {"pass": True, "rate": 0.25 * (1 + 1e-12), "counts": {"pass": 4, "new": 1},
             "per_trial": [0.1, 0.2], "extra": 7}
    assert run.differences(reference, close) == []
    assert run.differences(reference, {**close, "rate": 0.26}) == ["results.rate: 0.26 != 0.25"]
    assert run.differences(reference, {**close, "per_trial": [0.1]}) == ["results.per_trial"]
    assert run.differences(reference, {**close, "pass": False}) == ["results.pass: False != True"]


def test_column_sums_add_numbers_count_labels_and_split_witnesses():
    lines = ["dist,p,verdict,detail", "gaussian,1,pass,a=1.5;b=2", "gaussian,2,fail,a=0.25;b=true"]
    assert run.column_sums(lines) == {
        "dist=gaussian": 2, "p": 3.0, "verdict=pass": 1, "verdict=fail": 1,
        "detail.a": 1.75, "detail.b": 2.0, "detail.b=true": 1,
    }


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_lptrim_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma-grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
