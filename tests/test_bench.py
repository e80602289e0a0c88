"""The pair verdicts of scripts/bench.py, on hand-made rounds, and the seed it passes to perfbench/run.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)

METRICS = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "evals_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]
BETTER = {m["name"]: m["better"] for m in METRICS}


def rounds(**columns):
    """One round per position of the given per-metric value lists."""
    size = len(next(iter(columns.values())))
    return [{"metrics": {name: values[i] for name, values in columns.items()}} for i in range(size)]


def judge(before, after):
    won = bench.pair_wins(before, after, {k: v for k, v in BETTER.items() if k in before[0]["metrics"]})
    return bench.verdicts(bench.summarise(before), bench.summarise(after), won, METRICS), won


PARENT_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]  # q1 0.98, q3 1.02


def test_nine_wins_and_a_median_beyond_the_parent_spread_is_a_gain():
    after_wall = [w - 0.2 for w in PARENT_WALL]
    after_wall[3] = 1.5  # one lost pair
    v, won = judge(rounds(wall_s=PARENT_WALL), rounds(wall_s=after_wall))
    assert won["wall_s"] == 9
    assert v["gain"] == {"wall_s": True}
    assert v["within_bound"] == {"wall_s": True}


def test_eight_wins_are_no_gain_however_large():
    after_wall = [w - 0.5 for w in PARENT_WALL]
    after_wall[3] = after_wall[5] = 2.0
    v, won = judge(rounds(wall_s=PARENT_WALL), rounds(wall_s=after_wall))
    assert won["wall_s"] == 8
    assert v["gain"]["wall_s"] is False


def test_ten_wins_inside_the_parent_spread_are_no_gain():
    v, won = judge(rounds(wall_s=PARENT_WALL), rounds(wall_s=[w - 0.01 for w in PARENT_WALL]))
    assert won["wall_s"] == 10
    assert v["gain"]["wall_s"] is False


@pytest.mark.parametrize(
    "factor, name, expected",
    [
        (1.20, "wall_s", True),  # 20% slower, bound 25%
        (1.30, "wall_s", False),
        (0.80, "evals_per_s", True),  # higher is better: 20% fewer
        (0.70, "evals_per_s", False),
        (1.04, "peak_rss_mb", True),  # bound 5%
        (1.06, "peak_rss_mb", False),
    ],
)
def test_within_bound_compares_medians_against_the_relative_bound(factor, name, expected):
    parent = [100.0 + i for i in range(10)]
    v, _ = judge(rounds(**{name: parent}), rounds(**{name: [x * factor for x in parent]}))
    assert v["within_bound"] == {name: expected}
    assert v["gain"] == {name: False}


def test_a_metric_missing_from_a_round_gets_no_verdict():
    before = rounds(wall_s=PARENT_WALL, evals_per_s=[10.0] * 9 + [None])
    after = rounds(wall_s=PARENT_WALL, evals_per_s=[20.0] * 10)
    v, won = judge(before, after)
    assert set(v["gain"]) == set(v["within_bound"]) == {"wall_s"}
    assert won["evals_per_s"] == 9  # the pair with a missing figure counts for neither


@pytest.mark.parametrize("argv, seed", [([], 30), (["--seed", "7"], 7)], ids=["default", "held_out"])
def test_the_seed_reaches_every_run_and_the_command(argv, seed, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 2, "workloads": [{"name": "w"}], "end_to_end": METRICS[:1]}))
    wall = {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": [1.0]}
    printed = json.dumps({"wall_s": wall, "rows_sha256": "0", "env": {}}) + "\n" + json.dumps(
        {"correct": 1, "metrics": {"wall_s": {"value": 1.0}}})
    runs = []

    def fake_run(cmd, cwd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 1, "", "")
        runs.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, printed, "")

    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    assert bench.main(["--label", "seed", "--tree", str(tmp_path), *argv]) == 0
    assert len(runs) == bench.ROUNDS
    assert all(cmd[1] == "perfbench/run.py" and cmd[cmd.index("--seed") + 1] == str(seed) for cmd in runs)
    written = json.loads((tmp_path / "BENCH_seed.json").read_text())
    assert written["command"] == f"perfbench/run.py --seed {seed} --seconds 2 --trace 0"
