#!/usr/bin/env python3
"""Write a BENCH_<label>.json file from the unmodified perfbench runner.

    python scripts/bench.py --label L --tree PATH [--tree PATH] [--seed N]

Each tree is a checkout of lptrim (for a before/after pair: the parent
commit, then the change).  Before the first round every ``__pycache__``
under each tree's ``src/`` and ``perfbench/`` is deleted, so that no tree
imports bytecode an earlier process left while another compiles its sources
(with PYTHONDONTWRITEBYTECODE set, on every import), which would bias
``setup_s`` and ``peak_rss_mb``.  For every workload named in this
checkout's BENCHMARK.json, each of 10 rounds runs

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0

once inside each tree, in a fresh process, alternating from round to round
which tree goes first; N is ``--seed`` (30 unless given) and T is
BENCHMARK.json's ``run_seconds``, both recorded in the file's ``command``.
run.py's last two lines are parsed: the per-run quartiles of the scaled
``wall_s``, the rows digest and the end-to-end metrics.

``BENCH_<label>.json``, written at the root of this checkout, holds the
environment line (cores, python, numpy, scipy, blas), each tree's
``git describe --always --dirty`` (or its directory name outside git) and,
per workload and tree (``before`` and ``after`` for a pair, else ``tree``),
every round's figures plus ``metrics``: the median, q1 and q3 over the
rounds of each end-to-end metric (for ``wall_s``, of the rounds' medians).

With two trees each workload also gets ``pairs``: for each end-to-end metric
of BENCHMARK.json, the rounds in which the second tree beat the first in the
metric's ``better`` direction (ties count for neither), and whether every
round of both trees wrote the same rows digest.  Two verdicts per metric
follow from them:

* ``gain``: the second tree won at least 9 of 10 pairs, and its median is
  better than the first's by more than the first tree's q3 - q1;
* ``within_bound``: the second tree's median is no worse than the first's by
  more than the metric's relative ``bound`` in BENCHMARK.json.

A metric that some round did not report gets neither verdict.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 30  # the workloads' seed unless --seed names another
ROUNDS = 10
GAIN_WINS = 9  # pairs of ROUNDS the second tree must win for a gain


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3}


def run_once(tree: Path, workload: str, seconds: float, seed: int) -> dict:
    """One ``perfbench/run.py`` invocation in ``tree``; its parsed result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "wall_s": detail["wall_s"]["median"],
        "wall_s_q1": detail["wall_s"]["q1"],
        "wall_s_q3": detail["wall_s"]["q3"],
        "wall_s_runs": detail["wall_s"]["runs"],
        "rows_sha256": detail["rows_sha256"],
        "correct": result["correct"],
        "metrics": {name: block["value"] for name, block in result["metrics"].items()},
        "env": detail["env"],
    }


def clear_bytecode(tree: Path) -> None:
    """Delete every ``__pycache__`` under the tree's ``src/`` and ``perfbench/``."""
    for top in ("src", "perfbench"):
        for cache in sorted((tree / top).rglob("__pycache__")):
            shutil.rmtree(cache)


def describe(tree: Path) -> str:
    proc = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=tree,
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() if proc.returncode == 0 else tree.name


def summarise(rounds: list[dict]) -> dict:
    """The quartiles over the rounds of every end-to-end metric that every round reported."""
    return {"metrics": {name: _quartiles([r["metrics"][name] for r in rounds])
                        for name in rounds[0]["metrics"]
                        if all(r["metrics"][name] is not None for r in rounds)}}


def pair_wins(before: list[dict], after: list[dict], better: dict[str, str]) -> dict[str, int]:
    """Per metric, the rounds in which ``after`` beat ``before`` in the ``better`` direction."""
    wins = {}
    for name, direction in better.items():
        sign = -1.0 if direction == "lower" else 1.0
        wins[name] = sum(
            b["metrics"][name] is not None and a["metrics"][name] is not None
            and sign * (a["metrics"][name] - b["metrics"][name]) > 0
            for b, a in zip(before, after)
        )
    return wins


def verdicts(before: dict, after: dict, won: dict[str, int], metrics: list[dict]) -> dict:
    """``gain`` and ``within_bound`` per end-to-end metric that both summaries hold.

    ``before`` and ``after`` are :func:`summarise` results, ``won`` is
    :func:`pair_wins` of ROUNDS pairs and ``metrics`` BENCHMARK.json's
    ``end_to_end`` entries.
    """
    gain, within = {}, {}
    for metric in metrics:
        name = metric["name"]
        if name not in before["metrics"] or name not in after["metrics"]:
            continue
        b, a = before["metrics"][name], after["metrics"][name]
        sign = -1.0 if metric["better"] == "lower" else 1.0
        gain[name] = won[name] >= GAIN_WINS and sign * (a["median"] - b["median"]) > b["q3"] - b["q1"]
        within[name] = sign * (a["median"] - b["median"]) >= -metric["bound"] * abs(b["median"])
    return {"gain": gain, "within_bound": within}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--tree", action="append", required=True, type=Path,
                        help="checkout to measure; give two for a before/after pair")
    parser.add_argument("--seed", type=int, default=SEED, help=f"the workloads' seed (default {SEED})")
    args = parser.parse_args(argv)
    if len(args.tree) > 2:
        parser.error("give one or two trees")
    trees = [t.resolve() for t in args.tree]
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    workloads = [w["name"] for w in benchmark["workloads"]]
    better = {metric["name"]: metric["better"] for metric in benchmark["end_to_end"]}

    for tree in trees:
        clear_bytecode(tree)
    keys = ["before", "after"] if len(trees) == 2 else ["tree"]
    env = None
    out = {"label": args.label, "command": f"perfbench/run.py --seed {args.seed} --seconds {seconds:g} --trace 0",
           "trees": {key: describe(t) for key, t in zip(keys, trees)}, "rounds": ROUNDS, "workloads": {}}
    for name in workloads:
        per_tree = [[] for _ in trees]
        for rnd in range(ROUNDS):
            order = range(len(trees)) if rnd % 2 == 0 else reversed(range(len(trees)))
            for i in order:
                result = run_once(trees[i], name, seconds, args.seed)
                run_env = result.pop("env")
                env = env or run_env
                per_tree[i].append(result)
                print(f"{name} round {rnd} tree {i}: wall_s {result['wall_s']:.3f}", file=sys.stderr)
        entry = {key: {**summarise(rounds), "rounds": rounds} for key, rounds in zip(keys, per_tree)}
        if len(trees) == 2:
            before, after = per_tree
            won = pair_wins(before, after, better)
            entry["pairs"] = {
                "won": won,
                "of": ROUNDS,
                "rows_identical": len({r["rows_sha256"] for r in before + after}) == 1,
                **verdicts(entry["before"], entry["after"], won, benchmark["end_to_end"]),
            }
        out["workloads"][name] = entry
    out["env"] = env
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
