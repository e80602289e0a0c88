import argparse
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

import lptrim
from helpers import second_pass_scan_rows
from lptrim import cli
from lptrim.cli import _build_parser, main
from lptrim.config import ENV_OUT_DIR, MAX_THREADS, ConfigError, ExperimentConfig
from lptrim.distributions import DistributionSpec, draw_sample
from lptrim.runner import (
    SampleIntegrityError,
    _fmt,
    _finish,
    load_sample,
    run_compare,
    run_lemma_check,
    run_ratio_check,
    run_sandwich,
    save_sample,
)
from lptrim.seeding import child_seed

SANDWICH_ARGS = [
    "sandwich", "--dist", "gaussian", "--dim", "3", "--n", "1500", "--p", "2",
    "--epsilon", "0.3", "--directions", "12", "--trials", "4", "--seed", "77",
]


def run_cli(args, tmp_path, sub="out"):
    out_dir = tmp_path / sub
    code = main(args + ["--out-dir", str(out_dir)])
    return code, out_dir


class TestConfig:
    def test_defaults_resolve(self):
        cfg = ExperimentConfig()
        assert cfg.resolved_n == 5324  # ceil(8 * 20 * log(8) / 0.0625)
        assert cfg.resolved_theta == pytest.approx(0.25 * 0.0625)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dim": 5, "seed": 3, "epsilon": 0.2}))
        cfg = ExperimentConfig.from_sources(str(path), {"seed": 9, "epsilon": None})
        assert cfg.dim == 5
        assert cfg.seed == 9  # flag wins
        assert cfg.epsilon == 0.2  # unset flag leaves the file value

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"dimension": 5}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_sources(str(path), {})

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(epsilon=1.5)

    def test_threads_above_the_ceiling_rejected(self):
        # validation only: no config here ever reaches a worker pool
        assert ExperimentConfig(threads=MAX_THREADS).threads == MAX_THREADS
        with pytest.raises(ConfigError):
            ExperimentConfig(threads=MAX_THREADS + 1)

    @pytest.mark.parametrize("field", ["n", "directions"])
    def test_sizes_beyond_numpys_largest_array_rejected(self, field):
        # validation only: no array of either size is made here, and numpy refuses the larger shape unallocated
        largest = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
        assert getattr(ExperimentConfig(dim=2, **{field: largest // 2}), field) == largest // 2
        with pytest.raises(ValueError, match="too big"):
            np.empty((largest // 2 + 1, 2))
        with pytest.raises(ConfigError, match=f"^{field} x dim = {largest // 2 + 1} x 2 exceeds"):
            ExperimentConfig(dim=2, **{field: largest // 2 + 1})

    def test_removed_mc_size_is_an_unknown_key(self):
        assert "mc_size" not in ExperimentConfig().echo()
        with pytest.raises(ConfigError):
            ExperimentConfig.from_sources(None, {"mc_size": 1000})

    def test_every_flag_is_a_config_field_or_a_query_name(self):
        # the CLI passes on exactly the flags that name config fields, so a
        # flag outside both sets would be dropped silently
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        query_names = {"command", "config", "query", "eta", "t", "kappa", "q", "out_file"}
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, subparser in [("lptrim", parser), *sub.choices.items()]:
            dests = {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
            assert dests <= fields | query_names, command

    @pytest.mark.parametrize("flags, theta, t_level", [([], 0.1, 0.1), (["--theta", "0.2"], 0.2, 0.2),
                                                       (["--t-level", "0.05"], 0.1, 0.05)],
                             ids=["defaults", "theta", "t-level"])
    def test_lemma_echo_records_the_settings_it_ran(self, tmp_path, flags, theta, t_level):
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"lemma_dists": ["gaussian"], "lemma_ps": [2.0]}))
        code, out_dir = run_cli(["lemma-check", "--trials", "1", "--config", str(config), *flags], tmp_path)
        assert code == 0
        line = (out_dir / "lemma_rows.csv").read_text().splitlines()[0]
        echoes = [json.loads(line[len("# config: "):]),
                  json.loads((out_dir / "lemma_summary.json").read_text())["config"]]
        for echo in echoes:
            assert (echo["dim"], echo["n"], echo["resolved_n"]) == (1, 10_000, 10_000)
            assert (echo["theta"], echo["resolved_theta"], echo["t_level"]) == (theta, theta, t_level)

    def test_echo_contains_resolved_constants(self):
        echo = ExperimentConfig().echo()
        for key in ("resolved_n", "resolved_theta", "theta_c0", "sample_c1"):
            assert key in echo


class TestExitCodes:
    def test_pass_is_zero(self, tmp_path):
        code, _ = run_cli(SANDWICH_ARGS, tmp_path)
        assert code == 0

    # numpy's error for sizes within its largest array that the host cannot hold, and one without a message
    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 TiB for an array with shape (1099511627776, 1) "
                                         "and data type float64", ""], ids=["numpy", "bare"])
    @pytest.mark.parametrize("command", ["sandwich", "ratio-check", "lemma-check", "compare"])
    def test_memory_error_is_two(self, tmp_path, capsys, monkeypatch, command, message):
        def refuse(config):
            raise MemoryError(message) if message else MemoryError()

        for name in ("run_sandwich", "run_ratio_check", "run_lemma_check", "run_compare"):
            monkeypatch.setattr(cli, name, refuse)
        code = main([command, "--out-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: ") and captured.err.count("\n") == 1, captured.err
        assert captured.err.rstrip().endswith(message or "MemoryError")
        assert captured.out == ""

    def test_invalid_epsilon_is_two(self, tmp_path):
        code = main(["sandwich", "--epsilon", "1.5", "--out-dir", str(tmp_path)])
        assert code == 2

    def test_zero_trials_is_two(self, tmp_path):
        code = main(["lemma-check", "--trials", "0", "--out-dir", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["compare", "--p", "nan"],
        ["compare", "--dist", "product_student_t", "--nu", "inf"],
        ["sandwich", "--theta-c0", "inf"],
        ["oracle", "--query", "tail-moment", "--p", "nan"],
        ["ratio-check", "--big-c", "inf"],
        ["sandwich", "--theta-c0", "100"],
        ["sandwich", "--epsilon", "1e-200"],
        ["compare", "--epsilon", "5e-324"],
        ["sandwich", "--threads", "100000"],
    ], ids=["compare-p-nan", "compare-nu-inf", "sandwich-theta-c0-inf", "oracle-p-nan", "ratio-big-c-inf",
            "sandwich-derived-theta-above-one", "sandwich-epsilon-squared-underflows",
            "compare-epsilon-squared-underflows", "sandwich-threads-above-ceiling"])
    def test_non_finite_or_out_of_range_config_is_two(self, tmp_path, capsys, args):
        # n is left to derive from epsilon, so that a tiny epsilon reaches the derivation
        out_dir = tmp_path / "out"
        code = main(args + ["--dim", "2", "--directions", "2", "--trials", "1", "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert "config error" in err
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("command, entry", [
        ("sandwich", {"n": 1000.0}),
        ("sandwich", {"trials": 1.5}),
        ("sandwich", {"dim": 2.0}),
        ("sandwich", {"directions": 2.0}),
        ("sandwich", {"threads": 2.0}),
        ("sandwich", {"seed": 1.5}),
        ("sandwich", {"trials": True}),
        ("lemma-check", {"lemma_ps": []}),
        ("lemma-check", {"lemma_dists": []}),
        ("lemma-check", {"lemma_ps": 3}),
        ("lemma-check", {"lemma_ps": ["a"]}),
        ("lemma-check", {"lemma_ps": [True]}),
        ("lemma-check", {"lemma_dists": "gaussian"}),
        ("lemma-check", {"sample_file": 3}),
        ("sandwich", {"out_dir": 5}),
        ("sandwich", {"p": "2"}),
        ("sandwich", {"p": 10 ** 400}),
        ("sandwich", {"nu": "5"}),
        ("sandwich", {"theta": "0.1"}),
        ("sandwich", {"dist": 3}),
    ], ids=["n-float", "trials-fraction", "dim-float", "directions-float", "threads-float",
            "seed-fraction", "trials-bool", "lemma-ps-empty", "lemma-dists-empty", "lemma-ps-number",
            "lemma-ps-string-entry", "lemma-ps-bool-entry", "lemma-dists-string", "sample-file-number",
            "out-dir-number", "p-string", "p-beyond-float", "nu-string", "theta-string", "dist-number"])
    def test_ill_typed_or_empty_config_file_entry_is_two(self, tmp_path, capsys, monkeypatch, command, entry):
        # JSON has no integer type of its own: 2.0 and true must not pass for counts or seeds
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(ENV_OUT_DIR, raising=False)
        config = tmp_path / "f.json"
        config.write_text(json.dumps(entry))
        out_dir = tmp_path / "out"
        # a flag would override the file's out_dir entry
        out_flag = [] if "out_dir" in entry else ["--out-dir", str(out_dir)]
        code = main([command, "--config", str(config), *out_flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"config error: {next(iter(entry))} ")
        assert not out_dir.exists()
        assert [path.name for path in tmp_path.iterdir()] == ["f.json"]

    @pytest.mark.parametrize("entry, message", [
        ({"dist": "foo"}, "dist: unknown distribution 'foo'"),
        ({"lemma_dists": ["foo"]}, "lemma_dists: unknown distribution 'foo'"),
        ({"dim": 0}, "dim must be >= 1, got 0"),
        ({"p": 0.5}, "p must be a finite real >= 1, got 0.5"),
        ({"theta": 1}, "theta must lie in (0, 1), got 1.0"),
        ({"lam": 1}, "lam must lie in (0, 1), got 1.0"),
        ({"big_c": 0.5}, "big_c must be >= 1, got 0.5"),
        ({"delta": 0}, "delta must lie in (0, 1/2], got 0.0"),
        ({"delta": 0.6}, "delta must lie in (0, 1/2], got 0.6"),
        ({"nu": 2, "dist": "gaussian"}, "product_student_t requires nu > 2, got nu=2.0"),
        ({"lemma_ps": [2.0, 0.5]}, "lemma_ps: p must be a finite real >= 1, got 0.5"),
    ], ids=["dist", "lemma-dists", "dim", "p", "theta", "lam", "big-c", "delta-zero", "delta-above-half",
            "nu-with-gaussian", "lemma-ps"])
    def test_range_checked_by_a_type_is_two_naming_the_field(self, tmp_path, capsys, entry, message):
        # DistributionSpec, TrimSpec and RatioParams check these ranges; the config names the field
        config = tmp_path / "f.json"
        config.write_text(json.dumps(entry))
        out_dir = tmp_path / "out"
        code = main(["sandwich", "--config", str(config), "--out-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("config error: ") and message in err, err
        assert not out_dir.exists()

    @pytest.mark.parametrize("args", [
        ["--query", "tail-moment", "--p", "2", "--t", "nan"],
        ["--query", "tail-moment", "--p", "2", "--t", "inf"],
        ["--query", "tail-moment", "--p", "2", "--t", "-1"],
        ["--query", "error-functional", "--t", "nan"],
        ["--query", "quantile", "--eta", "nan"],
        ["--query", "quantile", "--eta", "1.5"],
        ["--query", "upper-moment", "--kappa", "nan"],
        ["--query", "upper-moment", "--kappa", "1"],
        ["--query", "moment-bounds", "--q", "nan", "--kappa", "0.1"],
    ], ids=["t-nan", "t-inf", "t-negative", "error-functional-t-nan", "eta-nan", "eta-above-one",
            "kappa-nan", "kappa-one", "q-nan"])
    def test_invalid_oracle_flag_is_two(self, capsys, args):
        code = main(["oracle", "--dist", "gaussian", *args])
        captured = capsys.readouterr()
        assert code == 2
        assert "config error" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_nonexistent_moment_is_three(self, tmp_path):
        code = main([
            "compare", "--dist", "product_student_t", "--nu", "4.5", "--p", "5",
            "--dim", "2", "--n", "50", "--directions", "2", "--trials", "1",
            "--out-dir", str(tmp_path),
        ])
        assert code == 3

    @pytest.mark.parametrize("p, args", [
        (400, ["compare", "--dist", "gaussian", "--dim", "1", "--p", "400", "--n", "50", "--directions", "2",
               "--trials", "1"]),
        (400, ["sandwich", "--dist", "gaussian", "--dim", "1", "--p", "400", "--n", "50", "--directions", "2",
               "--trials", "1"]),
        (400, ["oracle", "--dist", "gaussian", "--query", "tail-moment", "--p", "400"]),
        (400, ["oracle", "--dist", "gaussian", "--query", "upper-moment", "--p", "400", "--kappa", "0.1"]),
        (400, ["lemma-check", "--n", "500", "--trials", "1"]),
        (400, ["oracle", "--dist", "gaussian", "--query", "upper-moment", "--p", "400", "--kappa", "1e-16"]),
        (2000, ["oracle", "--dist", "cube_uniform", "--query", "upper-moment", "--p", "2000", "--kappa", "1e-13"]),
        (2000, ["lemma-check", "--n", "500", "--trials", "1"]),
    ], ids=["compare", "sandwich", "oracle-tail-moment", "oracle-upper-moment", "lemma-check",
            "oracle-upper-moment-beyond-cutoff", "oracle-upper-moment-cube", "lemma-check-threshold"])
    def test_overflowing_moment_is_three(self, tmp_path, capsys, p, args):
        # compare and sandwich overflow a closed form; the oracle queries and the
        # lemma-check config (p=400) overflow the quadrature integrand p t^(p-1).
        # Q(kappa) at or beyond the tail cutoff leaves no integral to overflow,
        # so the upper moment overflows in Q^p P(f > Q); at p=2000 lemma-check
        # overflows the trim threshold's p-th power first
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"lemma_ps": [p], "lemma_dists": ["gaussian"]}))
        code = main(args + ["--config", str(config), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("infeasible:") and f"p={p}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("p, args", [
        ("1e+308", ["sandwich", "--dist=product_laplace", "--p=1e308", "--ref-size=1000"]),
        ("511.0", ["sandwich", "--dist=product_laplace", "--dim=1", "--n=2000", "--ref-size=50", "--p=511",
                   "--theta=1e-6"]),
        ("511.0", ["compare", "--dist=product_laplace", "--dim=1", "--n=2000", "--ref-size=50", "--p=511"]),
    ], ids=["sandwich-truths", "sandwich-estimates", "compare-estimates"])
    def test_overflow_exits_three_without_a_numpy_warning(self, tmp_path, p, args, threads):
        # the truths overflow in the oracle's pass, the estimates in the trial task; without
        # --theta=1e-6 the sandwich's trim would keep its estimate finite.  A fresh
        # interpreter: numpy's warnings go to the stderr of the process and of its workers.
        # Four directions and two trials keep each run under a second.
        args = [*args, "--directions=4", "--trials=2"]
        env = {**os.environ, "PYTHONPATH": str(Path(lptrim.__file__).parent.parent)}
        argv = [sys.executable, "-m", "lptrim.cli", *args, f"--threads={threads}", f"--out-dir={tmp_path}"]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 3
        assert proc.stderr.startswith(f"infeasible: the p={p} moment")
        assert "RuntimeWarning" not in proc.stderr

    @pytest.mark.parametrize("args", [
        ["ratio-check", "--dist", "gaussian", "--dim", "2", "--n", "500", "--directions", "3", "--trials", "1"],
        ["lemma-check", "--n", "2000", "--trials", "1"],
    ], ids=["ratio-check", "lemma-check"])
    def test_dyadic_delta_reaching_level_one_is_zero(self, tmp_path, args):
        # delta = 2^-3: the dyadic levels reach P(f > t) = 1 exactly
        assert main(args + ["--delta", "0.125", "--seed", "1", "--out-dir", str(tmp_path)]) == 0

    def test_corrupted_sample_file_is_one(self, tmp_path):
        sample = draw_sample(DistributionSpec("gaussian", 1), 200, 5)
        path = save_sample(sample, tmp_path / "sample.npz")
        payload = dict(np.load(path))
        payload["data"] = payload["data"] + 1e-9  # tamper
        np.savez(path, **payload)
        code = main([
            "lemma-check", "--sample-file", str(path), "--theta", "0.1",
            "--delta", "0.01", "--out-dir", str(tmp_path / "out"),
        ])
        assert code == 1


class TestSampleFiles:
    def test_round_trip(self, tmp_path):
        sample = draw_sample(DistributionSpec("product_laplace", 2), 50, 9)
        path = save_sample(sample, tmp_path / "s")
        loaded = load_sample(path)
        assert np.array_equal(loaded.data, sample.data)
        assert loaded.dist_name == sample.dist_name

    def test_laplace_file_stored_from_generator_laplace_loads(self, tmp_path):
        # a product_laplace sample as save_sample stored it when draw_sample called Generator.laplace
        data = np.random.default_rng(9).laplace(0.0, 1.0 / math.sqrt(2.0), (50, 3))
        path = tmp_path / "s.npz"
        np.savez(path, data=data, seed=np.int64(9), dist_name=np.str_("product_laplace"))
        assert load_sample(path).data.tobytes() == data.tobytes()

    def test_integrity_error_raised(self, tmp_path):
        sample = draw_sample(DistributionSpec("gaussian", 2), 30, 4)
        path = save_sample(sample, tmp_path / "s")
        payload = dict(np.load(path))
        payload["seed"] = np.int64(1234)
        np.savez(path, **payload)
        with pytest.raises(SampleIntegrityError):
            load_sample(path)


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        _, out_a = run_cli(SANDWICH_ARGS, tmp_path, "a")
        _, out_b = run_cli(SANDWICH_ARGS, tmp_path, "b")
        rows_a = (out_a / "sandwich_rows.csv").read_bytes()
        rows_b = (out_b / "sandwich_rows.csv").read_bytes()
        # the config echo embeds the out_dir; compare everything after it
        assert rows_a.split(b"\n", 1)[1] == rows_b.split(b"\n", 1)[1]

    def test_thread_count_does_not_change_rows(self, tmp_path):
        blobs = []
        for threads, sub in ((1, "t1"), (3, "t3")):
            _, out = run_cli(SANDWICH_ARGS + ["--threads", str(threads)], tmp_path, sub)
            blobs.append((out / "sandwich_rows.csv").read_bytes().split(b"\n", 1)[1])
        assert blobs[0] == blobs[1]

    def test_json_format_rows(self, tmp_path):
        code, out = run_cli(SANDWICH_ARGS + ["--format", "json"], tmp_path)
        assert code == 0
        payload = json.loads((out / "sandwich_rows.json").read_text())
        assert set(payload["rows"][0]) == {"trial", "direction", "estimate", "truth", "rel_error"}


    def test_nu_from_a_config_file_runs_the_flags_experiment(self, tmp_path):
        # a file's 5 and the flag's 5.0 are one law: same label, same reference rows
        config = tmp_path / "nu.json"
        config.write_text(json.dumps({"nu": 5}))
        args = ["sandwich", "--dist", "product_student_t", "--dim", "3", "--n", "300", "--p", "3",
                "--directions", "2", "--trials", "1", "--seed", "1"]
        _, out_file = run_cli(args + ["--config", str(config)], tmp_path, "file")
        _, out_flag = run_cli(args + ["--nu", "5"], tmp_path, "flag")
        assert (out_file / "sandwich_rows.csv").read_bytes() == (out_flag / "sandwich_rows.csv").read_bytes()


# Small runs of the four commands, each as config fields; sandwich's epsilon fails it.
COMMAND_FIELDS = [
    ("sandwich", run_sandwich, {"dist": "gaussian", "dim": 3, "n": 1500, "epsilon": 0.01, "directions": 4,
                                "trials": 2, "seed": 77}),
    ("ratio-check", run_ratio_check, {"dist": "gaussian", "dim": 3, "n": 1200, "delta": 0.05,
                                      "directions": 5, "trials": 2, "seed": 3}),
    ("lemma-check", run_lemma_check, {"n": 2000, "trials": 1, "theta": 0.1, "delta": 0.01, "seed": 3}),
    ("compare", run_compare, {"dist": "product_laplace", "dim": 3, "n": 500, "p": 3.0, "directions": 4,
                              "trials": 3, "seed": 5, "ref_size": 20_000}),
]


class TestOutputPath:
    @pytest.mark.parametrize("command, runner, fields", COMMAND_FIELDS, ids=[c[0] for c in COMMAND_FIELDS])
    def test_stdout_line_and_result_are_the_summary_file(self, tmp_path, capsys, command, runner, fields):
        argv = [command]
        for key, value in fields.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        code, out = run_cli(argv, tmp_path, "cli")
        printed = json.loads(capsys.readouterr().out.splitlines()[0])
        summary_file = next(out.glob("*_summary.json"))
        assert printed == json.loads(summary_file.read_text())["results"]
        assert code == (0 if printed["pass"] else 1)

        result = runner(ExperimentConfig(out_dir=str(tmp_path / "lib"), **fields))
        assert result.summary == printed
        assert result.passed is result.summary["pass"]
        assert json.loads(result.summary_path.read_text())["results"] == result.summary

    def test_json_ratio_rows_equal_the_csv_rows(self, tmp_path):
        # ratio rows of a reference law carry np.float64, which json writes as a float itself
        args = ["ratio-check", "--dist", "product_laplace", "--dim", "3", "--n", "500", "--delta", "0.05",
                "--directions", "3", "--trials", "2", "--seed", "4", "--ref-size", "10000"]
        _, out_csv = run_cli(args, tmp_path, "csv")
        _, out_json = run_cli(args + ["--format", "json"], tmp_path, "json")
        lines = (out_csv / "ratio_rows.csv").read_text().splitlines()
        header = lines[1].split(",")
        csv_rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
        json_rows = json.loads((out_json / "ratio_rows.json").read_text())["rows"]
        assert len(json_rows) == len(csv_rows) == 2 * (3 + 2 * 3)
        assert [{k: _fmt(v) for k, v in row.items()} for row in json_rows] == csv_rows

    def test_numpy_scalars_are_written_as_python_scalars(self, tmp_path):
        config = ExperimentConfig(out_dir=str(tmp_path), format="json")
        result = _finish(config, "scalars", ["count", "flag"], [(np.int64(3), np.bool_(True))],
                         {"pass": np.bool_(False), "count": np.int64(4)}, start=0.0)
        rows_text = result.rows_path.read_text()
        assert '"count": 3,' in rows_text and '"flag": true' in rows_text
        assert json.loads(rows_text)["rows"] == [{"count": 3, "flag": True}]
        assert json.loads(result.summary_path.read_text())["results"] == {"pass": False, "count": 4}


class TestSchemas:
    def test_sandwich_csv_columns(self, tmp_path):
        _, out = run_cli(SANDWICH_ARGS, tmp_path)
        lines = (out / "sandwich_rows.csv").read_text().splitlines()
        assert lines[0].startswith("# config: ")
        assert lines[1] == "trial,direction,estimate,truth,rel_error"
        assert len(lines) == 2 + 4 * 12

    def test_summary_embeds_config(self, tmp_path):
        _, out = run_cli(SANDWICH_ARGS, tmp_path)
        payload = json.loads((out / "sandwich_summary.json").read_text())
        assert payload["config"]["seed"] == 77
        assert "pass_rate" in payload["results"]

    def test_ratio_csv_columns(self, tmp_path):
        code, out = run_cli(
            ["ratio-check", "--dist", "gaussian", "--dim", "3", "--n", "1200",
             "--delta", "0.05", "--directions", "5", "--trials", "2", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        lines = (out / "ratio_rows.csv").read_text().splitlines()
        assert lines[1] == "trial,direction,prop1_dev,prop2_margin,prop3_sup,pass"

    def test_headers_from_row_types_match_the_readme_schema(self, tmp_path):
        # the compare and scan headers are the fields of ComparisonTrialRow and ScanRow
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        schema = dict(re.findall(r"^\| `(\w+_rows\.csv)` \| `([\w,]+)` \|$", readme, re.M))
        run_cli(["compare", "--dim", "2", "--n", "200", "--directions", "3", "--trials", "2"], tmp_path, "compare")
        run_cli(["lemma-check", "--n", "500", "--trials", "1"], tmp_path, "lemma")
        for path in (tmp_path / "compare" / "compare_rows.csv", tmp_path / "lemma" / "lemma_scan_rows.csv"):
            assert path.read_text().splitlines()[1] == schema[path.name]

    def test_lemma_csv_columns_and_scan(self, tmp_path):
        code, out = run_cli(
            ["lemma-check", "--n", "2000", "--trials", "1", "--theta", "0.1",
             "--delta", "0.01", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        lines = (out / "lemma_rows.csv").read_text().splitlines()
        assert lines[1] == "dist,p,trial,check,verdict,reason,detail"
        assert (out / "lemma_scan_rows.csv").exists()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_lemma_scan_rows_equal_a_second_pass(self, tmp_path, threads):
        # each law's trial-0 unit sweeps the grid from the report it already holds
        cfg = ExperimentConfig(n=500, trials=2, seed=3, threads=threads, out_dir=str(tmp_path))
        run_lemma_check(cfg)
        lines = (tmp_path / "lemma_scan_rows.csv").read_text().splitlines()
        assert lines[2:] == [",".join(_fmt(v) for v in row) for row in second_pass_scan_rows(cfg)]

    def test_stored_sample_writes_the_scan_of_its_trial(self, tmp_path):
        # a stored sample drawn with a grid run's trial-0 seed sweeps the same rows
        path = save_sample(draw_sample(DistributionSpec("gaussian", 1), 500, child_seed(3, "lemma", "gaussian", 0)),
                           tmp_path / "sample.npz")
        args = ["lemma-check", "--n", "500", "--trials", "2", "--seed", "3"]
        config = tmp_path / "f.json"
        config.write_text(json.dumps({"lemma_dists": ["gaussian"]}))
        assert run_cli(args + ["--config", str(config)], tmp_path, "grid")[0] == 0
        assert run_cli(args + ["--sample-file", str(path)], tmp_path, "stored")[0] == 0
        grid, stored = ((tmp_path / sub / "lemma_scan_rows.csv").read_text().splitlines()
                        for sub in ("grid", "stored"))
        assert len(stored) > 2
        assert stored[1:] == grid[1:]

    def test_compare_csv_columns(self, tmp_path):
        code, out = run_cli(
            ["compare", "--dist", "gaussian", "--dim", "2", "--n", "300", "--p", "2",
             "--theta", "0.01", "--directions", "5", "--trials", "2", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        lines = (out / "compare_rows.csv").read_text().splitlines()
        assert lines[1] == "trial,q50_trimmed,q95_trimmed,max_trimmed,q50_mean,q95_mean,max_mean,winner"

    def test_compare_summary_reports_uniform_error_quantiles(self, tmp_path):
        code, out = run_cli(
            ["compare", "--dist", "product_student_t", "--nu", "4.5", "--dim", "3", "--n", "200",
             "--p", "2", "--theta", "0.01", "--directions", "5", "--trials", "7", "--seed", "3"],
            tmp_path,
        )
        assert code == 0
        rows = np.genfromtxt(out / "compare_rows.csv", delimiter=",", names=True, skip_header=1)
        results = json.loads((out / "compare_summary.json").read_text())["results"]
        assert results["q90_max_trimmed"] == float(np.quantile(rows["max_trimmed"], 0.90))
        assert results["q90_max_mean"] == float(np.quantile(rows["max_mean"], 0.90))


class TestOutDirResolution:
    def test_env_var_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LPTRIM_OUT_DIR", str(tmp_path / "env_out"))
        code = main(SANDWICH_ARGS)
        assert code == 0
        assert (tmp_path / "env_out" / "sandwich_rows.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LPTRIM_OUT_DIR", str(tmp_path / "env_out"))
        code = main(SANDWICH_ARGS + ["--out-dir", str(tmp_path / "flag_out")])
        assert code == 0
        assert (tmp_path / "flag_out" / "sandwich_rows.csv").exists()
        assert not (tmp_path / "env_out").exists()


class TestOracleCommand:
    def test_quantile_query(self, capsys):
        code = main(["oracle", "--dist", "gaussian", "--query", "quantile", "--eta", "0.05"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["value"] == pytest.approx(1.95996, abs=1e-4)

    def test_moment_bounds_query(self, capsys):
        code = main([
            "oracle", "--dist", "gaussian", "--query", "moment-bounds",
            "--p", "2", "--q", "8", "--kappa", "0.1", "--delta", "0.02",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert len(payload["value"]) == 3
        assert all(row["ok"] for row in payload["value"])

    def test_infeasible_moment_is_three(self, capsys):
        code = main([
            "oracle", "--dist", "product_student_t", "--nu", "4.5",
            "--query", "tail-moment", "--p", "5",
        ])
        assert code == 3

    def test_missing_parameter_is_two(self):
        code = main(["oracle", "--dist", "gaussian", "--query", "quantile"])
        assert code == 2

    @pytest.mark.parametrize("t", ["1e6", "1e308"])
    def test_cap_far_beyond_the_tail_cutoff_keeps_the_moment(self, capsys, t):
        # E|Z|^2 = 1; quadrature over (0, t) alone never sees the mass near 0
        code = main(["oracle", "--dist", "gaussian", "--query", "tail-moment", "--p", "2", "--t", t])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("args", [
        ["--query", "tail-moment", "--p", "5"],
        ["--query", "error-functional", "--p", "3"],
    ], ids=["tail-moment", "error-functional"])
    def test_divergent_integral_at_a_huge_cap_is_three(self, capsys, args):
        # product_student_t at nu = 4.5: both integrals grow without bound in the cap
        code = main(["oracle", "--dist", "product_student_t", "--nu", "4.5", *args, "--t", "1e308"])
        assert code == 3
        assert capsys.readouterr().err.startswith("infeasible:")

    @pytest.mark.parametrize("args", [
        ["--nu", "2.01", "--p", "2", "--t", "1e6"],
        ["--nu", "2.01", "--p", "2", "--t", "1e308"],
        ["--nu", "2.05", "--p", "1.5"],
        ["--nu", "2.01", "--p", "1"],
        ["--nu", "2.2", "--p", "1.5"],
    ], ids=["1e6", "1e308", "nu2.05-p1.5", "nu2.01-p1", "nu2.2-p1.5"])
    def test_negative_quadrature_is_three(self, capsys, recwarn, args):
        # near nu = 2 one adaptive quad over (0, cutoff) misses the slow tail and returns a
        # negative integral of a nonnegative integrand (-0.849 at t = 1e6); scipy's
        # IntegrationWarning on the way adds nothing to the error
        code = main(["oracle", "--dist", "product_student_t", "--query", "tail-moment", *args])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible:") and "quadrature failed" in err
        assert len(recwarn) == 0

    def test_a_quadrature_that_returns_passes_its_warning_on(self, capsys):
        with pytest.warns(scipy.integrate.IntegrationWarning, match="does not converge"):
            code = main(["oracle", "--dist", "product_student_t", "--nu", "2.2",
                         "--query", "tail-moment", "--p", "1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.39495725904294154

    def test_error_functional_cap_far_beyond_the_tail_cutoff(self, capsys):
        values = []
        for t in ("64", "1e6"):
            assert main(["oracle", "--dist", "gaussian", "--query", "error-functional", "--p", "2", "--t", t]) == 0
            values.append(json.loads(capsys.readouterr().out)["value"])
        assert values[1] == pytest.approx(values[0], rel=1e-6)


class TestLargeNConsistency:
    def test_one_dimensional_tight_accuracy(self, tmp_path):
        # d=1 at a large sample size: every direction is +-1 so the trimmed
        # mean must sit within 5 percent of the true moment
        cfg = ExperimentConfig(
            dist="gaussian", dim=1, n=1_000_000, epsilon=0.05, directions=2,
            trials=2, seed=15, out_dir=str(tmp_path), theta_c0=0.0625,
        )
        result = run_sandwich(cfg)
        assert result.passed
        assert result.summary["pass_rate"] == 1.0
