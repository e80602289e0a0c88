"""Hostile-input sweep of the CLI.

Every numeric flag of every subcommand and oracle query is set, one at a
time, to an extreme value on a tiny run.  Whatever the value, ``main`` must
return a documented exit code without raising, and neither stdout nor any
result file may carry a non-finite number.  The grid is fixed, so the sweep
is deterministic.  Huge integer sizes are left out of the sweep: a size just
below its ceiling, numpy's largest array, would run for hours.  ``--n`` and
``--directions`` beyond that ceiling are pinned here, ``--trials`` and
``--ref-size`` in ``test_cli.py``.
"""

import argparse
import re

import numpy as np
import pytest

from lptrim import cli
from lptrim.cli import _build_parser, main
from lptrim.distributions import DistributionSpec, draw_sample

SIZES = ["--dim", "2", "--n", "60", "--directions", "2", "--trials", "1", "--ref-size", "2000", "--threads", "1"]

# (command argv, laws it runs on); the oracle queries are cheap, so they see every law
COMMANDS = {
    "sandwich": (["sandwich"], ("gaussian", "product_laplace")),
    "ratio-check": (["ratio-check"], ("gaussian", "product_laplace")),
    "lemma-check": (["lemma-check"], ("gaussian",)),  # runs all four laws whatever --dist is
    "compare": (["compare"], ("gaussian", "product_student_t")),
    "quantile": (["oracle", "--query", "quantile", "--eta", "0.1"], None),
    "tail-moment": (["oracle", "--query", "tail-moment", "--t", "2"], None),
    "error-functional": (["oracle", "--query", "error-functional", "--t", "2"], None),
    "upper-moment": (["oracle", "--query", "upper-moment", "--kappa", "0.1"], None),
    "moment-bounds": (["oracle", "--query", "moment-bounds", "--q", "5", "--kappa", "0.1"], None),
}
ALL_LAWS = ("gaussian", "cube_uniform", "product_laplace", "product_student_t")

FLOAT_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324")
INT_VALUES = ("0", "-1")

NON_FINITE = re.compile(r"\b(?:NaN|nan|Infinity|inf)\b")

# Each of these crashed, or wrote a non-finite number, before it was guarded;
# the code is the one each must now return.
PINNED = [
    (["sandwich", "--seed=-1"], 2),
    (["compare", "--seed=-1"], 2),
    (["ratio-check", "--seed=-1"], 2),
    (["lemma-check", "--seed=-1"], 2),
    (["lemma-check", "--nu=0"], 2),
    (["lemma-check", "--nu=-1"], 2),
    (["lemma-check", "--nu=5e-324"], 2),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=2", "--q=0", "--kappa=0.1"], 2),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=2", "--q=-1", "--kappa=0.1"], 2),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=2", "--q=5e-324", "--kappa=0.1"], 2),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=1e308", "--q=5", "--kappa=0.1"], 2),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=2", "--q=3", "--kappa=0.1"], 2),
    (["ratio-check", "--delta=5e-324"], 1),  # a finite verdict: the levels run up to 2^1074 delta = 1
    (["lemma-check", "--delta=5e-324"], 3),
    (["lemma-check", "--theta=5e-324"], 3),
    (["lemma-check", "--t-level=5e-324"], 3),
    (["oracle", "--dist=product_student_t", "--query=quantile", "--eta=5e-324"], 3),
    (["oracle", "--dist=product_student_t", "--query=upper-moment", "--kappa=5e-324"], 3),
    (["sandwich", "--dist=product_laplace", "--p=1e308"], 3),
    # the 50-row reference's truth is finite, but the sample's largest values overflow
    (["compare", "--dist=product_laplace", "--dim=1", "--n=2000", "--ref-size=50", "--p=511"], 3),
    (["oracle", "--dist=gaussian", "--query=moment-bounds", "--p=1", "--q=3", "--kappa=5e-324"], 0),
    # n x dim or directions x dim float64 values beyond numpy's largest array, at dim 2
    (["compare", "--n=1152921504606846976"], 2),
    (["ratio-check", "--n=1152921504606846976"], 2),
    (["lemma-check", "--n=1152921504606846976"], 2),
    (["sandwich", "--directions=9223372036854775807"], 2),
    (["compare", "--directions=9223372036854775807"], 2),
    (["ratio-check", "--directions=9223372036854775807"], 2),
]


def _write(path, content: bytes) -> str:
    path.write_bytes(content)
    return str(path)


def _stored_sample(tmp_path, **entries) -> str:
    """A stored 50-row gaussian sample at seed 1 with ``entries`` replaced; an entry of None is left out."""
    data = draw_sample(DistributionSpec("gaussian", 1), 50, 1).data
    payload = {"data": data, "seed": np.int64(1), "dist_name": np.str_("gaussian"), **entries}
    path = tmp_path / "sample.npz"
    np.savez(path, **{key: value for key, value in payload.items() if value is not None})
    return str(path)


def _corrupt_member(tmp_path) -> str:
    """A stored sample whose data member fails its CRC check: the archive opens, the read does not."""
    path = tmp_path / "sample.npz"
    _stored_sample(tmp_path)
    content = bytearray(path.read_bytes())
    content[200] ^= 0xFF  # inside data.npy's stored bytes
    return _write(path, bytes(content))


def _nan_data():
    data = draw_sample(DistributionSpec("gaussian", 1), 50, 1).data
    data[3, 0] = np.nan
    return data


# Path flags and stored samples that each ended in a traceback before they
# were guarded: (argv given a scratch directory, exit code).  A path that
# cannot be read or written is a config error naming it, found before any
# work; an archive that opens but does not hold a sample that re-derives is
# an integrity failure.
PINNED_PATHS = {
    "config-is-a-directory": (lambda d: ["sandwich", "--config", str(d)], 2),
    "config-not-utf8": (lambda d: ["sandwich", "--config", _write(d / "c.json", b'\xff{"dim": 2}')], 2),
    "sample-file-missing": (lambda d: ["lemma-check", "--sample-file", str(d / "missing.npz")], 2),
    "sample-file-is-a-directory": (lambda d: ["lemma-check", "--sample-file", str(d)], 2),
    "sample-file-text": (lambda d: ["lemma-check", "--sample-file", _write(d / "s.npz", b"not an archive\n")], 2),
    "out-dir-is-a-file": (lambda d: ["sandwich", "--out-dir", _write(d / "taken", b"")], 2),
    "oracle-out-file-in-missing-directory":
        (lambda d: ["oracle", "--query", "quantile", "--eta", "0.1", "--out-file", str(d / "missing" / "v.json")], 2),
    "sample-without-seed": (lambda d: ["lemma-check", "--sample-file", _stored_sample(d, seed=None)], 1),
    "sample-unknown-law": (lambda d: ["lemma-check", "--sample-file", _stored_sample(d, dist_name=np.str_("foo"))], 1),
    "sample-1d-data": (lambda d: ["lemma-check", "--sample-file", _stored_sample(d, data=np.ones(50))], 1),
    "sample-nan-data": (lambda d: ["lemma-check", "--sample-file", _stored_sample(d, data=_nan_data())], 1),
    "sample-negative-seed": (lambda d: ["lemma-check", "--sample-file", _stored_sample(d, seed=np.int64(-1))], 1),
    "sample-corrupt-member": (lambda d: ["lemma-check", "--sample-file", _corrupt_member(d)], 1),
}


@pytest.mark.parametrize("case", PINNED_PATHS)
def test_pinned_hostile_path_exits_cleanly(tmp_path, capsys, monkeypatch, case):
    # every sandwich case must fail before the run: one that computed would raise here
    monkeypatch.setattr(cli, "run_sandwich", lambda config: pytest.fail("the run started"))
    make_argv, expected = PINNED_PATHS[case]
    argv = make_argv(tmp_path)
    path = argv[-1]  # the hostile path
    if "--out-dir" not in argv and argv[0] != "oracle":
        argv += ["--out-dir", str(tmp_path / "out")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == expected
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.err.startswith("config error:") and path in captured.err, captured.err
        assert captured.out == ""
    else:
        assert captured.err.startswith("integrity failure:"), captured.err


def _numeric_flags(command: str) -> list[tuple[str, tuple[str, ...]]]:
    """(flag, values) for every float and int option of a subcommand."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = []
    for action in sub.choices[command]._actions:
        if action.type is float:
            flags.append((action.option_strings[-1], FLOAT_VALUES))
        elif action.type is int:
            flags.append((action.option_strings[-1], INT_VALUES))
    return flags


def _sweep_argvs() -> list[list[str]]:
    argvs = []
    for base, laws in COMMANDS.values():
        for law in laws or ALL_LAWS:
            for flag, values in _numeric_flags(base[0]):
                # a later flag overrides an earlier one, and "=" keeps "-inf" a value
                argvs.extend([*base, f"--dist={law}", *SIZES, f"{flag}={value}"] for value in values)
    return argvs


def _check(argv, out_dir, capsys) -> tuple[int, str]:
    """Run ``main`` and check its code, stdout and result files; return the code and stderr."""
    code = main([*argv, f"--out-dir={out_dir}"])
    captured = capsys.readouterr()
    assert code in (0, 1, 2, 3), argv
    assert not NON_FINITE.search(captured.out), (argv, captured.out)
    for path in out_dir.glob("*"):
        assert not NON_FINITE.search(path.read_text()), (argv, path.name)
    return code, captured.err


@pytest.mark.parametrize("argv, expected", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_pinned_hostile_argv_exits_cleanly(tmp_path, capsys, argv, expected):
    base = argv if argv[0] == "oracle" else [*argv[:1], *SIZES, *argv[1:]]
    code, err = _check(base, tmp_path / "out", capsys)
    assert code == expected
    prefix = {2: "config error:", 3: "infeasible:"}.get(code)
    assert prefix is None or err.startswith(prefix), err


def test_every_numeric_flag_at_extreme_values(tmp_path, capsys):
    argvs = _sweep_argvs()
    assert len(argvs) > 500
    for i, argv in enumerate(argvs):
        _check(argv, tmp_path / f"run{i}", capsys)
