"""Command-line front end.

Subcommands: sandwich, ratio-check, lemma-check, compare, oracle.
Exit codes: 0 pass, 1 assertion failure, 2 usage/config error, 3 infeasible
request (a moment that does not exist).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .config import ConfigError, ExperimentConfig
from .distributions import MomentDoesNotExistError, marginal_cdf
from .oracle import (
    check_tail_moment_bounds,
    error_functional,
    raw_moment,
    tail_integral_moment,
    truncated_upper_moment,
    upper_quantile,
)
from .runner import RunResult, SampleIntegrityError, run_compare, run_lemma_check, run_ratio_check, run_sandwich

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON config file; flags override its entries")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--out-dir", help="output directory (default: $LPTRIM_OUT_DIR or ./lptrim-out)")
    parser.add_argument("--threads", type=int, help="worker processes (results are worker-count independent)")
    parser.add_argument("--format", choices=("csv", "json"), help="row file format")
    parser.add_argument("--dist", help="distribution name")
    parser.add_argument("--nu", type=float, help="degrees of freedom for product_student_t")
    parser.add_argument("--dim", type=int, help="ambient dimension")
    parser.add_argument("--n", type=int, help="sample size per trial (default derived from epsilon)")
    parser.add_argument("--p", type=float, help="moment exponent")
    parser.add_argument("--epsilon", type=float, help="target relative accuracy")
    parser.add_argument("--theta", type=float, help="trim fraction override")
    parser.add_argument("--delta", type=float, help="ratio-property tail mass")
    parser.add_argument("--lam", type=float, help="ratio-property relative deviation bound")
    parser.add_argument("--big-c", dest="big_c", type=float, help="ratio-property additive constant")
    parser.add_argument("--directions", type=int, help="number of probe directions")
    parser.add_argument("--trials", type=int, help="number of independent trials")
    parser.add_argument("--ref-size", dest="ref_size", type=int, help="reference sample size for empirical oracles")
    parser.add_argument("--theta-c0", dest="theta_c0", type=float, help="constant in theta = c0 * epsilon^2")
    parser.add_argument("--sample-c1", dest="sample_c1", type=float, help="constant in the default sample size")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lptrim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sandwich = sub.add_parser("sandwich", help="trimmed-mean accuracy against the true moment")
    _add_common(p_sandwich)
    p_sandwich.add_argument("--pass-rate-threshold", dest="pass_rate_threshold", type=float)

    p_ratio = sub.add_parser("ratio-check", help="failure rate of the empirical-ratio properties")
    _add_common(p_ratio)
    p_ratio.add_argument("--ratio-fail-threshold", dest="ratio_fail_threshold", type=float)

    p_lemma = sub.add_parser("lemma-check", help="three-valued validator table over the trial grid")
    _add_common(p_lemma)
    p_lemma.add_argument("--sample-file", dest="sample_file", help="stored .npz sample to check instead of drawing")
    p_lemma.add_argument("--t-level", dest="t_level", type=float, help="tail level of the integral-sandwich cap")

    p_compare = sub.add_parser("compare", help="trimmed mean versus the plain p-mean")
    _add_common(p_compare)
    p_compare.add_argument("--min-win-rate", dest="min_win_rate", type=float,
                           help="assert the trimmed estimator wins at least this fraction of trials")

    p_oracle = sub.add_parser("oracle", help="direct quadrature queries on a coordinate marginal")
    _add_common(p_oracle)
    p_oracle.add_argument("--query", required=True,
                          choices=("quantile", "tail-moment", "error-functional", "upper-moment", "moment-bounds"))
    p_oracle.add_argument("--eta", type=float, help="upper-quantile tail mass")
    p_oracle.add_argument("--t", type=float, help="integration cap (default: full-moment cutoff)")
    p_oracle.add_argument("--kappa", type=float, help="tail level for the truncated upper moment")
    p_oracle.add_argument("--q", type=float, help="higher norm order for moment bounds")
    p_oracle.add_argument("--out-file", dest="out_file", help="also write the JSON result here")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The config file's entries, overridden by every flag that names a config field."""
    fields = (f.name for f in dataclasses.fields(ExperimentConfig))
    overrides = {name: getattr(args, name) for name in fields if hasattr(args, name)}
    return ExperimentConfig.from_sources(args.config, overrides)


def _report(result: RunResult) -> None:
    print(json.dumps({"pass": result.passed, **{k: v for k, v in result.summary.items() if k != "pass"}},
                     sort_keys=True, default=str))
    print(f"rows: {result.rows_path}", flush=True)
    print(f"summary: {result.summary_path}", flush=True)
    print(f"runtime: {result.runtime_s:.2f}s", file=sys.stderr, flush=True)


def _run_oracle(args: argparse.Namespace, config: ExperimentConfig) -> int:
    spec = config.spec(dim=1)
    cdf = marginal_cdf(spec, np.ones(1), ref_size=config.ref_size)
    query = args.query
    params: dict = {"dist": spec.label, "query": query}
    if query == "quantile":
        if args.eta is None:
            raise ConfigError("quantile query needs --eta")
        params["eta"] = args.eta
        value = upper_quantile(cdf, args.eta)
    elif query == "tail-moment":
        params["p"] = config.p
        if args.t is None:
            value = raw_moment(cdf, config.p)
        else:
            params["t"] = args.t
            value = tail_integral_moment(cdf, config.p, args.t)
    elif query == "error-functional":
        if args.t is None:
            raise ConfigError("error-functional query needs --t")
        params.update({"p": config.p, "t": args.t, "delta": config.delta})
        value = error_functional(cdf, config.p, args.t, config.delta)
    elif query == "upper-moment":
        if args.kappa is None:
            raise ConfigError("upper-moment query needs --kappa")
        params.update({"p": config.p, "kappa": args.kappa})
        value = truncated_upper_moment(cdf, config.p, args.kappa)
    else:  # moment-bounds
        if args.q is None or args.kappa is None:
            raise ConfigError("moment-bounds query needs --q and --kappa")
        params.update({"p": config.p, "q": args.q, "kappa": args.kappa, "delta": config.delta})
        bounds = check_tail_moment_bounds(cdf, config.p, args.q, args.kappa, config.delta)
        value = [
            {"name": b.name, "lhs": b.lhs, "rhs": b.rhs, "slack": b.slack, "ok": b.ok}
            for b in bounds
        ]
    payload = json.dumps({"params": params, "value": value}, sort_keys=True)
    print(payload)
    if args.out_file:
        from pathlib import Path

        Path(args.out_file).write_text(payload + "\n")
    if query == "moment-bounds" and not all(row["ok"] for row in value):
        return EXIT_FAIL
    return EXIT_PASS


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.command == "sandwich":
            result = run_sandwich(config)
        elif args.command == "ratio-check":
            result = run_ratio_check(config)
        elif args.command == "lemma-check":
            result = run_lemma_check(config)
        elif args.command == "compare":
            result = run_compare(config)
        else:
            return _run_oracle(args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MomentDoesNotExistError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SampleIntegrityError as exc:
        print(f"integrity failure: {exc}", file=sys.stderr)
        return EXIT_FAIL
    _report(result)
    return EXIT_PASS if result.passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
