"""One measured lptrim run in a fresh interpreter.

Imports numpy, scipy and lptrim, resolves the workload's config, and prints
``ready`` so that the parent can time set-up from process launch.  Then it
times a fixed calibration load, calls ``lptrim.cli.main(argv)`` once,
optionally under the tracer, times the calibration again, and prints one JSON
line with the wall time, exit code, peak RSS, calibration times and trace
counts.  A set-up-only launch stops after the first calibration.

    python3 perfbench/child.py --workload '<json>' --seed 1 --out-dir DIR [--trace] [--setup-only]

The parent puts lptrim's ``src`` directory on PYTHONPATH and pins BLAS threads.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time


def _environment(np, scipy) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except TypeError:  # numpy before 1.25 has no dict mode
        blas_name = "unknown"
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def calibration(np):
    """A timer for a fixed load, run in the measured process around its call.

    A shared host's speed swings by a third from one second to the next, and
    each vCPU swings on its own.  The load runs in the same process, next to
    the measured call, so it sees the speed the call saw; run.py divides the
    call's time by it.  It mixes what the workloads spend time on: an
    interpreted loop (quadrature callbacks, the runners' per-direction
    loops), sorts of mid-sized arrays (the trimmed estimators) and a float
    ``pow`` streamed over arrays larger than L1 (``MomentOracle``).  It never
    calls lptrim, so a change to lptrim cannot move it.  Its 5 MB of arrays
    are allocated and touched once and stay alive, so they add a constant to
    peak RSS and no page faults to the timing.
    """
    rng = np.random.default_rng(0)
    sort_in = rng.standard_normal(1 << 16)
    stream_in = np.abs(rng.standard_normal(1 << 18))
    sort_out = np.ones_like(sort_in)
    stream_out = np.ones_like(stream_in)

    def calibrate() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i * i
        for _ in range(100):
            sort_out[:] = sort_in
            sort_out.sort()
        for _ in range(40):
            np.power(stream_in, 3.0, out=stream_out)
        return time.perf_counter() - start

    return calibrate


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, help="JSON object: name, command, fields")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import numpy as np
    import scipy
    from lptrim.cli import main as lptrim_main
    from lptrim.config import ExperimentConfig
    from workloads import Workload

    workload = Workload(**json.loads(args.workload))
    config = ExperimentConfig.from_sources(None, workload.overrides(args.seed, args.out_dir))
    config.resolved_n, config.resolved_theta  # derived fields complete the resolution
    print("ready", flush=True)
    calibrate = calibration(np)
    before = calibrate()
    if args.setup_only:
        print(json.dumps({"calibration_s": [before]}), flush=True)
        return 0

    argv = workload.argv(args.seed, args.out_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext(), contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = lptrim_main(argv)
        wall = time.perf_counter() - start
    result = {
        "wall_s": wall,
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(np, scipy),
    }
    result["calibration_s"] = [before, calibrate()]
    if tracer is not None:
        result["counts"] = tracer.counts()
        result["self_s"] = tracer.self_times()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
