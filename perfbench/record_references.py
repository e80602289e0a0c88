"""Record the reference outputs that run.py checks every measured run against.

    python3 perfbench/record_references.py --seeds 0 1 2 [--workloads NAME ...]

For each workload and seed, runs the workload once, as run.py does, and
stores in references.json its exit code, its summary results, and the sha256
and column sums of its rows file, keeping entries for other seeds.
Re-record only when a change to lptrim is meant to change results, and say
so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import OUT_ROOT, REFERENCES, launch, load_references, read_outputs
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    references = load_references()
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            out_dir = OUT_ROOT / f"record-{name}-{seed}"
            try:
                _, result, err = launch(workload, seed, out_dir)
                if result is None:
                    print(f"{name} seed {seed}: run failed\n{err}", file=sys.stderr)
                    return 1
                outputs = read_outputs(workload, out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            references.setdefault(name, {})[str(seed)] = {
                "exit_code": result["exit_code"], "rows_sha256": outputs.rows_sha256,
                "results": outputs.results, "column_sums": outputs.column_sums,
            }
            print(f"{name} seed {seed}: exit {result['exit_code']}, wall {result['wall_s']:.2f}s", flush=True)
            REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
