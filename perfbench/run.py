"""Benchmark entry point.

    python3 perfbench/run.py --workload bench_scale --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The last line of standard output
is the JSON result (`correct`, `attempted`, `failed`, `metrics`); the line
before it is a detailed JSON report with the environment block, sample
counts, percentiles and the workload-level metric names. The program is
imported from the checkout's `src/`, never from an installed copy; without
it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# BLAS threads are fixed, not inherited: one thread is fastest for the
# Python-overhead workloads and steadiest on a shared host, and never
# exceeds the core count.
BLAS_THREADS = 1
WORKLOADS = ("bench_scale", "toy_train", "certify_audit")


def parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "brolip" / "__init__.py").is_file():
        print(f"no brolip sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(root)]
    import brolip
    if Path(brolip.__file__).resolve().parent != src / "brolip":
        print(f"imported brolip from {brolip.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench import harness

    workdir = root / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result, report = harness.run(args.workload, args.seed, args.seconds,
                                     bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
