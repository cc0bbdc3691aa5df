"""polydarcy stage benchmark: time to a verified Darcy solution.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pipeline-k1 --seed 2026 --seconds 55 --trace 0

Workloads (all on the distorted mesh family, distortion 0.2, case
``bubble-sine``; the seed picks the meshes):

    pipeline-k1  6x6, 12x12, 24x24 cells, k = 1, with VTK export: the
                 `polydarcy converge` workflow, per-cell Python layers
    solve-k3     12x12 cells, k = 3: the ill-conditioned pressure solve

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries per-layer metrics from a traced pass
(the package's functions wrapped at their module attributes and restored
afterwards).  The line before it records the environment.  A full record,
including the spans of a traced run, goes to ``perfbench/out/``.  ``--smoke``
swaps in tiny meshes for the benchmark's own tests.

polydarcy is imported from ``src/`` of the checkout; if it is not there the
run exits with status 2 and prints no result.  BLAS is pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("pipeline-k1", "solve-k3")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny meshes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    # Before numpy loads, so its BLAS starts with this many threads.
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bench
    except ImportError as exc:
        print(f"perfbench: cannot import polydarcy from {src}: {exc}", file=sys.stderr)
        return 2
    package = Path(bench.polydarcy.__file__).resolve()
    if not package.is_relative_to(src.resolve()):
        print(f"perfbench: polydarcy loaded from {package}, not from {src}",
              file=sys.stderr)
        return 2

    result, record = bench.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), src=src,
                               out_dir=ROOT / "perfbench" / "out", smoke=args.smoke)
    for p in record["passes"]:
        for failure in p["failures"]:
            print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"env": record["env"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
