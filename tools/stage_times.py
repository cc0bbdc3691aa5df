"""Print the stage table of ROADMAP.md ("Where the time goes"): wall time per
pipeline stage and RSS high-water marks, each the median of three cold runs
per row, with times in milliseconds to three significant digits.

Rows: 4096 cells (64 x 64) at k = 0, 1 and 3, and 9216 cells (96 x 96) at
k = 3, all on the distorted mesh of seed 2026 at distortion 0.2 with the
``bubble-sine`` case.  Stages: mesh generation, ``ncvem.assemble``,
``ncvem.solve_pressure``, ``recovery.recover_velocity``,
``study.error_norms`` and ``vtk_export.export_vtk`` (to a temporary file).
``assemble`` is also split into ``build``, the time inside its
``ncvem.build_element`` calls, and ``scatter``, the rest: the global DOF
tables, the triplet scatter and the sparse matrix build.  ``points`` counts
the quadrature points of the build's cell rule over the whole mesh.

Each run of a row is a fresh interpreter with BLAS pinned to one thread
before numpy loads, so the RSS high-water marks it reports (``ru_maxrss``
of that interpreter, import included) are its own: ``after assemble`` and
``after solve`` are read as those stages return, ``peak RSS`` at the end of
the run.  The memory allocator is glibc's malloc with its defaults: every
``MALLOC_*`` variable is removed from the runs' environment, since glibc's
dynamic mmap threshold alone moves the largest peak by tens of MB.  The
runs go one after another; the largest row (96 x 96, k = 3) peaks at
840-875 MB on a 2-vCPU x86-64 Linux host with numpy 2.4 and scipy 1.17.

Usage: PYTHONPATH=src python tools/stage_times.py   (takes no options)
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROWS = ((64, 0), (64, 1), (64, 3), (96, 3))
RUNS = 3
SEED = 2026
DISTORTION = 0.2
CASE = "bubble-sine"
BLAS_ONE_THREAD = {var: "1" for var in
                   ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
CHILD = ("import sys; sys.path.insert(0, sys.argv[1]); import stage_times; "
         "stage_times.row(int(sys.argv[2]), int(sys.argv[3]))")


def row(n: int, k: int) -> None:
    """Run one row in this interpreter and print its record as JSON."""
    import resource
    import tempfile
    import time

    from polydarcy import ncvem, polymesh, recovery, study, vtk_export
    from polydarcy.cases import get_case

    case = get_case(CASE)
    seconds = {}

    def timed(stage, func, *args):
        t0 = time.perf_counter()
        out = func(*args)
        seconds[stage] = time.perf_counter() - t0
        return out

    def build_element(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return real_build(*args, **kwargs)
        finally:
            seconds["build"] += time.perf_counter() - t0

    def polygon_quadrature(*args, **kwargs):
        quad = real_quadrature(*args, **kwargs)
        points.append(quad.weights.size)
        return quad

    def high_water_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    mesh = timed("mesh", polymesh.generate_distorted_polygonal, n, n, SEED, DISTORTION)
    # assemble reaches the element build, and the build its cell rule,
    # through the module attributes
    real_build, ncvem.build_element = ncvem.build_element, build_element
    real_quadrature, ncvem.polygon_quadrature = ncvem.polygon_quadrature, polygon_quadrature
    seconds["build"] = 0.0
    points = []
    try:
        system = timed("assemble", ncvem.assemble, mesh, case.permeability, case.forcing,
                       k, case.pressure)
    finally:
        ncvem.build_element = real_build
        ncvem.polygon_quadrature = real_quadrature
    seconds["scatter"] = seconds["assemble"] - seconds["build"]
    rss_assemble = high_water_mb()
    timed("solve", ncvem.solve_pressure, system)
    rss_solve = high_water_mb()
    velocity = timed("recover", recovery.recover_velocity, system)
    result = study.SolveResult(mesh=mesh, k=k, system=system, velocity=velocity)
    timed("error_norms", study.error_norms, result, case)
    with tempfile.TemporaryDirectory() as tmp:
        timed("vtk", vtk_export.export_vtk, result, str(Path(tmp) / "fields.vtk"))
    print(json.dumps({
        "cells": mesh.num_cells, "k": k, "ndof": system.matrix.shape[0],
        "points": sum(points),
        "seconds": seconds,
        "rss_mb": {"assemble": rss_assemble, "solve": rss_solve, "peak": high_water_mb()},
    }))


def _thousands(n: int) -> str:
    return f"{n / 1000:.1f}k" if n < 100_000 else f"{n / 1000:.0f}k"


def _ms(seconds: float) -> str:
    """Milliseconds to three significant digits, written without an exponent."""
    ms = float(f"{seconds * 1e3:.3g}")
    decimals = max(0, 2 - math.floor(math.log10(ms))) if ms > 0.0 else 0
    return f"{ms:.{decimals}f} ms"


def main() -> int:
    env = {var: value for var, value in os.environ.items() if not var.startswith("MALLOC_")}
    env.update(BLAS_ONE_THREAD)
    here = str(Path(__file__).resolve().parent)
    stages = ("mesh", "assemble", "build", "scatter", "solve", "recover", "error_norms",
              "vtk")
    marks = ("assemble", "solve", "peak")
    print("| cells | k | ndof | points | " + " | ".join(stages)
          + " | RSS after assemble | RSS after solve | peak RSS |")
    print("|" + "------|" * (len(stages) + 4 + len(marks)))
    for n, k in ROWS:
        runs = []
        for _ in range(RUNS):
            out = subprocess.run([sys.executable, "-c", CHILD, here, str(n), str(k)],
                                 env=env, check=True, capture_output=True, text=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        rec = runs[0]
        times = " | ".join(_ms(statistics.median(r["seconds"][s] for r in runs))
                           for s in stages)
        rss = " | ".join(f"{statistics.median(r['rss_mb'][m] for r in runs):.0f} MB"
                         for m in marks)
        print(f"| {rec['cells']} | {rec['k']} | {_thousands(rec['ndof'])} "
              f"| {_thousands(rec['points'])} | {times} | {rss} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
