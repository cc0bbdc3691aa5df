"""Workloads, timed passes and metrics of the polydarcy stage benchmark.

A pass runs the workload's pipeline once over its meshes: for each mesh,
``study.solve_case`` (assembly, pressure solve, and velocity recovery with
its three identity checks) and then ``study.error_norms``, plus a VTK export
on ``pipeline-k1``; ``study.compute_orders`` closes the pass.  One
operation is one ``solve_case`` together with the checks on its output.

An operation fails when it raises ``SolverError`` or ``RecoveryError``.  On
the finest mesh it also fails when the broken-L2 velocity error relative to
the exact velocity exceeds the workload's ceiling, or, on ``pipeline-k1``,
when the final-level velocity order misses k + 1 by more than the
acceptance-criterion band.  Failed operations are counted, never skipped.

Every call goes through the module attribute that polydarcy's own callers
use, so a traced pass (see ``spans``) sees the same calls as an untraced one.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np
import scipy

import polydarcy
from polydarcy import cases, linsolve, ncvem, polymesh, recovery, study, vtk_export

import spans

CASE = "bubble-sine"
DISTORTION = 0.2
SETUP_REPS = 3
POST_REPS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import polydarcy; "
                "print(time.perf_counter() - t)")


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    sizes: tuple          # n of each n-by-n distorted mesh, coarse to fine
    vtk: bool             # export the finest solution to a VTK file
    error_ceiling: float  # largest admissible error_u / ref_u, finest mesh
    eoc_band: float | None = None  # |final velocity EOC - (k+1)| limit


# Meshes are small enough that a pass takes a few seconds, so a run holds
# many passes.  Ceilings sit about a third above the largest value seen over
# 40 to 60 seeds, and well below the error one refinement level coarser;
# the final velocity order ranged over 1.98..2.06 on those seeds.
WORKLOADS = {
    w.name: w for w in (
        # The `polydarcy converge` workflow plus VTK export: per-cell Python
        # (mesh, element build, recovery, error, VTK) dominates, the
        # well-conditioned k = 1 solves are about a twentieth, and the
        # small levels show fixed per-call costs.
        Workload("pipeline-k1", 1, (6, 12, 24), True, 2.8e-3, 0.2),
        # The ill-conditioned k = 3 solve dominates: CG to the rounding
        # floor, then one refinement pass.
        Workload("solve-k3", 3, (12,), False, 2.8e-6),
    )
}

# Tiny meshes for the benchmark's own tests; same code paths, seconds to run.
SMOKE = {
    w.name: w for w in (
        Workload("pipeline-k1", 1, (2, 4, 8), True, 3.0e-2, 0.2),
        Workload("solve-k3", 3, (4,), False, 3.0e-4),
    )
}


def trace_targets():
    """(module, attribute, span name) for every traced call site."""
    return [
        (polymesh, "generate_distorted_polygonal", "polymesh.generate"),
        (study, "solve_case", "study.solve_case"),
        (ncvem, "assemble", "ncvem.assemble"),
        (ncvem, "build_element", "ncvem.build_element"),
        (ncvem, "solve_pressure", "ncvem.solve_pressure"),
        (linsolve, "solve", "linsolve.solve"),
        (linsolve, "_refine_floor", "linsolve.refine"),
        (linsolve, "_dense_solve", "linsolve.dense_fallback"),
        (recovery, "recover_velocity", "recovery.recover_velocity"),
        (study, "error_norms", "study.error_norms"),
        (ncvem, "polygon_quadrature", "polybasis.polygon_quadrature"),
        (study, "polygon_quadrature", "polybasis.polygon_quadrature"),
        (vtk_export, "export_vtk", "vtk_export.export_vtk"),
    ]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "polydarcy": polydarcy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: value for var, value in sorted(os.environ.items())
                         if var.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
        "seed": seed,
    }


def import_seconds(src: Path) -> float:
    """Wall time of `import polydarcy` in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         check=True, capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def make_meshes(workload: Workload, seed: int) -> list:
    return [polymesh.generate_distorted_polygonal(n, n, seed=seed + level,
                                                  distortion=DISTORTION)
            for level, n in enumerate(workload.sizes)]


def setup(workload: Workload, seed: int, src: Path, reps: int):
    """Import plus mesh generation, `reps` times; returns the last meshes."""
    seconds = []
    for _ in range(reps):
        t_import = import_seconds(src)
        t0 = time.perf_counter()
        meshes = make_meshes(workload, seed)
        seconds.append(t_import + time.perf_counter() - t0)
    return meshes, seconds


def run_pass(workload: Workload, meshes: list, case, scratch: Path,
             post_reps: int = 1) -> dict:
    """One timed pass over the workload's meshes, with correctness checks.

    Post-processing of each mesh is repeated `post_reps` times and its mean
    time counts: it is short, and the mean spreads it over more of a shared
    host's swings in speed.
    """
    solve_s = post_s = 0.0
    rows, ok, failures, residuals = [], [], [], []
    ndof = nnz = vtk_bytes = 0
    for mesh in meshes:
        t0 = time.perf_counter()
        try:
            result = study.solve_case(mesh, case, workload.k)
        except (linsolve.SolverError, recovery.RecoveryError) as exc:
            solve_s += time.perf_counter() - t0
            rows.append(None)
            ok.append(False)
            failures.append(f"{mesh.num_cells} cells: {type(exc).__name__}: {exc}")
            continue
        solve_s += time.perf_counter() - t0
        t1 = time.perf_counter()
        for _ in range(post_reps):
            row = study.error_norms(result, case)
            if workload.vtk:
                path = scratch / "fields.vtk"
                vtk_export.export_vtk(result, str(path))
        post_s += (time.perf_counter() - t1) / post_reps
        if workload.vtk:
            vtk_bytes += path.stat().st_size
        system = result.system
        residual = system.rhs - system.matrix.csr @ system.solution
        residuals.append(float(np.linalg.norm(residual) / np.linalg.norm(system.rhs)))
        ndof += system.matrix.shape[0]
        nnz += system.matrix.nnz
        rows.append(row)
        ok.append(True)
        del result, system  # free this level before the next one is built

    t0 = time.perf_counter()
    done = [row for row in rows if row is not None]
    study.compute_orders(done)
    post_s += time.perf_counter() - t0

    finest = rows[-1]
    error_u_rel = 1.0  # relative error of the zero field, if no solution
    eoc = None
    if finest is not None:
        error_u_rel = finest.error_u / finest.ref_u
        if error_u_rel > workload.error_ceiling:
            ok[-1] = False
            failures.append(f"error_u_rel {error_u_rel:.4e} above ceiling "
                            f"{workload.error_ceiling:.1e}")
    if workload.eoc_band is not None:
        eoc = finest.order_u if finest is not None and len(done) == len(rows) else None
        if not (isinstance(eoc, float)
                and abs(eoc - (workload.k + 1)) <= workload.eoc_band):
            ok[-1] = False
            failures.append(f"final velocity EOC {eoc} not within "
                            f"{workload.eoc_band} of {workload.k + 1}")
    return {
        "solve_case_s": solve_s,
        "postprocess_s": post_s,
        "error_u_rel": error_u_rel,
        "eoc_u": eoc,
        "rel_residual": max(residuals, default=1.0),
        "ndof": ndof,
        "nnz": nnz,
        "vtk_bytes": vtk_bytes,
        "attempted": len(ok),
        "failed": ok.count(False),
        "failures": failures,
        "warmup": False,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_s: list, passes: list) -> dict:
    """Medians over the timed passes; failures count over all of them."""
    setup_med = statistics.median(setup_s)
    timed = [p for p in passes if not p["warmup"]]
    solve = statistics.median(p["solve_case_s"] for p in timed)
    post = statistics.median(p["postprocess_s"] for p in timed)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    return {
        "setup_s": _metric(setup_med, "s"),
        "solve_case_s": _metric(solve, "s"),
        "postprocess_s": _metric(post, "s"),
        "total_s": _metric(setup_med + solve + post, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "error_u_rel": _metric(passes[-1]["error_u_rel"], "ratio"),
        "pass_fraction": _metric((attempted - failed) / attempted, "ratio"),
    }


def layer_metrics(tracer: spans.Tracer, meshes: list, untraced: dict,
                  traced: dict) -> dict:
    setup = tracer.summary(op=0)
    stats = tracer.summary(op=1)
    empty = spans.LayerStat()

    def get(name):
        return stats.get(name, empty)

    build_ms = np.array(get("ncvem.build_element").durations or [0.0]) * 1e3
    case_stat = get("study.solve_case")
    quad = get("polybasis.polygon_quadrature")
    return {
        "polymesh.generate_s": _metric(setup.get("polymesh.generate", empty).total_s, "s"),
        "polymesh.cells": _metric(sum(m.num_cells for m in meshes), "count"),
        "polymesh.edges": _metric(sum(m.num_edges for m in meshes), "count"),
        "ncvem.assemble_s": _metric(get("ncvem.assemble").total_s, "s"),
        "ncvem.assemble_self_s": _metric(get("ncvem.assemble").self_s, "s"),
        "ncvem.build_element_s": _metric(get("ncvem.build_element").total_s, "s"),
        "ncvem.build_element_p50_ms": _metric(float(np.percentile(build_ms, 50)), "ms"),
        "ncvem.build_element_p99_ms": _metric(float(np.percentile(build_ms, 99)), "ms"),
        "ncvem.ndof": _metric(traced["ndof"], "count"),
        "ncvem.nnz": _metric(traced["nnz"], "count"),
        "ncvem.solve_pressure_s": _metric(get("ncvem.solve_pressure").total_s, "s"),
        "ncvem.local_resolve_s": _metric(get("ncvem.solve_pressure").self_s, "s"),
        "linsolve.solve_s": _metric(get("linsolve.solve").total_s, "s"),
        "linsolve.refine_s": _metric(get("linsolve.refine").total_s, "s"),
        "linsolve.refine_calls": _metric(get("linsolve.refine").count, "count"),
        "linsolve.dense_fallback_calls": _metric(get("linsolve.dense_fallback").count, "count"),
        "linsolve.rel_residual": _metric(traced["rel_residual"], "ratio"),
        "recovery.recover_s": _metric(get("recovery.recover_velocity").total_s, "s"),
        "study.solve_case_s": _metric(case_stat.total_s, "s"),
        "study.solve_case_self_s": _metric(case_stat.self_s, "s"),
        "study.error_norms_s": _metric(get("study.error_norms").total_s, "s"),
        "study.error_norms_self_s": _metric(get("study.error_norms").self_s, "s"),
        "polybasis.quadrature_calls": _metric(quad.count, "count"),
        "polybasis.quadrature_s": _metric(quad.total_s, "s"),
        "vtk_export.export_s": _metric(get("vtk_export.export_vtk").total_s, "s"),
        "vtk_export.bytes": _metric(traced["vtk_bytes"], "bytes"),
        "trace.overhead_s": _metric(case_stat.total_s - untraced["solve_case_s"], "s"),
        "trace.coverage": _metric(1.0 - case_stat.self_s / case_stat.total_s, "ratio"),
        "trace.spans": _metric(len(tracer.spans), "count"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, src: Path,
        out_dir: Path, smoke: bool = False) -> tuple:
    """Run one workload; returns (result line object, full run record).

    Both kinds of run warm up on a 4x4 mesh first, so lazy one-time costs
    stay out of the timed passes.

    Untraced: set up SETUP_REPS times and report the median, then run
    passes while the next one is expected to end within `seconds` (at least
    one) and report the median pass.  Passes repeat identical,
    deterministic work of a few seconds each, so a run holds many of them
    and a slow spell of a shared host moves few.

    Traced: set up once, then run one untraced and one traced pass; the
    difference of their solve_case times is the tracing overhead.
    """
    workload = (SMOKE if smoke else WORKLOADS)[name]
    case = cases.get_case(CASE)
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer(trace_targets()) if trace else None
    passes = []
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        scratch = Path(tmp)
        tiny = polymesh.generate_distorted_polygonal(4, 4, seed=seed,
                                                     distortion=DISTORTION)
        passes.append(run_pass(replace(workload, sizes=(4,), eoc_band=None,
                                       error_ceiling=1.0), [tiny], case, scratch))
        passes[0]["warmup"] = True
        if trace:
            with tracer.recording(op=0):
                meshes, setup_s = setup(workload, seed, src, reps=1)
            passes.append(run_pass(workload, meshes, case, scratch))
            with tracer.recording(op=1):
                passes.append(run_pass(workload, meshes, case, scratch))
            metrics = layer_metrics(tracer, meshes, passes[1], passes[2])
        else:
            meshes, setup_s = setup(workload, seed, src, reps=SETUP_REPS)
            start = time.perf_counter()
            while True:
                gc.collect()  # leave no garbage of one pass to the next
                t0 = time.perf_counter()
                passes.append(run_pass(workload, meshes, case, scratch,
                                       post_reps=POST_REPS))
                now = time.perf_counter()
                if now - start + (now - t0) > seconds:
                    break
            metrics = end_to_end_metrics(setup_s, passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": asdict(workload),
        "smoke": smoke,
        "trace": trace,
        "env": environment(seed),
        "setup_s": setup_s,
        "passes": passes,
        "result": result,
    }
    if trace:
        record["spans"] = tracer.dump()
    path = out_dir / f"{name}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}.json"
    path.write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    return result, record
