"""Print one SHA-256 digest per output array of a fixed set of solves.

Each configuration is a distorted mesh (seed 2026, distortion 0.2), an
order k and a manufactured case: 12x12 cells at k = 0..3, 24x24 at k = 1,
16x16 at k = 4 and 6x6 at k = 2, each with ``bubble-sine`` and with
``polynomial_case(k)``.  For each one ``solve_case`` and ``error_norms``
run, and every array they leave prints as one line,
``<configuration> <name> <shape> <dtype> <sha256>``:

* the reduced system: CSR ``indptr``, ``indices`` and ``data``, ``rhs``
  and ``solution``;
* the full local pressure DOFs of every vertex-count group;
* the velocity DOFs (edge fluxes, gradient and complement moments) and the
  coefficients of every recovered field;
* the three structural gaps and the error row (errors and reference norms).

A solve that raises prints the error in place of its arrays.  Two checkouts
print the same lines exactly when they give bit-identical results; compare
them with ``diff``.  Takes about 2 s.

Usage: PYTHONPATH=src python tools/solve_digests.py   (takes no options)
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys

import numpy as np

from polydarcy import linsolve, polymesh, recovery, study
from polydarcy.cases import get_case, polynomial_case

SEED = 2026
DISTORTION = 0.2
# (cells per side, order k)
CONFIGS = [(12, 0), (12, 1), (12, 2), (12, 3), (24, 1), (16, 4), (6, 2)]


def output_arrays(result: study.SolveResult, row: study.ConvergenceRow):
    """(name, array) for every array a solve and its error row leave."""
    system, vel = result.system, result.velocity
    yield "csr.indptr", system.matrix.csr.indptr
    yield "csr.indices", system.matrix.csr.indices
    yield "csr.data", system.matrix.csr.data
    yield "rhs", system.rhs
    yield "solution", system.solution
    for i in range(len(system.groups)):
        yield f"group_pressure[{i}]", system.group_pressure(i)
    for name in ("edge_coeffs", "grad_moments", "gkperp_moments"):
        yield f"dofs.{name}", getattr(vel.dofs, name)
    for name in ("projected", "divergence", "rt", "pressure", "grad_pressure"):
        field = getattr(vel, name)
        if field is not None:
            yield f"{name}.coeffs", field.coeffs
    yield "gaps", np.array([vel.flux_gap, vel.div_gap, vel.conservation_gap])
    values = [getattr(row, f.name) for f in dataclasses.fields(row)
              if f.name.startswith(("error_", "ref_"))]
    yield "errors", np.array([np.nan if v is None else v for v in values])


def main() -> int:
    for n, k in CONFIGS:
        mesh = polymesh.generate_distorted_polygonal(n, n, seed=SEED,
                                                     distortion=DISTORTION)
        for case in (get_case("bubble-sine"), polynomial_case(k)):
            label = f"{n}x{n} k={k} {case.name}"
            try:
                result = study.solve_case(mesh, case, k)
                row = study.error_norms(result, case)
            except (linsolve.SolverError, recovery.RecoveryError) as exc:
                print(f"{label} error {exc}")
                continue
            for name, arr in output_arrays(result, row):
                arr = np.ascontiguousarray(arr)
                digest = hashlib.sha256(arr.tobytes()).hexdigest()
                shape = "x".join(map(str, arr.shape)) or "()"
                print(f"{label} {name} {shape} {arr.dtype} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
