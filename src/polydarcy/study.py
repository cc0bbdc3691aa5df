"""Convergence studies: solve, recover, measure errors, tabulate rates.

A study takes its meshes from the caller, as any iterable of `PolyMesh`
(`polymesh.distorted_family` gives the distorted family), and draws each
one only after the previous level has solved.

Error norms are broken (cellwise) L2 norms against the exact solution of a
manufactured case, integrated at exactness 2(k+3).  Rate tables assume each
level halves the mesh width, so the estimated order of convergence is the
log2 of the error ratio between consecutive levels; rows whose errors sit at
machine precision relative to the exact solution report "exact" instead of a
meaningless ratio.  At the lowest order (k = 0) each row also carries the
error of the Raviart-Thomas-type velocity, from the same solve.

`solve_case` walks no cells itself: `recovery.recover_velocity` fills every
cellwise field in its one pass, and `error_norms` integrates a vertex-count
group of cells at a time, on the ears that `polymesh.build_topology` cut
for the mesh's `CellGroup`, which each element record holds.
The coefficient blocks of all discrete fields are stacked as rows of one
(cells, F, pi_{k+1}) table, the lower-degree ones zero-padded (graded-lex
order nests), so one batched product with the group's degree-(k+1)
monomial table evaluates every field.  The exact
fields go into the same (G, F, nq) layout, and one weighted contraction per
group gives every reference integral, another every squared error.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import linsolve, ncvem, polymesh, recovery
from .cases import ManufacturedCase
from .polybasis import n_monomials, polygon_quadrature
from .recovery import PiecewisePolyField, RecoveredVelocity

EXACT_MARK = "exact"
_EXACT_REL = 1e-11


@dataclass
class SolveResult:
    """One mesh-level solve with recovered velocity and projected fields."""

    mesh: polymesh.PolyMesh
    k: int
    system: ncvem.SpdSystem
    velocity: RecoveredVelocity

    @property
    def pressure(self) -> PiecewisePolyField:
        return self.velocity.pressure

    @property
    def grad_pressure(self) -> PiecewisePolyField:
        return self.velocity.grad_pressure


@dataclass
class ConvergenceRow:
    """Errors at one refinement level, with orders against the previous row.

    `error_rt` is the error of the Raviart-Thomas-type velocity, which only
    the lowest order (k = 0) recovers; it is None otherwise.
    """

    n_elements: int
    error_u: float
    error_p: float
    error_grad_p: float
    error_div: float
    error_rt: float | None = None
    order_u: object = None
    order_p: object = None
    order_grad_p: object = None
    order_div: object = None
    order_rt: object = None
    ref_u: float = 0.0
    ref_p: float = 0.0
    ref_grad_p: float = 0.0
    ref_div: float = 0.0


# Output columns: (CSV header, table header, row field).  Each error column
# is followed by its order column, "order..." in CSV and "ord" in the table.
CONVERGENCE_COLUMNS = (
    ("errorU", "errorU", "error_u"),
    ("errorP", "errorP", "error_p"),
    ("errorGradP", "errGradP", "error_grad_p"),
    ("errorDiv", "errorDiv", "error_div"),
)
RT_COLUMNS = (
    ("errorProjU", "errProjU", "error_u"),
    ("errorRtU", "errRtU", "error_rt"),
)


def solve_case(mesh: polymesh.PolyMesh, case: ManufacturedCase,
               k: int) -> SolveResult:
    """Assemble, solve and recover one manufactured case on one mesh."""
    system = ncvem.assemble(mesh, case.permeability, case.forcing, k,
                            boundary=case.pressure)
    ncvem.solve_pressure(system)
    velocity = recovery.recover_velocity(system)
    return SolveResult(mesh=mesh, k=k, system=system, velocity=velocity)


# Rows of the stacked field table and the norm each adds to: velocity (x, y),
# pressure, pressure gradient (x, y), divergence, then at k = 0 the RT field
# (x, y), whose exact counterpart is the velocity again.
_NORM_OF_ROW = np.array([0, 0, 1, 2, 2, 3, 4, 4])
_EXACT_ROWS = 6


def error_norms(result: SolveResult, case: ManufacturedCase) -> ConvergenceRow:
    """Broken L2 errors of velocity, pressure, gradient and divergence.

    Each group's rule is mapped onto the ears of the mesh's `CellGroup`,
    which the element record holds (`NcElement.group`), so no cell is
    triangulated again.  At k = 0 the error of the Raviart-Thomas-type
    velocity is integrated on the same quadrature as well.
    """
    mesh = result.mesh
    k = result.k
    vel = result.velocity
    fields = [vel.projected, vel.pressure, vel.grad_pressure, vel.divergence]
    if vel.rt is not None:
        fields.append(vel.rt)
    coeffs = _stacked_coeffs(fields, k + 1)
    n_rows = coeffs.shape[1]
    err = np.zeros(n_rows)
    ref = np.zeros(_EXACT_ROWS)
    for element in result.system.groups:
        group = element.group
        quad = polygon_quadrature(mesh.vertices[group.loops], 2 * (k + 3), group.ears)
        w = quad.weights                          # (G, nq)
        diff = _exact_table(case, quad.points, n_rows)
        ref += np.einsum("gq,gfq,gfq->f", w, diff[:, :_EXACT_ROWS],
                         diff[:, :_EXACT_ROWS])
        # the pressure's monomials have degree k+1, the highest of any field
        diff -= coeffs[group.cells] @ vel.pressure.monomials(group.cells, quad.points)
        err += np.einsum("gq,gfq,gfq->f", w, diff, diff)
    rows = _NORM_OF_ROW[:n_rows]
    err = np.sqrt(np.maximum(np.bincount(rows, weights=err), 0.0))
    ref = np.sqrt(np.maximum(np.bincount(rows[:_EXACT_ROWS], weights=ref), 0.0))
    return ConvergenceRow(
        n_elements=mesh.num_cells,
        error_u=err[0], error_p=err[1], error_grad_p=err[2], error_div=err[3],
        error_rt=None if vel.rt is None else err[4],
        ref_u=ref[0], ref_p=ref[1], ref_grad_p=ref[2], ref_div=ref[3],
    )


def _stacked_coeffs(fields: list, degree: int) -> np.ndarray:
    """Coefficients of every component of `fields`, (nc, F, pi_degree).

    One row per scalar component, in field order; a field of lower degree
    fills the leading columns of its rows, which graded-lex order makes its
    coefficients against a degree-`degree` monomial table.
    """
    nc = len(fields[0].coeffs)
    blocks = [f.coeffs.reshape(nc, -1, n_monomials(f.degree)) for f in fields]
    out = np.zeros((nc, sum(b.shape[1] for b in blocks), n_monomials(degree)))
    row = 0
    for block in blocks:
        out[:, row:row + block.shape[1], :block.shape[2]] = block
        row += block.shape[1]
    return out


def _exact_table(case: ManufacturedCase, points: np.ndarray, n_rows: int) -> np.ndarray:
    """Exact fields at points (G, nq, 2) in the rows of the field table, (G, n_rows, nq).

    The velocity is formed as -K grad p from the one evaluation of the
    exact gradient, as the cases define it.
    """
    g, nq = points.shape[:2]
    pts = points.reshape(-1, 2)
    grad = case.grad_pressure(pts)
    out = np.empty((g, n_rows, nq))
    kvals = ncvem.tensor_field(case.permeability)(pts)
    out[:, 0:2] = -np.einsum("nij,nj->ni", kvals, grad).reshape(g, nq, 2).mT
    out[:, 2] = case.pressure(pts).reshape(g, nq)
    out[:, 3:5] = grad.reshape(g, nq, 2).mT
    out[:, 5] = case.forcing(pts).reshape(g, nq)
    if n_rows > _EXACT_ROWS:
        out[:, _EXACT_ROWS:] = out[:, 0:2]
    return out


def _order(e_prev: float, e_cur: float, ref: float):
    """log2(e_prev / e_cur), or `EXACT_MARK` when both errors sit at the floor.

    The floor is `_EXACT_REL` times the exact solution's norm `ref`.  One
    error at the floor still gives a rate: a zero error gives +inf or -inf.
    """
    floor = _EXACT_REL * max(ref, 1e-300)
    if e_prev <= floor and e_cur <= floor:
        return EXACT_MARK
    ratio = e_prev / e_cur if e_cur > 0.0 else math.inf
    return math.log2(ratio) if ratio > 0.0 else -math.inf


def compute_orders(rows: list) -> None:
    """Fill order fields from row 2 onward (one halving per level)."""
    for prev, cur in zip(rows, rows[1:]):
        cur.order_u = _order(prev.error_u, cur.error_u, cur.ref_u)
        cur.order_p = _order(prev.error_p, cur.error_p, cur.ref_p)
        cur.order_grad_p = _order(prev.error_grad_p, cur.error_grad_p, cur.ref_grad_p)
        cur.order_div = _order(prev.error_div, cur.error_div, cur.ref_div)
        if prev.error_rt is not None and cur.error_rt is not None:
            cur.order_rt = _order(prev.error_rt, cur.error_rt, cur.ref_u)


def convergence_study(case: ManufacturedCase, k: int, meshes) -> list:
    """Solve `case` at order k on each mesh of `meshes` in turn; tabulate errors.

    The orders assume that each mesh halves the width of the one before
    (`compute_orders`).  A solver failure ends the study: the partial table
    is returned, and no further mesh is drawn from `meshes`.
    """
    rows = []
    for mesh in meshes:
        try:
            result = solve_case(mesh, case, k)
        except linsolve.SolverError:
            break
        rows.append(error_norms(result, case))
    compute_orders(rows)
    return rows


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.5e}"


def _order_field(field: str) -> str:
    return field.replace("error_", "order_", 1)


def write_convergence_csv(rows: list, path: str,
                          columns=CONVERGENCE_COLUMNS) -> None:
    """CSV of `rows`: cell count, then each column's error and order."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = ["nElements"]
        for name, _, _ in columns:
            header += [name, name.replace("error", "order", 1)]
        writer.writerow(header)
        for r in rows:
            line = [_fmt(r.n_elements)]
            for _, _, field in columns:
                line += [_fmt(getattr(r, field)),
                         _fmt(getattr(r, _order_field(field)))]
            writer.writerow(line)


def format_table(rows: list, columns=CONVERGENCE_COLUMNS) -> str:
    """Human-readable rate table for terminal output."""
    if not rows:
        return "(no completed levels)"
    header = f"{'cells':>8}" + "".join(
        f" {label:>12} {'ord':>7}" for _, label, _ in columns)
    lines = [header]
    for r in rows:
        lines.append(f"{r.n_elements:>8d}" + "".join(
            f" {_fmt(getattr(r, field)):>12} "
            f"{_ord_str(getattr(r, _order_field(field))):>7}"
            for _, _, field in columns))
    return "\n".join(lines)


def _ord_str(order) -> str:
    if order is None:
        return "-"
    if isinstance(order, str):
        return order
    return f"{order:.3f}"
