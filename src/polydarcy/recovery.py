"""Local velocity recovery from the solved pressure.

Once the pressure is known, the flux of the conservative velocity through
each edge is read off the local residual of the pressure equation on an
incident cell: for the moment basis function of slot (f, alpha),

    int_f (u . n_P) m_alpha = (local load - local stiffness @ p_loc)[f, alpha].

Moments of u against gradients of cell monomials follow from the divergence
theorem together with div u = Pi0_k f, and the moments against the gradient
complement come from a precomputed operator applied to the local pressure.
Those three families determine the L2 projection of u onto cellwise (P_k)^2
and, at lowest order, a Raviart-Thomas-like field whose divergence is exactly
the cell-averaged source.

The driver recomputes every interior-edge flux from both incident cells and
refuses to hand back a velocity whose two copies disagree, whose divergence
is not the projected source, or that violates global conservation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve

from .ncvem import NcElement, SpdSystem, monomial_dofs
from .polybasis import ScaledMonomialBasis, n_monomials, vector_mass_matrix


# Relative tolerances of the structural checks, applied after the rounding
# envelope is subtracted (see recover_velocity).
_FLUX_TOL = 1e-9
_DIV_TOL = 1e-10
_CONSERVATION_TOL = 1e-9


class RecoveryError(RuntimeError):
    """A structural identity of the recovered velocity failed."""


@dataclass
class VelocityDofs:
    """Degrees of freedom of the recovered velocity.

    edge_coeffs[e] holds the polynomial coefficients of u . n_e on edge e in
    the scaled edge-monomial basis, with n_e the globally stored normal.
    grad_moments[c] holds the pi_k - 1 scaled moments (1/|P|) int_P u . grad m
    over the nonconstant scaled monomials of degree <= k on cell c, and
    gkperp_moments[c] the scaled moments against the orthonormal complement
    basis of the gradients inside (P_k)^2.
    """

    k: int
    edge_coeffs: np.ndarray
    grad_moments: list
    gkperp_moments: list


@dataclass
class PiecewisePolyField:
    """Cellwise polynomial vector field in scaled monomial coordinates.

    Optionally carries divergence coefficients.  For recovered velocities the
    divergence data describes the underlying conservative field, which for
    the L2 projection is the virtual velocity rather than the projection.
    """

    degree: int
    coeffs: np.ndarray          # (nc, 2 * pi_degree), x block then y block
    centers: np.ndarray
    diameters: np.ndarray
    div_degree: int = -1
    div_coeffs: np.ndarray | None = None

    def evaluate(self, c: int, points: np.ndarray) -> np.ndarray:
        basis = ScaledMonomialBasis(self.centers[c], self.diameters[c], self.degree)
        vals = basis.evaluate(points)
        m = len(basis)
        return np.column_stack([self.coeffs[c, :m] @ vals, self.coeffs[c, m:] @ vals])

    def evaluate_div(self, c: int, points: np.ndarray) -> np.ndarray:
        if self.div_coeffs is None:
            raise ValueError("field carries no divergence coefficients")
        basis = ScaledMonomialBasis(self.centers[c], self.diameters[c], self.div_degree)
        return self.div_coeffs[c, :len(basis)] @ basis.evaluate(points)


@dataclass
class ScalarPolyField:
    """Cellwise polynomial scalar field in scaled monomial coordinates."""

    degree: int
    coeffs: np.ndarray
    centers: np.ndarray
    diameters: np.ndarray

    def evaluate(self, c: int, points: np.ndarray) -> np.ndarray:
        basis = ScaledMonomialBasis(self.centers[c], self.diameters[c], self.degree)
        return self.coeffs[c] @ basis.evaluate(points)

    def evaluate_gradient(self, c: int, points: np.ndarray) -> np.ndarray:
        basis = ScaledMonomialBasis(self.centers[c], self.diameters[c], self.degree)
        grads = basis.evaluate_gradient(points)
        return np.einsum("i,ipd->pd", self.coeffs[c], grads)


def recover_edge_moments(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Edge-basis coefficients of u . n_P per edge of the cell, (n_e, k+1).

    The local residual paired with the canonical basis function of the moment
    slot (f, alpha) equals |f| times the alpha-th coefficient of u . n_P on f,
    because the slot's functional is the scaled moment against the very same
    edge monomial.  n_P is the outward normal of this cell; multiply by the
    edge sign to express the flux against the globally stored edge normal.
    """
    n_e, k = element.n_edges, element.k
    residual = element.load - element.stiffness @ p_loc
    return residual[:n_e * (k + 1)].reshape(n_e, k + 1) / element.edge_lengths[:, None]


def _scaled_grad_moments(element: NcElement, edge_coeffs: np.ndarray,
                         degree: int) -> np.ndarray:
    """(1/|P|) int_P u . grad m over nonconstant monomials up to `degree`.

    Divergence theorem with div u = Pi0_k f; exact because u . n is a known
    polynomial on each edge and Pi0_k f a known polynomial on the cell.
    """
    nk = n_monomials(element.k)
    nd = n_monomials(degree)
    boundary = np.einsum("eb,ebj->j", edge_coeffs, element.edge_cross[:, :, :nd])
    interior = element.f_coeffs @ element.mass[:nk, :nd]
    return (boundary - interior)[1:] / element.area


def recover_gradient_moments(element: NcElement, edge_coeffs: np.ndarray) -> np.ndarray:
    """Scaled moments of u against gradients of M_k minus constants.

    These pi_k - 1 values are the interior gradient-type degrees of freedom
    of the velocity; edge_coeffs are the per-edge u . n_P coefficients from
    recover_edge_moments.
    """
    return _scaled_grad_moments(element, edge_coeffs, element.k)


def recover_gkperp_moments(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Scaled moments of u against the orthonormal complement basis."""
    return element.gkperp_rec @ p_loc


def divergence(element: NcElement, edge_coeffs: np.ndarray,
               grad_moments: np.ndarray, f_scale: float = 0.0,
               tol: float = 1e-10, noise: float = 0.0) -> tuple:
    """Coefficients of div u on the cell, checked against Pi0_k f.

    int_P (div u) m_gamma = int_bdry (u . n) m_gamma - int_P u . grad m_gamma
    is evaluated from the recovered data and must reproduce the moments of
    Pi0_k f; a disagreement beyond `tol` (relative) plus `noise` (absolute)
    signals a recovery bug and raises RecoveryError.  The identity is tested
    moment by moment, in the metric of the integrals themselves: converting
    to coefficients first would multiply rounding-level noise by the inverse
    mass conditioning and report a gap that is an artifact of the basis, not
    of the recovery.  The comparison scale combines the boundary and
    interior term magnitudes with an optional caller-provided global f
    scale; `noise` carries the rounding envelope of the residual evaluation
    that produced the data (see recover_velocity).

    Returns (coefficients of div u, noise-deflated relative gap).
    """
    nk = n_monomials(element.k)
    cross = element.edge_cross[:, :, :nk]
    rhs = np.einsum("eb,ebj->j", edge_coeffs, cross)
    babs = np.einsum("eb,ebj->j", np.abs(edge_coeffs), np.abs(cross))
    rhs[1:] -= element.area * grad_moments[:nk - 1]
    moments = element.f_moments[:nk]
    scale = max(
        f_scale * element.area,
        float(babs.max(initial=0.0)),
        element.area * float(np.abs(grad_moments[:nk - 1]).max(initial=0.0)),
        float(np.abs(moments).max(initial=0.0)),
        1e-300,
    )
    gap = float(np.abs(rhs - moments).max())
    rel = max(0.0, gap - noise) / scale
    if rel > tol:
        raise RecoveryError(
            f"cell {element.cell}: recovered divergence misses the projected "
            f"source (relative gap {rel:.3e}, tolerance {tol:.1e})"
        )
    factor = cho_factor(element.mass[:nk, :nk])
    return cho_solve(factor, rhs), rel


def project_velocity(element: NcElement, edge_coeffs: np.ndarray,
                     gkperp_moments: np.ndarray) -> np.ndarray:
    """Coefficients of the L2 projection of u onto (P_k)^2 on one cell.

    The projection is pinned down by its moments against gradients of the
    nonconstant monomials up to degree k+1 (the k+1 layer computed by the
    same divergence-theorem formula as the stored DOFs, exactly) and against
    the complement basis; together these span (P_k)^2.
    """
    nk = n_monomials(element.k)
    nu = _scaled_grad_moments(element, edge_coeffs, element.k + 1)
    mvec = vector_mass_matrix(element.mass[:nk, :nk])
    rows = np.vstack([element.grad_coeff[:, 1:].T @ mvec,
                      element.gk_perp.coeffs.T @ mvec])
    rhs = element.area * np.concatenate([nu, gkperp_moments])
    return solve(rows, rhs)


def rt0_reconstruct(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Lowest-order Raviart-Thomas-like velocity on one cell.

    u_rt = -K_mean Pi0_0(grad p_h) + (f_mean / 2)(x - x_c) with x_c the cell
    centroid; its divergence is exactly the cell mean of f.  Returns the six
    coefficients of the field in the degree-1 scaled monomial basis.
    """
    if element.k != 0:
        raise ValueError("RT-like reconstruction is defined for order k = 0")
    gradp = element.grad_proj @ p_loc
    const = -element.k_mean @ gradp
    f_mean = element.f_moments[0] / element.area
    h = element.basis.diameter
    out = np.zeros(6)
    out[0] = const[0]
    out[1] = 0.5 * f_mean * h
    out[3] = const[1]
    out[5] = 0.5 * f_mean * h
    return out


@dataclass
class RecoveredVelocity:
    """Velocity DOFs plus derived fields and the structural check residuals."""

    dofs: VelocityDofs
    projected: PiecewisePolyField
    rt: PiecewisePolyField | None
    flux_gap: float
    div_gap: float
    conservation_gap: float


def _edge_integral(length: float, coeffs: np.ndarray) -> float:
    """int_f sum_b c_b m^f_b ds using the closed-form monomial moments."""
    total = 0.0
    for b in range(0, len(coeffs), 2):
        total += length * 0.5 ** b / (b + 1) * coeffs[b]
    return total


def recover_velocity(system: SpdSystem) -> RecoveredVelocity:
    """Recover the velocity on the whole mesh and verify its structure.

    Raises RecoveryError if interior-edge fluxes from the two incident cells
    disagree (relative to the largest flux coefficient), if any cellwise
    divergence misses the projected source, or if the total boundary outflow
    does not balance the integrated source.

    The left and right recoveries of an interior-edge flux differ by exactly
    (global residual row) / |f|, and the global conservation mismatch is a
    weighting of the same residual vector.  The checks therefore hold the
    pressure to the certified solve (see `linsolve.solve`), whose residual
    sits at the rounding floor; a vector off that solve fails them.
    Ownership, not averaging, defines the returned flux.

    Only the rounding envelope of the data itself is subtracted before the
    tolerances apply.  Recovered quantities come from the residual
    load - K_loc @ p_loc, and a high-order stiffness on a distorted cell is
    large enough (entries ~1e8 at k = 3) that merely storing it in doubles
    leaves eps * |K| * |p| level noise in every slot.  No floating-point
    implementation can verify the identities beyond this envelope, and it
    sits many orders below any genuine defect.  Reported gaps are deflated
    accordingly.
    """
    mesh = system.mesh
    k = system.k
    ne = mesh.num_edges
    nc = mesh.num_cells
    nk = n_monomials(k)
    eps4 = 4.0 * float(np.finfo(float).eps)
    edge_coeffs = np.zeros((ne, k + 1))
    edge_noise = np.zeros(ne)
    seen = np.zeros(ne, dtype=bool)
    flux_gap_abs = 0.0
    grad_moments = []
    gkperp_moments = []
    div_all = np.zeros((nc, nk))
    f_all = np.zeros((nc, nk))
    proj = np.zeros((nc, 2 * nk))
    rt = np.zeros((nc, 6)) if k == 0 else None
    centers = np.zeros((nc, 2))
    diameters = np.zeros(nc)
    boundary_flux = 0.0
    boundary_flux_abs = 0.0
    total_source = 0.0
    cons_noise = 0.0
    div_gap = 0.0
    f_scale = max(
        (float(np.abs(el.f_coeffs).max(initial=0.0)) for el in system.elements),
        default=0.0,
    )
    if system.solution is None:
        raise RuntimeError("system not solved yet")

    for c in range(nc):
        element = system.elements[c]
        p_loc = system.local_pressure(c)
        local = recover_edge_moments(element, p_loc)
        noise_slots = eps4 * (np.abs(element.stiffness) @ np.abs(p_loc)
                              + np.abs(element.load))
        d1 = monomial_dofs(element)[:, 0]
        cell_noise = float(np.abs(d1) @ noise_slots)
        for pos, e in enumerate(element.edge_ids):
            stored = element.edge_signs[pos] * local[pos]
            sl = slice(pos * (k + 1), (pos + 1) * (k + 1))
            slot_noise = float(noise_slots[sl].max()) / element.edge_lengths[pos]
            if seen[e]:
                gap_e = float(np.abs(stored - edge_coeffs[e]).max())
                flux_gap_abs = max(flux_gap_abs,
                                   gap_e - slot_noise - edge_noise[e])
            else:
                edge_coeffs[e] = stored
                edge_noise[e] = slot_noise
                seen[e] = True
            if mesh.edge_right[e] < 0:
                part = _edge_integral(element.edge_lengths[pos], stored)
                boundary_flux += part
                boundary_flux_abs += abs(part)
        nu = recover_gradient_moments(element, local)
        kappa = recover_gkperp_moments(element, p_loc)
        grad_moments.append(nu)
        gkperp_moments.append(kappa)
        div_all[c], cell_gap = divergence(element, local, nu, f_scale=f_scale,
                                          tol=_DIV_TOL, noise=cell_noise)
        div_gap = max(div_gap, cell_gap)
        f_all[c] = element.f_coeffs
        proj[c] = project_velocity(element, local, kappa)
        if rt is not None:
            rt[c] = rt0_reconstruct(element, p_loc)
        centers[c] = element.basis.center
        diameters[c] = element.basis.diameter
        total_source += element.f_moments[0]
        cons_noise += cell_noise

    flux_scale = max(float(np.abs(edge_coeffs).max()), 1e-300)
    flux_gap = max(0.0, flux_gap_abs) / flux_scale
    if flux_gap > _FLUX_TOL:
        raise RecoveryError(
            f"interior edge fluxes disagree between incident cells: relative "
            f"gap {flux_gap:.3e} exceeds {_FLUX_TOL:.1e}"
        )
    cons_scale = max(abs(total_source), boundary_flux_abs, 1e-300)
    cons_mismatch = boundary_flux - total_source
    conservation_gap = max(0.0, abs(cons_mismatch) - cons_noise) / cons_scale
    if conservation_gap > _CONSERVATION_TOL:
        raise RecoveryError(
            f"global conservation violated: boundary outflow {boundary_flux:.12e} "
            f"vs integrated source {total_source:.12e}"
        )

    dofs = VelocityDofs(k=k, edge_coeffs=edge_coeffs,
                        grad_moments=grad_moments, gkperp_moments=gkperp_moments)
    projected = PiecewisePolyField(
        degree=k, coeffs=proj, centers=centers, diameters=diameters,
        div_degree=k, div_coeffs=div_all,
    )
    rt_field = None
    if rt is not None:
        rt_field = PiecewisePolyField(
            degree=1, coeffs=rt, centers=centers, diameters=diameters,
            div_degree=0, div_coeffs=f_all[:, :1].copy(),
        )
    return RecoveredVelocity(
        dofs=dofs, projected=projected, rt=rt_field,
        flux_gap=flux_gap, div_gap=div_gap, conservation_gap=conservation_gap,
    )
