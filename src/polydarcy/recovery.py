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

`recover_velocity` is the one walk over the solved cells, taken a
vertex-count group at a time: it gathers each group's local pressures once
and fills every cellwise field of the post-processing (velocity DOFs,
projected velocity, its divergence, the RT field, the projected pressure and
its gradient) as a `PiecewisePolyField`.  The helpers below take a group's
stacked element record and broadcast over its leading cell axis.
Every interior-edge flux is recovered from both incident cells; the left
cell's copy is kept, and a velocity whose two copies disagree, whose
divergence is not the projected source, or that violates global
conservation is refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ncvem import NcElement, SpdSystem, monomial_dofs
from .polybasis import (ScaledMonomialBasis, factor_solve, gk_perp_dimension,
                         gradient_gram, inverse_cholesky, n_monomials)


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
    edge_coeffs: np.ndarray     # (ne, k+1)
    grad_moments: np.ndarray    # (nc, pi_k - 1)
    gkperp_moments: np.ndarray  # (nc, dim of the complement)


@dataclass
class PiecewisePolyField:
    """Cellwise polynomial field, scalar or vector, in scaled monomial coordinates.

    coeffs[c] holds one block of pi_degree coefficients per component, the
    x block first for a vector field.  All fields of one solve share the
    centers and diameters of the cells' scaled monomial bases.
    """

    degree: int
    coeffs: np.ndarray          # (nc, n_components * pi_degree)
    centers: np.ndarray
    diameters: np.ndarray

    def monomials(self, c, points: np.ndarray) -> np.ndarray:
        """Scaled monomials of degree <= `degree` on cell c at points, (pi, n).

        An array of cells (G,) with points (G, n, 2) gives (G, pi, n).
        """
        basis = ScaledMonomialBasis(self.centers[c], self.diameters[c], self.degree)
        return basis.evaluate(points)

    def values(self, c, monomials: np.ndarray) -> np.ndarray:
        """Field on cell c from a monomial table of degree >= `degree`.

        Graded-lex order nests, so the first pi_degree rows of a higher-degree
        table of the same cell are this field's basis.  Returns (n,) for a
        scalar field and (n, 2) for a vector field, with a leading (G,) axis
        for an array of cells.
        """
        m = n_monomials(self.degree)
        coeffs = self.coeffs[c]
        comps = [(coeffs[..., None, i:i + m] @ monomials[..., :m, :])[..., 0, :]
                 for i in range(0, self.coeffs.shape[1], m)]
        return comps[0] if len(comps) == 1 else np.stack(comps, axis=-1)

    def evaluate(self, c, points: np.ndarray) -> np.ndarray:
        """Field on cell c at points (n, 2); shaped as in `values`."""
        return self.values(c, self.monomials(c, points))

    def centroid_values(self) -> np.ndarray:
        """Values at every cell centroid, (nc, n_components).

        The centroid is the basis center, where every nonconstant scaled
        monomial vanishes, so each value is coefficient 0 of its block.
        """
        return self.coeffs[:, ::n_monomials(self.degree)]


def recover_edge_moments(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Edge-basis coefficients of u . n_P per edge of the cell, (n_e, k+1).

    The local residual paired with the canonical basis function of the moment
    slot (f, alpha) equals |f| times the alpha-th coefficient of u . n_P on f,
    because the slot's functional is the scaled moment against the very same
    edge monomial.  n_P is the outward normal of this cell; multiply by the
    edge sign to express the flux against the globally stored edge normal.
    """
    n_e, k = element.n_edges, element.k
    residual = element.load - np.einsum("...ij,...j->...i", element.stiffness, p_loc)
    edge_part = residual[..., :n_e * (k + 1)].reshape(residual.shape[:-1] + (n_e, k + 1))
    return edge_part / element.edge_lengths[..., None]


def _scaled_grad_moments(element: NcElement, edge_coeffs: np.ndarray,
                         degree: int) -> np.ndarray:
    """(1/|P|) int_P u . grad m over nonconstant monomials up to `degree`.

    Divergence theorem with div u = Pi0_k f; exact because u . n is a known
    polynomial on each edge and Pi0_k f a known polynomial on the cell.
    """
    nk = n_monomials(element.k)
    nd = n_monomials(degree)
    boundary = np.einsum("...eb,...ebj->...j", edge_coeffs, element.edge_cross[..., :nd])
    interior = np.einsum("...i,...ij->...j", element.f_coeffs, element.mass[..., :nk, :nd])
    return (boundary - interior)[..., 1:] / element.area[..., None]


def recover_gradient_moments(element: NcElement, edge_coeffs: np.ndarray) -> np.ndarray:
    """Scaled moments of u against gradients of M_k minus constants.

    These pi_k - 1 values are the interior gradient-type degrees of freedom
    of the velocity; edge_coeffs are the per-edge u . n_P coefficients from
    recover_edge_moments.
    """
    return _scaled_grad_moments(element, edge_coeffs, element.k)


def recover_gkperp_moments(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Scaled moments of u against the orthonormal complement basis."""
    return np.einsum("...ij,...j->...i", element.gkperp_rec, p_loc)


def divergence(element: NcElement, edge_coeffs: np.ndarray,
               grad_moments: np.ndarray, f_scale: float = 0.0,
               noise: float = 0.0) -> tuple:
    """Coefficients of div u on the cell, checked against Pi0_k f.

    int_P (div u) m_gamma = int_bdry (u . n) m_gamma - int_P u . grad m_gamma
    is evaluated from the recovered data and must reproduce the moments of
    Pi0_k f; a disagreement beyond `_DIV_TOL` (relative) plus `noise` (absolute)
    signals a recovery bug and raises RecoveryError.  The identity is tested
    moment by moment, in the metric of the integrals themselves: converting
    to coefficients first would multiply rounding-level noise by the inverse
    mass conditioning and report a gap that is an artifact of the basis, not
    of the recovery.  The comparison scale combines the boundary and
    interior term magnitudes with an optional caller-provided global f
    scale; `noise` carries the rounding envelope of the residual evaluation
    that produced the data (see recover_velocity).  The moments become
    coefficients through the Cholesky factor of the degree-k Gram, factored
    here from the stored `mass` (`polybasis.inverse_cholesky`).

    What the check can detect: only the gamma = 0 moment tests the
    recovery, as local conservation (the edge fluxes sum to int_P f).  For
    gamma >= 1 the grad_moments come from `recover_gradient_moments`, whose
    interior term is (M f_coeffs), so rhs reduces to (M f_coeffs)[gamma] by
    construction and the gap there is the Gram residual of f_coeffs
    against f_moments, whatever the fluxes.

    Returns (coefficients of div u, noise-deflated relative gap), with a
    leading cell axis on both for a group.
    """
    nk = n_monomials(element.k)
    area = element.area
    cross = element.edge_cross[..., :nk]
    rhs = np.einsum("...eb,...ebj->...j", edge_coeffs, cross)
    babs = np.einsum("...eb,...ebj->...j", np.abs(edge_coeffs), np.abs(cross))
    rhs[..., 1:] -= area[..., None] * grad_moments[..., :nk - 1]
    moments = element.f_moments[..., :nk]
    scale = np.maximum.reduce([
        f_scale * area,
        babs.max(axis=-1, initial=0.0),
        area * np.abs(grad_moments[..., :nk - 1]).max(axis=-1, initial=0.0),
        np.abs(moments).max(axis=-1, initial=0.0),
        np.full_like(area, 1e-300),
    ])
    gap = np.abs(rhs - moments).max(axis=-1)
    rel = np.maximum(0.0, gap - noise) / scale
    if np.any(rel > _DIV_TOL):
        worst = np.argmax(rel)
        raise RecoveryError(
            f"cell {np.ravel(element.cell)[worst]}: recovered divergence misses "
            f"the projected source (relative gap {np.ravel(rel)[worst]:.3e}, "
            f"tolerance {_DIV_TOL:.1e})"
        )
    inv_mass_k = inverse_cholesky(element.mass[..., :nk, :nk], element.cell,
                                  "monomial Gram")
    coeffs = factor_solve(inv_mass_k, rhs[..., None])[..., 0]
    return coeffs, rel


def project_velocity(element: NcElement, edge_coeffs: np.ndarray,
                     gkperp_moments: np.ndarray) -> np.ndarray:
    """Coefficients of the L2 projection of u onto (P_k)^2 on each cell.

    The projection is pinned down by its moments against gradients of the
    nonconstant monomials up to degree k+1 (the k+1 layer computed by the
    same divergence-theorem formula as the stored DOFs, exactly), the
    scaled moments nu, and against the complement basis C, the scaled
    moments m; together these span (P_k)^2.  Because Z^T E' = 0 and C is
    L2(P)-orthonormal, the two families decouple and the projection is

        x = E' H'^{-1} (|P| nu) + C (|P| m),

    with E' the gradient table of the nonconstant monomials and
    H' = E'^T M_vec E' their gradient Gram (`polybasis.gradient_gram`),
    formed from the stored `mass` and applied through its Cholesky factor.
    """
    nu = _scaled_grad_moments(element, edge_coeffs, element.k + 1)
    nk = n_monomials(element.k)
    emat = element.grad_coeff
    inv_h = inverse_cholesky(gradient_gram(element.mass[..., :nk, :nk], emat),
                             element.cell, "gradient Gram")
    area = element.area[..., None]
    grad_part = emat[..., 1:] @ factor_solve(inv_h, (area * nu)[..., None])
    gkperp_part = element.gk_perp.coeffs @ (area * gkperp_moments)[..., None]
    return (grad_part + gkperp_part)[..., 0]


def rt0_reconstruct(element: NcElement, p_loc: np.ndarray) -> np.ndarray:
    """Lowest-order Raviart-Thomas-like velocity on each cell.

    u_rt = -K_mean Pi0_0(grad p_h) + (f_mean / 2)(x - x_c) with x_c the cell
    centroid; its divergence is exactly the cell mean of f.  Returns the six
    coefficients of the field in the degree-1 scaled monomial basis.
    """
    if element.k != 0:
        raise ValueError("RT-like reconstruction is defined for order k = 0")
    gradp = np.einsum("...ij,...j->...i", element.grad_proj, p_loc)
    const = -np.einsum("...ij,...j->...i", element.k_mean, gradp)
    f_mean = element.f_moments[..., 0] / element.area
    h = element.basis.diameter
    out = np.zeros(np.shape(h) + (6,))
    out[..., 0] = const[..., 0]
    out[..., 1] = 0.5 * f_mean * h
    out[..., 3] = const[..., 1]
    out[..., 5] = 0.5 * f_mean * h
    return out


@dataclass
class RecoveredVelocity:
    """Velocity DOFs, every cellwise field of one solve, and the check gaps.

    `divergence` (degree k) is div u of the recovered conservative velocity,
    not of its projection `projected`; `rt` is the Raviart-Thomas-like
    field, present at k = 0 only.  `pressure` is
    the L2 projection of the pressure onto P_{k+1} and `grad_pressure` that
    of its gradient onto (P_k)^2.
    """

    dofs: VelocityDofs
    projected: PiecewisePolyField
    divergence: PiecewisePolyField
    rt: PiecewisePolyField | None
    pressure: PiecewisePolyField
    grad_pressure: PiecewisePolyField
    flux_gap: float
    div_gap: float
    conservation_gap: float


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
    Ownership, not averaging, defines the returned flux: each edge takes the
    copy of `mesh.edge_left`, its incident cell of lowest index.

    Only the rounding envelope of the data itself is subtracted before the
    tolerances apply.  Recovered quantities come from the residual
    load - K_loc @ p_loc, and a high-order stiffness on a distorted cell is
    large enough (entries ~1e8 at k = 3) that merely storing it in doubles
    leaves eps * |K| * |p| level noise in every slot.  No floating-point
    implementation can verify the identities beyond this envelope, and it
    sits many orders below any genuine defect.  Reported gaps are deflated
    accordingly.  An unsolved system raises RuntimeError.
    """
    mesh = system.mesh
    k = system.k
    nc = mesh.num_cells
    nk = n_monomials(k)
    eps4 = 4.0 * float(np.finfo(float).eps)
    f_scale = max((float(np.abs(g.f_coeffs).max(initial=0.0)) for g in system.groups),
                  default=0.0)
    # Per cell-edge slot (groups in turn, then cells, then edges in loop
    # order): u . n_P and the rounding envelope of the slot's k+1 residual
    # entries.
    slot_edge, slot_cell, slot_flux, slot_noise = [], [], [], []
    cell_noise = np.zeros(nc)
    div_gaps = np.zeros(nc)
    grad_moments = np.zeros((nc, nk - 1))
    gkperp_moments = np.zeros((nc, gk_perp_dimension(k)))
    div = np.zeros((nc, nk))
    proj = np.zeros((nc, 2 * nk))
    rt = np.zeros((nc, 6)) if k == 0 else None
    pressure = np.zeros((nc, n_monomials(k + 1)))
    grad_pressure = np.zeros((nc, 2 * nk))
    centers = np.zeros((nc, 2))
    diameters = np.zeros(nc)

    for i, group in enumerate(system.groups):
        cells = group.cell
        p_loc = system.group_pressure(i)
        local = recover_edge_moments(group, p_loc)
        noise_slots = eps4 * (np.einsum("gij,gj->gi", np.abs(group.stiffness), np.abs(p_loc))
                              + np.abs(group.load))
        cell_noise[cells] = np.einsum("gi,gi->g", np.abs(monomial_dofs(group)[..., 0]),
                                      noise_slots)
        slot_edge.append(group.edge_ids.ravel())
        slot_cell.append(np.repeat(cells, group.n_edges))
        slot_flux.append((group.edge_signs[..., None] * local).reshape(-1, k + 1))
        slot_noise.append(noise_slots[:, :local[0].size].reshape(-1, k + 1))
        grad_moments[cells] = recover_gradient_moments(group, local)
        gkperp_moments[cells] = recover_gkperp_moments(group, p_loc)
        div[cells], div_gaps[cells] = divergence(group, local, grad_moments[cells],
                                                 f_scale=f_scale, noise=cell_noise[cells])
        proj[cells] = project_velocity(group, local, gkperp_moments[cells])
        if rt is not None:
            rt[cells] = rt0_reconstruct(group, p_loc)
        pressure[cells] = np.einsum("gij,gj->gi", group.p0, p_loc)
        grad_pressure[cells] = np.einsum("gij,gj->gi", group.grad_proj, p_loc)
        centers[cells] = group.basis.center
        diameters[cells] = group.basis.diameter

    # Ownership: the slot of edge_left keeps its copy; every other slot is
    # the right cell's copy of an interior edge and is checked against it.
    slot_edge = np.concatenate(slot_edge)
    slot_cell = np.concatenate(slot_cell)
    flux = np.concatenate(slot_flux)
    noise = np.concatenate(slot_noise).max(axis=1) / mesh.edge_lengths[slot_edge]
    owned = slot_cell == mesh.edge_left[slot_edge]
    edge_coeffs = np.zeros((mesh.num_edges, k + 1))
    edge_noise = np.zeros(mesh.num_edges)
    edge_coeffs[slot_edge[owned]] = flux[owned]
    edge_noise[slot_edge[owned]] = noise[owned]
    right = slot_edge[~owned]
    gaps = (np.abs(flux[~owned] - edge_coeffs[right]).max(axis=1)
            - noise[~owned] - edge_noise[right])
    flux_scale = max(float(np.abs(edge_coeffs).max()), 1e-300)
    flux_gap = max(0.0, float(gaps.max(initial=0.0))) / flux_scale
    if flux_gap > _FLUX_TOL:
        raise RecoveryError(
            f"interior edge fluxes disagree between incident cells: relative "
            f"gap {flux_gap:.3e} exceeds {_FLUX_TOL:.1e}"
        )

    # Boundary outflow: the stored normal of a boundary edge points out of
    # its only cell, and int_f s^b ds = |f| 0.5^b / (b+1) for even b, 0 odd.
    b = np.arange(k + 1)
    weights = np.where(b % 2 == 0, 0.5 ** b / (b + 1), 0.0)
    bnd = mesh.boundary_mask
    parts = mesh.edge_lengths[bnd] * (edge_coeffs[bnd] @ weights)
    boundary_flux = float(parts.sum())
    total_source = sum(float(g.f_moments[:, 0].sum()) for g in system.groups)
    cons_scale = max(abs(total_source), float(np.abs(parts).sum()), 1e-300)
    cons_mismatch = boundary_flux - total_source
    conservation_gap = max(0.0, abs(cons_mismatch) - float(cell_noise.sum())) / cons_scale
    if conservation_gap > _CONSERVATION_TOL:
        raise RecoveryError(
            f"global conservation violated: boundary outflow {boundary_flux:.12e} "
            f"vs integrated source {total_source:.12e}"
        )

    def field(degree, coeffs):
        return PiecewisePolyField(degree=degree, coeffs=coeffs,
                                  centers=centers, diameters=diameters)

    return RecoveredVelocity(
        dofs=VelocityDofs(k=k, edge_coeffs=edge_coeffs,
                          grad_moments=grad_moments, gkperp_moments=gkperp_moments),
        projected=field(k, proj),
        divergence=field(k, div),
        rt=None if rt is None else field(1, rt),
        pressure=field(k + 1, pressure),
        grad_pressure=field(k, grad_pressure),
        flux_gap=flux_gap,
        div_gap=float(div_gaps.max(initial=0.0)),
        conservation_gap=conservation_gap,
    )
