"""Local velocity recovery from the solved pressure.

Once the pressure is known, the flux of the conservative velocity through
each edge is read off the local residual of the pressure equation on an
incident cell: for the moment basis function of slot (f, alpha),

    int_f (u . n_P) phi_alpha = (local load - local stiffness @ p_loc)[f, alpha],

with phi_alpha the orthonormal Legendre polynomial of the edge
(`polybasis.edge_reference`), so the slot is |f| times the Legendre
coefficient alpha of u . n_P.

Moments of u against gradients of the orthonormal cell basis q = T m of the
element build (`NcElement.basis`) follow from the divergence theorem together
with div u = Pi0_k f, and the moments against the gradient complement come
from a precomputed operator applied to the local pressure.  Those three
families determine the L2 projection of u onto cellwise (P_k)^2 and, at
lowest order, a Raviart-Thomas-like field whose divergence is exactly the
cell-averaged source.  In the q coordinates every cell Gram is |P| I, so the
interior term of the moments is |P| times the source coefficients, and the
projection applies the gradient Gram H' of q through the inverse Cholesky
factor that the element build formed for its energy projection; no Gram is
formed or factored after assembly.  The divergence of u itself is Pi0_k f by
construction; what the fluxes must show is local conservation, their sum
over a cell's boundary matching int_P f.

`recover_velocity` is the one walk over the solved cells, taken a
vertex-count group at a time: it forms each group's local residual once and
fills every cellwise field of the post-processing (velocity DOFs, projected
velocity, its divergence, the RT field, the projected pressure and its
gradient) as a `PiecewisePolyField`, whose coefficients are in the scaled
monomials: each group's fields are moved from q by T^T once.  Every
interior-edge flux is recovered from both incident cells; the left cell's
copy is kept.  After the walk the three structural checks run on what it
stored, and a velocity that violates local conservation on a cell, whose two
flux copies disagree, or that violates global conservation is refused.
Every gap is reported raw; local conservation alone is decided beyond a
rounding envelope (see `recover_velocity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ncvem import NcElement, SpdSystem
from .polybasis import factor_solve, gk_perp_dimension, n_monomials, scaled_monomials


# Relative tolerances of the structural checks; only local conservation
# subtracts a rounding envelope before comparing (see recover_velocity).
_FLUX_TOL = 1e-9
_DIV_TOL = 1e-10
_CONSERVATION_TOL = 1e-9


class RecoveryError(RuntimeError):
    """A structural identity of the recovered velocity failed."""


@dataclass
class VelocityDofs:
    """Degrees of freedom of the recovered velocity.

    edge_coeffs[e] holds the Legendre coefficients of u . n_e on edge e, in
    the orthonormal edge basis of `polybasis.edge_reference`, with n_e the
    globally stored normal; coefficient 0 is the edge mean.
    grad_moments[c] holds the pi_k - 1 scaled moments (1/|P|) int_P u . grad q_j
    over the nonconstant members q_1 .. q_{pi_k - 1} of the orthonormal cell
    basis q = T m of cell c (`NcElement.basis`), like the interior pressure
    DOFs, and gkperp_moments[c] the scaled moments against the orthonormal
    complement basis of the gradients inside (P_k)^2 (`NcElement.gk_perp`).
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
        return scaled_monomials(points, self.centers[c], self.diameters[c], self.degree)

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


def _monomial_coeffs(element: NcElement, coeffs: np.ndarray, degree: int) -> np.ndarray:
    """Scaled-monomial coefficients of a field given in the cell basis q.

    `coeffs` (..., n_components * pi_degree) holds one block per component;
    q = T m makes each block's monomial coefficients T^T times its q ones,
    with T the leading pi_degree block of `element.basis`.
    """
    n = n_monomials(degree)
    blocks = coeffs.reshape(coeffs.shape[:-1] + (-1, n))
    return (blocks @ element.basis[..., :n, :n]).reshape(coeffs.shape)


def _project_velocity(element: NcElement, nu: np.ndarray,
                      gkperp_moments: np.ndarray) -> np.ndarray:
    """Scaled-monomial coefficients of the L2 projection of u onto (P_k)^2.

    The projection is pinned down by its scaled moments nu against the
    gradients of the nonconstant q_j up to degree k+1 and m against the
    complement basis C; together these span (P_k)^2.  The two families are
    L2(P)-orthogonal, and the vector q basis is orthonormal in the scaled
    product, so in q coordinates the projection is

        x = E' H'^{-1} nu + C (|P| m),

    with E' the exact-gradient table of the nonconstant q (`grad_coeff`)
    and H' = E'^T E', applied through the inverse Cholesky factor
    `inv_grad_gram` that the build formed for the energy projection; no
    Gram is formed or factored here.  x is returned as T^T x.
    """
    area = element.group.area[..., None]
    grad_part = element.grad_coeff[..., 1:] @ factor_solve(element.inv_grad_gram, nu[..., None])
    gkperp_part = element.gk_perp @ (area * gkperp_moments)[..., None]
    return _monomial_coeffs(element, (grad_part + gkperp_part)[..., 0], element.k)


@dataclass
class RecoveredVelocity:
    """Velocity DOFs, every cellwise field of one solve, and the check gaps.

    `divergence` (degree k) is div u of the recovered conservative velocity,
    Pi0_k f by construction, not that of its projection `projected`.  `rt`
    is the Raviart-Thomas-like field, present at k = 0 only.  `pressure` is
    the L2 projection of the pressure onto P_{k+1} and `grad_pressure` that
    of its gradient onto (P_k)^2.  The three gaps are the raw relative gaps
    of the structural checks (see `recover_velocity`): `flux_gap` of flux
    agreement, `div_gap` the largest local-conservation gap of a cell, and
    `conservation_gap` of global conservation.
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

    One walk over the solved vertex-count groups forms each group's local
    residual load - K_loc p_loc once; its edge slot (f, alpha) is |f| times
    the Legendre coefficient alpha of u . n_P on f (see the module
    docstring), which the edge sign turns into the flux against the stored
    edge normal.  The scaled moments nu_j = (1/|P|) int_P u . grad q_j over
    the nonconstant q_j up to degree k+1 follow from the divergence theorem
    with div u = Pi0_k f, exactly: u . n is a known polynomial on each edge
    and Pi0_k f a known polynomial on the cell, whose moments against the
    orthonormal q are |P| times its coefficients and 0 above degree k.  The
    leading pi_k - 1 of them are the stored gradient DOFs, and all of them
    with the complement moments (`gkperp_rec` applied to p_loc) give the
    projection (`_project_velocity`).  At k = 0 the Raviart-Thomas-like
    field is u_rt = -K_mean Pi0_0(grad p_h) + (f_mean / 2)(x - x_c), x_c the
    cell centroid, whose divergence is exactly the cell mean of f.

    After the walk RecoveryError is raised, in this order, if any cell's
    boundary outflow misses its integrated source (local conservation), if
    interior-edge fluxes from the two incident cells disagree (relative to
    the largest flux coefficient), or if the total boundary outflow does not
    balance the integrated source.  div u = Pi0_k f holds by construction,
    so the one moment of div u that the fluxes decide alone is the constant
    one; its gap is relative to the larger of the boundary terms, |int_P f|
    and |P| times the largest source coefficient of the mesh.  The higher
    moments are not compared: with the gradient moments built from the same
    fluxes they reduce to |P| times the source coefficients whatever the
    fluxes are.

    The left and right recoveries of an interior-edge flux differ by exactly
    (global residual row) / |f|, and the global conservation mismatch is a
    weighting of the same residual vector.  The checks therefore hold the
    pressure to the certified solve (see `linsolve.solve`), whose residual
    sits at the rounding floor; a vector off that solve fails them.
    Ownership, not averaging, defines the returned flux: each edge takes the
    copy of `mesh.edge_left`, its incident cell of lowest index, which is the
    cell whose loop runs along the stored edge direction (edge sign +1).

    Every gap is reported raw.  Flux agreement and global conservation are
    also decided on their raw gaps; local conservation alone is decided
    after subtracting the rounding envelope 4 eps (|K_loc| |p_loc| + |load|)
    of the residual slots, summed over the slots where the constant
    function's DOFs are 1, because its raw gap grows with the mesh (see the
    walk below).  An unsolved system raises RuntimeError.
    """
    mesh = system.mesh
    k = system.k
    nc = mesh.num_cells
    nk = n_monomials(k)
    eps4 = 4.0 * float(np.finfo(float).eps)
    # Both copies of every edge's u . n_e, written by edge sign.  An edge is
    # stored in its left cell's direction, so copy 0 (sign +1) is the left
    # cell's and is kept; copy 1 (sign -1) is the right cell's, present on
    # interior edges only, and is checked against it.
    copies = np.zeros((2, mesh.num_edges, k + 1))
    # Local conservation per cell: boundary outflow, int_P f, the larger of
    # their terms, the rounding envelope of the outflow, and |P|.
    outflow, source, scale, noise, areas = np.zeros((5, nc))
    grad_moments = np.zeros((nc, nk - 1))
    gkperp_moments = np.zeros((nc, gk_perp_dimension(k)))
    div = np.zeros((nc, nk))
    proj = np.zeros((nc, 2 * nk))
    rt = np.zeros((nc, 6)) if k == 0 else None
    pressure = np.zeros((nc, n_monomials(k + 1)))
    grad_pressure = np.zeros((nc, 2 * nk))
    centers = np.zeros((nc, 2))
    diameters = np.zeros(nc)

    for i, element in enumerate(system.groups):
        group = element.group
        cells = group.cells
        area = group.area
        p_loc = system.group_pressure(i)
        n_slots = element.n_edges * (k + 1)
        residual = element.load - np.einsum("gij,gj->gi", element.stiffness, p_loc)
        local = (residual[:, :n_slots].reshape(-1, element.n_edges, k + 1)
                 / element.edge_lengths[..., None])
        side = (1 - group.signs) // 2
        copies[side, group.edges] = group.signs[..., None] * local
        # int_P u . grad q_j = sum_f int_f (u . n_P) q_j - int_P (div u) q_j,
        # whose boundary term at q_0 = 1 is the cell's outflow
        moments = np.einsum("geb,gebj->gj", local, element.edge_cross)
        outflow[cells] = moments[:, 0]
        nu = moments / area[:, None]
        nu[:, :nk] -= element.f_coeffs
        grad_moments[cells] = nu[:, 1:nk]
        gkperp_moments[cells] = np.einsum("gij,gj->gi", element.gkperp_rec, p_loc)
        proj[cells] = _project_velocity(element, nu[:, 1:], gkperp_moments[cells])
        div[cells] = _monomial_coeffs(element, element.f_coeffs, k)
        pressure[cells] = _monomial_coeffs(
            element, np.einsum("gij,gj->gi", element.p0, p_loc), k + 1)
        grad_pressure[cells] = _monomial_coeffs(
            element, np.einsum("gij,gj->gi", element.grad_proj, p_loc), k)
        if rt is not None:
            # at k = 0 grad_pressure is Pi0_0(grad p_h) itself
            f_mean = element.f_moments[:, 0] / area
            rt[np.ix_(cells, [0, 3])] = -np.einsum("gij,gj->gi", element.k_mean,
                                                   grad_pressure[cells])
            rt[np.ix_(cells, [1, 5])] = (0.5 * f_mean * group.diameter)[:, None]
        source[cells] = element.f_moments[:, 0]
        scale[cells] = np.maximum(
            np.einsum("geb,geb->g", np.abs(local), np.abs(element.edge_cross[..., 0])),
            np.abs(source[cells]))
        # Local conservation alone keeps a rounding envelope: its raw relative
        # gap grows with the mesh (k = 3: 2.4e-13 at 16x16, 7.5e-12 at 64x64,
        # 1.3e-11 at 128x128; k = 4: 2.6e-11 at 96x96), within a decade of
        # _DIV_TOL = 1e-10, while flux agreement and global conservation stay
        # three orders or more below theirs.
        # The constant 1 has DOFs 1 in slot 0 of every edge block and in the
        # first interior slot (q_0 = 1), 0 elsewhere: slots 0, k+1, ...,
        # n_e (k+1), the last one absent at k = 0.
        const_slots = slice(0, n_slots + 1, k + 1)
        noise[cells] = eps4 * (
            np.einsum("gij,gj->gi", np.abs(element.stiffness[:, const_slots]), np.abs(p_loc))
            + np.abs(element.load[:, const_slots])).sum(axis=-1)
        areas[cells] = area
        centers[cells] = group.center
        diameters[cells] = group.diameter

    scale = np.maximum.reduce([scale, float(np.abs(div).max(initial=0.0)) * areas,
                               np.full(nc, 1e-300)])
    imbalance = np.abs(outflow - source)
    excess = np.maximum(0.0, imbalance - noise) / scale
    if np.any(excess > _DIV_TOL):
        worst = int(np.argmax(excess))
        raise RecoveryError(
            f"cell {worst}: recovered fluxes violate local conservation (relative "
            f"gap {imbalance[worst] / scale[worst]:.3e}, tolerance {_DIV_TOL:.1e})"
        )
    div_gap = float((imbalance / scale).max(initial=0.0))

    edge_coeffs = copies[0]
    inner = ~mesh.boundary_mask
    gap = float(np.abs(copies[1, inner] - edge_coeffs[inner]).max(initial=0.0))
    flux_gap = gap / max(float(np.abs(edge_coeffs).max()), 1e-300)
    if flux_gap > _FLUX_TOL:
        raise RecoveryError(
            f"interior edge fluxes disagree between incident cells: relative "
            f"gap {flux_gap:.3e} exceeds {_FLUX_TOL:.1e}"
        )

    # Boundary outflow: the stored normal of a boundary edge points out of
    # its only cell, and the edge mean of u . n is coefficient 0, since
    # phi_0 = 1 and every higher edge polynomial has mean zero.
    bnd = mesh.boundary_mask
    parts = mesh.edge_lengths[bnd] * edge_coeffs[bnd, 0]
    boundary_flux = float(parts.sum())
    total_source = sum(float(g.f_moments[:, 0].sum()) for g in system.groups)
    cons_scale = max(abs(total_source), float(np.abs(parts).sum()), 1e-300)
    conservation_gap = abs(boundary_flux - total_source) / cons_scale
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
        div_gap=div_gap,
        conservation_gap=conservation_gap,
    )
