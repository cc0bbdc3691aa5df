"""Nonconforming virtual element discretization of -div(K grad p) = f.

The pressure space of order k+1 is nonconforming across edges: its degrees of
freedom are, per edge, the k+1 scaled moments against the edge monomials and,
per cell, the scaled moments against cell monomials of degree <= k-1.  The
local space is "enhanced" so that cell moments of degrees k and k+1 of a
function equal those of its energy projection, which makes the full L2
projection onto P_{k+1} computable from the degrees of freedom alone.

Element matrices are dense and small, and the same algebra on every cell,
so cells with one vertex count are built together as a group: the group's
stacked coordinates (G, n_v, 2) give one quadrature, one monomial table and
batched Gram solves for all members (`build_element` of a `CellGroup`).
Every Gram solve uses a batched Cholesky factor applied as two triangular
products (`polybasis.inverse_cholesky`): the degree-(k+1) monomial Gram's
factor serves all L2 projections, since graded-lex order makes its leading
block the factor of the degree-k Gram, and the gradient Gram of the
nonconstant monomials gives the energy projection.  Edge moments come from
one reference table per order (see `polybasis.edge_reference`), and the
normal traces of the cell monomials are projected onto the edge monomials
by one fixed matrix, so no edge Gram is solved.

One table numbers every DOF: the unknowns (interior-edge blocks, then
cell blocks) first, the Dirichlet data of the boundary-edge blocks after
them.  The groups' whole stacked stiffness blocks are scattered over all
DOFs in one triplet build, and the data are eliminated by keeping the
leading block of the matrix and of the load minus the data's stiffness
product.  Everything a later velocity recovery needs (projection tables,
edge moment tables, the residual pieces, the gradient Gram's inverse
factor and the DOFs of the constant function) is kept in the group arrays,
and so are the ears the quadrature was mapped onto, on which the error
integration runs.  They are the only element record: cell `group.cell[i]`
is row i of every stacked field.  Every cell Gram is formed and factored
here, once, and every cell is triangulated here, once; nothing after
assembly factors a Gram or cuts a cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linsolve
from .polybasis import (
    GkPerpBasis,
    ScaledMonomialBasis,
    cell_basis,
    edge_reference,
    factor_solve,
    gk_perp_basis,
    gradient_coefficient_matrix,
    gradient_gram,
    inverse_cholesky,
    n_monomials,
    polygon_quadrature,
)
from .polymesh import CellGroup, PolyMesh, polygon_area


def tensor_field(K):
    """Normalize a permeability spec to a callable (n, 2) -> (n, 2, 2).

    Accepts a scalar, a constant 2x2 array, a callable returning scalars
    (isotropic), or a callable returning (n, 2, 2) tensors.
    """
    if callable(K):
        def wrapped(pts):
            pts = np.atleast_2d(pts)
            out = np.asarray(K(pts), dtype=float)
            if out.ndim == 1:
                tens = np.zeros((len(out), 2, 2))
                tens[:, 0, 0] = out
                tens[:, 1, 1] = out
                return tens
            return out

        return wrapped
    mat = np.asarray(K, dtype=float)
    if mat.ndim == 0:
        mat = mat * np.eye(2)
    if mat.shape != (2, 2):
        raise ValueError("constant permeability must be scalar or 2x2")

    def const(pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(mat, (len(pts), 2, 2))

    return const


def scalar_field(f):
    """Normalize a source spec to a callable (n, 2) -> (n,)."""
    if f is None:
        return lambda pts: np.zeros(len(np.atleast_2d(pts)))
    if callable(f):
        return lambda pts: np.asarray(f(np.atleast_2d(pts)), dtype=float)
    val = float(f)
    return lambda pts: np.full(len(np.atleast_2d(pts)), val)


def cell_dof_count(n_edges: int, k: int) -> int:
    return n_edges * (k + 1) + n_monomials(k - 1)


@dataclass
class NcDofMap:
    """Global numbering of every DOF block, unknowns first.

    Interior-edge moment blocks come first, in edge order, then the cell
    blocks: these are the `n_global` unknowns.  The boundary-edge blocks,
    which hold the Dirichlet data, follow from `n_global` on, in edge order.
    """

    k: int
    n_global: int
    edge_offset: np.ndarray  # (ne,) start of the edge's DOF block
    cell_offset: np.ndarray  # (nc,)

    def global_indices(self, edge_ids: np.ndarray, cells) -> np.ndarray:
        """Global index per local DOF slot, (..., N); >= n_global on boundary edges.

        `edge_ids` (..., n_e) are the cells' edges in loop order and `cells`
        (...) their indices, so a group's whole table comes from one call.
        """
        edge_part = self.edge_offset[edge_ids][..., None] + np.arange(self.k + 1)
        edge_part = edge_part.reshape(edge_part.shape[:-2] + (-1,))
        cell_part = (self.cell_offset[cells][..., None]
                     + np.arange(n_monomials(self.k - 1)))
        return np.concatenate([edge_part, cell_part], axis=-1)


def build_dof_map(mesh: PolyMesh, k: int) -> NcDofMap:
    """Number interior-edge, then cell, then boundary-edge blocks (`NcDofMap`)."""
    interior = mesh.edge_right >= 0
    pos = (k + 1) * int(np.count_nonzero(interior))
    ncell = n_monomials(k - 1)
    cell_offset = np.arange(mesh.num_cells, dtype=np.int64) * ncell + pos
    n_global = pos + ncell * mesh.num_cells
    edge_offset = np.where(interior, (k + 1) * (np.cumsum(interior) - 1),
                           n_global + (k + 1) * (np.cumsum(~interior) - 1))
    return NcDofMap(k=k, n_global=n_global, edge_offset=edge_offset,
                    cell_offset=cell_offset)


@dataclass
class NcElement:
    """Discretization record of a group of cells with one vertex count, stacked.

    Every array field has a leading axis over the members (see
    `build_element`): row i describes cell `cell[i]`, and the bases carry
    stacked centers and diameters.  The shapes below are per member.
    Matrices act on the local DOF vector ordered edge blocks first (cell loop
    order, moments 0..k per edge) followed by the interior moment block.
    """

    cell: np.ndarray                   # cell index of each member, ascending
    k: int
    coords: np.ndarray
    ears: np.ndarray                   # (n_e - 2, 3) ear triangles of the quadrature
    basis: ScaledMonomialBasis         # degree k+1, centroid/diameter scaled
    area: np.ndarray
    edge_ids: np.ndarray
    edge_signs: np.ndarray
    edge_lengths: np.ndarray
    edge_cross: np.ndarray             # (n_e, k+1, pi_{k+1}) vs cell basis
    mass: np.ndarray                   # (pi_{k+1}, pi_{k+1}) cell-basis Gram
    p_nabla: np.ndarray                # energy projection, (pi_{k+1}, N)
    p0: np.ndarray                     # L2 projection onto P_{k+1}, (pi_{k+1}, N)
    p0k: np.ndarray                    # L2 projection onto P_k, (pi_k, N)
    grad_proj: np.ndarray              # Pi0_k of the gradient, (2 pi_k, N)
    stiffness: np.ndarray              # (N, N), consistency + stabilization
    load: np.ndarray                   # (N,)
    f_moments: np.ndarray              # (pi_k,) raw moments of f
    f_coeffs: np.ndarray               # (pi_k,) Pi0_k f coefficients
    k_mean: np.ndarray                 # (2, 2) cell average of K
    gk_perp: GkPerpBasis
    gkperp_rec: np.ndarray             # (dim, N) moment-recovery operator
    inv_grad_gram: np.ndarray          # (pi_{k+1}-1,)*2 inverse factor of gradient Gram H'
    const_dofs: np.ndarray             # (N,) DOF vector of the constant function 1

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[-1]

    @property
    def n_edges(self) -> int:
        return self.edge_ids.shape[-1]

    @property
    def grad_coeff(self) -> np.ndarray:
        """(2 pi_k, pi_{k+1}) exact-gradient table of the cell basis."""
        return gradient_coefficient_matrix(self.k + 1, self.basis.diameter)


def build_element(
    mesh: PolyMesh,
    group: CellGroup,
    k: int,
    K=1.0,
    f=None,
    quad_degree: int | None = None,
) -> NcElement:
    """Assemble all local operators of a `CellGroup` from `mesh.cell_groups`.

    Every step is the same small dense algebra on each member, so it runs
    on the stacked arrays: one quadrature, one monomial table and batched
    products for the whole group, whose stacked record is returned (one
    cell is `mesh.cell_groups([c])[0]`, a group of one).  Every Gram solve
    goes through a Cholesky factor (see `polybasis.inverse_cholesky`): one
    factor of the degree-(k+1) monomial Gram serves the L2 projections, the
    gradient projection, the source coefficients and the gradient
    complement, and one factor of the gradient Gram gives the energy
    projection and is stored for the recovery's velocity projection.  A
    Gram that is not positive definite raises ValueError naming the first
    such cell.  quad_degree defaults to 2(k+2), enough for every Gram and
    weighted Gram appearing here; raise it for strongly varying
    coefficients.
    """
    if k < 0:
        raise ValueError("polynomial order k must be >= 0")
    Kfun = tensor_field(K)
    ffun = scalar_field(f)
    coords = mesh.vertices[group.loops]           # (G, n_e, 2)
    n_g, n_e = group.edges.shape
    nk1 = n_monomials(k + 1)
    nk = n_monomials(k)
    nkm1 = n_monomials(k - 1)
    n_edge_slots = n_e * (k + 1)
    N = n_edge_slots + nkm1

    basis = cell_basis(coords, k + 1)
    area = polygon_area(coords)
    if quad_degree is None:
        quad_degree = 2 * (k + 2)
    quad = polygon_quadrature(coords, quad_degree)
    vals = basis.evaluate(quad.points)            # (G, pi_{k+1}, nq)
    w = quad.weights[:, None, :]
    mass = (vals * w) @ vals.mT
    mass_k = mass[:, :nk, :nk]
    # Graded-lex order nests the degrees, so the leading pi_k block of the
    # Gram's inverse factor is the inverse factor of mass_k.
    inv_mass = inverse_cholesky(mass, group.cells, "monomial Gram")
    inv_mass_k = inv_mass[:, :nk, :nk]

    # K-weighted vector Gram, one tensor component at a time
    kvals = Kfun(quad.points.reshape(-1, 2)).reshape(quad.weights.shape + (2, 2))
    k_mean = np.einsum("gq,gqij->gij", quad.weights, kvals) / area[:, None, None]
    vk = vals[:, :nk]
    mk_w = np.empty((n_g, 2 * nk, 2 * nk))
    for i in range(2):
        for j in range(2):
            mk_w[:, i * nk:(i + 1) * nk, j * nk:(j + 1) * nk] = (
                (vk * (w * kvals[:, None, :, i, j])) @ vk.mT)

    # Edge tables from the reference segment, all edges at once:
    # edge_cross[e, b, j] = int_f s^b m_j and traces[j, e] = edge-monomial
    # coefficients of m_j restricted to edge e (degree <= k, so exact).
    ref = edge_reference(k, k + 3)
    pts = _edge_points(mesh, group.edges, ref.nodes)
    cv = basis.evaluate(pts.reshape(n_g, -1, 2)).reshape(n_g, nk1, n_e, -1)
    lengths = mesh.edge_lengths[group.edges]
    edge_cross = lengths[..., None, None] * np.einsum("bq,gjeq->gebj", ref.moments, cv)
    traces = np.einsum("bq,gjeq->gjeb", ref.projector, cv[:, :nk])

    # b_g[j, i] = integral over P of chi_i . (components of) g_j via parts:
    # boundary moments of the normal traces minus interior moments of div g_j.
    nrm = group.signs[..., None] * mesh.edge_normals[group.edges]
    emat_k = gradient_coefficient_matrix(k, basis.diameter)   # (G, 2 pi_{k-1}, pi_k)
    b_g = np.empty((n_g, 2 * nk, N))
    for d in range(2):
        b_g[:, d * nk:(d + 1) * nk, :n_edge_slots] = (
            traces * (lengths * nrm[..., d])[:, None, :, None]).reshape(n_g, nk, -1)
        b_g[:, d * nk:(d + 1) * nk, n_edge_slots:] = (
            -area[:, None, None] * emat_k[:, d * nkm1:(d + 1) * nkm1].mT)
    grad_proj = factor_solve(inv_mass_k[:, None], b_g.reshape(n_g, 2, nk, N))
    grad_proj = grad_proj.reshape(n_g, 2 * nk, N)

    # Energy projection onto P_{k+1}: the gradient Gram H' of the nonconstant
    # monomials gives their coefficients, then the boundary-mean condition
    # (1/|dP|) int_dP (Pi p - p) = 0 gives the constant one.
    emat = gradient_coefficient_matrix(k + 1, basis.diameter)  # (G, 2 pi_k, pi_{k+1})
    inv_h = inverse_cholesky(gradient_gram(mass_k, emat), group.cells, "gradient Gram")
    p_nabla = np.empty((n_g, nk1, N))
    p_nabla[:, 1:] = factor_solve(inv_h, emat[:, :, 1:].mT @ b_g)
    perimeter = lengths.sum(axis=-1, keepdims=True)
    means = edge_cross[:, :, 0, :].sum(axis=1) / perimeter    # boundary means of m_j
    p_nabla[:, 0] = -np.einsum("gj,gjn->gn", means[:, 1:], p_nabla[:, 1:])
    p_nabla[:, 0, :n_edge_slots:k + 1] += lengths / perimeter
    p_nabla[:, 0] /= means[:, :1]

    # Moment table: low degrees are plain DOFs, degrees k and k+1 come from
    # the energy projection (enhancement), then invert Grams.  So Pi0 and
    # Pi_nabla differ only in the low-degree moments, and p0 is p_nabla plus
    # the Gram solve of that defect: M p_nabla never round-trips through the
    # Gram's conditioning.
    b0 = np.zeros((n_g, nk1, N))
    gamma = np.arange(nkm1)
    b0[:, gamma, n_edge_slots + gamma] = area[:, None]
    m_nabla = mass @ p_nabla
    b0[:, nkm1:, :] = m_nabla[:, nkm1:, :]
    p0 = p_nabla + factor_solve(inv_mass, b0 - m_nabla)
    p0k = factor_solve(inv_mass_k, b0[:, :nk])

    # DOF matrix of monomials, for the dofi-dofi stabilization.
    d_mat = _monomial_dof_table(edge_cross, lengths, mass, area, k)

    consistency = grad_proj.mT @ mk_w @ grad_proj
    tau = np.trace(consistency, axis1=-2, axis2=-1) / N
    bad = ~(np.isfinite(tau) & (tau > 0.0))
    if bad.any():
        raise ValueError(f"cell {group.cells[bad][0]}: nonpositive stabilization scale")
    residual = np.eye(N) - d_mat @ p0
    stiffness = consistency + tau[:, None, None] * (residual.mT @ residual)
    stiffness = 0.5 * (stiffness + stiffness.mT)

    fq = ffun(quad.points.reshape(-1, 2)).reshape(quad.weights.shape)
    f_moments = np.einsum("gjq,gq->gj", vk, quad.weights * fq)
    f_coeffs = factor_solve(inv_mass_k, f_moments[..., None])[..., 0]
    load = np.einsum("gjn,gj->gn", p0k, f_moments)

    # Gradient-complement machinery: orthonormal basis and the operator that
    # recovers the complement moments of the velocity from local pressures:
    # (1/|P|) int_P u . g with u = -K Pi0_k(grad p).
    gkp = gk_perp_basis(ScaledMonomialBasis(basis.center, basis.diameter, k),
                        inv_mass_k, group.cells)
    gkperp_rec = -(gkp.coeffs.mT @ mk_w @ grad_proj) / area[:, None, None]

    return NcElement(
        cell=group.cells,
        k=k,
        coords=coords,
        ears=quad.ears,
        basis=basis,
        area=area,
        edge_ids=group.edges,
        edge_signs=group.signs,
        edge_lengths=lengths,
        edge_cross=edge_cross,
        mass=mass,
        p_nabla=p_nabla,
        p0=p0,
        p0k=p0k,
        grad_proj=grad_proj,
        stiffness=stiffness,
        load=load,
        f_moments=f_moments,
        f_coeffs=f_coeffs,
        k_mean=k_mean,
        gk_perp=gkp,
        gkperp_rec=gkperp_rec,
        inv_grad_gram=inv_h,
        const_dofs=d_mat[..., 0].copy(),
    )


def _edge_points(mesh: PolyMesh, edge_ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Points a + t (b - a) at the reference nodes t of each edge, (..., n, 2).

    a and b are the endpoints in stored order, so the nodes carry the edge
    monomials of `polybasis.edge_reference`.
    """
    va = mesh.vertices[mesh.edges[edge_ids, 0]]
    vb = mesh.vertices[mesh.edges[edge_ids, 1]]
    return va[..., None, :] + nodes[:, None] * (vb - va)[..., None, :]


def _monomial_dof_table(edge_cross, edge_lengths, mass, area, k):
    """DOF vectors of the scaled monomials m_beta, as columns (..., N, pi_{k+1}).

    Edge slots are the scaled edge moments (cross table over |f|), interior
    slots the scaled cell moments of degree <= k-1 (mass rows over |P|).
    """
    nkm1 = n_monomials(k - 1)
    edge_rows = edge_cross / edge_lengths[..., None, None]
    edge_rows = edge_rows.reshape(edge_rows.shape[:-3] + (-1, mass.shape[-1]))
    return np.concatenate([edge_rows, mass[..., :nkm1, :] / area[..., None, None]],
                          axis=-2)


def monomial_dofs(element: NcElement) -> np.ndarray:
    """DOF vectors of the scaled monomials m_beta, as columns (..., N, pi_{k+1}).

    Recomputed from the stored edge and mass tables; used by tests.  The
    velocity recovery needs only column 0, which the build stores as
    `const_dofs`, so it does not call this.
    """
    return _monomial_dof_table(element.edge_cross, element.edge_lengths,
                               element.mass, element.area, element.k)


def boundary_edge_values(mesh: PolyMesh, k: int, g) -> np.ndarray:
    """Scaled edge moments of the Dirichlet datum, (nb, k+1).

    Row i belongs to the i-th boundary edge in edge order, the order of the
    boundary blocks of `build_dof_map`.
    """
    gfun = scalar_field(g)
    ref = edge_reference(k, max(k + 2, 10))
    bnd = np.flatnonzero(mesh.edge_right < 0)
    pts = _edge_points(mesh, bnd, ref.nodes)
    gvals = gfun(pts.reshape(-1, 2)).reshape(len(bnd), len(ref.nodes))
    return gvals @ ref.moments.T


@dataclass
class SpdSystem:
    """Reduced SPD system with everything needed to get local pressures back.

    `groups` holds the stacked element records of the mesh's vertex-count
    groups (see `PolyMesh.cell_groups`) and `group_global` each group's
    (G, N) table of global DOF indices.  `dirichlet` holds the values of
    the DOFs numbered from `dofmap.n_global` on, the boundary-edge blocks.
    """

    matrix: linsolve.SparseSpd
    rhs: np.ndarray
    dofmap: NcDofMap
    groups: list
    group_global: list
    dirichlet: np.ndarray
    mesh: PolyMesh = field(repr=False)
    k: int = 0
    solution: np.ndarray | None = None

    def group_pressure(self, i: int) -> np.ndarray:
        """Full local DOF vectors (G, N) of the solved pressure on group i."""
        if self.solution is None:
            raise RuntimeError("system not solved yet")
        return np.concatenate([self.solution, self.dirichlet])[self.group_global[i]]


def assemble(
    mesh: PolyMesh,
    K,
    f,
    k: int,
    boundary=None,
) -> SpdSystem:
    """Assemble the global SPD pressure system with Dirichlet elimination.

    `boundary` is the Dirichlet datum (callable, constant, or None for
    homogeneous data).  Each vertex-count group is built at once, and its
    whole stiffness blocks go into one triplet build over all DOFs, the
    Dirichlet ones included (see `NcDofMap`).  The system is the leading
    n_global block of that matrix, and of the loads minus the stiffness
    times the known DOF values.
    """
    if k < 0:
        raise ValueError("polynomial order k must be >= 0")
    dofmap = build_dof_map(mesh, k)
    dirichlet = boundary_edge_values(mesh, k, boundary).ravel()
    groups = [build_element(mesh, g, k, K, f) for g in mesh.cell_groups()]
    group_global = [dofmap.global_indices(g.edge_ids, g.cell) for g in groups]
    n = dofmap.n_global
    known = np.concatenate([np.zeros(n), dirichlet])
    rhs = np.zeros(len(known))
    rows = [np.empty(0, dtype=np.int64)]
    cols = [np.empty(0, dtype=np.int64)]
    vals = [np.empty(0)]
    for group, glob in zip(groups, group_global):
        local_rhs = group.load - np.einsum("gij,gj->gi", group.stiffness, known[glob])
        rhs += np.bincount(glob.ravel(), weights=local_rhs.ravel(), minlength=len(known))
        rows.append(np.broadcast_to(glob[:, :, None], group.stiffness.shape).ravel())
        cols.append(np.broadcast_to(glob[:, None, :], group.stiffness.shape).ravel())
        vals.append(group.stiffness.ravel())
    full = linsolve.SparseSpd.from_triplets(
        len(known), np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    return SpdSystem(
        matrix=linsolve.SparseSpd(csr=full.csr[:n, :n]),
        rhs=rhs[:n],
        dofmap=dofmap,
        groups=groups,
        group_global=group_global,
        dirichlet=dirichlet,
        mesh=mesh,
        k=k,
    )


def solve_pressure(system: SpdSystem) -> np.ndarray:
    """Solve the reduced system; the solution is cached on the system.

    One certified direct solve (see `linsolve.solve`) gives every unknown,
    the interior moments included; its residual sits at the rounding floor,
    below the envelope that the velocity recovery's checks subtract.
    """
    system.solution = linsolve.solve(system.matrix, system.rhs)
    return system.solution
