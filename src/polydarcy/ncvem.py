"""Nonconforming virtual element discretization of -div(K grad p) = f.

The pressure space of order k+1 is nonconforming across edges: its degrees of
freedom are, per edge, the k+1 scaled moments (1/|f|) int_f p phi_b against
the orthonormal Legendre polynomials of the edge and, per cell, the scaled
moments (1/|P|) int_P p q_gamma against the cell polynomials q of degree
<= k-1.  The cell basis q = T m of P_{k+1} is orthonormal in that scaled
product, with m the cell's scaled monomials and T = sqrt|P| L^{-1} from the
Cholesky factor L of their degree-(k+1) Gram; graded-lex order makes its
leading blocks the bases of the lower degrees, and q_0 = 1.  The local
space is "enhanced" so that cell moments against the monomials of degrees
k and k+1 of a function equal those of its energy projection, which makes
the full L2 projection onto P_{k+1} computable from the degrees of freedom
alone.

The projector algebra runs in the q coordinates, where every cell Gram is
|P| I: the gradient projection Pi0_k grad p is its by-parts moments over
|P|, the L2 projection onto P_k is the leading rows of the one onto
P_{k+1}, the source coefficients are the moments of f over |P|, and the
interior rows of the DOF table of the q are [I 0].  The energy projection
solves with the gradient Gram H' = E'^T E' of the nonconstant q, E the
exact-gradient table of the q in the vector q basis of (P_k)^2, through its
Cholesky factor.  Keeping the enhancement against the monomials costs one
correction of the high coefficients of the L2 projection (see
`build_element`).  Orthonormal functionals and coordinates keep the local
algebra well conditioned (a worst local stiffness condition of about 1.5e3
at k = 3 and 8.8e3 at k = 4 on a 16x16 distorted mesh, against 2.8e8 and
2.9e12 with monomial moments).  Every table that needs quadrature (the
monomial Gram, the K-weighted vector Gram, the edge and source moments) is
formed in the monomials and moved to q on its small coefficient axes; q is
never evaluated at a point.

Element matrices are dense and small, and the same algebra on every cell,
so cells with one vertex count are built together as a group: the group's
stacked coordinates (G, n_v, 2) give one quadrature, one monomial table and
batched factors for all members (`build_element` of a `CellGroup`).
The cells' areas, centroids, diameters and ears come from the mesh's
`CellGroup`, where `build_topology` measured and cut them; nothing here
measures or cuts a cell.  Edge moments come from one reference table per
order (see `polybasis.edge_reference`); the edge basis is orthonormal, so
those moments are also the coefficients of the normal traces of the cell
polynomials, and no edge Gram is solved.

One table numbers every DOF: the unknowns (interior-edge blocks, then
cell blocks) first, the Dirichlet data of the boundary-edge blocks after
them.  The data are eliminated from the load by subtracting the data's
stiffness product, scattered over all DOFs and cut to the unknowns.  The
matrix is only ever formed on the unknowns: each group's stacked
stiffness blocks are masked to their pairs of unknowns and written into
one preallocated triplet set (int32 indices while they fit), which scipy
turns into CSR, so no matrix over all DOFs is built and none is sliced.
Everything a later velocity recovery needs (the basis T, the
projection and gradient tables, edge moment tables, the residual pieces
and the inverse factor of H') is kept in the group arrays of `NcElement`.
Its geometry is the mesh's `CellGroup` itself, held as `NcElement.group`:
cell `element.group.cells[i]` is row i of every stacked field, and the
error integration runs on that group's ears.  Every Gram is formed and
factored here, once; nothing after assembly factors a Gram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import linsolve
from .polybasis import (
    cholesky_factors,
    edge_reference,
    factor_solve,
    gk_perp_basis,
    gradient_coefficient_matrix,
    n_monomials,
    polygon_quadrature,
    scaled_monomials,
)
from .polymesh import CellGroup, PolyMesh


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

    `group` is the mesh's `CellGroup` that the record was built from, the
    very object and not a copy: it holds each member's cell index, loop,
    edges, edge signs, area, centroid, diameter and ears, and the cell
    bases are centered and scaled by its centroids and diameters.  Every
    array field below has a leading axis over the members (see
    `build_element`): row i describes cell `group.cells[i]`.  The shapes
    below are per member.  Matrices act on the local DOF vector ordered
    edge blocks first (cell loop order, moments 0..k per edge) followed by
    the interior moment block.  Polynomial coefficients and moments are in
    the orthonormal cell basis q = `basis` @ m of the scaled monomials m
    (vector fields: the x block, then the y block, each against q).
    """

    group: CellGroup
    k: int
    edge_lengths: np.ndarray           # (n_e,)
    edge_cross: np.ndarray             # (n_e, k+1, pi_{k+1}) int_f phi_b q_j
    basis: np.ndarray                  # (pi_{k+1}, pi_{k+1}) lower-triangular T, q = T m
    grad_coeff: np.ndarray             # (2 pi_k, pi_{k+1}) exact gradients of the q_j
    p_nabla: np.ndarray                # energy projection, (pi_{k+1}, N)
    p0: np.ndarray                     # L2 projection onto P_{k+1}, (pi_{k+1}, N)
    grad_proj: np.ndarray              # Pi0_k of the gradient, (2 pi_k, N)
    stiffness: np.ndarray              # (N, N), consistency + stabilization
    load: np.ndarray                   # (N,)
    f_moments: np.ndarray              # (pi_k,) raw moments int_P f q_j
    f_coeffs: np.ndarray               # (pi_k,) Pi0_k f coefficients
    k_mean: np.ndarray                 # (2, 2) cell average of K
    gk_perp: np.ndarray                # (2 pi_k, dim) L2(P)-orthonormal complement basis
    gkperp_rec: np.ndarray             # (dim, N) moment-recovery operator
    inv_grad_gram: np.ndarray          # (pi_{k+1}-1,)*2 inverse factor of H'

    @property
    def n_edges(self) -> int:
        return self.group.edges.shape[-1]


def build_element(
    mesh: PolyMesh,
    group: CellGroup,
    k: int,
    K=1.0,
    f=None,
) -> NcElement:
    """Assemble all local operators of a `CellGroup` from `mesh.cell_groups`.

    Every step is the same small dense algebra on each member, so it runs
    on the stacked arrays: one quadrature, one monomial table and batched
    products for the whole group, whose stacked record is returned and
    holds `group` itself (one cell is `mesh.cell_groups([c])[0]`, a group
    of one).  The basis is centered and scaled by the group's centroids and
    diameters, and one rule of exactness 2(k+2) is mapped onto the group's
    ears: it integrates every Gram here exactly, the K-weighted one for K
    of degree <= 4 and the moments of f for f of degree <= k+4.  The
    Cholesky factor of the degree-(k+1) monomial Gram gives the orthonormal
    cell basis q (see the module docstring), in which every other cell Gram
    is |P| I; the gradient Gram H' of q is the one Gram left to solve, and
    its inverse factor is stored for the recovery's velocity projection.
    A Gram that is not positive definite raises ValueError naming the first
    such cell.
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

    area = group.area
    quad = polygon_quadrature(coords, 2 * (k + 2), group.ears)
    vals = scaled_monomials(quad.points, group.center, group.diameter, k + 1)  # (G, pi_{k+1}, nq)
    w = quad.weights[:, None, :]
    # q = T m with T = sqrt|P| L^{-1} for the monomial Gram L L^T, so that
    # (1/|P|) int_P q q^T = I.  The interior DOFs are the moments against
    # q_0..q_{pi_{k-1}-1}.
    lower, inv_lower = cholesky_factors((vals * w) @ vals.mT, group.cells, "monomial Gram")
    basis = np.sqrt(area)[:, None, None] * inv_lower
    basis_k = basis[:, :nk, :nk]

    # K-weighted vector Gram in the monomials, one tensor component at a
    # time, then moved to q
    kvals = Kfun(quad.points.reshape(-1, 2)).reshape(quad.weights.shape + (2, 2))
    k_mean = np.einsum("gq,gqij->gij", quad.weights, kvals) / area[:, None, None]
    vk = vals[:, :nk]
    mk_w = np.empty((n_g, 2 * nk, 2 * nk))
    for i in range(2):
        for j in range(2):
            mk_w[:, i * nk:(i + 1) * nk, j * nk:(j + 1) * nk] = (
                basis_k @ ((vk * (w * kvals[:, None, :, i, j])) @ vk.mT) @ basis_k.mT)

    # Edge tables from the reference segment, all edges at once:
    # edge_cross[e, b, j] = int_f phi_b q_j, formed against the monomials and
    # moved to q.  The edge basis is orthonormal, so edge_cross / |f| holds
    # the scaled edge moments of q_j, and for q_j of degree <= k also the
    # edge-basis coefficients of its trace.
    ref = edge_reference(k, k + 3)
    pts = _edge_points(mesh, group.edges, ref.nodes)
    cv = scaled_monomials(pts.reshape(n_g, -1, 2), group.center, group.diameter, k + 1)
    cv = cv.reshape(n_g, nk1, n_e, -1)
    lengths = mesh.edge_lengths[group.edges]
    edge_cross = (lengths[..., None, None] * np.einsum("bq,gjeq->gebj", ref.moments, cv)
                  @ basis.mT[:, None])

    # Exact gradients of the q_j in the vector basis of (P_k)^2:
    # grad q = T grad m, and the q_k of degree k are T_k m_k, so the table
    # is blockdiag(L_k^T) E L^{-T} for the monomial gradient table E.
    emat = gradient_coefficient_matrix(k + 1, group.diameter) @ inv_lower.mT
    grad_coeff = (lower[:, None, :nk, :nk].mT @ emat.reshape(n_g, 2, nk, nk1)
                  ).reshape(n_g, 2 * nk, nk1)

    # Pi0_k grad p by parts, (1/|P|) int_P grad p . g_j for g_j = q_j e_d:
    # boundary moments of the normal traces of q_j, minus the interior
    # moments of d/dx_d q_j, whose degree k-1 makes them interior DOFs.
    nrm = group.signs[..., None] * mesh.edge_normals[group.edges]
    traces = edge_cross[..., :nk].transpose(0, 3, 1, 2)       # (G, pi_k, n_e, k+1)
    grad_proj = np.empty((n_g, 2 * nk, N))
    for d in range(2):
        grad_proj[:, d * nk:(d + 1) * nk, :n_edge_slots] = (
            (traces * nrm[:, None, :, d, None]).reshape(n_g, nk, -1) / area[:, None, None])
        grad_proj[:, d * nk:(d + 1) * nk, n_edge_slots:] = (
            -grad_coeff[:, d * nk:d * nk + nkm1, :nk].mT)

    # Energy projection onto P_{k+1}: the scaled gradient Gram
    # H' = E'^T E' = (1/|P|) int_P grad q_i . grad q_j of the nonconstant q
    # (E' the columns 1.. of grad_coeff) gives their coefficients, then the
    # boundary-mean condition (1/|dP|) int_dP (Pi p - p) = 0 gives the one
    # of q_0 = 1.
    grad_nc = grad_coeff[:, :, 1:]
    _, inv_h = cholesky_factors(grad_nc.mT @ grad_nc, group.cells, "gradient Gram")
    p_nabla = np.empty((n_g, nk1, N))
    p_nabla[:, 1:] = factor_solve(inv_h, grad_nc.mT @ grad_proj)
    perimeter = lengths.sum(axis=-1, keepdims=True)
    means = edge_cross[:, :, 0, 1:].sum(axis=1) / perimeter    # boundary means of q_j
    p_nabla[:, 0] = -np.einsum("gj,gjn->gn", means, p_nabla[:, 1:])
    p_nabla[:, 0, :n_edge_slots:k + 1] += lengths / perimeter

    # L2 projection: the interior DOFs are the coefficients of q_lo, of
    # degree <= k-1.  The enhancement makes the moments against the
    # monomials of degree k and k+1 those of the energy projection; as
    # q_hi = T_hl m_lo + T_hh m_hi, the coefficients of q_hi are those of
    # Pi^nabla p plus T_hl T_ll^{-1} = (L^{-1})_hl L_ll times the gap
    # between the interior DOFs and the low coefficients of Pi^nabla p.
    dof_lo = np.zeros((nkm1, N))
    dof_lo[:, n_edge_slots:] = np.eye(nkm1)
    p0 = np.empty_like(p_nabla)
    p0[:, :nkm1] = dof_lo
    p0[:, nkm1:] = p_nabla[:, nkm1:] + (
        inv_lower[:, nkm1:, :nkm1] @ lower[:, :nkm1, :nkm1] @ (dof_lo - p_nabla[:, :nkm1]))

    consistency = grad_proj.mT @ mk_w @ grad_proj
    tau = np.trace(consistency, axis1=-2, axis2=-1) / N
    bad = ~(np.isfinite(tau) & (tau > 0.0))
    if bad.any():
        raise ValueError(f"cell {group.cells[bad][0]}: nonpositive stabilization scale")
    # dofi-dofi stabilization (I - D p0), D the DOF table of the q: its
    # interior rows are [I 0], which p0 reproduces exactly, so only the edge
    # rows (the scaled edge moments of the q) leave a residual.
    edge_dofs = (edge_cross / lengths[..., None, None]).reshape(n_g, n_edge_slots, nk1)
    residual = -(edge_dofs @ p0)
    residual[:, :, :n_edge_slots] += np.eye(n_edge_slots)
    stiffness = consistency + tau[:, None, None] * (residual.mT @ residual)
    stiffness = 0.5 * (stiffness + stiffness.mT)

    fq = ffun(quad.points.reshape(-1, 2)).reshape(quad.weights.shape)
    f_moments = np.einsum("gij,gj->gi", basis_k, np.einsum("gjq,gq->gj", vk, quad.weights * fq))
    f_coeffs = f_moments / area[:, None]
    load = np.einsum("gjn,gj->gn", p0[:, :nk], f_moments)

    # Gradient-complement machinery: orthonormal basis, as coefficients
    # against q = sqrt|P| L^{-1} m, and the operator that recovers the
    # complement moments of the velocity from local pressures:
    # (1/|P|) int_P u . g with u = -K Pi0_k(grad p).
    gk_perp = gk_perp_basis(k, inv_lower[:, :nk, :nk], group.cells) / np.sqrt(area)[:, None, None]
    gkperp_rec = -(gk_perp.mT @ mk_w @ grad_proj) / area[:, None, None]

    return NcElement(
        group=group,
        k=k,
        edge_lengths=lengths,
        edge_cross=edge_cross,
        basis=basis,
        grad_coeff=grad_coeff,
        p_nabla=p_nabla,
        p0=p0,
        grad_proj=grad_proj,
        stiffness=stiffness,
        load=load,
        f_moments=f_moments,
        f_coeffs=f_coeffs,
        k_mean=k_mean,
        gk_perp=gk_perp,
        gkperp_rec=gkperp_rec,
        inv_grad_gram=inv_h,
    )


def _edge_points(mesh: PolyMesh, edge_ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Points a + t (b - a) at the reference nodes t of each edge, (..., n, 2).

    a and b are the endpoints in stored order, so the nodes carry the edge
    basis of `polybasis.edge_reference`.
    """
    va = mesh.vertices[mesh.edges[edge_ids, 0]]
    vb = mesh.vertices[mesh.edges[edge_ids, 1]]
    return va[..., None, :] + nodes[:, None] * (vb - va)[..., None, :]


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
    homogeneous data).  Each vertex-count group is built at once.  The
    load is the loads minus the stiffness times the known DOF values,
    scattered over all DOFs (see `NcDofMap`) and cut to the n_global
    unknowns.  The matrix takes only the stiffness entries whose row and
    column are both unknowns: their count is known from the groups' DOF
    tables, so the triplets go straight into arrays of that length, with
    int32 indices while n_global and the count fit (`_index_dtype`), and
    one conversion to CSR sums the duplicates.  Its arrays are those of
    the leading n_global block of the scatter over all DOFs.
    """
    if k < 0:
        raise ValueError("polynomial order k must be >= 0")
    dofmap = build_dof_map(mesh, k)
    dirichlet = boundary_edge_values(mesh, k, boundary).ravel()
    groups = [build_element(mesh, g, k, K, f) for g in mesh.cell_groups()]
    group_global = [dofmap.global_indices(e.group.edges, e.group.cells) for e in groups]
    n = dofmap.n_global
    known = np.concatenate([np.zeros(n), dirichlet])
    rhs = np.zeros(len(known))
    # the stiffness entries between unknowns, cell by cell in the groups' order
    free = [glob < n for glob in group_global]
    count = sum(int(np.square(mask.sum(axis=1)).sum()) for mask in free)
    index = _index_dtype(n, count)
    rows = np.empty(count, dtype=index)
    cols = np.empty(count, dtype=index)
    vals = np.empty(count)
    start = 0
    for group, glob, mask in zip(groups, group_global, free):
        local_rhs = group.load - np.einsum("gij,gj->gi", group.stiffness, known[glob])
        rhs += np.bincount(glob.ravel(), weights=local_rhs.ravel(), minlength=len(known))
        pair = mask[:, :, None] & mask[:, None, :]
        stop = start + int(np.count_nonzero(pair))
        rows[start:stop] = np.broadcast_to(glob[:, :, None], pair.shape)[pair]
        cols[start:stop] = np.broadcast_to(glob[:, None, :], pair.shape)[pair]
        vals[start:stop] = group.stiffness[pair]
        start = stop
    return SpdSystem(
        matrix=linsolve.SparseSpd.from_triplets(n, rows, cols, vals),
        rhs=rhs[:n],
        dofmap=dofmap,
        groups=groups,
        group_global=group_global,
        dirichlet=dirichlet,
        mesh=mesh,
        k=k,
    )


def _index_dtype(n: int, count: int) -> type:
    """int32 while the matrix order and the triplet count fit in it, else int64."""
    return np.int32 if max(n, count) <= np.iinfo(np.int32).max else np.int64


def solve_pressure(system: SpdSystem) -> np.ndarray:
    """Solve the reduced system; the solution is cached on the system.

    One certified direct solve (see `linsolve.solve`) gives every unknown,
    the interior moments included; its residual sits at the rounding floor,
    which the velocity recovery's flux and conservation checks read.
    """
    system.solution = linsolve.solve(system.matrix, system.rhs)
    return system.solution
