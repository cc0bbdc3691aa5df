"""Nonconforming virtual element discretization of -div(K grad p) = f.

The pressure space of order k+1 is nonconforming across edges: its degrees of
freedom are, per edge, the k+1 scaled moments against the edge monomials and,
per cell, the scaled moments against cell monomials of degree <= k-1.  The
local space is "enhanced" so that cell moments of degrees k and k+1 of a
function equal those of its energy projection, which makes the full L2
projection onto P_{k+1} computable from the degrees of freedom alone.

Edge moments come from one reference table per order (see
`polybasis.edge_reference`): a cell's edge tables are built for all its
edges at once, and the normal traces of the cell monomials are projected
onto the edge monomials by one fixed matrix, so no edge Gram is solved.

All element matrices are dense and small; the global SPD system is assembled
from them with Dirichlet data eliminated.  Everything a later velocity
recovery needs (projection tables, edge moment tables, the residual pieces)
is kept on the element record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, solve

from . import linsolve
from .polybasis import (
    GkPerpBasis,
    ScaledMonomialBasis,
    cell_basis,
    edge_reference,
    gk_perp_basis,
    gradient_coefficient_matrix,
    n_monomials,
    polygon_quadrature,
    vector_mass_matrix,
)
from .polymesh import PolyMesh, polygon_area


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
    """Global numbering: interior-edge moment blocks first, then cell blocks."""

    k: int
    n_global: int
    edge_offset: np.ndarray  # (ne,) start of the edge's DOF block, -1 on boundary
    cell_offset: np.ndarray  # (nc,)
    mesh: PolyMesh = field(repr=False)

    @property
    def n_cell_dofs(self) -> int:
        return n_monomials(self.k - 1)

    def cell_global(self, c: int) -> np.ndarray:
        """Global index per local DOF slot; -1 marks boundary-edge slots."""
        k = self.k
        edges = self.mesh.cell_edges[c]
        out = np.empty(cell_dof_count(len(edges), k), dtype=np.int64)
        for pos, e in enumerate(edges):
            base = self.edge_offset[e]
            sl = slice(pos * (k + 1), (pos + 1) * (k + 1))
            if base < 0:
                out[sl] = -1
            else:
                out[sl] = np.arange(base, base + k + 1)
        ncell = self.n_cell_dofs
        if ncell:
            start = self.cell_offset[c]
            out[len(edges) * (k + 1):] = np.arange(start, start + ncell)
        return out


def build_dof_map(mesh: PolyMesh, k: int) -> NcDofMap:
    ne = mesh.num_edges
    edge_offset = np.full(ne, -1, dtype=np.int64)
    pos = 0
    for e in range(ne):
        if mesh.edge_right[e] >= 0:
            edge_offset[e] = pos
            pos += k + 1
    ncell = n_monomials(k - 1)
    cell_offset = np.arange(mesh.num_cells, dtype=np.int64) * ncell + pos
    n_global = pos + ncell * mesh.num_cells
    return NcDofMap(k=k, n_global=n_global, edge_offset=edge_offset,
                    cell_offset=cell_offset, mesh=mesh)


@dataclass
class NcElement:
    """Per-cell discretization record.

    Matrices act on the local DOF vector ordered edge blocks first (cell loop
    order, moments 0..k per edge) followed by the interior moment block.
    """

    cell: int
    k: int
    coords: np.ndarray
    basis: ScaledMonomialBasis         # degree k+1, centroid/diameter scaled
    area: float
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
    grad_coeff: np.ndarray             # (2 pi_k, pi_{k+1}) exact-gradient table
    gk_perp: GkPerpBasis
    gkperp_rec: np.ndarray             # (dim, N) moment-recovery operator

    @property
    def n_dofs(self) -> int:
        return self.stiffness.shape[0]

    @property
    def n_edges(self) -> int:
        return len(self.edge_ids)

    def cell_slot(self, gamma: int) -> int:
        return self.n_edges * (self.k + 1) + gamma


def build_element(
    mesh: PolyMesh,
    c: int,
    k: int,
    K=1.0,
    f=None,
    quad_degree: int | None = None,
) -> NcElement:
    """Assemble all local operators of one cell.

    quad_degree defaults to 2(k+2), enough for every Gram and weighted Gram
    appearing here; raise it for strongly varying coefficients.
    """
    if k < 0:
        raise ValueError("polynomial order k must be >= 0")
    Kfun = tensor_field(K)
    ffun = scalar_field(f)
    coords = mesh.cell_coords(c)
    nk1 = n_monomials(k + 1)
    nk = n_monomials(k)
    nkm1 = n_monomials(k - 1)
    edge_ids = mesh.cell_edges[c]
    signs = mesh.cell_edge_signs[c]
    n_e = len(edge_ids)
    N = n_e * (k + 1) + nkm1

    basis = cell_basis(coords, k + 1)
    area = polygon_area(coords)
    if quad_degree is None:
        quad_degree = 2 * (k + 2)
    quad = polygon_quadrature(coords, quad_degree)
    vals = basis.evaluate(quad.points)            # (pi_{k+1}, nq)
    w = quad.weights
    mass = (vals * w) @ vals.T
    mass_k = mass[:nk, :nk]
    cho_k = cho_factor(mass_k)

    kvals = Kfun(quad.points)                     # (nq, 2, 2)
    k_mean = np.einsum("q,qij->ij", w, kvals) / area
    vk = vals[:nk]
    mk_w = np.empty((2 * nk, 2 * nk))
    mk_w[:nk, :nk] = (vk * (w * kvals[:, 0, 0])) @ vk.T
    mk_w[:nk, nk:] = (vk * (w * kvals[:, 0, 1])) @ vk.T
    mk_w[nk:, :nk] = (vk * (w * kvals[:, 1, 0])) @ vk.T
    mk_w[nk:, nk:] = (vk * (w * kvals[:, 1, 1])) @ vk.T

    # Edge tables from the reference segment, all edges at once:
    # edge_cross[e, b, j] = int_f s^b m_j and traces[j, e] = edge-monomial
    # coefficients of m_j restricted to edge e (degree <= k, so exact).
    ref = edge_reference(k, k + 3)
    pts = _edge_points(mesh, edge_ids, ref.nodes)
    cv = basis.evaluate(pts.reshape(-1, 2)).reshape(nk1, n_e, -1)
    lengths = mesh.edge_lengths[edge_ids]
    edge_cross = lengths[:, None, None] * np.einsum("bq,jeq->ebj", ref.moments, cv)
    traces = np.einsum("bq,jeq->jeb", ref.projector, cv[:nk])

    # b_g[j, i] = integral over P of chi_i . (components of) g_j via parts:
    # boundary moments of the normal traces minus interior moments of div g_j.
    nrm = signs[:, None] * mesh.edge_normals[edge_ids]
    n_edge_slots = n_e * (k + 1)
    b_g = np.empty((2 * nk, N))
    b_g[:nk, :n_edge_slots] = (traces * (lengths * nrm[:, 0])[:, None]).reshape(nk, -1)
    b_g[nk:, :n_edge_slots] = (traces * (lengths * nrm[:, 1])[:, None]).reshape(nk, -1)
    basis_k = ScaledMonomialBasis(basis.center, basis.diameter, k)
    dxk, dyk = basis_k.gradient_coefficients()
    b_g[:nk, n_edge_slots:] = -area * dxk[:nkm1].T
    b_g[nk:, n_edge_slots:] = -area * dyk[:nkm1].T
    grad_proj = np.empty_like(b_g)
    grad_proj[:nk] = cho_solve(cho_k, b_g[:nk])
    grad_proj[nk:] = cho_solve(cho_k, b_g[nk:])

    # Energy projection onto P_{k+1}: gradient Gram with the zero row traded
    # for the boundary-mean condition.
    emat = gradient_coefficient_matrix(k + 1, basis.diameter)  # (2 pi_k, pi_{k+1})
    mvec = vector_mass_matrix(mass_k)
    h_mat = emat.T @ mvec @ emat
    c_mat = emat.T @ b_g
    perimeter = float(np.sum(lengths))
    h_mat[0, :] = edge_cross[:, 0, :].sum(axis=0) / perimeter
    c_mat[0, :] = 0.0
    c_mat[0, :n_edge_slots:k + 1] = lengths / perimeter
    p_nabla = solve(h_mat, c_mat)

    # Moment table: low degrees are plain DOFs, degrees k and k+1 come from
    # the energy projection (enhancement), then invert Grams.
    b0 = np.zeros((nk1, N))
    for gamma in range(nkm1):
        b0[gamma, n_edge_slots + gamma] = area
    b0[nkm1:, :] = (mass @ p_nabla)[nkm1:, :]
    cho_k1 = cho_factor(mass)
    p0 = cho_solve(cho_k1, b0)
    p0k = cho_solve(cho_k, b0[:nk])

    # DOF matrix of monomials, for the dofi-dofi stabilization.
    d_mat = _monomial_dof_table(edge_cross, lengths, mass, area, k)

    consistency = grad_proj.T @ mk_w @ grad_proj
    tau = np.trace(consistency) / N
    if not np.isfinite(tau) or tau <= 0.0:
        raise ValueError(f"cell {c}: nonpositive stabilization scale")
    residual = np.eye(N) - d_mat @ p0
    stiffness = consistency + tau * (residual.T @ residual)
    stiffness = 0.5 * (stiffness + stiffness.T)

    fq = ffun(quad.points)
    f_moments = vk @ (w * fq)
    f_coeffs = cho_solve(cho_k, f_moments)
    load = p0k.T @ f_moments

    # Gradient-complement machinery: orthonormal basis and the operator that
    # recovers the complement moments of the velocity from local pressures:
    # (1/|P|) int_P u . g with u = -K Pi0_k(grad p).
    gkp = gk_perp_basis(basis_k, mass_k)
    gkperp_rec = -(gkp.coeffs.T @ mk_w @ grad_proj) / area

    return NcElement(
        cell=c,
        k=k,
        coords=coords,
        basis=basis,
        area=area,
        edge_ids=np.asarray(edge_ids),
        edge_signs=np.asarray(signs),
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
        grad_coeff=emat,
        gk_perp=gkp,
        gkperp_rec=gkperp_rec,
    )


def _edge_points(mesh: PolyMesh, edge_ids: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Points a + t (b - a) at the reference nodes t of each edge, (n_e, n, 2).

    a and b are the endpoints in stored order, so the nodes carry the edge
    monomials of `polybasis.edge_reference`.
    """
    va = mesh.vertices[mesh.edges[edge_ids, 0]]
    vb = mesh.vertices[mesh.edges[edge_ids, 1]]
    return va[:, None, :] + nodes[None, :, None] * (vb - va)[:, None, :]


def _monomial_dof_table(edge_cross, edge_lengths, mass, area, k):
    """DOF vectors of the scaled monomials m_beta, as columns (N, pi_{k+1}).

    Edge slots are the scaled edge moments (cross table over |f|), interior
    slots the scaled cell moments of degree <= k-1 (mass rows over |P|).
    """
    nkm1 = n_monomials(k - 1)
    edge_rows = (edge_cross / edge_lengths[:, None, None]).reshape(-1, mass.shape[0])
    return np.vstack([edge_rows, mass[:nkm1, :] / area])


def monomial_dofs(element: NcElement) -> np.ndarray:
    """DOF vectors of the scaled monomials m_beta, as columns (N, pi_{k+1}).

    Recomputed from the stored edge and mass tables; used by tests, the
    velocity recovery's rounding envelopes and the dense reference solver.
    """
    return _monomial_dof_table(element.edge_cross, element.edge_lengths,
                               element.mass, element.area, element.k)


def boundary_edge_values(mesh: PolyMesh, k: int, g) -> np.ndarray:
    """Scaled edge moments of the Dirichlet datum on boundary edges.

    Returns (ne, k+1); rows of interior edges are zero and unused.
    """
    gfun = scalar_field(g)
    out = np.zeros((mesh.num_edges, k + 1))
    ref = edge_reference(k, max(k + 2, 10))
    bnd = np.flatnonzero(mesh.edge_right < 0)
    pts = _edge_points(mesh, bnd, ref.nodes)
    gvals = gfun(pts.reshape(-1, 2)).reshape(len(bnd), len(ref.nodes))
    out[bnd] = gvals @ ref.moments.T
    return out


def _dirichlet_lift(element: NcElement, boundary_values: np.ndarray) -> np.ndarray:
    """Local DOF vector holding Dirichlet values, zero on free slots.

    Relies on `boundary_edge_values` leaving interior-edge rows at zero.
    """
    edge_part = boundary_values[element.edge_ids].ravel()
    return np.concatenate([edge_part, np.zeros(element.n_dofs - edge_part.size)])


@dataclass
class SpdSystem:
    """Reduced SPD system with everything needed to get local pressures back."""

    matrix: linsolve.SparseSpd
    rhs: np.ndarray
    dofmap: NcDofMap
    elements: list
    boundary_values: np.ndarray
    mesh: PolyMesh = field(repr=False)
    k: int = 0
    solution: np.ndarray | None = None

    def local_boundary(self, c: int) -> np.ndarray:
        """Local DOF vector holding Dirichlet values, zero on free slots."""
        return _dirichlet_lift(self.elements[c], self.boundary_values)

    def local_pressure(self, c: int) -> np.ndarray:
        """Full local DOF vector of the solved pressure on cell c."""
        if self.solution is None:
            raise RuntimeError("system not solved yet")
        glob = self.dofmap.cell_global(c)
        out = self.local_boundary(c)
        free = glob >= 0
        out[free] = self.solution[glob[free]]
        return out


def assemble(
    mesh: PolyMesh,
    K,
    f,
    k: int,
    boundary=None,
) -> SpdSystem:
    """Assemble the global SPD pressure system with Dirichlet elimination.

    `boundary` is the Dirichlet datum (callable, constant, or None for
    homogeneous data).
    """
    dofmap = build_dof_map(mesh, k)
    bvals = boundary_edge_values(mesh, k, boundary)
    n = dofmap.n_global
    rhs = np.zeros(n)
    rows, cols, vals = [], [], []
    elements = []
    for c in range(mesh.num_cells):
        element = build_element(mesh, c, k, K, f)
        elements.append(element)
        glob = dofmap.cell_global(c)
        free = glob >= 0
        gidx = glob[free]
        lifted = _dirichlet_lift(element, bvals)
        local_rhs = element.load - element.stiffness @ lifted
        np.add.at(rhs, gidx, local_rhs[free])
        kff = element.stiffness[np.ix_(free, free)]
        rows.append(np.repeat(gidx, len(gidx)))
        cols.append(np.tile(gidx, len(gidx)))
        vals.append(kff.ravel())
    matrix = linsolve.SparseSpd.from_triplets(
        n,
        np.concatenate(rows) if rows else np.empty(0, dtype=np.int64),
        np.concatenate(cols) if cols else np.empty(0, dtype=np.int64),
        np.concatenate(vals) if vals else np.empty(0),
    )
    return SpdSystem(
        matrix=matrix,
        rhs=rhs,
        dofmap=dofmap,
        elements=elements,
        boundary_values=bvals,
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
