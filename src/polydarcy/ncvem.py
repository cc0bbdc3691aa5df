"""Nonconforming virtual element discretization of -div(K grad p) = f.

The pressure space of order k+1 is nonconforming across edges: its degrees of
freedom are, per edge, the k+1 scaled moments against the edge monomials and,
per cell, the scaled moments against cell monomials of degree <= k-1.  The
local space is "enhanced" so that cell moments of degrees k and k+1 of a
function equal those of its energy projection, which makes the full L2
projection onto P_{k+1} computable from the degrees of freedom alone.

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
    EdgeBasis,
    GkPerpBasis,
    ScaledMonomialBasis,
    cell_basis,
    edge_basis,
    edge_quadrature,
    gk_perp_basis,
    gradient_coefficient_matrix,
    monomial_exponents,
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
    def n_edge_dofs(self) -> int:
        return self.k + 1

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
    edge_mass: list                    # per edge, (k+1, k+1) edge-basis Gram
    edge_cross: list                   # per edge, (k+1, pi_{k+1}) vs cell basis
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

    def edge_slot(self, pos: int, alpha: int) -> int:
        return pos * (self.k + 1) + alpha

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

    # Edge tables: Gram of edge monomials and cross table against cell basis.
    n_edge_gauss = k + 3
    edge_mass = []
    edge_cross = []
    edge_bases = []
    for pos in range(n_e):
        e = edge_ids[pos]
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        eb = edge_basis(va, vb, k)
        pts, ew = edge_quadrature(va, vb, n_edge_gauss)
        ev = eb.evaluate(pts)                     # (k+1, ng)
        cv = basis.evaluate(pts)                  # (pi_{k+1}, ng)
        edge_bases.append((eb, pts, ew, ev, cv))
        edge_mass.append(eb.mass_matrix())
        edge_cross.append((ev * ew) @ cv.T)

    # b_g[j, i] = integral over P of chi_i . (components of) g_j via parts:
    # boundary moments minus interior moments of div g_j.
    b_g = np.zeros((2 * nk, N))
    dxk, dyk = ScaledMonomialBasis(basis.center, basis.diameter, k).gradient_coefficients()
    for pos in range(n_e):
        e = edge_ids[pos]
        sign = signs[pos]
        nrm = sign * mesh.edge_normals[e]
        length = mesh.edge_lengths[e]
        eb, pts, ew, ev, cv = edge_bases[pos]
        # normal components of every vector monomial on this edge
        qvals = np.empty((2 * nk, len(ew)))
        qvals[:nk] = cv[:nk] * nrm[0]
        qvals[nk:] = cv[:nk] * nrm[1]
        moments = (ev * ew) @ qvals.T             # (k+1, 2 pi_k)
        coef = solve(edge_mass[pos], moments, assume_a="pos")
        sl = slice(pos * (k + 1), (pos + 1) * (k + 1))
        b_g[:, sl] += length * coef.T
    if nkm1:
        base_slot = n_e * (k + 1)
        for j in range(nk):
            div_x = dxk[:nkm1, j]
            div_y = dyk[:nkm1, j]
            b_g[j, base_slot:base_slot + nkm1] -= area * div_x
            b_g[nk + j, base_slot:base_slot + nkm1] -= area * div_y
    grad_proj = np.empty_like(b_g)
    grad_proj[:nk] = cho_solve(cho_k, b_g[:nk])
    grad_proj[nk:] = cho_solve(cho_k, b_g[nk:])

    # Energy projection onto P_{k+1}: gradient Gram with the zero row traded
    # for the boundary-mean condition.
    emat = gradient_coefficient_matrix(k + 1, basis.diameter)  # (2 pi_k, pi_{k+1})
    mvec = vector_mass_matrix(mass_k)
    h_mat = emat.T @ mvec @ emat
    c_mat = emat.T @ b_g
    perimeter = float(np.sum(mesh.edge_lengths[edge_ids]))
    h_mat[0, :] = 0.0
    c_mat[0, :] = 0.0
    for pos in range(n_e):
        h_mat[0, :] += edge_cross[pos][0, :] / perimeter
        c_mat[0, pos * (k + 1)] = mesh.edge_lengths[edge_ids[pos]] / perimeter
    p_nabla = solve(h_mat, c_mat)

    # Moment table: low degrees are plain DOFs, degrees k and k+1 come from
    # the energy projection (enhancement), then invert Grams.
    b0 = np.zeros((nk1, N))
    base_slot = n_e * (k + 1)
    for gamma in range(nkm1):
        b0[gamma, base_slot + gamma] = area
    b0[nkm1:, :] = (mass @ p_nabla)[nkm1:, :]
    cho_k1 = cho_factor(mass)
    p0 = cho_solve(cho_k1, b0)
    p0k = cho_solve(cho_k, b0[:nk])

    # DOF matrix of monomials, for the dofi-dofi stabilization.
    d_mat = np.empty((N, nk1))
    for pos in range(n_e):
        length = mesh.edge_lengths[edge_ids[pos]]
        d_mat[pos * (k + 1):(pos + 1) * (k + 1), :] = edge_cross[pos] / length
    if nkm1:
        d_mat[base_slot:, :] = mass[:nkm1, :] / area

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
    # recovers the complement moments of the velocity from local pressures.
    gkp = gk_perp_basis(coords, k, quad)
    dim = gkp.dim
    gkperp_rec = np.zeros((dim, N))
    if dim:
        wcoef = np.empty((2 * nk, dim))
        rhs = mk_w @ gkp.coeffs
        wcoef[:nk] = cho_solve(cho_k, rhs[:nk])
        wcoef[nk:] = cho_solve(cho_k, rhs[nk:])
        for pos in range(n_e):
            e = edge_ids[pos]
            sign = signs[pos]
            nrm = sign * mesh.edge_normals[e]
            length = mesh.edge_lengths[e]
            eb, pts, ew, ev, cv = edge_bases[pos]
            qvals = (cv[:nk].T @ wcoef[:nk]) * nrm[0] + (cv[:nk].T @ wcoef[nk:]) * nrm[1]
            moments = (ev * ew) @ qvals               # (k+1, dim)
            coef = solve(edge_mass[pos], moments, assume_a="pos")
            sl = slice(pos * (k + 1), (pos + 1) * (k + 1))
            gkperp_rec[:, sl] -= (length / area) * coef.T
        if nkm1:
            div_w = dxk[:nkm1] @ wcoef[:nk] + dyk[:nkm1] @ wcoef[nk:]
            gkperp_rec[:, base_slot:base_slot + nkm1] += div_w.T

    return NcElement(
        cell=c,
        k=k,
        coords=coords,
        basis=basis,
        area=area,
        edge_ids=np.asarray(edge_ids),
        edge_signs=np.asarray(signs),
        edge_lengths=mesh.edge_lengths[edge_ids].copy(),
        edge_mass=edge_mass,
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


def monomial_dofs(element: NcElement) -> np.ndarray:
    """DOF vectors of the scaled monomials m_beta, as columns (N, pi_{k+1}).

    Recomputed from the stored edge and mass tables; used by tests and the
    dense reference solver.
    """
    k = element.k
    nkm1 = n_monomials(k - 1)
    N = element.n_dofs
    nk1 = n_monomials(k + 1)
    out = np.empty((N, nk1))
    for pos in range(element.n_edges):
        length = element.edge_lengths[pos]
        out[pos * (k + 1):(pos + 1) * (k + 1), :] = element.edge_cross[pos] / length
    if nkm1:
        out[element.n_edges * (k + 1):, :] = element.mass[:nkm1, :] / element.area
    return out


def boundary_edge_values(mesh: PolyMesh, k: int, g) -> np.ndarray:
    """Scaled edge moments of the Dirichlet datum on boundary edges.

    Returns (ne, k+1); rows of interior edges are zero and unused.
    """
    gfun = scalar_field(g)
    out = np.zeros((mesh.num_edges, k + 1))
    ng = max(k + 2, 10)
    for e in range(mesh.num_edges):
        if mesh.edge_right[e] >= 0:
            continue
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        eb = edge_basis(va, vb, k)
        pts, ew = edge_quadrature(va, vb, ng)
        ev = eb.evaluate(pts)
        out[e] = (ev * ew) @ gfun(pts) / mesh.edge_lengths[e]
    return out


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
        element = self.elements[c]
        k = self.k
        out = np.zeros(element.n_dofs)
        for pos, e in enumerate(element.edge_ids):
            if self.dofmap.edge_offset[e] < 0:
                out[pos * (k + 1):(pos + 1) * (k + 1)] = self.boundary_values[e]
        return out

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
    quad_degree: int | None = None,
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
        element = build_element(mesh, c, k, K, f, quad_degree=quad_degree)
        elements.append(element)
        glob = dofmap.cell_global(c)
        free = glob >= 0
        gidx = glob[free]
        lifted = np.zeros(element.n_dofs)
        for pos, e in enumerate(element.edge_ids):
            if dofmap.edge_offset[e] < 0:
                lifted[pos * (k + 1):(pos + 1) * (k + 1)] = bvals[e]
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


def solve_pressure(system: SpdSystem, tol: float = 1e-12) -> np.ndarray:
    """Solve the reduced system; the solution is cached on the system.

    After the global direct solve, the interior-moment unknowns of each
    cell are recomputed from their own equations by an exact local solve.
    Those rows couple to nothing outside the cell, so this is one exact
    block-relaxation sweep: it can only decrease the energy error, and it
    pins the cell-local balance equations (which the velocity recovery rests
    on) at machine precision in each cell instead of at the global solve's
    residual, which the divergence check does not subtract.
    """
    x = linsolve.solve(system.matrix, system.rhs, tol=tol)
    system.solution = x
    k = system.k
    n_cell = n_monomials(k - 1) if k >= 1 else 0
    if n_cell:
        for c in range(system.mesh.num_cells):
            element = system.elements[c]
            glob = system.dofmap.cell_global(c)
            p_loc = system.local_pressure(c)
            residual = element.load - element.stiffness @ p_loc
            mslice = slice(element.n_dofs - n_cell, element.n_dofs)
            kmm = element.stiffness[mslice, mslice]
            delta = np.linalg.solve(kmm, residual[mslice])
            x[glob[mslice]] += delta
    return x
