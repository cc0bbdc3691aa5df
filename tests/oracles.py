"""Independent reference computations backing the test suite.

Everything here deliberately avoids the package's own numerical paths:
triangle integrals come from the closed form a! b! / (a + b + 2)! instead of
the ear-clipped quadrature, nonpolynomial integrals from a plain tensor-Gauss
rule with an explicit collapse factor, the ear triangulation from clipping
one vertex of a Python list at a time, a cell's edges from matching its
sides against the edge table, the kernel inradius from a dense grid
search, linear solves from a dense factorization, the orthonormal edge
polynomials sqrt(2b + 1) P_b(2t - 1) on the segment a + t (b - a) from
Bonnet's three-term recurrence, cell monomials and their gradients from
their definition on a centroid taken from the exact first moments and a
diameter from all vertex pairs, the orthonormal interior DOF polynomials
from a dense Cholesky factor of the oracle's own monomial Gram (the
velocity oracles take the build's cell basis q = T m only as its stored T,
applied to these monomials), the coupled
first-order system from one dense square solve instead of the sequential
solve-then-recover pipeline, and the VTK file from one formatted write per
line.  Polygon moments come from Green's theorem, one exact Gauss rule per
edge.  Meshes whose cells are not star-shaped (a comb in the unit square, a
tiling by U-shaped blocks) are built here from integer lattice points, so
the package gains no generator for them.  The reduced matrix is rebuilt
the long way, over every DOF and then cut to the unknowns, and the
long-double refinement residual from one whole-matrix copy.
"""

import math

import numpy as np
import scipy.sparse as sp

from polydarcy.ncvem import SpdSystem, tensor_field
from polydarcy.polybasis import n_monomials
from polydarcy.polymesh import build_topology, polygon_area


def gk_perp_values(coeffs, monomials):
    """Complement members at the points of a degree-k basis table, (dim, n, 2).

    `coeffs` (2 pi_k, dim) are the members' coefficients against the vector
    basis (b_j, 0), then (0, b_j), and `monomials` (pi_k, n) the values of
    the b_j (scaled monomials, or the build's cell basis q = T m of them);
    each component is one sum over j.
    """
    nk = len(monomials)
    return np.stack([coeffs[:nk].T @ monomials, coeffs[nk:].T @ monomials], axis=-1)


def centroid_and_diameter(coords):
    """Centroid (int x, int y) / |P| by the closed-form fan integrals, and
    the largest distance between two vertices."""
    coords = np.asarray(coords, float)
    area = polygon_monomial_integral(coords, 0, 0)
    center = np.array([polygon_monomial_integral(coords, 1, 0),
                       polygon_monomial_integral(coords, 0, 1)]) / area
    return center, max(math.dist(a, b) for a in coords for b in coords)


def _scaled_coordinates(coords, k, pts):
    center, h = centroid_and_diameter(coords)
    pts = np.asarray(pts, float)
    exponents = [(d - b, b) for d in range(k + 1) for b in range(d + 1)]
    return (pts[:, 0] - center[0]) / h, (pts[:, 1] - center[1]) / h, h, exponents


def cell_monomials(coords, k: int, pts) -> np.ndarray:
    """Scaled monomials ((x - x_P)/h_P)^(a, b), a + b <= k, at pts: (pi_k, n).

    Graded-lex order, (0,0), (1,0), (0,1), (2,0), ..., on the polygon's
    centroid x_P and diameter h_P from `centroid_and_diameter`.
    """
    x, y, _, exponents = _scaled_coordinates(coords, k, pts)
    return np.array([x ** a * y ** b for a, b in exponents])


def cell_monomial_gradients(coords, k: int, pts) -> np.ndarray:
    """Gradients of `cell_monomials` at pts by the power rule: (pi_k, n, 2)."""
    x, y, h, exponents = _scaled_coordinates(coords, k, pts)
    zero = np.zeros_like(x)
    return np.array([np.column_stack([a * x ** (a - 1) * y ** b / h if a else zero,
                                      b * x ** a * y ** (b - 1) / h if b else zero])
                     for a, b in exponents])


def monomial_gram(coords, k: int, n: int = 10) -> np.ndarray:
    """L2(P) Gram of `cell_monomials` by the tensor-Gauss rule `polygon_gauss`."""
    pts, w = polygon_gauss(coords, n)
    vals = cell_monomials(coords, k, pts)
    return (vals * w) @ vals.T


def l2_projection(coords, k: int, f, n: int = 12) -> np.ndarray:
    """Coefficients against `cell_monomials` of the L2(P) projection of f onto P_k.

    Gram and moments by `polygon_gauss`, then a dense Cholesky solve.
    """
    pts, w = polygon_gauss(coords, n)
    vals = cell_monomials(coords, k, pts)
    return cholesky_solve((vals * w) @ vals.T, vals @ (w * f(pts)))


def triangle_monomial_integral(v0, v1, v2, a: int, b: int) -> float:
    """Signed integral of x^a y^b over one triangle.

    Affine map onto the reference triangle {t1, t2 >= 0, t1 + t2 <= 1} and
    the closed form int t1^p t2^q = p! q! / (p + q + 2)!, with the mapped
    monomial expanded by two double binomials.
    """
    v0 = np.asarray(v0, float)
    e1 = np.asarray(v1, float) - v0
    e2 = np.asarray(v2, float) - v0
    jac = e1[0] * e2[1] - e1[1] * e2[0]
    total = 0.0
    for i1 in range(a + 1):
        for i2 in range(a - i1 + 1):
            ca = (math.comb(a, i1) * math.comb(a - i1, i2)
                  * e1[0] ** i1 * e2[0] ** i2 * v0[0] ** (a - i1 - i2))
            if ca == 0.0:
                continue
            for j1 in range(b + 1):
                for j2 in range(b - j1 + 1):
                    cb = (math.comb(b, j1) * math.comb(b - j1, j2)
                          * e1[1] ** j1 * e2[1] ** j2 * v0[1] ** (b - j1 - j2))
                    if cb == 0.0:
                        continue
                    p, q = i1 + j1, i2 + j2
                    ref = (math.factorial(p) * math.factorial(q)
                           / math.factorial(p + q + 2))
                    total += ca * cb * ref
    return jac * total


def polygon_monomial_integral(coords, a: int, b: int) -> float:
    """Exact integral of x^a y^b over a simple polygon by a signed fan."""
    coords = np.asarray(coords, float)
    total = 0.0
    for i in range(1, len(coords) - 1):
        total += triangle_monomial_integral(coords[0], coords[i],
                                            coords[i + 1], a, b)
    return total


def green_moments(coords, exponents) -> np.ndarray:
    """Integrals of x^a y^b over a CCW polygon, one per (a, b) in `exponents`,
    by Green's theorem.

    int_P x^a y^b = 1/(a + 1) * (the boundary integral of x^(a+1) y^b dy),
    summed over the edges p + t (q - p), t in [0, 1]; the integrand is a
    polynomial of degree a + b + 1 in t, which a Gauss-Legendre rule with
    a + b + 2 nodes (here the most any pair needs) integrates exactly.
    """
    coords = np.asarray(coords, float)
    a, b = np.array(exponents).T
    t, w = np.polynomial.legendre.leggauss(int((a + b).max()) + 2)
    t, w = 0.5 * (t + 1.0), 0.5 * w
    d = np.roll(coords, -1, axis=0) - coords
    x = (coords[:, :1] + t * d[:, :1])[..., None]  # (edges, nodes, 1)
    y = (coords[:, 1:] + t * d[:, 1:])[..., None]
    edge = np.einsum("enm,n,e->m", x ** (a + 1) * y ** b, w, d[:, 1])
    return edge / (a + 1)


def _lattice_mesh(loops, denominator: int):
    """Mesh of CCW loops of integer lattice points (i, j), placed at
    (i, j) / denominator; a point shared by loops is one vertex."""
    index = {}
    cells = [[index.setdefault(point, len(index)) for point in loop] for loop in loops]
    return build_topology(np.array(list(index), dtype=float) / denominator, cells)


def comb_mesh(notches: int):
    """The unit square as one comb cell and a rectangle in each of its slots.

    On a lattice of 2m + 1 units per side (m = `notches`), slot i spans
    [2i + 1, 2i + 2] x [1, 2m + 1], so teeth and slots are one unit wide;
    m = 1 gives a U cell, m = 2 a comb of three teeth.  Cell 0 is the comb,
    whose kernel is empty, and the slots follow from left to right.
    """
    side = 2 * notches + 1
    comb = [(0, 0), (side, 0), (side, side)]
    for i in reversed(range(notches)):
        comb += [(2 * i + 2, side), (2 * i + 2, 1), (2 * i + 1, 1), (2 * i + 1, side)]
    comb.append((0, side))
    slots = [[(2 * i + 1, 1), (2 * i + 2, 1), (2 * i + 2, side), (2 * i + 1, side)]
             for i in range(notches)]
    return _lattice_mesh([comb, *slots], side)


# The U cell of `comb_mesh(1)` with its sides split at thirds (14 vertices,
# empty kernel), and the 1 x 2 notch that fills its slot.
_U_BLOCK = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (2, 3),
            (2, 1), (1, 1), (1, 3), (0, 3), (0, 2), (0, 1)]
_U_NOTCH = [(1, 1), (2, 1), (2, 3), (1, 3)]


def u_block_mesh(n: int):
    """The unit square as n x n blocks, each a U cell and its notch.

    Every block side is split at its thirds, so neighbouring blocks share
    their vertices and the tiling conforms; 2 n^2 cells.
    """
    loops = [[(3 * bx + i, 3 * by + j) for i, j in shape]
             for by in range(n) for bx in range(n) for shape in (_U_BLOCK, _U_NOTCH)]
    return _lattice_mesh(loops, 3 * n)


def first_ear_triangles(coords) -> np.ndarray:
    """First-ear clipping of one CCW loop in plain Python: (n-2, 3) indices.

    An ear tip turns strictly left, (t - p) x (q - p) > 0, and no other
    remaining vertex lies inside or on its triangle; the first ear in loop
    order is cut as (prev, tip, next), and the last three vertices are
    emitted in loop order.  Raises ValueError for a loop without an ear.
    """
    pts = [(float(x), float(y)) for x, y in coords]

    def orient(a, b, c):
        (ax, ay), (bx, by), (cx, cy) = pts[a], pts[b], pts[c]
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    loop = list(range(len(pts)))
    out = []
    while len(loop) > 3:
        for j, t in enumerate(loop):
            p, q = loop[j - 1], loop[(j + 1) % len(loop)]
            if orient(p, t, q) > 0.0 and not any(
                    orient(p, t, r) >= 0.0 and orient(t, q, r) >= 0.0
                    and orient(q, p, r) >= 0.0 for r in loop if r not in (p, t, q)):
                break
        else:
            raise ValueError("loop has no ear")
        out.append((p, t, q))
        loop.remove(t)
    out.append(tuple(loop))
    return np.array(out)


def polygon_gauss(coords, n: int = 12):
    """Signed fan tensor-Gauss rule; returns (points, weights).

    Each fan triangle is parametrized over the unit square by t1 = s,
    t2 = t (1 - s); the collapse factor (1 - s) is kept explicitly in the
    weights, so this shares nothing with the package's Jacobi-weighted rule.
    """
    coords = np.asarray(coords, float)
    s, ws = np.polynomial.legendre.leggauss(n)
    s = 0.5 * (s + 1.0)
    ws = 0.5 * ws
    t1 = np.repeat(s, n)
    t2 = np.tile(s, n) * (1.0 - t1)
    wt = np.outer(ws, ws).ravel() * (1.0 - t1)
    pts_all, w_all = [], []
    for i in range(1, len(coords) - 1):
        v0, v1, v2 = coords[0], coords[i], coords[i + 1]
        e1, e2 = v1 - v0, v2 - v0
        jac = e1[0] * e2[1] - e1[1] * e2[0]
        pts_all.append(v0[None, :] + np.outer(t1, e1) + np.outer(t2, e2))
        w_all.append(wt * jac)
    return np.vstack(pts_all), np.concatenate(w_all)


def kernel_inradius_grid(coords, n: int = 600) -> float:
    """Largest min-distance to the edge lines over a dense bounding-box grid.

    Grid estimate of the Chebyshev radius of the visibility kernel; accurate
    to about the grid spacing, so compare with a matching tolerance.
    """
    coords = np.asarray(coords, float)
    lo, hi = coords.min(axis=0), coords.max(axis=0)
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    m = len(coords)
    dist = np.full(len(pts), np.inf)
    for i in range(m):
        p0 = coords[i]
        e = coords[(i + 1) % m] - p0
        length = math.hypot(e[0], e[1])
        cross = (e[0] * (pts[:, 1] - p0[1]) - e[1] * (pts[:, 0] - p0[0]))
        dist = np.minimum(dist, cross / length)
    best = float(dist.max())
    return max(best, 0.0)


def cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense Cholesky solve, all through numpy."""
    lower = np.linalg.cholesky(np.asarray(a, float))
    y = np.linalg.solve(lower, np.asarray(b, float))
    return np.linalg.solve(lower.T, y)


def all_dof_matrix(system: SpdSystem) -> sp.csr_matrix:
    """The reduced matrix from a scatter over every DOF, cut to the unknowns.

    Every group's whole (G, N, N) stiffness blocks go into one COO matrix
    over all DOFs, the Dirichlet ones included; its CSR form (duplicates
    summed, explicit zeros dropped) is then sliced to the leading n_global
    block.
    """
    n_all = system.dofmap.n_global + len(system.dirichlet)
    rows, cols, vals = [], [], []
    for group, glob in zip(system.groups, system.group_global):
        shape = group.stiffness.shape
        rows.append(np.broadcast_to(glob[:, :, None], shape).ravel())
        cols.append(np.broadcast_to(glob[:, None, :], shape).ravel())
        vals.append(group.stiffness.ravel())
    full = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n_all, n_all)).tocsr()
    full.eliminate_zeros()
    n = system.dofmap.n_global
    return full[:n, :n]


def refine_floor_whole(csr, b, x, correct) -> np.ndarray:
    """Long-double iterative refinement with one long-double copy of all of A.

    The passes and the stopping rule of `linsolve._refine_floor`.
    """
    xl = np.asarray(x, dtype=np.longdouble)
    al = csr.astype(np.longdouble)
    bl = np.asarray(b, dtype=np.longdouble)
    done = 256.0 * np.finfo(float).eps
    for _ in range(3):
        delta = correct(np.asarray(bl - al @ xl, dtype=float))
        xl = xl + delta
        if np.linalg.norm(delta) <= done * np.linalg.norm(np.asarray(xl, float)):
            break
    return np.asarray(xl, dtype=float)


def edge_legendre(t, k: int) -> np.ndarray:
    """Orthonormal edge polynomials sqrt(2b + 1) P_b(2t - 1), b <= k, at t in [0, 1].

    t runs along the stored edge direction, and P_b comes from Bonnet's
    recurrence (b + 1) P_{b+1}(x) = (2b + 1) x P_b(x) - b P_{b-1}(x); the
    rows are orthonormal in int_0^1 dt.  Returns (k+1, len(t)).
    """
    x = 2.0 * np.asarray(t, float) - 1.0
    rows = [np.ones_like(x), x]
    for b in range(1, k):
        rows.append(((2 * b + 1) * x * rows[b] - b * rows[b - 1]) / (b + 1))
    return np.vstack([math.sqrt(2 * b + 1) * rows[b] for b in range(k + 1)])


def cell_edges(mesh, c: int) -> tuple:
    """Edge ids (n,) of cell c in loop order and their signs (n,).

    Each side (v_i, v_i+1) of the loop is looked up among the stored edges
    by its two endpoints; its sign is +1 when the stored edge runs v_i -> v_i+1.
    """
    loop = mesh.cells[c]
    head = np.roll(loop, -1)
    ends = np.sort(mesh.edges, axis=1)
    ids = np.array([np.flatnonzero((ends[:, 0] == min(a, b)) & (ends[:, 1] == max(a, b)))[0]
                    for a, b in zip(loop.tolist(), head.tolist())])
    return ids, np.where(mesh.edges[ids, 0] == loop, 1, -1)


def exact_local_dofs(mesh, c: int, k: int, p) -> np.ndarray:
    """Edge and interior scaled moments of an exact pressure on cell c.

    The edge moments are against `edge_legendre`.  The interior moments are
    (1/|P|) int_P p q with q = T m over the `cell_monomials` m of degree
    k-1 and T = sqrt|P| L^{-1}, L L^T their Gram: q is orthonormal in
    (1/|P|) int_P, which fixes the DOF meaning.  Every integral is a plain
    Gauss rule.
    """
    edge_ids = cell_edges(mesh, c)[0]
    nkm1 = n_monomials(k - 1)
    out = np.zeros(len(edge_ids) * (k + 1) + nkm1)
    gx, gw = np.polynomial.legendre.leggauss(k + 6)
    t = 0.5 * (gx + 1.0)
    for pos, e in enumerate(edge_ids):
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        pts = va[None, :] + t[:, None] * (vb - va)[None, :]
        vals = edge_legendre(t, k)
        out[pos * (k + 1):(pos + 1) * (k + 1)] = vals @ (0.5 * gw * p(pts))
    if nkm1:
        coords = mesh.vertices[mesh.cells[c]]
        pts, w = polygon_gauss(coords, 12)
        vals = cell_monomials(coords, k - 1, pts)
        lower = np.linalg.cholesky((vals * w) @ vals.T)
        out[len(edge_ids) * (k + 1):] = (np.linalg.solve(lower, vals @ (w * p(pts)))
                                         / math.sqrt(polygon_area(coords)))
    return out


def dirichlet_lift(system: SpdSystem, c: int) -> np.ndarray:
    """Local DOF vector of cell c holding its Dirichlet edge values, zero elsewhere.

    The Dirichlet DOFs are numbered from `dofmap.n_global` on, so the known
    values of every DOF are zeros for the unknowns, then `system.dirichlet`.
    """
    known = np.concatenate([np.zeros(system.dofmap.n_global), system.dirichlet])
    return known[system.dofmap.global_indices(cell_edges(system.mesh, c)[0], c)]


def exact_velocity_dofs(system: SpdSystem, velocity):
    """Edge-normal coefficients and cell moments of an analytic velocity.

    Matches the layout of the recovered velocity DOFs: per-edge Legendre
    coefficients of u . n, its moments against the globally oriented
    `edge_legendre` polynomials, then
    per-cell the scaled gradient moments (1/|P|) int_P u . grad q over the
    nonconstant members of degree <= k of the build's cell basis
    q = T m (`NcElement.basis`, applied to `cell_monomials`), and the moments
    against the gradient-complement basis.
    """
    mesh = system.mesh
    k = system.k
    nk = n_monomials(k)
    gx, gw = np.polynomial.legendre.leggauss(k + 6)
    t = 0.5 * (gx + 1.0)
    edge = np.zeros((mesh.num_edges, k + 1))
    for e in range(mesh.num_edges):
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        pts = va[None, :] + t[:, None] * (vb - va)[None, :]
        un = velocity(pts) @ mesh.edge_normals[e]
        edge[e] = edge_legendre(t, k) @ (0.5 * gw * un)
    grad = [None] * mesh.num_cells
    perp = [None] * mesh.num_cells
    for element in system.groups:
        for row, c in enumerate(element.group.cells):
            coords = mesh.vertices[mesh.cells[c]]
            area = polygon_area(coords)
            pts, w = polygon_gauss(coords, 12)
            u = velocity(pts)
            gm = np.einsum("ij,jqd->iqd", element.basis[row, :nk, :nk],
                           cell_monomial_gradients(coords, k, pts))[1:]
            grad[c] = (gm[:, :, 0] @ (w * u[:, 0])
                       + gm[:, :, 1] @ (w * u[:, 1])) / area
            gv = gk_perp_values(element.gk_perp[row],
                                element.basis[row, :nk, :nk] @ cell_monomials(coords, k, pts))
            perp[c] = (gv[:, :, 0] @ (w * u[:, 0])
                       + gv[:, :, 1] @ (w * u[:, 1])) / area
    return edge, grad, perp


def cholesky_solve_longdouble(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Textbook unpivoted Cholesky solve carried out in long double.

    For ill-conditioned systems the extended-precision forward error is
    roughly cond(a) * 1e-19, far below what any double solve can reach, so
    this serves as ground truth when checking forward accuracy.
    """
    a = np.asarray(a, dtype=np.longdouble)
    b = np.asarray(b, dtype=np.longdouble)
    n = a.shape[0]
    lower = np.zeros_like(a)
    for j in range(n):
        pivot = np.sqrt(a[j, j] - lower[j, :j] @ lower[j, :j])
        lower[j, j] = pivot
        if j + 1 < n:
            lower[j + 1:, j] = (a[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / pivot
    y = np.zeros(n, dtype=np.longdouble)
    for i in range(n):
        y[i] = (b[i] - lower[i, :i] @ y[:i]) / lower[i, i]
    x = np.zeros(n, dtype=np.longdouble)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - lower[i + 1:, i] @ x[i + 1:]) / lower[i, i]
    return np.asarray(x, dtype=float)


def monolithic_solve(system: SpdSystem, K):
    """Dense solve of the coupled flux/pressure square system.

    Unknowns: per edge (boundary edges included) the k+1 Legendre
    coefficients of u . n along the globally oriented edge; per cell the
    pi_k - 1 scaled gradient moments (against the gradients of the build's
    cell basis q = T m) and the complement moments of u; then the free
    pressure DOFs.  Equations per cell: the flux-balance relation
    for every local pressure test slot except the first edge's zeroth
    moment (testing with the constant function yields one identically
    trivial combination), the complement pairing of u against every member
    of the gradient-complement basis, and the divergence-moment match for
    every member of q up to degree k.  The count is square by the
    edge-count identity.  Returns (edge_coeffs, grad_moments,
    gkperp_moments, pressure), shaped like the pipeline's recovery output.
    """
    mesh = system.mesh
    k = system.k
    nk = n_monomials(k)
    ne = mesh.num_edges
    nc = mesh.num_cells
    n_grad = nk - 1
    gdim = system.groups[0].gk_perp.shape[-1] if nc else 0
    kfun = tensor_field(K)
    c_off = 0
    nu_off = c_off + (k + 1) * ne
    kp_off = nu_off + n_grad * nc
    p_off = kp_off + gdim * nc
    n_total = p_off + system.dofmap.n_global

    rows_a = sum(len(g.group.cells) * (g.stiffness.shape[-1] - 1) for g in system.groups)
    rows_b = gdim * nc
    rows_c = nk * nc
    if rows_a + rows_b + rows_c != n_total:
        raise AssertionError("monolithic system is not square")

    amat = np.zeros((n_total, n_total))
    rhs = np.zeros(n_total)
    row = 0
    for g in system.groups:
        for m, c in enumerate(g.group.cells):
            coords = mesh.vertices[mesh.cells[c]]
            n_edges, n_dofs, area = g.n_edges, g.stiffness.shape[-1], polygon_area(coords)
            edge_ids, edge_signs = cell_edges(mesh, c)
            glob = system.dofmap.global_indices(edge_ids, c)
            free = glob < system.dofmap.n_global
            lifted = dirichlet_lift(system, c)

            def add_pressure(r, weights):
                amat[r, p_off + glob[free]] += weights[free]
                rhs[r] -= float(weights @ lifted)

            # r_gamma(u), the divergence moments, as sparse row templates over
            # the edge-flux and gradient-moment unknowns
            div_cols = []
            for gamma in range(nk):
                cols = {}
                for pos in range(n_edges):
                    e = edge_ids[pos]
                    sgn = edge_signs[pos]
                    cross = g.edge_cross[m, pos, :, gamma]
                    for beta in range(k + 1):
                        key = c_off + (k + 1) * e + beta
                        cols[key] = cols.get(key, 0.0) + sgn * cross[beta]
                if gamma >= 1:
                    cols[nu_off + n_grad * c + gamma - 1] = -area
                div_cols.append(cols)

            for i in range(n_dofs):
                if i == 0:
                    continue  # the dropped, linearly dependent test slot
                if i < n_edges * (k + 1):
                    pos, alpha = divmod(i, k + 1)
                    e = edge_ids[pos]
                    amat[row, c_off + (k + 1) * e + alpha] += (
                        edge_signs[pos] * g.edge_lengths[m, pos])
                proj_i = g.p0[m, :nk, i]
                for gamma in range(nk):
                    w = proj_i[gamma]
                    if w == 0.0:
                        continue
                    for col, val in div_cols[gamma].items():
                        amat[row, col] -= w * val
                add_pressure(row, g.stiffness[m, i])
                row += 1

            if gdim:
                # weighted Gram of the vector q basis against the complement
                # members, by the independent tensor-Gauss rule
                pts, w = polygon_gauss(coords, n=12)
                kv = kfun(pts)
                mv = g.basis[m, :nk, :nk] @ cell_monomials(coords, k, pts)
                gv = gk_perp_values(g.gk_perp[m], mv)
                for j in range(gdim):
                    kg_x = kv[:, 0, 0] * gv[j, :, 0] + kv[:, 1, 0] * gv[j, :, 1]
                    kg_y = kv[:, 0, 1] * gv[j, :, 0] + kv[:, 1, 1] * gv[j, :, 1]
                    wg = np.concatenate([mv @ (w * kg_x), mv @ (w * kg_y)])
                    amat[row, kp_off + gdim * c + j] = area
                    add_pressure(row, wg @ g.grad_proj[m])
                    row += 1

            for gamma in range(nk):
                for col, val in div_cols[gamma].items():
                    amat[row, col] += val
                rhs[row] = g.f_moments[m, gamma]
                row += 1

    x = np.linalg.solve(amat, rhs)
    edge_coeffs = x[c_off:nu_off].reshape(ne, k + 1)
    grad_moments = [x[nu_off + n_grad * c:nu_off + n_grad * (c + 1)]
                    for c in range(nc)]
    gkperp_moments = [x[kp_off + gdim * c:kp_off + gdim * (c + 1)]
                      for c in range(nc)]
    pressure = x[p_off:]
    return edge_coeffs, grad_moments, gkperp_moments, pressure


def export_vtk_reference(result, path: str) -> None:
    """Line-by-line legacy VTK writer: the reference for `export_vtk`'s bytes.

    One formatted write per output line, with the specifiers the package's
    writer must reproduce (`%.16e` for reals, plain integers in CELLS).
    """
    mesh = result.mesh
    nc = mesh.num_cells
    vel = result.velocity
    pressure = vel.pressure.centroid_values()[:, 0]
    div_u = vel.divergence.centroid_values()[:, 0]
    velocity = vel.projected.centroid_values()
    rt = None if vel.rt is None else vel.rt.centroid_values()

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("polydarcy fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.16e} {y:.16e} 0.0\n")
        total = sum(len(loop) + 1 for loop in mesh.cells)
        fh.write(f"CELLS {nc} {total}\n")
        for loop in mesh.cells:
            fh.write(f"{len(loop)} " + " ".join(str(int(v)) for v in loop) + "\n")
        fh.write(f"CELL_TYPES {nc}\n")
        for _ in range(nc):
            fh.write("7\n")  # VTK_POLYGON
        fh.write(f"CELL_DATA {nc}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        for v in pressure:
            fh.write(f"{v:.16e}\n")
        fh.write("SCALARS div_velocity double 1\nLOOKUP_TABLE default\n")
        for v in div_u:
            fh.write(f"{v:.16e}\n")
        fh.write("VECTORS velocity double\n")
        for vx, vy in velocity:
            fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")
        if rt is not None:
            fh.write("VECTORS rt_velocity double\n")
            for vx, vy in rt:
                fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")
