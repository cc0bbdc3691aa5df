"""Scaled polynomial bases and quadrature on polygons and edges.

Cell polynomials are spanned by scaled monomials

    m_alpha(x) = ((x - x_D)/h_D)^alpha,   |alpha| <= k,

ordered graded-lexicographically: (0,0), (1,0), (0,1), (2,0), (1,1),
(0,2), ...  with x_D the polygon centroid and h_D its diameter.  Edge
polynomials use the signed arclength from the edge midpoint scaled by the
edge length, measured along the globally stored tangent so that moments on a
shared edge mean the same thing to both incident cells.  On the reference
segment that parameter is t - 1/2 for every edge, so one cached table per
order and rule (`edge_reference`) gives the edge moments and the L2 edge
projector of all edges.

Quadrature on a simple polygon cuts it into its n - 2 ears, the first ear
in loop order at each step, so it needs no star point and no triangle has
zero area.  A Gauss-Jacobi x Gauss-Legendre tensor rule is mapped onto each
ear through the collapsed-square transform, giving positive weights and
exactness up to the requested degree.  The rule records its ears, and a
rule of another degree on the same loops takes them instead of cutting
again, with the same points and weights.  Both one-dimensional rules are
computed with numpy: Gauss-Legendre by `leggauss`, Gauss-Jacobi by
Golub-Welsch.

Cell Grams are symmetric positive definite, so every solve with one runs
through its batched Cholesky factor (`inverse_cholesky`, `factor_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .polymesh import MeshError, polygon_centroid, polygon_diameter


def n_monomials(k: int) -> int:
    """Dimension of P_k in two variables: (k+1)(k+2)/2.  Zero for k < 0."""
    if k < 0:
        return 0
    return (k + 1) * (k + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(k: int) -> tuple[tuple[int, int], ...]:
    """Graded-lex exponent pairs (a, b) for all |a + b| <= k."""
    out = []
    for d in range(k + 1):
        for b in range(d + 1):
            out.append((d - b, b))
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(a: int, b: int) -> int:
    """Position of x^a y^b in the graded-lex ordering."""
    d = a + b
    return d * (d + 1) // 2 + b


@dataclass
class ScaledMonomialBasis:
    """Monomials ((x - center)/diameter)^alpha up to a total degree.

    `center` (..., 2) and `diameter` (...) may carry a leading stack axis,
    one basis per cell of a group; `evaluate` and `evaluate_gradient` then
    take points (..., n, 2).
    """

    center: np.ndarray
    diameter: float | np.ndarray
    degree: int

    def __post_init__(self):
        self.exponents = np.array(monomial_exponents(self.degree), dtype=np.int64)

    def __len__(self) -> int:
        return n_monomials(self.degree)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values of all members at points (..., n, 2); returns (..., n_members, n)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        center = np.asarray(self.center)[..., None, :]
        scale = np.asarray(self.diameter)[..., None]
        xi = (pts[..., 0] - center[..., 0]) / scale
        eta = (pts[..., 1] - center[..., 1]) / scale
        xpow, ypow = [np.ones_like(xi)], [np.ones_like(eta)]
        for _ in range(self.degree):
            xpow.append(xpow[-1] * xi)
            ypow.append(ypow[-1] * eta)
        out = np.empty(xi.shape[:-1] + (len(self), xi.shape[-1]))
        for j, (a, b) in enumerate(self.exponents):
            np.multiply(xpow[a], ypow[b], out=out[..., j, :])
        return out

    def evaluate_gradient(self, points: np.ndarray) -> np.ndarray:
        """Gradients of all members at points (..., n, 2): (..., n_members, n, 2)."""
        vals = self.evaluate(points)
        grads = np.zeros(vals.shape + (2,))
        h = np.asarray(self.diameter)[..., None]
        for j, (a, b) in enumerate(self.exponents):
            if a > 0:
                grads[..., j, :, 0] = (a / h) * vals[..., monomial_index(a - 1, b), :]
            if b > 0:
                grads[..., j, :, 1] = (b / h) * vals[..., monomial_index(a, b - 1), :]
        return grads


def cell_basis(coords: np.ndarray, k: int) -> ScaledMonomialBasis:
    """Scaled monomial basis of a polygon: centroid center, diameter scale."""
    return ScaledMonomialBasis(
        center=polygon_centroid(coords),
        diameter=polygon_diameter(coords),
        degree=k,
    )


@lru_cache(maxsize=None)
def _gauss_legendre01(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


@lru_cache(maxsize=None)
def _gauss_jacobi01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - x) on [0, 1], by Golub-Welsch.

    The nodes are the eigenvalues of the Jacobi matrix of the weight
    (1 - t)^1 (1 + t)^0 on [-1, 1]; the weights are the Christoffel numbers
    1 / sum_j p_j(t)^2 of its orthonormal polynomials, run by their
    three-term recurrence from p_0 = 1/sqrt(2) (the weight has mass 2).
    """
    # recurrence coefficients a_j, b_j at alpha = 1, beta = 0; s = 2j + 1
    j = np.arange(n, dtype=float)
    s = 2.0 * j + 1.0
    a = -1.0 / (s * (s + 2.0))
    m, t = j[1:], s[1:]
    b = np.sqrt(np.concatenate([[0.0], 4.0 * m ** 2 * (m + 1.0) ** 2
                                / (t ** 2 * (t + 1.0) * (t - 1.0))]))
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(b[1:], 1) + np.diag(b[1:], -1))
    # b_{i+1} p_{i+1} = (x - a_i) p_i - b_i p_{i-1}, with b_0 = 0
    p_prev, p = np.zeros(n), np.full(n, 1.0 / np.sqrt(2.0))
    total = p * p
    for i in range(n - 1):
        p_prev, p = p, ((x - a[i]) * p - b[i] * p_prev) / b[i + 1]
        total += p * p
    return (x + 1.0) / 2.0, 1.0 / (4.0 * total)


@dataclass(frozen=True)
class EdgeReference:
    """Edge-monomial tables on the reference segment t in [0, 1].

    An edge f from a to b (stored orientation) is x(t) = a + t (b - a), and
    its monomials s^b use s = t - 1/2, the signed arclength from the midpoint
    over |f|.  The tables therefore serve every edge alike:

        int_f s^b v ds = |f| (moments @ v(x(nodes)))[b],

    and `projector @ v(x(nodes))` holds the coefficients of the L2(f)
    projection of v onto span{s^b : b <= k}, because the edge Gram is |f|
    times the fixed G_k[i, j] = (1/2)^(i+j) / (i+j+1) (zero for odd i+j) and
    |f| cancels.  Exact for v of degree <= 2 npoints - 1 - k.
    """

    nodes: np.ndarray       # (n,) Gauss-Legendre nodes in [0, 1]
    moments: np.ndarray     # (k+1, n) V W: monomial values times weights
    projector: np.ndarray   # (k+1, n) G_k^{-1} V W


@lru_cache(maxsize=None)
def edge_reference(k: int, npoints: int) -> EdgeReference:
    """Cached reference tables for edge order k on an npoints Gauss rule."""
    t, w = _gauss_legendre01(npoints)
    s = t - 0.5
    moments = np.vstack([s ** b for b in range(k + 1)]) * w
    p = np.add.outer(np.arange(k + 1), np.arange(k + 1))
    gram = np.where(p % 2 == 0, 0.5 ** p / (p + 1), 0.0)
    projector = np.linalg.solve(gram, moments)
    for table in (t, moments, projector):  # shared through the caches
        table.setflags(write=False)
    return EdgeReference(nodes=t, moments=moments, projector=projector)


@dataclass
class PolyQuadrature:
    """Positive-weight quadrature exact for polynomials up to `degree`.

    `ears` (..., n-2, 3) are the vertex indices of the triangles the rule
    was mapped onto, so a later rule on the same loops can reuse them.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int
    ears: np.ndarray


def ear_triangles(coords: np.ndarray) -> np.ndarray:
    """(..., n-2, 3) vertex indices of the first-ear triangulation of a stack
    of simple CCW loops (..., n, 2) with one vertex count.

    An ear is a vertex whose turn (prev, tip, next) is strictly convex and
    whose triangle holds no other remaining vertex, inside or on its
    boundary.  Each step cuts the first ear in the current loop order as
    (prev, tip, next), one stacked step for all loops; the last three
    vertices are emitted in loop order.  Every simple polygon has an ear
    (Meisters, "Polygons have ears", 1975); a loop that has none, clockwise
    or self-intersecting, raises MeshError naming its position in the
    flattened stack.  Each step tests every tip's three sides against every
    vertex, so memory grows as n^2 per loop.
    """
    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    g = len(flat)
    loop = np.arange(g)
    # vertex-major (n, G), so that the stacked arithmetic runs along the loops
    x, y = flat[..., 0].T.copy(), flat[..., 1].T.copy()
    alive = np.ones((n, g), dtype=bool)
    # the remaining loops as linked lists of positions vertex * G + loop:
    # link[:, j] = (prev, j, next, prev) of vertex j
    vert = np.arange(n)[:, None]
    link = np.stack([vert - 1, vert, vert + 1, vert - 1]) % n * g + loop
    ears = np.empty((n - 2, 3, g), dtype=np.intp)
    for step in range(n - 2):
        # the sides a -> b (p -> t, t -> q, q -> p) of every tip's triangle
        # against every vertex r: turn[side, tip, r] = (b - a) x (r - a)
        cx, cy = x.take(link), y.take(link)
        turn = y - cy[:3, :, None]
        turn *= (cx[1:] - cx[:3])[:, :, None]
        cross = x - cx[:3, :, None]
        cross *= (cy[1:] - cy[:3])[:, :, None]
        turn -= cross
        # r covers a tip: on or left of all three sides, remaining, no corner
        covers = turn.min(axis=0) >= 0.0
        covers &= alive
        covers.reshape(n, -1)[vert, link[:3]] = False
        convex = turn[0].reshape(n, -1)[vert, link[2]] > 0.0
        ear = alive & convex & ~covers.any(axis=1)
        tip = ear.argmax(axis=0)  # the first ear; vertex 0 if there is none
        if not ear[tip, loop].all():
            bad = np.argmin(ear[tip, loop])
            raise MeshError(f"loop {bad} has no ear: not a simple counterclockwise polygon")
        if step == n - 3:
            ears[step] = np.nonzero(alive.T)[1].reshape(g, 3).T * g + loop
            break
        ears[step] = cut = link[:3, tip, loop]
        link.reshape(4, -1)[2, cut[0]] = cut[2]
        link.reshape(4, -1)[::3, cut[2]] = cut[0]
        alive.reshape(-1)[cut[1]] = False
    return (ears // g).transpose(2, 0, 1).reshape(coords.shape[:-2] + (n - 2, 3))


def polygon_quadrature(coords: np.ndarray, degree: int,
                       ears: np.ndarray | None = None) -> PolyQuadrature:
    """Quadrature on a simple CCW polygon, exact to the requested degree.

    The polygon is cut into its n - 2 ears (`ear_triangles`), so no
    triangle has zero area; each ear (p, t, q) is integrated by the
    collapsed-square map x = p + a (t - p) + b (1 - a) (q - p), whose
    Jacobian (1 - a) is absorbed into a Gauss-Jacobi rule, so all weights
    stay positive.  A stack of loops (..., n, 2) with one vertex count
    gives points (..., nq, 2) and weights (..., nq); every member has the
    same nq = (n - 2) x (nodes per triangle).  A loop without an ear
    (clockwise or self-intersecting) raises MeshError.  Passing `ears`, the
    `ears` of an earlier rule on the same loops, skips the cut and gives
    the same points and weights bit for bit.
    """
    coords = np.asarray(coords, dtype=float)
    n1 = max(1, (degree + 2 + 1) // 2)  # Jacobi direction carries degree+1
    a, wa = _gauss_jacobi01(n1)
    n2 = max(1, (degree + 1 + 1) // 2)
    b, wb = _gauss_legendre01(n2)
    # reference-triangle nodes (u, v): u = a, v = b (1 - a)
    u = np.repeat(a, n2)
    v = (b[None, :] * (1.0 - a[:, None])).ravel()
    wt = (wa[:, None] * wb[None, :]).ravel()

    # corners (G, n-2, 3, 2) of the ears, legs from their first corner
    lead, n = coords.shape[:-2], coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    ears = ear_triangles(coords) if ears is None else ears
    corners = flat[np.arange(len(flat))[:, None, None], ears.reshape(len(flat), n - 2, 3)]
    origin = corners[..., 0, :]
    e1 = corners[..., 1, :] - origin
    e2 = corners[..., 2, :] - origin
    jac = e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0]  # 2 * areas
    # (origin + u e1) + v e2, accumulated in place one coordinate at a time
    pts = np.empty(e1.shape[:-1] + (len(u), 2))
    for d in range(2):
        x = pts[..., d]
        np.multiply(e1[..., d, None], u, out=x)
        x += origin[..., d, None]
        x += e2[..., d, None] * v
    return PolyQuadrature(points=pts.reshape(lead + (-1, 2)),
                          weights=(jac[..., None] * wt).reshape(lead + (-1,)),
                          degree=degree, ears=ears)


def mass_matrix(coords: np.ndarray, k: int, quad: PolyQuadrature | None = None) -> np.ndarray:
    """Gram matrix of the scaled monomials of degree <= k on the polygon."""
    basis = cell_basis(coords, k)
    if quad is None or quad.degree < 2 * k:
        quad = polygon_quadrature(coords, 2 * k)
    vals = basis.evaluate(quad.points)
    return (vals * quad.weights) @ vals.T


@dataclass
class GkPerpBasis:
    """L2-orthonormal basis of the complement of gradients in (P_k)^2.

    Members are columns of `coeffs`: vector polynomials sum_j coeffs[j, i] g_j
    where g_j runs over (m_j, 0) for j < pi_k then (0, m_j).  The complement
    is of dimension 2 pi_k - pi_{k+1} + 1 and is empty for k = 0.
    """

    basis: ScaledMonomialBasis
    coeffs: np.ndarray

    @property
    def dim(self) -> int:
        return self.coeffs.shape[-1]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Values (..., dim, n, 2) of all members at the points (..., n, 2)."""
        vals = self.basis.evaluate(points)
        nk = len(self.basis)
        return np.stack([self.coeffs[..., :nk, :].mT @ vals,
                         self.coeffs[..., nk:, :].mT @ vals], axis=-1)


def gk_perp_dimension(k: int) -> int:
    return 2 * n_monomials(k) - n_monomials(k + 1) + 1


@lru_cache(maxsize=None)
def _exponent_gradients(k: int) -> np.ndarray:
    """`gradient_coefficient_matrix` at diameter 1: the exponents a and b."""
    cols = monomial_exponents(k)
    nk = n_monomials(k - 1)
    e = np.zeros((2 * nk, len(cols)))
    for j, (a, b) in enumerate(cols):
        if a > 0:
            e[monomial_index(a - 1, b), j] = a
        if b > 0:
            e[nk + monomial_index(a, b - 1), j] = b
    e.setflags(write=False)  # shared through the cache
    return e


def gradient_coefficient_matrix(k: int, diameter) -> np.ndarray:
    """E with E[:, j] = coefficients of grad m_j in the vector basis of P_{k-1}...

    Columns run over the degree-k cell monomials (pi_k of them); rows are the
    2 pi_{k-1} vector monomials.  Used with k+1-degree bases to express exact
    gradients of the pressure space.  A stack of diameters (...) gives a
    stack of tables (..., 2 pi_{k-1}, pi_k).
    """
    return _exponent_gradients(k) / np.asarray(diameter, dtype=float)[..., None, None]


@lru_cache(maxsize=None)
def _gradient_annihilator(k: int) -> np.ndarray:
    """Orthonormal null space Z (2 pi_k, dim) of E^T, for E the exact-gradient
    table of P_{k+1} at diameter 1 without its constant column.

    A cell's diameter only scales E, so one Z serves every cell.
    """
    e = _exponent_gradients(k + 1)[:, 1:]
    z = np.linalg.svd(e)[0][:, e.shape[1]:]
    z.setflags(write=False)  # shared through the cache
    return z


def inverse_cholesky(gram: np.ndarray, cells=None, what: str = "Gram") -> np.ndarray:
    """L^{-1} for the Cholesky factor gram = L L^T of one SPD matrix or a stack.

    numpy has no batched triangular solve, so the inverse is built by row
    substitution vectorized over the stack, one step per row; each column is
    the forward substitution of a unit vector.  Apply it with `factor_solve`.
    The leading n x n block of L^{-1} is the inverse factor of the leading
    n x n block of `gram`.  Raises ValueError naming the first member (by
    `cells`, default its position in the stack) whose factorization fails
    or is not finite, with `what` naming the matrix.
    """
    flat = gram.reshape((-1,) + gram.shape[-2:])
    try:
        lower = np.linalg.cholesky(flat)
    except np.linalg.LinAlgError:
        lower = None
        ok = np.array([_cholesky_ok(g) for g in flat])
    else:
        inv = np.zeros_like(lower)
        for i in range(lower.shape[-1]):
            # row i of L X = I, over its nonzero columns 0..i
            row = -(lower[:, i, None, :i] @ inv[:, :i, :i + 1])[:, 0]
            row[:, i] += 1.0
            inv[:, i, :i + 1] = row / lower[:, i, i, None]
        ok = np.isfinite(lower).all(axis=(1, 2)) & np.isfinite(inv).all(axis=(1, 2))
    if lower is None or not ok.all():
        bad = int(np.argmin(ok))
        name = bad if cells is None else np.ravel(cells)[bad]
        raise ValueError(
            f"cell {name}: {what} is not positive definite or not finite; "
            "degenerate cell geometry or broken quadrature"
        )
    return inv.reshape(gram.shape)


def factor_solve(inv_lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^{-1} rhs as the two triangular products L^{-T} (L^{-1} rhs).

    `inv_lower` is `inverse_cholesky(gram)`; gram^{-1} itself is never
    formed, which would cost accuracy at the rounding floor.
    """
    return inv_lower.mT @ (inv_lower @ rhs)


def _cholesky_ok(matrix: np.ndarray) -> bool:
    try:
        return bool(np.isfinite(np.linalg.cholesky(matrix)).all())
    except np.linalg.LinAlgError:
        return False


def gradient_gram(mass_k: np.ndarray, emat: np.ndarray) -> np.ndarray:
    """H' = E'^T M_vec E', the L2(P) Gram of the gradients of the
    nonconstant degree-(k+1) scaled monomials.

    `mass_k` is the degree-k Gram and `emat` the degree-(k+1)
    `gradient_coefficient_matrix`, both possibly stacked; E' drops the
    table's zero constant column, so H' is SPD, (..., pi_{k+1}-1, pi_{k+1}-1).
    """
    nk = mass_k.shape[-1]
    ex, ey = emat[..., :nk, 1:], emat[..., nk:, 1:]
    return ex.mT @ mass_k @ ex + ey.mT @ mass_k @ ey


def gk_perp_basis(basis: ScaledMonomialBasis, inv_factor: np.ndarray,
                  cells=None) -> GkPerpBasis:
    """Construct the orthonormal complement basis on one polygon or a stack.

    `basis` is the cell's degree-k scaled monomial basis and `inv_factor`
    `inverse_cholesky(mass_k)` of its Gram matrix on the cell, both stacked
    for a group.  The complement is the kernel of the pairing of (P_k)^2
    against exact gradients of P_{k+1}, so it is M_vec^{-1} Z with Z the
    fixed null space of the transposed gradient table; M_vec^{-1} Z is
    orthonormalized in the L2(P) inner product as M_vec^{-1} Z L^{-T}, with
    L the Cholesky factor of its small Gram Z^T M_vec^{-1} Z.  The basis is
    unique up to an orthogonal change within the complement (a sign at
    k = 1).  Raises ValueError naming the first member (by `cells`, default
    its position in the stack) whose small Gram is not positive definite or
    not finite.
    """
    k = basis.degree
    nk = n_monomials(k)
    z = _gradient_annihilator(k)
    if z.shape[1] == 0:
        return GkPerpBasis(basis=basis, coeffs=np.zeros(inv_factor.shape[:-2] + z.shape))
    # M_vec^{-1} Z one diagonal block (x, then y) at a time
    mz = factor_solve(inv_factor[..., None, :, :], z.reshape(2, nk, -1))
    mz = mz.reshape(mz.shape[:-3] + z.shape)
    inv_small = inverse_cholesky(z.T @ mz, cells, "gradient-complement Gram")
    return GkPerpBasis(basis=basis, coeffs=mz @ inv_small.mT)


def l2_project_function(
    coords: np.ndarray,
    k: int,
    func,
    quad: PolyQuadrature | None = None,
) -> np.ndarray:
    """Coefficients of the L2(P) projection of a scalar function onto P_k."""
    basis = cell_basis(coords, k)
    if quad is None:
        # data term needs headroom beyond the Gram's 2k exactness
        quad = polygon_quadrature(coords, 2 * k + 8)
    vals = basis.evaluate(quad.points)
    fvals = np.asarray(func(quad.points), dtype=float)
    rhs = vals @ (quad.weights * fvals)
    mk = (vals * quad.weights) @ vals.T
    return factor_solve(inverse_cholesky(mk, what="monomial Gram"), rhs)
