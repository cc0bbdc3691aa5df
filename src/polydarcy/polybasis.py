"""Scaled polynomial bases and quadrature on polygons and edges.

Cell polynomials are spanned by scaled monomials

    m_alpha(x) = ((x - x_D)/h_D)^alpha,   |alpha| <= k,

ordered graded-lexicographically: (0,0), (1,0), (0,1), (2,0), (1,1),
(0,2), ...  with x_D the polygon centroid and h_D its diameter, as the
mesh's cell groups keep them; `scaled_monomials` evaluates them for one
cell or a stack.  Edge polynomials are the orthonormal Legendre polynomials
phi_b(t) = sqrt(2b + 1) P_b(2t - 1) of the reference parameter t in [0, 1],
measured along the globally stored tangent so that moments on a shared
edge mean the same thing to both incident cells.  Their edge Gram is |f|
times the identity on every edge, so one cached table per order and rule
(`edge_reference`) gives the edge moments, the edge means and the L2 edge
projection coefficients of all edges, and no edge Gram is ever solved.

Quadrature on a polygon maps a Gauss-Jacobi x Gauss-Legendre tensor rule
onto each of the n - 2 triangles it is given, through the collapsed-square
transform, giving positive weights and exactness up to the requested
degree.  The triangles are the polygon's ears (`polymesh.ear_triangles`),
which `build_topology` cuts once per mesh and keeps on its cell groups, so
the rule needs no star point and no triangle has zero area.  Both
one-dimensional rules are computed with numpy: Gauss-Legendre by
`leggauss`, Gauss-Jacobi by Golub-Welsch.

The element build does its projector algebra in the cell basis q = T m
orthonormal in the scaled product (1/|P|) int_P, with T = sqrt|P| L^{-1}
from the Cholesky factor L of the degree-(k+1) monomial Gram: graded-lex
order makes the leading blocks of T the bases of the lower degrees, and
q_0 = 1.  Tables are formed in the monomials and moved to q on their small
coefficient axes, never by evaluating q.  The Grams that remain (the one
monomial Gram behind T, the gradient Gram of q and the small Gram of the
gradient complement) are symmetric positive definite and factored batched
(`cholesky_factors`, applied by `factor_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


def scaled_monomials(points: np.ndarray, center, diameter, degree: int) -> np.ndarray:
    """Values of ((x - center)/diameter)^alpha, |alpha| <= degree, at points.

    Points (..., n, 2) give (..., pi_degree, n).  `center` (..., 2) and
    `diameter` (...) may carry a leading stack axis, one basis per cell of a
    group, matching that of the points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    center = np.asarray(center)[..., None, :]
    scale = np.asarray(diameter)[..., None]
    xi = (pts[..., 0] - center[..., 0]) / scale
    eta = (pts[..., 1] - center[..., 1]) / scale
    xpow, ypow = [np.ones_like(xi)], [np.ones_like(eta)]
    for _ in range(degree):
        xpow.append(xpow[-1] * xi)
        ypow.append(ypow[-1] * eta)
    out = np.empty(xi.shape[:-1] + (n_monomials(degree), xi.shape[-1]))
    for j, (a, b) in enumerate(monomial_exponents(degree)):
        np.multiply(xpow[a], ypow[b], out=out[..., j, :])
    return out


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
    """Edge-basis tables on the reference segment t in [0, 1].

    An edge f from a to b (stored orientation) is x(t) = a + t (b - a), and
    its basis is phi_b(t) = sqrt(2b + 1) P_b(2t - 1), b <= k, orthonormal in
    (1/|f|) int_f.  The tables therefore serve every edge alike:

        int_f phi_b v ds = |f| (moments @ v(x(nodes)))[b],

    so `moments @ v(x(nodes))` holds the coefficients of the L2(f)
    projection of v onto span{phi_b : b <= k}, and the row sums
    `moments.sum(axis=1)` are the edge means of the phi_b: 1 for phi_0 = 1
    and 0 for every higher one.  Exact for v of degree <= 2 npoints - 1 - k.
    """

    nodes: np.ndarray       # (n,) Gauss-Legendre nodes in [0, 1]
    moments: np.ndarray     # (k+1, n) basis values times weights


@lru_cache(maxsize=None)
def edge_reference(k: int, npoints: int) -> EdgeReference:
    """Cached reference tables for edge order k on an npoints Gauss rule."""
    t, w = _gauss_legendre01(npoints)
    scale = np.sqrt(2.0 * np.arange(k + 1) + 1.0)
    moments = (np.polynomial.legendre.legvander(2.0 * t - 1.0, k) * scale).T * w
    for table in (t, moments):  # shared through the caches
        table.setflags(write=False)
    return EdgeReference(nodes=t, moments=moments)


@dataclass
class PolyQuadrature:
    """Positive-weight quadrature points and weights on a polygon or a stack."""

    points: np.ndarray
    weights: np.ndarray


def polygon_quadrature(coords: np.ndarray, degree: int, ears: np.ndarray) -> PolyQuadrature:
    """Quadrature on a polygon cut into the given triangles, exact to `degree`.

    `ears` (..., n - 2, 3) are the loop positions of the triangles, as
    `polymesh.ear_triangles` cuts them (`CellGroup.ears`), counterclockwise
    and covering the polygon.  Each ear (p, t, q) is integrated by the
    collapsed-square map x = p + a (t - p) + b (1 - a) (q - p), whose
    Jacobian (1 - a) is absorbed into a Gauss-Jacobi rule, so all weights
    stay positive.  A stack of loops (..., n, 2) with one vertex count
    gives points (..., nq, 2) and weights (..., nq); every member has the
    same nq = (n - 2) x (nodes per triangle).
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
                          weights=(jac[..., None] * wt).reshape(lead + (-1,)))


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


def cholesky_factors(gram: np.ndarray, cells=None, what: str = "Gram") -> tuple:
    """(L, L^{-1}) for the Cholesky factor gram = L L^T of one SPD matrix or a stack.

    numpy has no batched triangular solve, so the inverse is built by row
    substitution vectorized over the stack, one step per row; each column is
    the forward substitution of a unit vector.  Apply L^{-1} with
    `factor_solve`.  The leading n x n blocks of L and L^{-1} are the
    factors of the leading n x n block of `gram`.  Raises ValueError naming
    the first member (by `cells`, default its position in the stack) whose
    factorization fails or is not finite, with `what` naming the matrix.
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
    return lower.reshape(gram.shape), inv.reshape(gram.shape)


def factor_solve(inv_lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^{-1} rhs as the two triangular products L^{-T} (L^{-1} rhs).

    `inv_lower` is the L^{-1} of `cholesky_factors(gram)`; gram^{-1} itself
    is never formed, which would cost accuracy at the rounding floor.
    """
    return inv_lower.mT @ (inv_lower @ rhs)


def _cholesky_ok(matrix: np.ndarray) -> bool:
    try:
        return bool(np.isfinite(np.linalg.cholesky(matrix)).all())
    except np.linalg.LinAlgError:
        return False


def gk_perp_basis(k: int, inv_factor: np.ndarray, cells=None) -> np.ndarray:
    """Orthonormal basis of the complement of gradients in (P_k)^2, (..., 2 pi_k, dim).

    `inv_factor` is L^{-1} of the degree-k monomial Gram L L^T on the cell,
    stacked (..., pi_k, pi_k) for a group, so r = L^{-1} m is the basis of
    P_k orthonormal in L2(P).  Column i holds the coefficients of member i,
    the vector polynomial sum_j c[j, i] g_j with g_j running over (r_j, 0)
    for j < pi_k, then (0, r_j).  The complement has dimension
    2 pi_k - pi_{k+1} + 1 and is empty for k = 0.  It is the kernel of the
    pairing of (P_k)^2 against exact gradients of P_{k+1}: in the vector
    monomials that kernel is M_vec^{-1} Z, with Z the fixed null space of the
    transposed gradient table E^T, and in the r coordinates it is
    Y = blockdiag(L^{-1}) Z.  The r coordinates are L2(P)-orthonormal, so Y
    is orthonormalized as Y L_s^{-T}, with L_s the Cholesky factor of Y^T Y.
    The basis is unique up to an orthogonal change within the complement (a
    sign at k = 1).
    Raises ValueError naming the first member (by `cells`, default its
    position in the stack) whose Y^T Y is not positive definite or not
    finite.
    """
    nk = n_monomials(k)
    z = _gradient_annihilator(k)
    if z.shape[1] == 0:
        return np.zeros(inv_factor.shape[:-2] + z.shape)
    # blockdiag(L^{-1}) Z one diagonal block (x, then y) at a time
    y = inv_factor[..., None, :, :] @ z.reshape(2, nk, -1)
    y = y.reshape(y.shape[:-3] + z.shape)
    _, inv_small = cholesky_factors(y.mT @ y, cells, "gradient-complement Gram")
    return y @ inv_small.mT
