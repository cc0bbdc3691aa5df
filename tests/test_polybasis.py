"""Scaled monomials, quadrature, Grams and L2 projections."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from polydarcy import polymesh
from polydarcy.ncvem import build_element
from polydarcy.polybasis import (
    _gauss_jacobi01,
    _gauss_legendre01,
    edge_reference,
    factor_solve,
    cholesky_factors,
    gk_perp_basis,
    gk_perp_dimension,
    gradient_coefficient_matrix,
    monomial_exponents,
    monomial_index,
    n_monomials,
    polygon_quadrature,
    scaled_monomials,
)
from polydarcy.polymesh import MeshError, ear_triangles

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.0, 0.0], [1.1, -0.1], [1.4, 0.8], [0.6, 1.3], [-0.2, 0.9]])


def one_cell(coords, k, f=None):
    """The element build's record of the polygon as a mesh of one cell."""
    mesh = polymesh.build_topology(np.asarray(coords, float), [list(range(len(coords)))])
    return build_element(mesh, mesh.cell_groups()[0], k, f=f)


def inverse_factor(coords, k):
    """L^{-1} of the degree-k monomial Gram L L^T of the polygon, from the build.

    The build's cell basis is T = sqrt|P| L^{-1}, and its leading pi_k
    block belongs to the degree-k Gram.
    """
    element = one_cell(coords, k)
    nk = n_monomials(k)
    return element.basis[0, :nk, :nk] / math.sqrt(element.group.area[0])


def build_gram(coords, k):
    """The build's degree-(k+1) monomial Gram, |P| T^{-1} T^{-T} from its basis T."""
    element = one_cell(coords, k)
    inv_t = np.linalg.inv(element.basis[0])
    return element.group.area[0] * inv_t @ inv_t.T


def source_coeffs(element):
    """Scaled-monomial coefficients T_k^T f_coeffs of the build's Pi0_k f."""
    nk = n_monomials(element.k)
    return element.f_coeffs[0] @ element.basis[0, :nk, :nk]


def test_monomial_counts_and_order():
    assert [n_monomials(k) for k in range(-1, 5)] == [0, 1, 3, 6, 10, 15]
    assert monomial_exponents(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    for i, (a, b) in enumerate(monomial_exponents(4)):
        assert monomial_index(a, b) == i


def test_cell_basis_scaling_on_unit_square():
    (group,) = polymesh.generate_uniform_quads(1, 1).cell_groups()
    assert group.diameter[0] == pytest.approx(math.sqrt(2.0))
    assert np.allclose(group.center[0], [0.5, 0.5])
    # member (1, 0) at the corner (1, 1): (1 - 1/2) / sqrt(2)
    vals = scaled_monomials(np.array([[1.0, 1.0]]), group.center[0], group.diameter[0], 3)
    assert vals.shape == (10, 1)
    assert vals[monomial_index(1, 0), 0] == pytest.approx(0.353553, abs=1e-6)
    assert vals[0, 0] == 1.0


def _difference_gradients(pts, center, diameter, degree):
    """Central differences of `scaled_monomials`, (..., pi_degree, n, 2)."""
    h = 1e-6
    return np.stack([(scaled_monomials(pts + step, center, diameter, degree)
                      - scaled_monomials(pts - step, center, diameter, degree)) / (2 * h)
                     for step in (np.array([h, 0.0]), np.array([0.0, h]))], axis=-1)


def _table_gradients(pts, center, diameter, degree):
    """Gradients by the exact-gradient table on the degree-1-lower values."""
    emat = gradient_coefficient_matrix(degree, diameter)
    lower = scaled_monomials(pts, center, diameter, degree - 1)
    nk = n_monomials(degree - 1)
    return np.stack([emat[..., :nk, :].mT @ lower, emat[..., nk:, :].mT @ lower], axis=-1)


def test_cell_basis_gradients_match_differences():
    center, diameter = oracles.centroid_and_diameter(PENTAGON)
    pts = np.array([[0.4, 0.3], [0.9, 0.7]])
    grads = _table_gradients(pts, center, diameter, 3)
    assert np.abs(grads - _difference_gradients(pts, center, diameter, 3)).max() < 1e-8


@pytest.mark.parametrize("mesh, cells", [
    (polymesh.generate_distorted_polygonal(3, 3, seed=1, distortion=0.2), [0]),
    (polymesh.generate_uniform_quads(3, 3), None),
])
def test_stacked_basis_gradients_match_differences(mesh, cells):
    # a group's monomials are stacked, one member per cell, on the group's
    # centroids and diameters as the element build takes them
    (group,) = mesh.cell_groups(cells)
    offsets = np.array([[0.02, -0.03], [-0.04, 0.01], [0.0, 0.05]])
    pts = group.center[:, None, :] + offsets
    vals = scaled_monomials(pts, group.center, group.diameter, 2)
    assert vals.shape == (len(group.cells), n_monomials(2), len(offsets))
    for i in range(len(group.cells)):
        one = scaled_monomials(pts[i], group.center[i], group.diameter[i], 2)
        assert np.array_equal(vals[i], one)
    grads = _table_gradients(pts, group.center, group.diameter, 2)
    fd = _difference_gradients(pts, group.center, group.diameter, 2)
    assert np.abs(grads - fd).max() < 1e-8


SKEWED_EDGE = (np.array([0.2, -0.1]), np.array([0.9, 0.6]))


def edge_points(start, end, t):
    return start[None, :] + t[:, None] * (end - start)[None, :]


def arclength_param(start, end, pts):
    """Signed arclength from the midpoint over the length, from coordinates."""
    d = end - start
    length = math.hypot(d[0], d[1])
    return (pts - 0.5 * (start + end)) @ (d / length) / length


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_rules_exact_to_degree_2n_minus_1(n):
    # Gauss-Jacobi with weight (1 - t) and Gauss-Legendre on [0, 1]
    tj, wj = _gauss_jacobi01(n)
    tl, wl = _gauss_legendre01(n)
    for j in range(2 * n):
        jacobi = float(wj @ tj ** j)
        legendre = float(wl @ tl ** j)
        assert jacobi == pytest.approx(1.0 / ((j + 1) * (j + 2)), rel=1e-14, abs=0.0)
        assert legendre == pytest.approx(1.0 / (j + 1), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_edge_reference_projector_is_exact(k):
    # the edge basis is orthonormal, so the moments are the projector: any
    # edge polynomial of degree <= k comes back with its Legendre coefficients
    start, end = SKEWED_EDGE
    ref = edge_reference(k, k + 3)
    coeffs = np.random.default_rng(k).standard_normal(k + 1)
    s = arclength_param(start, end, edge_points(start, end, ref.nodes))
    values = coeffs @ oracles.edge_legendre(s + 0.5, k)
    assert np.abs(ref.moments @ values - coeffs).max() < 1e-13


@pytest.mark.parametrize("k", range(7))
def test_edge_reference_gram_closed_form(k):
    # int_f phi_i phi_j ds = |f| delta_ij for the orthonormal edge basis
    start, end = SKEWED_EDGE
    length = math.hypot(*(end - start))
    ref = edge_reference(k, k + 3)
    s = arclength_param(start, end, edge_points(start, end, ref.nodes))
    gram = length * ref.moments @ oracles.edge_legendre(s + 0.5, k).T
    # phi_b reaches sqrt(2b + 1) at the ends, so the summands reach 2k + 1
    tol = 1e-15 * (2 * k + 1)
    assert np.abs(gram - length * np.eye(k + 1)).max() <= tol
    # the row sums are the edge means (1/|f|) int_f phi_b ds: 1 for phi_0 = 1
    # and 0 for every higher one, so the recovery's boundary outflow reads
    # coefficient 0 alone
    assert np.abs(ref.moments.sum(axis=1) - np.eye(k + 1)[0]).max() <= tol


def test_quadrature_integrates_xy_on_unit_square():
    quad = polygon_quadrature(UNIT_SQUARE, 2, ear_triangles(UNIT_SQUARE))
    val = float(quad.weights @ (quad.points[:, 0] * quad.points[:, 1]))
    assert val == pytest.approx(0.25, abs=1e-14)


# Hexagons stacked as one group; the thin L (its centroid (0.339, 0.339)
# lies outside its kernel [0, 0.25]^2) is the one member that is not convex.
HEXAGON_STACK = np.array([
    [[0.0, 0.0], [1.0, -0.2], [1.8, 0.4], [1.7, 1.3], [0.8, 1.6], [-0.1, 0.9]],
    [[0.0, 0.0], [1.0, 0.0], [1.0, 0.25], [0.25, 0.25], [0.25, 1.0], [0.0, 1.0]],
    [[0.5, 0.5], [1.0, 0.5], [1.2, 0.8], [1.0, 1.1], [0.5, 1.1], [0.3, 0.8]],
])
# Simple loops with an empty kernel, which no star point can fan.
U_LOOP = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.75, 1.0],
                   [0.75, 0.25], [0.25, 0.25], [0.25, 1.0], [0.0, 1.0]])
COMB_LOOP = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.875, 1.0], [0.875, 0.25],
                      [0.625, 0.25], [0.625, 1.0], [0.375, 1.0], [0.375, 0.25],
                      [0.125, 0.25], [0.125, 1.0], [0.0, 1.0]])
# Every edge split at its exact midpoint: four vertices with a straight angle,
# which are no ears.  The second loop starts at one of them.
SPLIT_SQUARE = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.5],
                         [1.0, 1.0], [0.5, 1.0], [0.0, 1.0], [0.0, 0.5]])
SPLIT_SQUARE = np.stack([SPLIT_SQUARE, np.roll(SPLIT_SQUARE, -1, axis=0)])
# The notch (0.5, 0) lies on the diagonal of the convex vertex 0, so vertex 0
# is no ear: cutting it would leave a loop that touches itself.
NOTCHED = np.array([[0.5, -0.5], [1.0, 0.0], [1.0, 1.0], [0.5, 0.0], [0.0, 1.0], [0.0, 0.0]])
# Vertices 0, 2, 4, 1, 3 of a regular pentagon: left turns only, two windings.
_FIFTHS = 2.0 * np.pi * np.array([0, 2, 4, 1, 3]) / 5
PENTAGRAM = np.column_stack([np.cos(_FIFTHS), np.sin(_FIFTHS)])
# A 40-vertex star (radii 0.6 and 1 in turn) and a regular 40-gon.
_FORTIETHS = 2.0 * np.pi * np.arange(40) / 40
MANY_VERTICES = np.stack([radius[:, None] * np.column_stack([np.cos(_FORTIETHS), np.sin(_FORTIETHS)])
                          for radius in (np.where(np.arange(40) % 2, 1.0, 0.6), np.ones(40))])


@pytest.mark.parametrize("coords", [
    UNIT_SQUARE,
    PENTAGON,
    np.array([[0.0, 0.0], [1.0, 0.0], [0.3, 0.9]]),
    HEXAGON_STACK,
    U_LOOP,
    COMB_LOOP,
    SPLIT_SQUARE,
    NOTCHED,
])
@pytest.mark.parametrize("degree", [1, 3, 6])
def test_quadrature_exactness_against_closed_form(coords, degree):
    quad = polygon_quadrature(coords, degree, ear_triangles(coords))
    assert np.all(quad.weights > 0.0)
    members = zip(coords.reshape((-1,) + coords.shape[-2:]),
                  quad.points.reshape((-1,) + quad.points.shape[-2:]),
                  quad.weights.reshape(-1, quad.weights.shape[-1]))
    for polygon, points, weights in members:
        area = abs(polymesh.polygon_area(polygon))
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                num = float(weights @ (points[:, 0] ** a * points[:, 1] ** b))
                ref = oracles.polygon_monomial_integral(polygon, a, b)
                assert abs(num - ref) < 1e-13 * max(area, 1.0), (a, b)


def _untangled(points: list) -> list:
    """The loop through `points` after 2-opt moves undo every proper crossing.

    A move reverses the path between two crossing edges, which shortens the
    loop, so the moves end.  The lattice points keep every turn test exact;
    a loop that still touches itself is left to `_loop_defects`.
    """
    loop, n = list(points), len(points)

    def turn(p, q, r):
        return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])

    crossed = True
    while crossed:
        crossed = False
        for i, j in itertools.combinations(range(n), 2):
            a, b, c, d = loop[i], loop[(i + 1) % n], loop[j], loop[(j + 1) % n]
            if turn(a, b, c) * turn(a, b, d) < 0 and turn(c, d, a) * turn(c, d, b) < 0:
                loop[i + 1:j + 1] = loop[i + 1:j + 1][::-1]
                crossed = True
    return loop


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64)),
                min_size=3, max_size=12, unique=True))
def test_ear_quadrature_matches_green_moments_on_simple_loops(points):
    # any simple CCW loop that build_topology accepts, star-shaped or not:
    # the element build's rule, exact to degree 2(k + 2), integrates every
    # monomial of that degree as Green's theorem does
    coords = np.array(_untangled(points), dtype=float) / 64.0
    if polymesh.polygon_area(coords) < 0.0:
        coords = coords[::-1]
    assume(polymesh._loop_defects(coords[None])[0][0] == 0)
    ears = ear_triangles(coords)
    for k in range(4):
        degree = 2 * (k + 2)
        quad = polygon_quadrature(coords, degree, ears)
        a, b = np.array(monomial_exponents(degree)).T
        num = (quad.points[:, :1] ** a * quad.points[:, 1:] ** b).T @ quad.weights
        ref = oracles.green_moments(coords, monomial_exponents(degree))
        assert np.abs(num - ref).max() <= 1e-13, k


def test_stacked_quadrature_equals_per_loop_calls():
    # the (6, 11) pin at distortion 0.45 has strictly convex and other
    # loops in one group
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    stacks = [mesh.vertices[group.loops] for group in mesh.cell_groups()]
    for stack in stacks + [HEXAGON_STACK]:
        quad = polygon_quadrature(stack, 6, ear_triangles(stack))
        for row, coords in enumerate(stack):
            one = polygon_quadrature(coords, 6, ear_triangles(coords))
            assert np.array_equal(quad.points[row], one.points)
            assert np.array_equal(quad.weights[row], one.weights)


@pytest.mark.parametrize("degree", [2, 6, 12])
def test_quadrature_on_given_ears_equals_a_fresh_cut(degree):
    # the rule on a mesh group's stored ears is the rule on a fresh cut
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    for group in mesh.cell_groups():
        coords = mesh.vertices[group.loops]
        given = polygon_quadrature(coords, degree, group.ears)
        fresh = polygon_quadrature(coords, degree, ear_triangles(coords))
        assert np.array_equal(given.points, fresh.points)
        assert np.array_equal(given.weights, fresh.weights)


@pytest.mark.parametrize("coords", [UNIT_SQUARE, PENTAGON, HEXAGON_STACK[0], NOTCHED])
def test_quadrature_maps_onto_the_ears_it_is_given(coords):
    # any counterclockwise triangulation serves: each triangle gets its own
    # copy of the reference rule, here the ears clipped from the loop
    # rotated by one vertex, which differ from the loop's own ears
    n = len(coords)
    ears = (ear_triangles(np.roll(coords, -1, axis=0)) + 1) % n
    assert not np.array_equal(ears, ear_triangles(coords))
    quad = polygon_quadrature(coords, 4, ears)
    per_triangle = len(quad.weights) // (n - 2)
    for i, (p, t, q) in enumerate(coords[ears]):
        rows = slice(i * per_triangle, (i + 1) * per_triangle)
        area = 0.5 * ((t - p)[0] * (q - p)[1] - (t - p)[1] * (q - p)[0])
        assert quad.weights[rows].sum() == pytest.approx(area, rel=1e-14)
        # every point lies inside its own triangle
        for a, b in ((p, t), (t, q), (q, p)):
            d, r = b - a, quad.points[rows] - a
            assert np.all(d[0] * r[:, 1] - d[1] * r[:, 0] > 0.0)
    for a in range(5):
        for b in range(5 - a):
            num = float(quad.weights @ (quad.points[:, 0] ** a * quad.points[:, 1] ** b))
            assert num == pytest.approx(oracles.polygon_monomial_integral(coords, a, b),
                                        rel=1e-13, abs=1e-14)


@pytest.mark.parametrize("n, seed, distortion", [
    (12, 2026, 0.0), (12, 2026, 0.2), (12, 2026, 0.45), (6, 11, 0.45),
])
def test_ear_triangles_are_first_ear_clipping(n, seed, distortion):
    # the stacked clipping matches one-at-a-time clipping, and on every
    # strictly convex loop it gives (n-1, i, i+1) for i = 0..n-4, then
    # (n-3, n-2, n-1)
    mesh = polymesh.generate_distorted_polygonal(n, n, seed=seed, distortion=distortion)
    stacks = [mesh.vertices[group.loops] for group in mesh.cell_groups()]
    convex_rows = []
    extra = [U_LOOP[None], COMB_LOOP[None], SPLIT_SQUARE, NOTCHED[None], MANY_VERTICES]
    for stack in stacks + extra:
        size = stack.shape[1]
        ears = ear_triangles(stack)
        assert np.array_equal(ears, [oracles.first_ear_triangles(xy) for xy in stack])
        d_in = stack - np.roll(stack, 1, axis=1)
        d_out = np.roll(stack, -1, axis=1) - stack
        convex = np.all(d_in[..., 0] * d_out[..., 1] - d_in[..., 1] * d_out[..., 0] > 0.0, axis=1)
        fan = [(size - 1, i, i + 1) for i in range(size - 3)] + [(size - 3, size - 2, size - 1)]
        assert np.array_equal(ears[convex], np.broadcast_to(fan, (convex.sum(), size - 2, 3)))
        convex_rows.append(convex.sum())
    on_mesh = sum(convex_rows[:len(stacks)])
    assert on_mesh == mesh.num_cells if distortion == 0.0 else 0 < on_mesh < mesh.num_cells
    assert convex_rows[len(stacks):] == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("degree", [0, 1, 4, 6, 10])
def test_quadrature_uses_n_minus_2_triangles(degree):
    per_triangle = ((degree + 3) // 2) * ((degree + 2) // 2)  # Gauss-Jacobi x Gauss-Legendre
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    stacks = [mesh.vertices[group.loops] for group in mesh.cell_groups()]
    for stack in stacks + [HEXAGON_STACK, U_LOOP[None], COMB_LOOP[None], PENTAGON[None]]:
        quad = polygon_quadrature(stack, degree, ear_triangles(stack))
        assert quad.weights.shape == (len(stack), (stack.shape[1] - 2) * per_triangle)
        assert quad.points.shape == quad.weights.shape + (2,)


@pytest.mark.parametrize("coords", [
    UNIT_SQUARE[::-1],                                          # clockwise
    np.array([[0.0, 0.0], [0.3, 0.9], [1.0, 0.0]]),             # clockwise triangle
    np.array([[1.0, 3.0], [2.0, 0.0], [3.0, 2.0], [3.0, 0.0]]),  # crossed, area +0.5
    PENTAGRAM,                                                  # turns left, winds twice
])
def test_loop_without_ear_is_refused(coords):
    with pytest.raises(MeshError, match="loop 0 has no ear"):
        ear_triangles(coords)
    # named by its position in a stack, after a regular polygon
    angle = 2.0 * np.pi * np.arange(len(coords)) / len(coords)
    stack = np.stack([np.column_stack([np.cos(angle), np.sin(angle)]), coords])
    with pytest.raises(MeshError, match="loop 1 has no ear"):
        ear_triangles(stack)


def test_mass_matrix_k0_is_area():
    assert build_gram(UNIT_SQUARE, 0)[0, 0] == pytest.approx(1.0)


def test_mass_matrix_spd_and_matches_oracle():
    # the build's degree-(k+1) Gram behind its basis T against the oracle's
    # monomials and rule
    gram = build_gram(PENTAGON, 2)
    assert np.abs(gram - gram.T).max() < 1e-15
    assert np.linalg.eigvalsh(gram).min() > 0.0
    assert np.abs(gram - oracles.monomial_gram(PENTAGON, 3)).max() < 1e-13


def test_gk_perp_dimensions():
    # complement of gradients inside (P_k)^2: 2 pi_k - pi_{k+1} + 1
    assert [gk_perp_dimension(k) for k in range(5)] == [0, 1, 3, 6, 10]


def test_gk_perp_k0_is_empty():
    gkp = gk_perp_basis(0, inverse_factor(UNIT_SQUARE, 0))
    assert gkp.shape == (2, 0)


def test_gk_perp_k1_spans_rotation_on_square():
    square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    inv = inverse_factor(square, 1)
    gkp = gk_perp_basis(1, inv)
    assert gkp.shape[1] == 1
    pts = np.array([[0.1, 0.2], [-0.3, 0.25], [0.4, -0.1]])
    vals = oracles.gk_perp_values(gkp, inv @ oracles.cell_monomials(square, 1, pts))[0]
    rot = np.column_stack([-pts[:, 1], pts[:, 0]])
    ratios = vals / rot
    assert np.abs(ratios - ratios[0, 0]).max() < 1e-12


def _check_gk_perp(gkp, coords, k, basis):
    # `basis` maps the monomials to the polynomials the coefficients refer to
    dim = gkp.shape[1]
    assert dim == gk_perp_dimension(k)
    quad = polygon_quadrature(coords, 2 * k + 2, ear_triangles(coords))
    gvals = oracles.gk_perp_values(gkp, basis @ oracles.cell_monomials(coords, k, quad.points))
    mgrads = oracles.cell_monomial_gradients(coords, k + 1, quad.points)
    area = abs(polymesh.polygon_area(coords))
    for i in range(dim):
        for j in range(1, len(mgrads)):
            pair = float(quad.weights @ (gvals[i] * mgrads[j]).sum(axis=1))
            assert abs(pair) < 1e-10 * area
    gram = np.einsum("q,iqd,jqd->ij", quad.weights, gvals, gvals)
    assert np.abs(gram - np.eye(dim)).max() < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gk_perp_orthogonal_to_gradients_and_orthonormal(k):
    inv = inverse_factor(PENTAGON, k)
    _check_gk_perp(gk_perp_basis(k, inv), PENTAGON, k, inv)
    # one stacked input, every member checked: the 5-gon group of a mesh,
    # as the element build makes its basis, against its cell basis q = T m
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    group = next(g for g in mesh.cell_groups() if g.loops.shape[1] == 5)
    stack = mesh.vertices[group.loops]
    element = build_element(mesh, group, k)
    nk = n_monomials(k)
    assert element.gk_perp.shape == (len(stack), 2 * nk, gk_perp_dimension(k))
    for coords, coeffs, basis in zip(stack, element.gk_perp, element.basis):
        _check_gk_perp(coeffs, coords, k, basis[:nk, :nk])


@pytest.mark.parametrize("defect", ["negated", "nan"])
def test_gk_perp_names_first_member_with_bad_gram(defect):
    # a negated Gram fails the caller's factor of mass_k, a NaN factor the
    # complement's own small Gram; either error names the member's cell
    stack = np.stack([PENTAGON, PENTAGON + 1.0, PENTAGON - 2.0])
    cells = np.array([4, 12, 30])
    mass = np.stack([oracles.monomial_gram(coords, 1) for coords in stack])
    if defect == "negated":
        mass[1] = -mass[1]
        with pytest.raises(ValueError, match="^cell 12: monomial Gram"):
            cholesky_factors(mass, cells, "monomial Gram")
    else:
        _, inv_factor = cholesky_factors(mass, cells, "monomial Gram")
        inv_factor[1] = np.nan
        with pytest.raises(ValueError, match="^cell 12: gradient-complement Gram"):
            gk_perp_basis(1, inv_factor, cells)


def test_gradient_coefficient_matrix_is_exact():
    _, diameter = oracles.centroid_and_diameter(PENTAGON)
    emat = gradient_coefficient_matrix(2, diameter)
    pts = np.array([[0.3, 0.4], [0.8, 0.1], [0.5, 0.9]])
    vals = oracles.cell_monomials(PENTAGON, 1, pts)
    grads = oracles.cell_monomial_gradients(PENTAGON, 2, pts)
    nk = len(vals)
    for j in range(len(grads)):
        gx = emat[:nk, j] @ vals
        gy = emat[nk:, j] @ vals
        assert np.abs(np.column_stack([gx, gy]) - grads[j]).max() < 1e-13


@pytest.mark.parametrize("k", [0, 2])
def test_gradient_gram_pairs_monomial_gradients(k):
    # |P| H' = |P| E'^T E' from the build's gradient table is
    # int_P grad q_i . grad q_j over the nonconstant q = T m of degree
    # <= k+1: the oracle's pairing of the monomial gradients, moved by T
    element = one_cell(PENTAGON, k)
    grad_nc = element.grad_coeff[0, :, 1:]
    got = element.group.area[0] * grad_nc.T @ grad_nc
    pts, w = oracles.polygon_gauss(PENTAGON, n=10)
    grads = oracles.cell_monomial_gradients(PENTAGON, k + 1, pts)[1:]
    t = element.basis[0, 1:, 1:]      # grad q_0 = 0, and grad m_0 = 0
    ref = t @ np.einsum("n,ina,jna->ij", w, grads, grads) @ t.T
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


def test_inverse_cholesky_solves_stacked_grams():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6, 6))
    grams = a @ a.mT + 0.1 * np.eye(6)
    lower, inv = cholesky_factors(grams)
    assert np.array_equal(lower, np.linalg.cholesky(grams))
    assert np.abs(inv @ lower - np.eye(6)).max() < 1e-12
    assert np.all(np.triu(inv, 1) == 0.0)
    rhs = rng.standard_normal((4, 6, 3))
    ref = oracles.cholesky_solve(grams[2], rhs[2])
    assert np.abs(factor_solve(inv, rhs)[2] - ref).max() < 1e-10 * np.abs(ref).max()
    # the leading block of the inverse factor is that of the leading Gram
    _, lead = cholesky_factors(grams[:, :3, :3])
    assert np.abs(inv[:, :3, :3] - lead).max() < 1e-13 * np.abs(lead).max()
    grams[1, 4, 4] = -1.0
    with pytest.raises(ValueError, match="^cell 9: test Gram is not positive definite"):
        cholesky_factors(grams, cells=np.array([3, 9, 12, 20]), what="test Gram")


def test_l2_projection_reproduces_polynomials():
    # the build's source coefficients Pi0_k f give back a polynomial of P_k
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 1.1])

    def poly(pts):
        return coeffs @ oracles.cell_monomials(PENTAGON, 2, pts)

    out = source_coeffs(one_cell(PENTAGON, 2, f=poly))
    assert np.abs(out - coeffs).max() < 1e-12


def test_l2_projection_idempotent():
    k = 2

    def f(pts):
        return np.sin(pts[:, 0]) * np.exp(pts[:, 1])

    once = source_coeffs(one_cell(PENTAGON, k, f=f))

    def projected(pts):
        return once @ oracles.cell_monomials(PENTAGON, k, pts)

    twice = source_coeffs(one_cell(PENTAGON, k, f=projected))
    assert np.abs(twice - once).max() < 1e-12


def test_l2_projection_orthogonality():
    k = 2

    def f(pts):
        return np.cos(2.0 * pts[:, 0]) + pts[:, 1] ** 4

    element = one_cell(PENTAGON, k, f=f)
    group = element.group
    # the build's own rule, exact to 2(k+2), is the inner product that
    # defines its projection
    quad = polygon_quadrature(PENTAGON, 2 * (k + 2), group.ears[0])
    vals = scaled_monomials(quad.points, group.center[0], group.diameter[0], k)
    residual = f(quad.points) - source_coeffs(element) @ vals
    # the projection error is L2-orthogonal to every member of P_k
    pairs = vals @ (quad.weights * residual)
    assert np.abs(pairs).max() < 1e-10
