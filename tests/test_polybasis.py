"""Scaled monomial bases, quadrature, Grams and L2 projections."""

import math

import numpy as np
import pytest

import oracles
from polydarcy import polymesh
from polydarcy.ncvem import build_element
from polydarcy.polybasis import (
    GkPerpBasis,
    _gauss_jacobi01,
    _gauss_legendre01,
    cell_basis,
    ear_triangles,
    edge_reference,
    factor_solve,
    gk_perp_basis,
    gk_perp_dimension,
    gradient_coefficient_matrix,
    gradient_gram,
    inverse_cholesky,
    l2_project_function,
    mass_matrix,
    monomial_exponents,
    monomial_index,
    n_monomials,
    polygon_quadrature,
)
from polydarcy.polymesh import MeshError

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
PENTAGON = np.array([[0.0, 0.0], [1.1, -0.1], [1.4, 0.8], [0.6, 1.3], [-0.2, 0.9]])


def test_monomial_counts_and_order():
    assert [n_monomials(k) for k in range(-1, 5)] == [0, 1, 3, 6, 10, 15]
    assert monomial_exponents(2) == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    for i, (a, b) in enumerate(monomial_exponents(4)):
        assert monomial_index(a, b) == i


def test_cell_basis_scaling_on_unit_square():
    basis = cell_basis(UNIT_SQUARE, 3)
    assert len(basis) == 10
    assert basis.diameter == pytest.approx(math.sqrt(2.0))
    assert np.allclose(basis.center, [0.5, 0.5])
    # member (1, 0) at the corner (1, 1): (1 - 1/2) / sqrt(2)
    vals = basis.evaluate(np.array([[1.0, 1.0]]))
    assert vals[monomial_index(1, 0), 0] == pytest.approx(0.353553, abs=1e-6)
    assert vals[0, 0] == 1.0


def test_cell_basis_gradients_match_differences():
    basis = cell_basis(PENTAGON, 3)
    pts = np.array([[0.4, 0.3], [0.9, 0.7]])
    h = 1e-6
    grads = basis.evaluate_gradient(pts)
    for d, step in enumerate([np.array([h, 0.0]), np.array([0.0, h])]):
        fd = (basis.evaluate(pts + step) - basis.evaluate(pts - step)) / (2 * h)
        assert np.abs(grads[:, :, d] - fd).max() < 1e-8


@pytest.mark.parametrize("mesh, cells", [
    (polymesh.generate_distorted_polygonal(3, 3, seed=1, distortion=0.2), [0]),
    (polymesh.generate_uniform_quads(3, 3), None),
])
def test_stacked_basis_gradients_match_differences(mesh, cells):
    # an element's basis is stacked, one member per cell of its group
    (group,) = mesh.cell_groups(cells)
    basis = build_element(mesh, group, 1).basis
    offsets = np.array([[0.02, -0.03], [-0.04, 0.01], [0.0, 0.05]])
    pts = basis.center[:, None, :] + offsets
    h = 1e-6
    grads = basis.evaluate_gradient(pts)
    assert grads.shape == (len(group.cells), len(basis), len(offsets), 2)
    for d, step in enumerate([np.array([h, 0.0]), np.array([0.0, h])]):
        fd = (basis.evaluate(pts + step) - basis.evaluate(pts - step)) / (2 * h)
        assert np.abs(grads[..., d] - fd).max() < 1e-8


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
    # any edge polynomial of degree <= k comes back with its coefficients
    start, end = SKEWED_EDGE
    ref = edge_reference(k, k + 3)
    coeffs = np.random.default_rng(k).standard_normal(k + 1)
    s = arclength_param(start, end, edge_points(start, end, ref.nodes))
    values = sum(c * s ** b for b, c in enumerate(coeffs))
    assert np.abs(ref.projector @ values - coeffs).max() < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_edge_reference_gram_closed_form(k):
    # int_f s^i s^j ds = |f| (1/2)^p / (p + 1) for even p = i + j, else 0
    start, end = SKEWED_EDGE
    length = math.hypot(*(end - start))
    ref = edge_reference(k, k + 3)
    s = arclength_param(start, end, edge_points(start, end, ref.nodes))
    powers = np.vstack([s ** b for b in range(k + 1)])
    gram = length * ref.moments @ powers.T
    for i in range(k + 1):
        for j in range(k + 1):
            p = i + j
            exact = length * 0.5 ** p / (p + 1) if p % 2 == 0 else 0.0
            assert gram[i, j] == pytest.approx(exact, abs=1e-15)


def test_quadrature_integrates_xy_on_unit_square():
    quad = polygon_quadrature(UNIT_SQUARE, 2)
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
    quad = polygon_quadrature(coords, degree)
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


def test_stacked_quadrature_equals_per_loop_calls():
    # the (6, 11) pin at distortion 0.45 has strictly convex and other
    # loops in one group
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    stacks = [mesh.vertices[group.loops] for group in mesh.cell_groups()]
    for stack in stacks + [HEXAGON_STACK]:
        quad = polygon_quadrature(stack, 6)
        for row, coords in enumerate(stack):
            one = polygon_quadrature(coords, 6)
            assert np.array_equal(quad.points[row], one.points)
            assert np.array_equal(quad.weights[row], one.weights)


@pytest.mark.parametrize("degree", [2, 6, 12])
def test_quadrature_on_given_ears_equals_a_fresh_cut(degree):
    # a rule mapped onto ears it is given is the rule that cuts them itself
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    stacks = [mesh.vertices[group.loops] for group in mesh.cell_groups()]
    loops = stacks + [HEXAGON_STACK, U_LOOP, COMB_LOOP, PENTAGON]
    for coords in loops:
        fresh = polygon_quadrature(coords, degree)
        ears = ear_triangles(coords)
        assert np.array_equal(fresh.ears, ears)
        given = polygon_quadrature(coords, degree, ears)
        assert np.array_equal(given.points, fresh.points)
        assert np.array_equal(given.weights, fresh.weights)
        assert given.ears is ears


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
        quad = polygon_quadrature(stack, degree)
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
        polygon_quadrature(coords, 2)
    # named by its position in a stack, after a regular polygon
    angle = 2.0 * np.pi * np.arange(len(coords)) / len(coords)
    stack = np.stack([np.column_stack([np.cos(angle), np.sin(angle)]), coords])
    with pytest.raises(MeshError, match="loop 1 has no ear"):
        polygon_quadrature(stack, 2)


def test_mass_matrix_k0_is_area():
    assert mass_matrix(UNIT_SQUARE, 0) == pytest.approx(np.array([[1.0]]))


def test_mass_matrix_spd_and_matches_oracle():
    k = 3
    gram = mass_matrix(PENTAGON, k)
    assert np.abs(gram - gram.T).max() < 1e-15
    assert np.linalg.eigvalsh(gram).min() > 0.0
    basis = cell_basis(PENTAGON, k)
    pts, w = oracles.polygon_gauss(PENTAGON, n=10)
    vals = basis.evaluate(pts)
    ref = (vals * w) @ vals.T
    assert np.abs(gram - ref).max() < 1e-13


def test_gk_perp_dimensions():
    # complement of gradients inside (P_k)^2: 2 pi_k - pi_{k+1} + 1
    assert [gk_perp_dimension(k) for k in range(5)] == [0, 1, 3, 6, 10]


def test_gk_perp_k0_is_empty():
    gkp = gk_perp_basis(cell_basis(UNIT_SQUARE, 0),
                        inverse_cholesky(mass_matrix(UNIT_SQUARE, 0)))
    assert gkp.dim == 0


def test_gk_perp_k1_spans_rotation_on_square():
    square = np.array([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    gkp = gk_perp_basis(cell_basis(square, 1), inverse_cholesky(mass_matrix(square, 1)))
    assert gkp.dim == 1
    pts = np.array([[0.1, 0.2], [-0.3, 0.25], [0.4, -0.1]])
    vals = gkp.evaluate(pts)[0]
    rot = np.column_stack([-pts[:, 1], pts[:, 0]])
    ratios = vals / rot
    assert np.abs(ratios - ratios[0, 0]).max() < 1e-12


def _check_gk_perp(gkp, coords, k):
    assert gkp.dim == gk_perp_dimension(k)
    quad = polygon_quadrature(coords, 2 * k + 2)
    gvals = gkp.evaluate(quad.points)
    basis = cell_basis(coords, k + 1)
    mgrads = basis.evaluate_gradient(quad.points)
    area = abs(polymesh.polygon_area(coords))
    for i in range(gkp.dim):
        for j in range(1, len(basis)):
            pair = float(quad.weights @ (gvals[i] * mgrads[j]).sum(axis=1))
            assert abs(pair) < 1e-10 * area
    gram = np.einsum("q,iqd,jqd->ij", quad.weights, gvals, gvals)
    assert np.abs(gram - np.eye(gkp.dim)).max() < 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_gk_perp_orthogonal_to_gradients_and_orthonormal(k):
    gkp = gk_perp_basis(cell_basis(PENTAGON, k),
                        inverse_cholesky(mass_matrix(PENTAGON, k)))
    _check_gk_perp(gkp, PENTAGON, k)
    # one stacked input, every member checked: the 5-gon group of a mesh
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    group = next(g for g in mesh.cell_groups() if g.loops.shape[1] == 5)
    stack = mesh.vertices[group.loops]
    quad = polygon_quadrature(stack, 2 * k)
    vals = cell_basis(stack, k).evaluate(quad.points)
    mass = (vals * quad.weights[:, None, :]) @ vals.mT
    stacked = gk_perp_basis(cell_basis(stack, k), inverse_cholesky(mass))
    assert stacked.coeffs.shape == (len(stack), 2 * n_monomials(k), gk_perp_dimension(k))
    for coords, coeffs in zip(stack, stacked.coeffs):
        _check_gk_perp(GkPerpBasis(cell_basis(coords, k), coeffs), coords, k)


@pytest.mark.parametrize("defect", ["negated", "nan"])
def test_gk_perp_names_first_member_with_bad_gram(defect):
    # a negated Gram fails the caller's factor of mass_k, a NaN factor the
    # complement's own small Gram; either error names the member's cell
    stack = np.stack([PENTAGON, PENTAGON + 1.0, PENTAGON - 2.0])
    cells = np.array([4, 12, 30])
    mass = np.stack([mass_matrix(coords, 1) for coords in stack])
    if defect == "negated":
        mass[1] = -mass[1]
        with pytest.raises(ValueError, match="^cell 12: monomial Gram"):
            inverse_cholesky(mass, cells, "monomial Gram")
    else:
        inv_factor = inverse_cholesky(mass, cells, "monomial Gram")
        inv_factor[1] = np.nan
        with pytest.raises(ValueError, match="^cell 12: gradient-complement Gram"):
            gk_perp_basis(cell_basis(stack, 1), inv_factor, cells)


def test_gradient_coefficient_matrix_is_exact():
    basis = cell_basis(PENTAGON, 2)
    emat = gradient_coefficient_matrix(2, basis.diameter)
    pts = np.array([[0.3, 0.4], [0.8, 0.1], [0.5, 0.9]])
    lower = cell_basis(PENTAGON, 1)
    vals = lower.evaluate(pts)
    grads = basis.evaluate_gradient(pts)
    nk = len(lower)
    for j in range(len(basis)):
        gx = emat[:nk, j] @ vals
        gy = emat[nk:, j] @ vals
        assert np.abs(np.column_stack([gx, gy]) - grads[j]).max() < 1e-13


@pytest.mark.parametrize("k", [0, 2])
def test_gradient_gram_pairs_monomial_gradients(k):
    # H'[i, j] = int_P grad m_i . grad m_j over the nonconstant monomials
    # of degree <= k+1, from the degree-k Gram and the gradient table
    basis = cell_basis(PENTAGON, k + 1)
    got = gradient_gram(mass_matrix(PENTAGON, k),
                        gradient_coefficient_matrix(k + 1, basis.diameter))
    pts, w = oracles.polygon_gauss(PENTAGON, n=10)
    grads = basis.evaluate_gradient(pts)[1:]
    ref = np.einsum("n,ina,jna->ij", w, grads, grads)
    assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()


def test_inverse_cholesky_solves_stacked_grams():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 6, 6))
    grams = a @ a.mT + 0.1 * np.eye(6)
    inv = inverse_cholesky(grams)
    assert np.abs(inv @ np.linalg.cholesky(grams) - np.eye(6)).max() < 1e-12
    assert np.all(np.triu(inv, 1) == 0.0)
    rhs = rng.standard_normal((4, 6, 3))
    ref = oracles.cholesky_solve(grams[2], rhs[2])
    assert np.abs(factor_solve(inv, rhs)[2] - ref).max() < 1e-10 * np.abs(ref).max()
    # the leading block of the inverse factor is that of the leading Gram
    lead = inverse_cholesky(grams[:, :3, :3])
    assert np.abs(inv[:, :3, :3] - lead).max() < 1e-13 * np.abs(lead).max()
    grams[1, 4, 4] = -1.0
    with pytest.raises(ValueError, match="^cell 9: test Gram is not positive definite"):
        inverse_cholesky(grams, cells=np.array([3, 9, 12, 20]), what="test Gram")


def test_l2_projection_reproduces_polynomials():
    basis = cell_basis(PENTAGON, 2)
    coeffs = np.array([0.3, -1.2, 0.7, 2.0, -0.4, 1.1])

    def poly(pts):
        return coeffs @ basis.evaluate(pts)

    out = l2_project_function(PENTAGON, 2, poly)
    assert np.abs(out - coeffs).max() < 1e-12


def test_l2_projection_idempotent():
    k = 2

    def f(pts):
        return np.sin(pts[:, 0]) * np.exp(pts[:, 1])

    once = l2_project_function(PENTAGON, k, f)
    basis = cell_basis(PENTAGON, k)

    def projected(pts):
        return once @ basis.evaluate(pts)

    twice = l2_project_function(PENTAGON, k, projected)
    assert np.abs(twice - once).max() < 1e-12


def test_l2_projection_of_sine_matches_dense_oracle():
    k = 2
    out = l2_project_function(UNIT_SQUARE, k, lambda pts: np.sin(pts[:, 0]))
    basis = cell_basis(UNIT_SQUARE, k)
    pts, w = oracles.polygon_gauss(UNIT_SQUARE, n=12)  # degree-12 class rule
    vals = basis.evaluate(pts)
    gram = (vals * w) @ vals.T
    rhs = vals @ (w * np.sin(pts[:, 0]))
    ref = oracles.cholesky_solve(gram, rhs)
    assert np.abs(out - ref).max() < 1e-10


def test_l2_projection_orthogonality():
    k = 2

    def f(pts):
        return np.cos(2.0 * pts[:, 0]) + pts[:, 1] ** 4

    coeffs = l2_project_function(PENTAGON, k, f, quad=polygon_quadrature(PENTAGON, 14))
    basis = cell_basis(PENTAGON, k)
    quad = polygon_quadrature(PENTAGON, 14)
    vals = basis.evaluate(quad.points)
    residual = f(quad.points) - coeffs @ vals
    # the projection error is L2-orthogonal to every member of P_k
    pairs = vals @ (quad.weights * residual)
    assert np.abs(pairs).max() < 1e-10
