"""Local element operators and the global SPD pressure system."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from polydarcy import ncvem, polymesh
from polydarcy.cases import polynomial_case
from polydarcy.ncvem import (assemble, boundary_edge_values, build_dof_map,
                             build_element, cell_dof_count, monomial_dofs,
                             solve_pressure)
from polydarcy.polybasis import (cell_basis, ear_triangles, gradient_gram, inverse_cholesky,
                                 n_monomials)

PENTAGON = np.array([[0.0, 0.0], [1.1, -0.1], [1.4, 0.8], [0.6, 1.3], [-0.2, 0.9]])


def one_cell_mesh(coords) -> polymesh.PolyMesh:
    coords = np.asarray(coords, float)
    return polymesh.build_topology(coords, [list(range(len(coords)))])


def kvar(pts):
    return 1.0 + 0.5 * np.sin(pts[:, 0])


def build_pentagon(k, K=1.0, f=None, quad_degree=None):
    mesh = one_cell_mesh(PENTAGON)
    return build_element(mesh, mesh.cell_groups()[0], k, K, f, quad_degree=quad_degree)


def unit_square_group(k):
    mesh = polymesh.generate_uniform_quads(1, 1)
    return build_element(mesh, mesh.cell_groups()[0], k)


def test_cell_dof_count():
    assert cell_dof_count(4, 0) == 4
    assert cell_dof_count(4, 1) == 9
    assert cell_dof_count(5, 2) == 18


def test_global_dof_counts():
    assert build_dof_map(polymesh.generate_uniform_quads(1, 1), 0).n_global == 0
    assert build_dof_map(polymesh.generate_uniform_quads(2, 2), 0).n_global == 4
    assert build_dof_map(polymesh.generate_uniform_quads(2, 2), 1).n_global == 12


@pytest.mark.parametrize("k", [0, 2])
def test_dofmap_partition(k):
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=3, distortion=0.2)
    dofmap = build_dof_map(mesh, k)
    # interior edges are numbered in edge order, k+1 slots each, and the
    # boundary edges likewise after the unknowns, from n_global on
    interior = mesh.edge_right >= 0
    expected = np.empty(mesh.num_edges, dtype=int)
    expected[interior] = (k + 1) * np.arange(np.count_nonzero(interior))
    expected[~interior] = dofmap.n_global + (k + 1) * np.arange(np.count_nonzero(~interior))
    assert np.array_equal(dofmap.edge_offset, expected)
    n_total = dofmap.n_global + (k + 1) * np.count_nonzero(~interior)
    counts = np.zeros(n_total, dtype=int)
    for c in range(mesh.num_cells):
        glob = dofmap.global_indices(mesh.cell_edges[c], c)
        np.add.at(counts, glob, 1)
    # interior-edge DOFs are seen by exactly two cells, boundary-edge and
    # moment DOFs by one
    for e in range(mesh.num_edges):
        off = dofmap.edge_offset[e]
        assert np.all(counts[off:off + k + 1] == (2 if interior[e] else 1))
    nkm1 = n_monomials(k - 1)
    for c in range(mesh.num_cells):
        off = dofmap.cell_offset[c]
        assert np.all(counts[off:off + nkm1] == 1)
    assert counts.min() >= 1


def _five_gon_group():
    # 8 five-gons of a distorted mesh, built as one stacked record
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    return mesh, next(g for g in mesh.cell_groups() if g.loops.shape[1] == 5)


def _source(pts):
    return np.sin(pts[:, 0] + 0.3 * pts[:, 1])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_projectors_reproduce_polynomials(k):
    # the pentagon, then every member of a stacked 5-gon group at the same
    # bound; at k = 3 the monomial basis holds the group only to 1e-11..5e-11
    # (ROADMAP item 3), so there it is left out
    mesh, group = _five_gon_group()
    stacked = build_element(mesh, group, k, kvar, _source)
    elements = [build_pentagon(k, K=kvar)]
    if k < 3:
        elements.append(stacked)
    nk1 = n_monomials(k + 1)
    nk = n_monomials(k)
    for i, element in enumerate(elements):
        d = monomial_dofs(element)
        assert np.abs(element.p_nabla @ d - np.eye(nk1)).max() < 1e-11, i
        assert np.abs(element.p0 @ d - np.eye(nk1)).max() < 1e-11, i
        assert np.abs(element.p0k @ d[..., :nk] - np.eye(nk)).max() < 1e-11, i
        assert np.abs(element.grad_proj @ d - element.grad_coeff).max() < 1e-11, i
    # source coefficients against an LU oracle on the stored Gram
    ref = np.linalg.solve(stacked.mass[:, :nk, :nk], stacked.f_moments[..., None])[..., 0]
    assert np.abs(stacked.f_coeffs - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stored_recovery_tables_are_their_definitions(k):
    # the recovery reads the build's gradient-Gram factor and the DOFs of the
    # constant function instead of recomputing them; both are the recomputed
    # values bit for bit
    mesh, group = _five_gon_group()
    element = build_element(mesh, group, k, kvar, _source)
    nk = n_monomials(k)
    assert np.array_equal(element.const_dofs, monomial_dofs(element)[..., 0])
    gram = gradient_gram(element.mass[..., :nk, :nk], element.grad_coeff)
    assert np.array_equal(element.inv_grad_gram, inverse_cholesky(gram, element.cell))


@pytest.mark.parametrize("k", [0, 2])
def test_build_names_member_with_broken_quadrature(monkeypatch, k):
    # negated weights make that member's Grams negative definite
    mesh, group = _five_gon_group()
    real = ncvem.polygon_quadrature

    def broken(coords, degree):
        quad = real(coords, degree)
        quad.weights[2] *= -1.0
        return quad

    monkeypatch.setattr(ncvem, "polygon_quadrature", broken)
    with pytest.raises(ValueError, match=f"^cell {group.cells[2]}: "):
        build_element(mesh, group, k, kvar, _source)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_constants_span_stiffness_kernel(k):
    element = build_pentagon(k, K=kvar)
    d = monomial_dofs(element)[0]
    stiffness = element.stiffness[0]
    scale = np.abs(stiffness).max()
    assert np.abs(stiffness @ d[:, 0]).max() < 1e-12 * scale
    assert np.array_equal(stiffness, stiffness.T)
    eigs = np.linalg.eigvalsh(stiffness)
    assert eigs[0] > -1e-12 * eigs[-1]
    assert abs(eigs[0]) < 1e-11 * eigs[-1]
    # exactly one kernel direction: the next eigenvalue is genuinely positive
    assert eigs[1] > 1e-8 * eigs[-1]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_energy_exact_on_polynomials(k):
    # sandwiching the stiffness with polynomial DOFs must return the weighted
    # gradient Gram: the stabilizer vanishes there, and with the coefficient
    # resolved far beyond its default degree both quadratures see the same K
    element = build_pentagon(k, K=kvar, quad_degree=40)
    d = monomial_dofs(element)[0]
    pts, w = oracles.polygon_gauss(PENTAGON, 20)
    grads = cell_basis(PENTAGON, k + 1).evaluate_gradient(pts)
    target = np.einsum("n,ina,jna->ij", w * kvar(pts), grads, grads)
    got = d.T @ element.stiffness[0] @ d
    assert np.abs(got - target).max() < 1e-11 * max(1.0, np.abs(target).max())


def test_unit_square_energy_closed_form():
    element = unit_square_group(0)
    d = monomial_dofs(element)[0]
    s = d.T @ element.stiffness[0] @ d
    # grad m_(1,0) = (1/h, 0) with h = sqrt(2): energy |P|/h^2 = 1/2
    assert abs(s[1, 1] - 0.5) < 1e-13
    assert abs(s[2, 2] - 0.5) < 1e-13
    assert abs(s[1, 2]) < 1e-13


def test_unit_square_k0_gradient_projection():
    element = unit_square_group(0)
    # edge means of p = x in loop order bottom, right, top, left
    chi = np.array([0.5, 1.0, 0.5, 0.0])
    assert np.abs(element.grad_proj[0] @ chi - np.array([1.0, 0.0])).max() < 1e-13


def test_stability_positive_off_kernel():
    element = build_pentagon(2, K=kvar)
    d = monomial_dofs(element)[0]
    kern = d[:, 0] / np.linalg.norm(d[:, 0])
    rng = np.random.default_rng(5)
    v = rng.standard_normal((200, element.n_dofs))
    v -= np.outer(v @ kern, kern)
    energies = np.einsum("ni,ij,nj->n", v, element.stiffness[0], v)
    assert energies.min() > 0.0


def test_zero_load_without_source():
    element = build_pentagon(2)
    assert np.array_equal(element.load, np.zeros((1, element.n_dofs)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_load_hits_mean_slot(k):
    # int_P Pi0_k(c) chi = c |P| * (zeroth interior moment of chi)
    element = build_pentagon(k, f=2.5)
    area = element.area[0]
    expected = np.zeros(element.n_dofs)
    expected[element.n_edges * (k + 1)] = 2.5 * area
    assert np.abs(element.load[0] - expected).max() < 1e-12 * area


def test_k0_load_is_projected_mean():
    element = build_pentagon(0, f=2.5)
    expected = 2.5 * element.area[0] * element.p0k[0, 0]
    assert np.abs(element.load[0] - expected).max() < 1e-12


def test_forcing_projection_matches_dense_oracle():
    def f(pts):
        return np.sin(pts[:, 0] + 0.3 * pts[:, 1])

    element = build_pentagon(2, f=f, quad_degree=16)
    pts, w = oracles.polygon_gauss(PENTAGON, 20)
    vals = cell_basis(PENTAGON, 2).evaluate(pts)
    gram = (vals * w) @ vals.T
    ref = np.linalg.solve(gram, vals @ (w * f(pts)))
    assert np.abs(element.f_coeffs[0] - ref).max() < 1e-10


def test_boundary_edge_values_match_direct_integrals():
    mesh = polymesh.generate_uniform_quads(2, 2)
    k = 2

    def g(pts):
        return pts[:, 0] ** 2 + pts[:, 1]

    vals = boundary_edge_values(mesh, k, g)
    bnd = np.flatnonzero(mesh.edge_right < 0)
    assert vals.shape == (len(bnd), k + 1)
    gx, gw = np.polynomial.legendre.leggauss(8)
    t = 0.5 * (gx + 1.0)
    for row, e in enumerate(bnd):
        va = mesh.vertices[mesh.edges[e, 0]]
        vb = mesh.vertices[mesh.edges[e, 1]]
        pts = va[None, :] + t[:, None] * (vb - va)[None, :]
        ref = oracles.edge_monomials(t, k) @ (0.5 * gw * g(pts))
        assert np.abs(vals[row] - ref).max() < 1e-13


def test_negative_order_rejected():
    mesh = polymesh.generate_uniform_quads(1, 1)
    with pytest.raises(ValueError, match="^polynomial order k must be >= 0$"):
        build_element(mesh, mesh.cell_groups()[0], -1)
    # before the Dirichlet table, which has no edge rule for k < 0
    with pytest.raises(ValueError, match="^polynomial order k must be >= 0$"):
        assemble(mesh, 1.0, 1.0, -1, boundary=1.0)


def test_groups_keep_the_ears_of_their_quadrature():
    mesh = polymesh.generate_distorted_polygonal(12, 12, seed=2026, distortion=0.2)
    system = assemble(mesh, kvar, 1.0, 1)
    assert [g.coords.shape[1] for g in system.groups] == [4, 5, 6, 7]
    for group in system.groups:
        assert np.array_equal(group.ears, ear_triangles(group.coords))


def test_constant_permeability_must_be_scalar_or_2x2():
    with pytest.raises(ValueError, match="constant permeability must be scalar or 2x2"):
        ncvem.tensor_field(np.eye(3))


def test_zero_permeability_rejected():
    # K = 0 zeroes the consistency term, so the stabilization scale is 0
    mesh = polymesh.generate_uniform_quads(2, 2)
    with pytest.raises(ValueError, match="^cell 0: nonpositive stabilization scale"):
        assemble(mesh, 0.0, 1.0, 1)


def test_assembled_system_spd():
    mesh = polymesh.generate_distorted_polygonal(3, 3, seed=4, distortion=0.2)
    system = assemble(mesh, kvar, 1.0, 1, boundary=0.0)
    csr = system.matrix.csr
    assert abs(csr - csr.T).max() == 0
    eigs = np.linalg.eigvalsh(csr.toarray())
    assert eigs[0] > 0.0
    x = solve_pressure(system)
    assert system.solution is not None
    assert np.array_equal(system.solution, x)


def test_zero_data_zero_solution():
    mesh = polymesh.generate_uniform_quads(3, 3)
    system = assemble(mesh, 1.0, None, 1)
    x = solve_pressure(system)
    assert np.array_equal(x, np.zeros_like(x))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_patch_exactness_small(k):
    # p in P_{k+1} with constant K is in the discrete space: every pressure
    # DOF must come back to solver precision
    case = polynomial_case(k, seed=1)
    mesh = polymesh.generate_distorted_polygonal(2, 2, seed=8, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    for i, group in enumerate(system.groups):
        got = system.group_pressure(i)
        for row, c in enumerate(group.cell):
            exact = oracles.exact_local_dofs(mesh, c, k, case.pressure)
            assert np.abs(got[row] - exact).max() < 1e-9


@pytest.mark.parametrize("k", [1, 3])
def test_grouped_build_keeps_cell_identity(k):
    # 69 4-gons, 53 5-gons, 21 6-gons and one 7-gon: every row of a group is
    # that cell's own record, built as a group of one, and the stacked
    # scatter is the per-cell scatter
    case = polynomial_case(k, seed=3)
    mesh = polymesh.generate_distorted_polygonal(12, 12, seed=2026, distortion=0.2)
    system = assemble(mesh, kvar, case.forcing, k, boundary=case.pressure)
    fields = ("coords", "ears", "area", "edge_ids", "edge_signs", "edge_lengths", "edge_cross",
              "mass", "p_nabla", "p0", "p0k", "grad_proj", "stiffness", "load",
              "f_moments", "f_coeffs", "k_mean", "grad_coeff", "gkperp_rec",
              "inv_grad_gram", "const_dofs")
    n = system.dofmap.n_global
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for group in system.groups:
        for row, c in enumerate(group.cell):
            ref = build_element(mesh, mesh.cell_groups([c])[0], k, kvar, case.forcing)
            assert ref.cell.tolist() == [c]
            pairs = [(getattr(group, name)[row], getattr(ref, name)[0])
                     for name in fields]
            pairs += [(group.basis.center[row], ref.basis.center[0]),
                      (group.basis.diameter[row], ref.basis.diameter[0]),
                      (group.gk_perp.coeffs[row], ref.gk_perp.coeffs[0])]
            for name, (a, b) in zip(fields + ("center", "diameter", "gk_perp"), pairs):
                assert np.shape(a) == np.shape(b), (c, name)
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), (c, name)
            glob = system.dofmap.global_indices(mesh.cell_edges[c], c)
            free = glob < n
            lifted = oracles.dirichlet_lift(system, c)
            stiffness = ref.stiffness[0]
            np.add.at(rhs, glob[free], (ref.load[0] - stiffness @ lifted)[free])
            rows.append(np.repeat(glob[free], free.sum()))
            cols.append(np.tile(glob[free], free.sum()))
            vals.append(stiffness[np.ix_(free, free)].ravel())
    scatter = sp.coo_matrix((np.concatenate(vals),
                             (np.concatenate(rows), np.concatenate(cols))),
                            shape=(n, n)).tocsr()
    gap = abs(system.matrix.csr - scatter).max()
    assert gap <= 1e-13 * abs(scatter).max()
    assert np.abs(system.rhs - rhs).max() <= 1e-13 * np.abs(rhs).max()
