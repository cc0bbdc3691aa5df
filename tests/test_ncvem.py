"""Local element operators and the global SPD pressure system."""

import numpy as np
import pytest
import scipy.sparse as sp

import oracles
from polydarcy import ncvem, polymesh
from polydarcy.cases import get_case, polynomial_case
from polydarcy.ncvem import (assemble, boundary_edge_values, build_dof_map, build_element,
                             solve_pressure)
from polydarcy.polybasis import (cholesky_factors, gradient_coefficient_matrix, n_monomials,
                                 polygon_quadrature, scaled_monomials)
from polydarcy.polymesh import ear_triangles

PENTAGON = np.array([[0.0, 0.0], [1.1, -0.1], [1.4, 0.8], [0.6, 1.3], [-0.2, 0.9]])


def one_cell_mesh(coords) -> polymesh.PolyMesh:
    coords = np.asarray(coords, float)
    return polymesh.build_topology(coords, [list(range(len(coords)))])


def kvar(pts):
    return 1.0 + 0.5 * np.sin(pts[:, 0])


def kpoly(pts):
    # positive on the test cells, of degree 4: the build's rule 2(k+2)
    # integrates the K-weighted Gram exactly at every k
    return 1.0 + 0.5 * pts[:, 0] ** 2 * pts[:, 1] ** 2 + 0.2 * pts[:, 0] ** 3


def basis_dofs(element):
    """DOF vectors of the cell basis q = T m, (..., N, pi_{k+1}), from the stored tables.

    Edge slots are the scaled edge moments (cross table over |f|); the
    interior slots are the moments against q_0 .. q_{pi_{k-1}-1}, which
    orthonormality makes [I 0].
    """
    k = element.k
    edge_rows = element.edge_cross / element.edge_lengths[..., None, None]
    edge_rows = edge_rows.reshape(edge_rows.shape[:-3] + (-1, edge_rows.shape[-1]))
    nkm1 = n_monomials(k - 1)
    interior = np.broadcast_to(np.eye(nkm1, edge_rows.shape[-1]),
                               edge_rows.shape[:-2] + (nkm1, edge_rows.shape[-1]))
    return np.concatenate([edge_rows, interior], axis=-2)


def monomial_dofs(element):
    """DOF vectors of the scaled monomials m = T^{-1} q, (..., N, pi_{k+1})."""
    return np.linalg.solve(element.basis, basis_dofs(element).mT).mT


def build_pentagon(k, K=1.0, f=None):
    mesh = one_cell_mesh(PENTAGON)
    return build_element(mesh, mesh.cell_groups()[0], k, K, f)


def unit_square_group(k):
    mesh = polymesh.generate_uniform_quads(1, 1)
    return build_element(mesh, mesh.cell_groups()[0], k)


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
        glob = dofmap.global_indices(oracles.cell_edges(mesh, c)[0], c)
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


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_projectors_reproduce_polynomials(k):
    # the pentagon, then every member of a stacked 5-gon group, at one bound:
    # each projector gives back every member of the cell basis q, whose
    # coordinates it acts in, and the gradient projection its exact gradient
    mesh, group = _five_gon_group()
    stacked = build_element(mesh, group, k, kvar, _source)
    nk1 = n_monomials(k + 1)
    nk = n_monomials(k)
    for i, element in enumerate([build_pentagon(k, K=kvar), stacked]):
        d = basis_dofs(element)
        assert np.abs(element.p_nabla @ d - np.eye(nk1)).max() < 1e-11, i
        assert np.abs(element.p0 @ d - np.eye(nk1)).max() < 1e-11, i
        assert np.abs(element.p0[:, :nk] @ d[..., :nk] - np.eye(nk)).max() < 1e-11, i
        assert np.abs(element.grad_proj @ d - element.grad_coeff).max() < 1e-11, i
    # Pi0_k f leaves a residual orthogonal to P_k in the build's own rule
    quad = polygon_quadrature(mesh.vertices[group.loops], 2 * (k + 2), group.ears)
    vals = scaled_monomials(quad.points, group.center, group.diameter, k)
    coeffs = np.einsum("gi,gij->gj", stacked.f_coeffs, stacked.basis[:, :nk, :nk])
    source = _source(quad.points.reshape(-1, 2)).reshape(quad.weights.shape)
    residual = source - np.einsum("gj,gjq->gq", coeffs, vals)
    pairs = np.einsum("gjq,gq->gj", vals, quad.weights * residual)
    assert np.abs(pairs).max() <= 1e-15 * np.abs(source).max()


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
def test_cell_basis_is_orthonormal(k):
    # (1/|P|) int_P q_i q_j = delta_ij and q_0 = 1, on every cell of a
    # distorted mesh, by the independent tensor-Gauss rule; the monomial
    # Gram behind T reaches a condition of about 1e11 at k = 5
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    nk1 = n_monomials(k + 1)
    for group in mesh.cell_groups():
        element = build_element(mesh, group, k)
        assert np.array_equal(element.basis, np.tril(element.basis))
        assert np.abs(element.basis[:, 0, 0] - 1.0).max() < 1e-14
        for row, c in enumerate(group.cells):
            coords = mesh.vertices[mesh.cells[c]]
            pts, w = oracles.polygon_gauss(coords)
            q = element.basis[row] @ oracles.cell_monomials(coords, k + 1, pts)
            gram = (q * w) @ q.T / polymesh.polygon_area(coords)
            assert np.abs(gram - np.eye(nk1)).max() < 1e-11, c


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stored_recovery_tables_are_their_definitions(k):
    # the recovery reads the build's gradient table and gradient-Gram factor
    # instead of recomputing them, and takes the DOFs of the constant
    # function as a fixed 0/1 pattern
    mesh, group = _five_gon_group()
    element = build_element(mesh, group, k, kvar, _source)
    nk = n_monomials(k)
    # grad q_j = sum_i T[j, i] grad m_i: blockdiag(T_k^T) E_q = E T^T
    blocks = element.grad_coeff.reshape(len(group.cells), 2, nk, -1)
    monomial_part = (element.basis[:, None, :nk, :nk].mT @ blocks).reshape(element.grad_coeff.shape)
    exact = gradient_coefficient_matrix(k + 1, group.diameter) @ element.basis.mT
    assert np.abs(monomial_part - exact).max() <= 1e-13 * np.abs(exact).max()
    grad_nc = element.grad_coeff[..., 1:]
    _, inv_h = cholesky_factors(grad_nc.mT @ grad_nc, group.cells)
    assert np.array_equal(element.inv_grad_gram, inv_h)
    # the constant 1 = q_0: 1 in slot 0 of every edge block and in the first
    # interior slot
    pattern = np.zeros(element.stiffness.shape[-1])
    pattern[:element.n_edges * (k + 1) + 1:k + 1] = 1.0
    assert np.abs(basis_dofs(element)[..., 0] - pattern).max() < 1e-14


@pytest.mark.parametrize("k", [0, 2])
def test_build_names_member_with_broken_quadrature(monkeypatch, k):
    # negated weights make that member's Grams negative definite
    mesh, group = _five_gon_group()
    real = ncvem.polygon_quadrature

    def broken(coords, degree, ears):
        quad = real(coords, degree, ears)
        quad.weights[2] *= -1.0
        return quad

    monkeypatch.setattr(ncvem, "polygon_quadrature", broken)
    with pytest.raises(ValueError, match=f"^cell {group.cells[2]}: "):
        build_element(mesh, group, k, kvar, _source)


@pytest.mark.parametrize("k, bound", [(3, 1.52e4), (4, 8.80e4)])
def test_local_stiffness_condition_bounded(k, bound):
    # largest over smallest nonzero singular value of every cell stiffness
    # (constants are its one kernel direction) on 16x16 distorted cells: 10
    # times the 1.52e3 and 8.80e3 of the orthonormal DOFs, which monomial
    # moments exceeded at 2.8e8 and 2.9e12
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(16, 16, seed=2026, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k)
    for element in system.groups:
        sv = np.linalg.svd(element.stiffness, compute_uv=False)
        assert (sv[:, 0] / sv[:, -2]).max() <= bound, element.n_edges


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
    # gradient Gram: the stabilizer vanishes there, and with K of degree 4
    # both quadratures integrate it exactly
    element = build_pentagon(k, K=kpoly)
    d = monomial_dofs(element)[0]
    pts, w = oracles.polygon_gauss(PENTAGON, 20)
    grads = oracles.cell_monomial_gradients(PENTAGON, k + 1, pts)
    target = np.einsum("n,ina,jna->ij", w * kpoly(pts), grads, grads)
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
    v = rng.standard_normal((200, element.stiffness.shape[-1]))
    v -= np.outer(v @ kern, kern)
    energies = np.einsum("ni,ij,nj->n", v, element.stiffness[0], v)
    assert energies.min() > 0.0


def test_zero_load_without_source():
    element = build_pentagon(2)
    assert np.array_equal(element.load, np.zeros((1, element.stiffness.shape[-1])))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_constant_load_hits_mean_slot(k):
    # int_P Pi0_k(c) chi = c |P| * (zeroth interior moment of chi)
    element = build_pentagon(k, f=2.5)
    area = element.group.area[0]
    expected = np.zeros(element.stiffness.shape[-1])
    expected[element.n_edges * (k + 1)] = 2.5 * area
    assert np.abs(element.load[0] - expected).max() < 1e-12 * area


def test_k0_load_is_projected_mean():
    element = build_pentagon(0, f=2.5)
    expected = 2.5 * element.group.area[0] * element.p0[0, 0]
    assert np.abs(element.load[0] - expected).max() < 1e-12


def test_forcing_projection_matches_dense_oracle():
    # f of degree 6 = k + 4: the build's rule 2(k+2) integrates its moments
    # exactly
    def f(pts):
        return (pts[:, 0] + 0.3 * pts[:, 1]) ** 6 - 2.0 * pts[:, 0] * pts[:, 1] ** 2

    element = build_pentagon(2, f=f)
    ref = oracles.l2_projection(PENTAGON, 2, f, n=20)
    nk = n_monomials(2)
    assert np.abs(element.f_coeffs[0] @ element.basis[0, :nk, :nk] - ref).max() < 1e-10


def test_sine_source_projection_carries_the_rule_error():
    # f = sin x is no polynomial, so the build's rule of exactness 2(k+2)
    # leaves a quadrature error in Pi0_k f (1.32e-9 at k = 2 on the unit
    # square, the same against a 12- or 20-point oracle rule); the bound
    # states how far the recovered divergence may sit from Pi0_k f
    def sine(pts):
        return np.sin(pts[:, 0])

    mesh = polymesh.generate_uniform_quads(1, 1)
    group = mesh.cell_groups()[0]
    element = build_element(mesh, group, 2, f=sine)
    ref = oracles.l2_projection(mesh.vertices[group.loops[0]], 2, sine, n=20)
    nk = n_monomials(2)
    assert np.abs(element.f_coeffs[0] @ element.basis[0, :nk, :nk] - ref).max() < 1.9e-9


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
        ref = oracles.edge_legendre(t, k) @ (0.5 * gw * g(pts))
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
    assert [e.n_edges for e in system.groups] == [4, 5, 6, 7]
    for element in system.groups:
        group = element.group
        assert np.array_equal(group.ears, ear_triangles(mesh.vertices[group.loops]))


@pytest.mark.parametrize("k", [0, 2])
def test_element_holds_the_mesh_group_itself(k):
    # the record's geometry is the mesh's CellGroup object, not a copy
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    system = assemble(mesh, kvar, 1.0, k)
    assert len(system.groups) == len(mesh.groups)
    for element, group in zip(system.groups, mesh.groups):
        assert element.group is group
        assert build_element(mesh, group, k).group is group


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


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_assembled_matrix_is_the_all_dof_scatter_cut_to_the_unknowns(k):
    # the scatter over the unknowns alone gives the very arrays of the
    # leading block of the scatter over every DOF
    case = polynomial_case(k, seed=3)
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    system = assemble(mesh, kvar, case.forcing, k, boundary=case.pressure)
    ref = oracles.all_dof_matrix(system)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(system.matrix.csr, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_index_width_follows_the_order_and_the_triplet_count():
    top = int(np.iinfo(np.int32).max)
    assert ncvem._index_dtype(top, top) is np.int32
    assert ncvem._index_dtype(top + 1, 10) is np.int64
    assert ncvem._index_dtype(10, top + 1) is np.int64


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
    for i, element in enumerate(system.groups):
        got = system.group_pressure(i)
        for row, c in enumerate(element.group.cells):
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
    geometry = ("loops", "edges", "signs", "area", "center", "diameter", "ears")
    fields = ("edge_lengths", "edge_cross", "basis", "grad_coeff", "p_nabla", "p0",
              "grad_proj", "stiffness", "load", "f_moments", "f_coeffs", "k_mean",
              "gk_perp", "gkperp_rec", "inv_grad_gram")
    n = system.dofmap.n_global
    rows, cols, vals = [], [], []
    rhs = np.zeros(n)
    for element in system.groups:
        for row, c in enumerate(element.group.cells):
            ref = build_element(mesh, mesh.cell_groups([c])[0], k, kvar, case.forcing)
            assert ref.group.cells.tolist() == [c]
            pairs = [(getattr(element.group, name)[row], getattr(ref.group, name)[0])
                     for name in geometry]
            pairs += [(getattr(element, name)[row], getattr(ref, name)[0])
                      for name in fields]
            for name, (a, b) in zip(geometry + fields, pairs):
                assert np.shape(a) == np.shape(b), (c, name)
                assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max(), (c, name)
            glob = system.dofmap.global_indices(oracles.cell_edges(mesh, c)[0], c)
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
