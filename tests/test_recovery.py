"""Velocity recovery: edge fluxes, moments, projection, RT field, checks."""

import functools

import numpy as np
import pytest

import oracles
from polydarcy import polymesh, recovery, study
from polydarcy.cases import get_case
from polydarcy.ncvem import assemble, solve_pressure
from polydarcy.polybasis import n_monomials
from polydarcy.recovery import RecoveryError, recover_velocity


def one_cell(k, f=0.0, boundary=None):
    # the unit square as a one-cell mesh: every edge DOF is a boundary value,
    # the cell is the left cell of every edge, and fields have one row
    mesh = polymesh.generate_uniform_quads(1, 1)
    system = assemble(mesh, 1.0, f, k, boundary=boundary)
    solve_pressure(system)
    return system, recover_velocity(system)


def pressure_x(pts):
    return pts[:, 0]


def outward_fluxes(system, vel):
    """Per-edge u . n_P coefficients of the one cell, in loop order."""
    group = system.groups[0].group
    return group.signs[0][:, None] * vel.dofs.edge_coeffs[group.edges[0]]


def test_linear_pressure_edge_fluxes_k0():
    # p = x, K = I: u = (-1, 0); outward fluxes (bottom, right, top, left)
    system, vel = one_cell(0, boundary=pressure_x)
    expected = np.array([[0.0], [-1.0], [0.0], [1.0]])
    assert np.abs(outward_fluxes(system, vel) - expected).max() < 1e-13


def test_zero_pressure_zero_velocity():
    system, vel = one_cell(1)
    assert not system.group_pressure(0).any()
    assert np.array_equal(vel.dofs.edge_coeffs, np.zeros((4, 2)))
    assert np.array_equal(vel.dofs.grad_moments, np.zeros((1, n_monomials(1) - 1)))
    assert np.array_equal(vel.dofs.gkperp_moments,
                          np.zeros((1, system.groups[0].gk_perp.shape[-1])))


def test_gradient_moment_closed_form_k1():
    # (1/|P|) int u . grad m = (-1/h, 0) for u = (-1, 0) over m_(1,0), m_(0,1),
    # and the moments against grad q_j, q = T m, are T's rows applied to them
    system, vel = one_cell(1, boundary=pressure_x)
    element = system.groups[0]
    h = element.group.diameter[0]
    # unit square: (1/|P|) int m_(1,0)^2 = 1/24, so q_1 = sqrt(24) m_(1,0)
    assert element.basis[0, 1, 1] == pytest.approx(np.sqrt(24.0), rel=1e-14)
    expected = element.basis[0, 1:3, 1:3] @ np.array([-1.0 / h, 0.0])
    assert np.abs(vel.dofs.grad_moments[0] - expected).max() < 1e-13


def test_gkperp_moments_empty_at_k0():
    _, vel = one_cell(0, boundary=pressure_x)
    assert vel.dofs.gkperp_moments.shape == (1, 0)


@pytest.mark.parametrize("k", [1, 2])
def test_projected_velocity_constant_field(k):
    _, vel = one_cell(k, boundary=pressure_x)
    expected = np.zeros(2 * n_monomials(k))
    expected[0] = -1.0
    assert np.abs(vel.projected.coeffs[0] - expected).max() < 1e-11


def test_divergence_zero_source():
    _, vel = one_cell(1, boundary=pressure_x)
    assert np.abs(vel.divergence.coeffs).max() < 1e-12
    assert vel.div_gap < 1e-12


def test_rt_closed_forms():
    _, vel = one_cell(0, boundary=pressure_x)
    assert np.abs(vel.rt.coeffs[0] - np.array([-1.0, 0, 0, 0, 0, 0])).max() < 1e-13
    # pure source with zero boundary pressure: u = (f/2)(x - x_c), divergence f
    system, vel = one_cell(0, f=2.0)
    h = system.groups[0].group.diameter[0]
    assert np.abs(vel.rt.coeffs[0] - np.array([0, h, 0, 0, 0, h])).max() < 1e-13


def test_rt_absent_at_higher_order():
    _, vel = one_cell(1, boundary=pressure_x)
    assert vel.rt is None


def test_unsolved_system_rejected():
    mesh = polymesh.generate_uniform_quads(2, 2)
    system = assemble(mesh, 1.0, 1.0, 0)
    with pytest.raises(RuntimeError):
        recover_velocity(system)


def test_constant_source_divergence_k0():
    mesh = polymesh.generate_uniform_quads(2, 2)
    system = assemble(mesh, 1.0, 1.0, 0)
    solve_pressure(system)
    vel = recover_velocity(system)
    # div u_h = Pi0_0(1) = 1 on every cell
    assert np.abs(vel.divergence.coeffs - 1.0).max() < 1e-10


def test_divergence_is_projected_sine_source():
    def f(pts):
        return np.sin(pts[:, 0])

    mesh = polymesh.generate_distorted_polygonal(3, 3, seed=6, distortion=0.2)
    k = 2
    system = assemble(mesh, 1.0, f, k)
    solve_pressure(system)
    vel = recover_velocity(system)
    for c in range(mesh.num_cells):
        ref = oracles.l2_projection(mesh.vertices[mesh.cells[c]], k, f)
        assert np.abs(vel.divergence.coeffs[c] - ref).max() < 1e-8


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_structural_gaps_on_manufactured_case(k):
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    vel = recover_velocity(system)
    assert vel.flux_gap <= 1e-9
    assert vel.div_gap <= 1e-10
    assert vel.conservation_gap <= 1e-9
    assert vel.dofs.edge_coeffs.shape == (mesh.num_edges, k + 1)
    assert len(vel.dofs.grad_moments) == mesh.num_cells
    # div u = Pi0_k f by construction: the stored projected source itself,
    # moved from the cell basis q = T m to the monomials by T^T
    nk = n_monomials(k)
    for element in system.groups:
        ref = (element.f_coeffs[:, None, :] @ element.basis[:, :nk, :nk])[:, 0]
        assert np.array_equal(vel.divergence.coeffs[element.group.cells], ref)


@functools.lru_cache(maxsize=None)
def _distorted_study(k):
    """Rows of the 4-level `bubble-sine` study at order k, 16 to 1024 cells."""
    return tuple(study.convergence_study(get_case("bubble-sine"), k,
                                         polymesh.distorted_family(4)))


def test_divergence_converges_at_high_order():
    # the divergence is Pi0_k f itself, so it keeps order k + 1 at k = 4 and
    # reaches the rounding floor at k = 5
    orders = [r.order_div for r in _distorted_study(4)[1:]]
    assert all(order >= 4.7 for order in orders), orders
    errors = [r.error_div for r in _distorted_study(5)]
    assert all(b < a for a, b in zip(errors, errors[1:])), errors
    assert errors[-1] <= 1e-12, errors


@pytest.mark.parametrize("k, levels", [(4, 3), (5, 2)])
def test_high_order_velocity_and_gradient_rates(k, levels):
    # orthonormal DOFs keep the local algebra well conditioned, so velocity
    # and pressure gradient keep order >= 4.5 up to the rounding floor: at
    # every level for k = 4 (5.09, 4.89, 4.88 and 5.23, 5.05, 4.96), and at
    # levels 1-2 for k = 5, whose 1024-cell velocity error is 7.5e-13
    rows = _distorted_study(k)
    assert [r.n_elements for r in rows] == [16, 64, 256, 1024]
    for row in rows[1:levels + 1]:
        assert row.order_u >= 4.5 and row.order_grad_p >= 4.5, (k, row)


def test_order_six_study_completes():
    # every pressure solve of the k = 6 study is certified (no SolverError)
    assert [r.n_elements for r in _distorted_study(6)] == [16, 64, 256, 1024]


def test_raw_gaps_are_visible():
    # every gap is reported raw, so each reads the rounding of a solved k = 3
    # system: nonzero, and far (here 3.5e-14, 2.8e-13 and 2.5e-15) inside
    # its tolerance; local conservation is still decided beyond its envelope
    mesh = polymesh.generate_distorted_polygonal(12, 12, seed=2026, distortion=0.2)
    vel = study.solve_case(mesh, get_case("bubble-sine"), 3).velocity
    assert 0.0 < vel.flux_gap <= 1e-2 * recovery._FLUX_TOL
    assert 0.0 < vel.div_gap <= 1e-2 * recovery._DIV_TOL
    assert 0.0 < vel.conservation_gap <= 1e-2 * recovery._CONSERVATION_TOL


@pytest.mark.parametrize("k", [0, 2])
def test_local_conservation_violation_rejected(k):
    # int_P f moved by 1e-6 of the largest source moment on one cell leaves
    # that cell's fluxes unbalanced; the full pass must name the cell
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    recover_velocity(system)
    element = system.groups[-1]
    row = element.group.cells.size // 2
    scale = max(np.abs(g.f_moments[:, 0]).max() for g in system.groups)
    element.f_moments[row, 0] += 1e-6 * scale
    with pytest.raises(RecoveryError,
                       match=f"cell {element.group.cells[row]}: .*local conservation"):
        recover_velocity(system)


def test_global_conservation_violation_rejected(monkeypatch):
    # with the local check relaxed to a relative gap of 1, one cell's int_P f
    # moved by 1e-6 of the largest source moment still unbalances the total
    # boundary outflow against the total source
    monkeypatch.setattr(recovery, "_DIV_TOL", 1.0)
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, 1,
                      boundary=case.pressure)
    solve_pressure(system)
    recover_velocity(system)
    element = system.groups[-1]
    row = element.group.cells.size // 2
    scale = max(np.abs(g.f_moments[:, 0]).max() for g in system.groups)
    element.f_moments[row, 0] += 1e-6 * scale
    with pytest.raises(RecoveryError, match="global conservation violated"):
        recover_velocity(system)


def test_edge_flux_owned_by_left_cell():
    # the returned flux is the left cell's recovery, not the right cell's
    # and not their average; on a solved system the copies differ only at
    # rounding level, so only an exact comparison tells them apart
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, 1,
                      boundary=case.pressure)
    solve_pressure(system)
    vel = recover_velocity(system)
    owner = {}
    for i, element in enumerate(system.groups):
        # slot (f, alpha) of the local residual is |f| times coefficient
        # alpha of u . n_P on f
        residual = element.load - np.einsum("gij,gj->gi", element.stiffness,
                                            system.group_pressure(i))
        group = element.group
        n_e = element.n_edges
        local = (residual[:, :n_e * 2].reshape(-1, n_e, 2)
                 / element.edge_lengths[..., None])
        for row, c in enumerate(group.cells):
            for pos, e in enumerate(group.edges[row]):
                owner.setdefault(int(e), []).append(
                    (c, group.signs[row, pos] * local[row, pos]))
    distinguishable = False
    for e in range(mesh.num_edges):
        copies = dict(owner[e])
        left = copies[mesh.edge_left[e]]
        assert np.array_equal(vel.dofs.edge_coeffs[e], left)
        if mesh.edge_right[e] >= 0:
            average = 0.5 * (left + copies[mesh.edge_right[e]])
            distinguishable |= not np.array_equal(average, left)
    # some edge tells the left copy from the average (and so from the right)
    assert distinguishable


@pytest.mark.parametrize("k", [0, 1])
def test_pressure_off_the_solve_rejected(k):
    # the left/right flux mismatch is exactly the global residual row over
    # |f|, so one interior-edge DOF moved off the certified solve by 1e-6 of
    # the pressure scale must fail the structural checks, not be excused.
    # At k = 0 the cells' outflows stay balanced, so flux agreement is the
    # check that fails; at k >= 1 the interior residual slot moves too and
    # unbalances the outflow, and local conservation, checked first, fails
    message = "interior edge fluxes disagree" if k == 0 else "local conservation"
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    recover_velocity(system)
    edge = int(np.flatnonzero(mesh.edge_right >= 0)[0])
    system.solution[system.dofmap.edge_offset[edge]] += (
        1e-6 * np.abs(system.solution).max())
    with pytest.raises(RecoveryError, match=message):
        recover_velocity(system)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("meshspec", ["uniform", "distorted"])
def test_matches_monolithic_square_system(k, meshspec):
    if meshspec == "uniform":
        mesh = polymesh.generate_uniform_quads(2, 2)
    else:
        mesh = polymesh.generate_distorted_polygonal(4, 4, seed=5,
                                                     distortion=0.2)
    case = get_case("bubble-sine")
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    vel = recover_velocity(system)
    edge_ref, grad_ref, gkp_ref, p_ref = oracles.monolithic_solve(
        system, case.permeability)
    assert np.abs(vel.dofs.edge_coeffs - edge_ref).max() < 1e-9
    for c in range(mesh.num_cells):
        if k >= 1:
            assert np.abs(vel.dofs.grad_moments[c] - grad_ref[c]).max() < 1e-9
            assert np.abs(vel.dofs.gkperp_moments[c] - gkp_ref[c]).max() < 1e-9
    assert np.abs(system.solution - p_ref).max() < 1e-9


def test_projection_matches_monolithic_oracle_k1():
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=5, distortion=0.2)
    case = get_case("bubble-sine")
    system = assemble(mesh, case.permeability, case.forcing, 1,
                      boundary=case.pressure)
    solve_pressure(system)
    vel = recover_velocity(system)
    edge_ref, grad_ref, gkp_ref, _ = oracles.monolithic_solve(
        system, case.permeability)
    # rebuild the projection from the oracle's velocity DOFs: its fluxes give
    # the moments against grad q_j up to degree 2 by the divergence theorem
    # with div u = Pi0_1 f, and its complement moments are used as they are
    for element in system.groups:
        group = element.group
        local = group.signs[..., None] * edge_ref[group.edges]
        nu = np.einsum("geb,gebj->gj", local, element.edge_cross) / group.area[:, None]
        nu[:, :n_monomials(1)] -= element.f_coeffs
        kappa = np.array([gkp_ref[c] for c in group.cells])
        ref = recovery._project_velocity(element, nu[:, 1:], kappa)
        assert np.abs(vel.projected.coeffs[group.cells] - ref).max() < 1e-9
