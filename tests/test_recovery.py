"""Velocity recovery: edge fluxes, moments, projection, RT field, checks."""

import functools

import numpy as np
import pytest

import oracles
from polydarcy import polymesh, recovery, study
from polydarcy.cases import get_case, polynomial_case
from polydarcy.ncvem import assemble, build_element, solve_pressure
from polydarcy.polybasis import n_monomials
from polydarcy.recovery import (RecoveryError, divergence, project_velocity,
                                recover_edge_moments, recover_gkperp_moments,
                                recover_gradient_moments, recover_velocity,
                                rt0_reconstruct)


def unit_cell(k, K=1.0, f=None):
    # the unit square as a group of one: results carry a leading axis of 1
    mesh = polymesh.generate_uniform_quads(1, 1)
    return mesh, build_element(mesh, mesh.cell_groups()[0], k, K, f)


def pressure_x(pts):
    return pts[:, 0]


def test_linear_pressure_edge_fluxes_k0():
    # p = x, K = I: u = (-1, 0); outward fluxes (bottom, right, top, left)
    mesh, element = unit_cell(0)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    local = recover_edge_moments(element, p_loc)
    expected = np.array([[0.0], [-1.0], [0.0], [1.0]])
    assert np.abs(local - expected).max() < 1e-13


def test_zero_pressure_zero_velocity():
    mesh, element = unit_cell(1)
    p_loc = np.zeros((1, element.stiffness.shape[-1]))
    local = recover_edge_moments(element, p_loc)
    assert np.array_equal(local, np.zeros((1, 4, 2)))
    assert np.array_equal(recover_gradient_moments(element, local),
                          np.zeros((1, n_monomials(1) - 1)))
    assert np.array_equal(recover_gkperp_moments(element, p_loc),
                          np.zeros((1, element.gk_perp.shape[-1])))


def test_gradient_moment_closed_form_k1():
    # (1/|P|) int u . grad m = (-1/h, 0) for u = (-1, 0) over m_(1,0), m_(0,1),
    # and the moments against grad q_j, q = T m, are T's rows applied to them
    mesh, element = unit_cell(1)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    local = recover_edge_moments(element, p_loc)
    nu = recover_gradient_moments(element, local)
    h = element.group.diameter[0]
    # unit square: (1/|P|) int m_(1,0)^2 = 1/24, so q_1 = sqrt(24) m_(1,0)
    assert element.basis[0, 1, 1] == pytest.approx(np.sqrt(24.0), rel=1e-14)
    expected = element.basis[0, 1:3, 1:3] @ np.array([-1.0 / h, 0.0])
    assert np.abs(nu[0] - expected).max() < 1e-13


def test_gkperp_moments_empty_at_k0():
    mesh, element = unit_cell(0)
    assert recover_gkperp_moments(element, np.zeros(element.stiffness.shape[-1])).size == 0


@pytest.mark.parametrize("k", [1, 2])
def test_projected_velocity_constant_field(k):
    mesh, element = unit_cell(k)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    local = recover_edge_moments(element, p_loc)
    kappa = recover_gkperp_moments(element, p_loc)
    coeffs = project_velocity(element, local, kappa)
    nk = n_monomials(k)
    expected = np.zeros(2 * nk)
    expected[0] = -1.0
    assert np.abs(coeffs - expected).max() < 1e-11


def test_divergence_zero_source():
    mesh, element = unit_cell(1)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    local = recover_edge_moments(element, p_loc)
    coeffs, gap = divergence(element, local)
    assert np.abs(coeffs).max() < 1e-12
    assert gap[0] < 1e-12


def test_divergence_detects_corrupted_flux():
    mesh, element = unit_cell(1)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    local = recover_edge_moments(element, p_loc)
    local[0, 0, 0] += 1.0
    with pytest.raises(RecoveryError):
        divergence(element, local)


def test_rt_closed_forms():
    mesh, element = unit_cell(0)
    p_loc = oracles.exact_local_dofs(mesh, 0, element.k, pressure_x)
    assert np.abs(rt0_reconstruct(element, p_loc)
                  - np.array([-1.0, 0, 0, 0, 0, 0])).max() < 1e-13
    # pure source: u = (f/2)(x - x_c), divergence f
    mesh, element = unit_cell(0, f=2.0)
    h = element.group.diameter[0]
    out = rt0_reconstruct(element, np.zeros(element.stiffness.shape[-1]))
    assert np.abs(out - np.array([0, h, 0, 0, 0, h])).max() < 1e-13


def test_rt_rejects_higher_order():
    mesh, element = unit_cell(1)
    with pytest.raises(ValueError):
        rt0_reconstruct(element, np.zeros(element.stiffness.shape[-1]))


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
    # flux agreement and global conservation are checked raw, so their gaps
    # read the rounding of a solved k = 3 system: nonzero, and far (here
    # 4.7e-14 and 1.5e-15) inside their tolerances
    mesh = polymesh.generate_distorted_polygonal(12, 12, seed=2026, distortion=0.2)
    vel = study.solve_case(mesh, get_case("bubble-sine"), 3).velocity
    assert 0.0 < vel.flux_gap <= 1e-2 * recovery._FLUX_TOL
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
        local = recover_edge_moments(element, system.group_pressure(i))
        group = element.group
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
    # the pressure scale must fail the structural checks, not be excused
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=9, distortion=0.2)
    system = assemble(mesh, case.permeability, case.forcing, k,
                      boundary=case.pressure)
    solve_pressure(system)
    recover_velocity(system)
    edge = int(np.flatnonzero(mesh.edge_right >= 0)[0])
    system.solution[system.dofmap.edge_offset[edge]] += (
        1e-6 * np.abs(system.solution).max())
    with pytest.raises(RecoveryError):
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
    # rebuild the projection from the oracle's velocity DOFs
    for element in system.groups:
        group = element.group
        local = group.signs[..., None] * edge_ref[group.edges]
        kappa = np.array([gkp_ref[c] for c in group.cells])
        ref = project_velocity(element, local, kappa)
        assert np.abs(vel.projected.coeffs[group.cells] - ref).max() < 1e-9
