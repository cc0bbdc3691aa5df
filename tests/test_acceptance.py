"""Acceptance gate: six end-to-end criteria, one printed PASS/FAIL line each.

Each test prints its verdict line outside pytest's capture, right before
asserting, so the lines show up in any run.  Criterion 1 runs the full
five-level studies for k = 0..3 and takes a few minutes.
"""

import time

import numpy as np

import oracles
from polydarcy import linsolve, ncvem, polymesh, study
from polydarcy.cases import ManufacturedCase, get_case, polynomial_case
from polydarcy.polybasis import gk_perp_dimension, polygon_quadrature
from polydarcy.polymesh import ear_triangles

PENTAGON = np.array([[0.0, 0.0], [1.1, -0.1], [1.4, 0.8],
                     [0.6, 1.3], [-0.2, 0.9]])


def _report(capsys, num: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nCRITERION {num} {label}: {'PASS' if ok else 'FAIL'} "
              f"({detail})", flush=True)


def test_criterion_1_velocity_convergence_rates(capsys):
    # five levels, 16 to 4096 distorted cells; final-level EOC of the
    # projected-velocity error must hit k+1 within the stated bands
    case = get_case("bubble-sine")
    bands = {0: 0.15, 1: 0.15, 2: 0.2, 3: 0.2}
    eocs = {}
    seconds = {}
    for k in range(4):
        t0 = time.time()
        rows = study.convergence_study(case, k, polymesh.distorted_family(5))
        seconds[k] = time.time() - t0
        assert len(rows) == 5 and rows[-1].n_elements == 4096
        eocs[k] = rows[-1].order_u
    ok = all(isinstance(eocs[k], float) and abs(eocs[k] - (k + 1)) <= bands[k]
             for k in range(4))
    detail = ", ".join(f"k={k}: {eocs[k]:.3f} [{seconds[k]:.0f}s]"
                       for k in range(4))
    _report(capsys, 1, "velocity EOC equals k+1", ok, detail)
    assert ok, detail


def test_criterion_2_rt_beats_projection(capsys):
    # K = 1, k = 0, five levels: the RT-type field must be more accurate
    # than the projected velocity at every level and converge at order one
    rows = study.convergence_study(get_case("bubble-unit"), 0, polymesh.distorted_family(5))
    assert len(rows) == 5
    below = all(r.error_rt < r.error_u for r in rows)
    final_order = rows[-1].order_rt
    ok = below and isinstance(final_order, float) and final_order >= 0.95
    detail = (f"rt < proj at {sum(r.error_rt < r.error_u for r in rows)}/5 "
              f"levels, final rt EOC {final_order:.3f}")
    _report(capsys, 2, "RT-type field beats projection", ok, detail)
    assert ok, detail


def _scaled_case(case: ManufacturedCase, s: float) -> ManufacturedCase:
    return ManufacturedCase(
        name=case.name,
        pressure=lambda pts, c=case: s * c.pressure(pts),
        permeability=case.permeability,
        forcing=lambda pts, c=case: s * c.forcing(pts),
        grad_pressure=lambda pts, c=case: s * c.grad_pressure(pts),
    )


def test_criterion_3_patch_exactness(capsys):
    # exact p in P_{k+1} with constant K and exact boundary data, scaled to
    # unit velocity magnitude: every DOF must come back to 1e-9
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=8, distortion=0.2)
    sample = np.random.default_rng(3).uniform(0.0, 1.0, size=(400, 2))
    worst = {}
    for k in range(4):
        raw = polynomial_case(k, seed=1)
        case = _scaled_case(raw, 1.0 / max(1.0, np.abs(raw.velocity(sample)).max()))
        result = study.solve_case(mesh, case, k)
        dofs = result.velocity.dofs
        edge_ex, grad_ex, perp_ex = oracles.exact_velocity_dofs(
            result.system, case.velocity)
        diffs = [np.abs(dofs.edge_coeffs - edge_ex).max()]
        diffs += [max((np.abs(a - b).max() if a.size else 0.0)
                      for a, b in zip(dofs.grad_moments, grad_ex))]
        diffs += [max((np.abs(a - b).max() if a.size else 0.0)
                      for a, b in zip(dofs.gkperp_moments, perp_ex))]
        for i, element in enumerate(result.system.groups):
            got = result.system.group_pressure(i)
            for row, c in enumerate(element.group.cells):
                exact = oracles.exact_local_dofs(mesh, c, k, case.pressure)
                diffs.append(np.abs(got[row] - exact).max())
        for c in range(mesh.num_cells):
            pts, _ = oracles.polygon_gauss(mesh.vertices[mesh.cells[c]], 8)
            diffs.append(np.abs(result.velocity.projected.evaluate(c, pts)
                                - case.velocity(pts)).max())
        worst[k] = max(diffs)
    ok = all(v <= 1e-9 for v in worst.values())
    detail = ", ".join(f"k={k}: {worst[k]:.1e}" for k in range(4))
    _report(capsys, 3, "patch test to 1e-9", ok, detail)
    assert ok, detail


def test_criterion_4_monolithic_equivalence(capsys):
    # the dense solve of the coupled square system and the sequential
    # solve-then-recover pipeline must agree in every DOF
    case = get_case("bubble-sine")
    worst = 0.0
    runs = 0
    for k in [0, 1, 2]:
        for mesh in [polymesh.generate_uniform_quads(2, 2),
                     polymesh.generate_distorted_polygonal(4, 4, seed=5,
                                                           distortion=0.2)]:
            result = study.solve_case(mesh, case, k)
            edge_o, grad_o, perp_o, press_o = oracles.monolithic_solve(
                result.system, case.permeability)
            dofs = result.velocity.dofs
            diffs = [np.abs(dofs.edge_coeffs - edge_o).max(),
                     max((np.abs(a - b).max() if a.size else 0.0)
                         for a, b in zip(dofs.grad_moments, grad_o)),
                     max((np.abs(a - b).max() if a.size else 0.0)
                         for a, b in zip(dofs.gkperp_moments, perp_o)),
                     np.abs(result.system.solution - press_o).max()]
            worst = max(worst, max(diffs))
            runs += 1
    ok = worst <= 1e-9
    detail = f"{runs} runs (k in 0..2, 2x2 and 4x4), worst DOF diff {worst:.1e}"
    _report(capsys, 4, "monolithic oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_5_structural_identities(capsys):
    # edge-count identity, local conservation on every cell, interior flux
    # agreement and global conservation on a matrix of runs
    worst = {"div": 0.0, "flux": 0.0, "cons": 0.0}
    euler_ok = True
    runs = 0
    for case_name in ["bubble-sine", "bubble-unit"]:
        case = get_case(case_name)
        for k in range(4):
            for mesh in [polymesh.generate_uniform_quads(3, 3),
                         polymesh.generate_distorted_polygonal(
                             4, 4, seed=11, distortion=0.2)]:
                euler_ok = euler_ok and polymesh.euler_check(mesh)
                result = study.solve_case(mesh, case, k)
                worst["div"] = max(worst["div"], result.velocity.div_gap)
                worst["flux"] = max(worst["flux"], result.velocity.flux_gap)
                worst["cons"] = max(worst["cons"],
                                    result.velocity.conservation_gap)
                runs += 1
    ok = (euler_ok and worst["div"] <= 1e-10 and worst["flux"] <= 1e-9
          and worst["cons"] <= 1e-9)
    detail = (f"{runs} runs: euler {'exact' if euler_ok else 'BROKEN'}, "
              f"local conservation {worst['div']:.1e}, flux {worst['flux']:.1e}, "
              f"global conservation {worst['cons']:.1e}")
    _report(capsys, 5, "structural identities", ok, detail)
    assert ok, detail


def test_criterion_6_kernel_suites(capsys):
    failures = []

    # quadrature vs closed-form triangle monomial integrals
    rng = np.random.default_rng(12)
    worst_quad = 0.0
    done = 0
    while done < 10:
        tri = rng.uniform(0.0, 1.0, size=(3, 2))
        d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
        if d1[0] * d2[1] - d1[1] * d2[0] < 0.05:
            continue
        done += 1
        for a in range(5):
            for b in range(5 - a):
                quad = polygon_quadrature(tri, a + b, ear_triangles(tri))
                got = float(quad.weights @ (quad.points[:, 0] ** a
                                            * quad.points[:, 1] ** b))
                exact = oracles.triangle_monomial_integral(
                    tri[0], tri[1], tri[2], a, b)
                worst_quad = max(worst_quad, abs(got - exact) / max(1.0, abs(exact)))
    if worst_quad > 1e-13:
        failures.append(f"quadrature {worst_quad:.1e}")

    # gradient-complement dimensions for k = 0..4
    dims = [gk_perp_dimension(k) for k in range(5)]
    if dims != [0, 1, 3, 6, 10]:
        failures.append(f"complement dims {dims}")
    mesh = polymesh.build_topology(PENTAGON, [np.arange(5)])
    elements = [ncvem.build_element(mesh, mesh.cell_groups()[0], k) for k in range(5)]
    for k, element in enumerate(elements):
        if element.gk_perp.shape[-1] != dims[k]:
            failures.append(f"complement basis rank k={k}")

    # projector polynomial reproduction and idempotence, on the DOF table
    # of the cell basis q: scaled edge moments, then [I 0] for the interior
    worst_proj = 0.0
    for k, element in enumerate(elements):
        edge_rows = (element.edge_cross[0] / element.edge_lengths[0, :, None, None])
        edge_rows = edge_rows.reshape(-1, edge_rows.shape[-1])
        nkm1 = element.stiffness.shape[-1] - len(edge_rows)
        dmat = np.vstack([edge_rows, np.eye(nkm1, edge_rows.shape[-1])])
        p_nabla = element.p_nabla[0]
        eye = np.eye(dmat.shape[1])
        nk = element.grad_proj.shape[1] // 2
        worst_proj = max(worst_proj,
                         np.abs(p_nabla @ dmat - eye).max(),
                         np.abs(element.p0[0] @ dmat - eye).max(),
                         np.abs(element.p0[0, :nk] @ dmat[:, :nk] - eye[:nk, :nk]).max())
        chi = np.random.default_rng(k).standard_normal(element.stiffness.shape[-1])
        once = p_nabla @ chi
        twice = p_nabla @ (dmat @ once)
        worst_proj = max(worst_proj,
                         np.abs(twice - once).max() / max(1.0, np.abs(once).max()))
    if worst_proj > 1e-11:
        failures.append(f"projectors {worst_proj:.1e}")

    # sparse LU (SuperLU) vs dense LAPACK Cholesky on an assembled system
    case = get_case("bubble-sine")
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=2, distortion=0.2)
    system = ncvem.assemble(mesh, case.permeability, case.forcing, 1,
                            boundary=case.pressure)
    x_lu = linsolve.solve(system.matrix, system.rhs)
    x_ch = oracles.cholesky_solve(system.matrix.csr.toarray(), system.rhs)
    gap = np.abs(x_lu - x_ch).max() / max(1.0, np.abs(x_ch).max())
    if gap > 1e-9:
        failures.append(f"lu vs cholesky {gap:.1e}")

    ok = not failures
    detail = "quadrature, complement dims, projectors, lu-vs-cholesky all in" \
        if ok else "; ".join(failures)
    _report(capsys, 6, "kernel unit suites", ok, detail)
    assert ok, detail
