"""Convergence harness: error norms, rate tables, CSV output."""

import csv
import dataclasses
import math
import sys

import numpy as np
import pytest

import oracles
from polydarcy import linsolve, ncvem, polybasis, polymesh, recovery, study, vtk_export
from polydarcy.cases import get_case, polynomial_case
from polydarcy.polybasis import n_monomials, polygon_quadrature
from polydarcy.polymesh import ear_triangles
from polydarcy.study import ConvergenceRow


def test_solve_case_field_shapes():
    mesh = polymesh.generate_distorted_polygonal(2, 2, seed=4, distortion=0.2)
    case = polynomial_case(1, seed=2)
    result = study.solve_case(mesh, case, 1)
    assert result.k == 1
    assert result.pressure.degree == 2
    assert result.grad_pressure.degree == 1
    assert result.velocity.projected.degree == 1
    assert result.pressure.coeffs.shape == (4, n_monomials(2))
    assert result.grad_pressure.coeffs.shape == (4, 2 * n_monomials(1))


def test_solve_case_rejects_negative_order():
    mesh = polymesh.generate_distorted_polygonal(2, 2, seed=4, distortion=0.2)
    with pytest.raises(ValueError, match="^polynomial order k must be >= 0$"):
        study.solve_case(mesh, get_case("bubble-sine"), -1)


def test_error_norms_vanish_on_polynomial_patch():
    # degree-2 pressure with constant K is reproduced exactly by the k=1 space
    mesh = polymesh.generate_distorted_polygonal(2, 2, seed=4, distortion=0.2)
    case = polynomial_case(1, seed=2)
    result = study.solve_case(mesh, case, 1)
    row = study.error_norms(result, case)
    assert row.n_elements == 4
    assert row.error_u <= 1e-9 * max(row.ref_u, 1.0)
    assert row.error_p <= 1e-9 * max(row.ref_p, 1.0)
    assert row.error_grad_p <= 1e-9 * max(row.ref_grad_p, 1.0)
    assert row.error_div <= 1e-9 * max(row.ref_div, 1.0)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_tensor_permeability_matches_scalar(k):
    # bubble-sine's kappa(x) and the same kappa(x) I returned as (n, 2, 2)
    # tensors must assemble the same system and integrate the same errors
    mesh = polymesh.generate_distorted_polygonal(8, 8, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")
    tensor_case = dataclasses.replace(
        case, name="bubble-sine-tensor",
        permeability=lambda pts: case.permeability(pts)[:, None, None] * np.eye(2))
    assert tensor_case.permeability(np.array([[0.3, 0.7]])).shape == (1, 2, 2)
    scalar, tensor = (study.solve_case(mesh, c, k) for c in (case, tensor_case))
    assert np.array_equal(scalar.system.matrix.csr.toarray(),
                          tensor.system.matrix.csr.toarray())
    assert np.array_equal(scalar.system.rhs, tensor.system.rhs)
    assert study.error_norms(scalar, case) == study.error_norms(tensor, tensor_case)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_error_norms_match_cellwise_oracle(k):
    # every norm integrated cell by cell, each field evaluated on its own
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")
    result = study.solve_case(mesh, case, k)
    vel = result.velocity
    err = dict.fromkeys(["u", "p", "grad_p", "div", "rt"], 0.0)
    ref = dict.fromkeys(["u", "p", "grad_p", "div"], 0.0)
    for c in range(mesh.num_cells):
        coords = mesh.vertices[mesh.cells[c]]
        quad = polygon_quadrature(coords, 2 * (k + 3), ear_triangles(coords))
        pts, w = quad.points, quad.weights
        exact = {"u": case.velocity(pts), "p": case.pressure(pts),
                 "grad_p": case.grad_pressure(pts), "div": case.forcing(pts)}
        discrete = {"u": vel.projected, "p": vel.pressure,
                    "grad_p": vel.grad_pressure, "div": vel.divergence}
        for name, field in discrete.items():
            diff = exact[name] - field.evaluate(c, pts)
            err[name] += float(w @ (diff ** 2).reshape(len(w), -1).sum(axis=1))
            ref[name] += float(w @ (exact[name] ** 2).reshape(len(w), -1).sum(axis=1))
        if k == 0:
            diff = exact["u"] - vel.rt.evaluate(c, pts)
            err["rt"] += float(w @ (diff ** 2).sum(axis=1))
    row = study.error_norms(result, case)
    assert (row.error_rt is None) == (k > 0)
    for name in list(ref) + (["rt"] if k == 0 else []):
        want = np.sqrt(err[name])
        scale = np.sqrt(ref["u" if name == "rt" else name])
        got = getattr(row, f"error_{name}")
        assert abs(got - want) <= 1e-12 * want + 1e-14 * scale, (name, got, want)
        if name != "rt":
            assert abs(getattr(row, f"ref_{name}") - scale) <= 1e-14 * scale, name


def test_solve_path_uses_no_dense_solver(monkeypatch):
    # every Gram solve goes through a Cholesky factor; numpy's LU-based
    # solve and inv must not be reached from assembly, solve or recovery
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")
    for k in range(4):  # fills the cached reference tables first
        study.solve_case(mesh, case, k)

    def refuse(*args, **kwargs):
        raise AssertionError("dense LU solver called on the solve path")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    for k in range(4):
        result = study.solve_case(mesh, case, k)
        assert result.system.solution is not None


def test_no_gram_is_factored_after_the_solve(monkeypatch, tmp_path):
    # every cell Gram is factored once, in the element build: recovery,
    # error norms and export read the stored factors and never reach a
    # Cholesky factorization
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")
    systems = []
    for k in range(4):
        system = ncvem.assemble(mesh, case.permeability, case.forcing, k,
                                boundary=case.pressure)
        ncvem.solve_pressure(system)
        systems.append(system)

    def refuse(*args, **kwargs):
        raise AssertionError("Cholesky factorization after the solve")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    for k, system in enumerate(systems):
        velocity = recovery.recover_velocity(system)
        result = study.SolveResult(mesh=mesh, k=k, system=system, velocity=velocity)
        assert np.isfinite(study.error_norms(result, case).error_u)
        vtk_export.export_vtk(result, str(tmp_path / f"k{k}.vtk"))


def _geometry_holders(*functions):
    """(module, name) of every name in the package's modules bound to one of them."""
    return [(module, name) for module_name, module in list(sys.modules.items())
            if module_name.split(".")[0] == "polydarcy"
            for name, value in vars(module).items()
            if any(value is fn for fn in functions)]


def test_error_norms_reuse_the_build_ears(monkeypatch):
    # every cell is cut into ears once per mesh, in build_topology; the
    # error pass maps its rule onto the stored ears
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")
    results = [study.solve_case(mesh, case, k) for k in range(4)]
    rows = [study.error_norms(result, case) for result in results]

    def refuse(*args, **kwargs):
        raise AssertionError("ear clipping after the element build")

    holders = _geometry_holders(polymesh.ear_triangles)
    for module, name in holders:
        monkeypatch.setattr(module, name, refuse)
    assert (polymesh, "ear_triangles") in holders
    for result, row in zip(results, rows):
        assert study.error_norms(result, case) == row


def test_no_cell_is_measured_or_cut_after_build_topology(monkeypatch, tmp_path):
    # build_topology measures and cuts every cell once; with the four
    # geometry functions refusing under every name that holds them, a solve,
    # its error pass, its export and the quality report still give the same
    # rows, files and report
    mesh = polymesh.generate_distorted_polygonal(6, 6, seed=2026, distortion=0.2)
    case = get_case("bubble-sine")

    def run():
        out = [polymesh.mesh_quality(mesh)]
        for k in range(4):
            result = study.solve_case(mesh, case, k)
            path = tmp_path / f"k{k}.vtk"
            vtk_export.export_vtk(result, str(path))
            out += [study.error_norms(result, case), path.read_text()]
        return out

    expected = run()

    def refuse(*args, **kwargs):
        raise AssertionError("a cell measured or cut after build_topology")

    holders = _geometry_holders(polymesh.polygon_area, polymesh.polygon_centroid,
                                polymesh.polygon_diameter, polymesh.ear_triangles)
    for module, name in holders:
        monkeypatch.setattr(module, name, refuse)
    patched = {f"{module.__name__}.{name}" for module, name in holders}
    assert {"polydarcy.polymesh.ear_triangles", "polydarcy.polymesh.polygon_centroid",
            "polydarcy.polymesh.polygon_area"} <= patched
    # the polynomial algebra holds no geometry routine under any name
    assert not any(module is polybasis for module, _ in holders)
    assert run() == expected


def _row(n, e, **fields):
    return ConvergenceRow(n_elements=n, error_u=e, error_p=e,
                          error_grad_p=e, error_div=e,
                          ref_u=1.0, ref_p=1.0, ref_grad_p=1.0, ref_div=1.0,
                          **fields)


def test_compute_orders_is_log2_of_error_ratio():
    rows = [_row(16, 1.0), _row(64, 0.25), _row(256, 0.03125)]
    study.compute_orders(rows)
    assert rows[0].order_u is None
    assert rows[1].order_u == pytest.approx(2.0)
    assert rows[2].order_u == pytest.approx(3.0)
    assert rows[2].order_div == pytest.approx(3.0)


def test_orders_at_machine_precision_report_exact():
    rows = [_row(16, 1e-13), _row(64, 2e-13)]
    study.compute_orders(rows)
    assert rows[1].order_u == study.EXACT_MARK


def test_orders_show_a_rate_unless_both_errors_are_exact():
    # one error at the floor is still a rate: a fast drop onto the floor, a
    # jump off it, and a zero error on either side
    rows = [_row(16, 1.89954e-10), _row(64, 3.28275e-12), _row(256, 1e-3),
            _row(1024, 0.0), _row(4096, 1e-3)]
    study.compute_orders(rows)
    assert rows[1].order_u == pytest.approx(5.8546, abs=1e-4)
    assert rows[2].order_u < 0.0
    assert rows[3].order_u == math.inf
    assert rows[4].order_u == -math.inf


def _squares(*sizes, distortion=0.2):
    # the n-by-n distorted meshes of `sizes`, the one of level L with seed 2026 + L
    return [polymesh.generate_distorted_polygonal(n, n, seed=2026 + level, distortion=distortion)
            for level, n in enumerate(sizes)]


def test_convergence_study_takes_any_number_of_meshes():
    case = get_case("bubble-unit")
    meshes = _squares(2, 4)
    assert study.convergence_study(case, 0, []) == []
    (row,) = study.convergence_study(case, 0, meshes[:1])
    assert row.n_elements == 4 and row.order_u is None
    rows = study.convergence_study(case, 0, iter(meshes))
    assert rows[0] == row
    assert [r.n_elements for r in rows] == [4, 16]
    assert isinstance(rows[1].order_u, float)


def test_study_draws_no_mesh_after_a_failed_solve(monkeypatch):
    # the third solve fails, so the family never generates its fourth mesh
    real_solve = ncvem.solve_pressure
    real_generate = polymesh.generate_distorted_polygonal
    solves, generated = {"n": 0}, []

    def flaky(system):
        solves["n"] += 1
        if solves["n"] >= 3:
            raise linsolve.SolverError("no convergence", residual=1.0)
        return real_solve(system)

    def spy(nx, ny, seed, distortion):
        generated.append(nx)
        return real_generate(nx, ny, seed, distortion)

    monkeypatch.setattr(ncvem, "solve_pressure", flaky)
    monkeypatch.setattr(polymesh, "generate_distorted_polygonal", spy)
    rows = study.convergence_study(get_case("bubble-unit"), 0, polymesh.distorted_family(4))
    assert [r.n_elements for r in rows] == [16, 64]
    assert generated == [4, 8, 16]


def test_convergence_study_on_mesh_files_matches_generated_meshes(tmp_path):
    # write_mesh keeps every coordinate bit for bit, so the read-back
    # meshes give the same rows as the generated ones
    case = get_case("bubble-sine")
    meshes = list(polymesh.distorted_family(3))
    copies = []
    for level, mesh in enumerate(meshes):
        path = str(tmp_path / f"level{level}.txt")
        polymesh.write_mesh(mesh, path)
        copies.append(polymesh.read_mesh(path))
    rows = study.convergence_study(case, 1, copies)
    assert len(rows) == 3
    assert rows == study.convergence_study(case, 1, meshes)


# Bounds on errorU and errorP of the patch test, set when monomial DOFs left
# k = 2 and 3 at the floor of an ill-conditioned local algebra.  With
# orthonormal DOFs the U and comb cells give at most 1.1e-12 (k = 2) and
# 2.4e-12 (k = 3), and U cells with other notches and loop starts at most
# 6.5e-12 and 2.0e-11.
PATCH_BOUNDS = {0: 1e-13, 1: 1e-13, 2: 1e-10, 3: 1e-8}


@pytest.mark.parametrize("notches", [1, 2])
@pytest.mark.parametrize("k", range(4))
def test_patch_test_on_cells_without_a_kernel(notches, k):
    # a U cell and a three-tooth comb, each with its slots filled, on the
    # unit square: p in P_{k+1} comes back exactly, though the comb cell is
    # not star-shaped
    mesh = oracles.comb_mesh(notches)
    case = polynomial_case(k, seed=1)
    row = study.error_norms(study.solve_case(mesh, case, k), case)
    assert row.error_u <= PATCH_BOUNDS[k]
    assert row.error_p <= PATCH_BOUNDS[k]


@pytest.mark.parametrize("k, bound", [(3, 1.1e-10), (4, 1.2e-10)])
def test_high_order_patch_test_on_distorted_meshes(k, bound):
    # p in P_{k+1} with constant K on 4x4 to 32x32 distorted cells (seed
    # 2026): 10 times the worst errorU of the orthonormal DOFs with monomial
    # projector algebra, 1.1e-11 (k = 3) and 1.2e-11 (k = 4) at 32x32, where
    # monomial DOFs gave 1.3e-9 and 4.2e-7; with the orthonormal cell basis
    # throughout the build they are 5.0e-11 and 2.5e-11
    case = polynomial_case(k, seed=1)
    for n in (4, 8, 16, 32):
        mesh = polymesh.generate_distorted_polygonal(n, n, seed=2026, distortion=0.2)
        row = study.error_norms(study.solve_case(mesh, case, k), case)
        assert row.error_u <= bound and row.error_p <= bound, (n, row.error_u, row.error_p)


@pytest.mark.parametrize("k", range(4))
def test_u_block_family_converges_at_order_k_plus_1(k):
    # 4 x 4 to 16 x 16 blocks, each a U cell and its notch (32 to 512 cells)
    meshes = (oracles.u_block_mesh(n) for n in (4, 8, 16))
    rows = study.convergence_study(get_case("bubble-sine"), k, meshes)
    assert [r.n_elements for r in rows] == [32, 128, 512]
    assert abs(rows[-1].order_u - (k + 1)) <= 0.2


def test_convergence_study_first_order_rates():
    rows = study.convergence_study(get_case("bubble-sine"), 0, polymesh.distorted_family(3))
    assert [r.n_elements for r in rows] == [16, 64, 256]
    assert rows[0].order_u is None
    for prev, cur in zip(rows, rows[1:]):
        assert cur.error_u < prev.error_u
        assert cur.error_p < prev.error_p
        assert cur.error_grad_p < prev.error_grad_p
        assert cur.error_div < prev.error_div
    # k=0: velocity, gradient and divergence are first order, pressure second
    assert 0.8 < rows[-1].order_u < 1.2
    assert 0.8 < rows[-1].order_grad_p < 1.2
    assert 0.8 < rows[-1].order_div < 1.2
    assert 1.7 < rows[-1].order_p < 2.3


def test_convergence_study_exact_case_is_marked():
    case = polynomial_case(0, seed=1)
    rows = study.convergence_study(case, 0, _squares(2, 4, 8))
    for row in rows[1:]:
        assert row.order_u == study.EXACT_MARK
        assert row.order_p == study.EXACT_MARK
        assert row.order_grad_p == study.EXACT_MARK
    # constant velocity: the forcing is zero, so no divergence marker applies
    assert rows[-1].error_div < 1e-9


def test_partial_table_after_solver_failure(monkeypatch):
    real = ncvem.solve_pressure
    calls = {"n": 0}

    def flaky(system):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise linsolve.SolverError("no convergence", residual=1.0)
        return real(system)

    monkeypatch.setattr(ncvem, "solve_pressure", flaky)
    rows = study.convergence_study(get_case("bubble-unit"), 0, _squares(2, 4, 8, 16))
    assert len(rows) == 2
    assert rows[1].order_u is not None


def test_rt_errors_require_lowest_order():
    # only k = 0 recovers the RT-type field, so only k = 0 rows carry its error
    mesh = polymesh.generate_uniform_quads(2, 2)
    case = get_case("bubble-unit")
    assert study.error_norms(study.solve_case(mesh, case, 1), case).error_rt is None
    row = study.error_norms(study.solve_case(mesh, case, 0), case)
    assert 0.0 < row.error_rt < row.error_u


def test_rt_comparison_study_small():
    rows = study.convergence_study(get_case("bubble-unit"), 0, _squares(2, 4, 8))
    assert [r.n_elements for r in rows] == [4, 16, 64]
    for row in rows:
        assert 0.0 < row.error_rt < row.error_u
    for prev, cur in zip(rows, rows[1:]):
        assert cur.error_u < prev.error_u
        assert cur.error_rt < prev.error_rt
    assert rows[0].order_rt is None
    assert rows[-1].order_rt > 0.8


def test_higher_order_rows_have_no_rt_order():
    rows = study.convergence_study(get_case("bubble-unit"), 1, _squares(1, 2, 4))
    assert all(r.error_rt is None and r.order_rt is None for r in rows)
    assert isinstance(rows[-1].order_u, float)


def test_convergence_study_distortion_zero_is_uniform(monkeypatch):
    meshes = []
    real = study.solve_case

    def spy(mesh, case, k):
        meshes.append(mesh)
        return real(mesh, case, k)

    monkeypatch.setattr(study, "solve_case", spy)
    rows = study.convergence_study(get_case("bubble-sine"), 0,
                                   _squares(2, 4, 8, distortion=0.0))
    assert [r.n_elements for r in rows] == [4, 16, 64]
    for mesh in meshes:
        n = int(round(mesh.num_cells ** 0.5))
        uniform = polymesh.generate_uniform_quads(n, n)
        assert np.array_equal(mesh.vertices, uniform.vertices)
        assert [list(c) for c in mesh.cells] == [list(c) for c in uniform.cells]


def test_convergence_csv_layout(tmp_path):
    rows = [
        _row(16, 0.1),
        ConvergenceRow(n_elements=64, error_u=0.025, error_p=0.025,
                       error_grad_p=0.025, error_div=0.025,
                       order_u=2.0, order_p="exact"),
    ]
    path = tmp_path / "conv.csv"
    study.write_convergence_csv(rows, str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["nElements", "errorU", "orderU", "errorP", "orderP",
                      "errorGradP", "orderGradP", "errorDiv", "orderDiv"]
    assert got[1] == ["16", "1.00000e-01", "", "1.00000e-01", "",
                      "1.00000e-01", "", "1.00000e-01", ""]
    assert got[2][1] == "2.50000e-02"
    assert got[2][2] == "2.00000e+00"
    assert got[2][4] == "exact"
    assert got[2][6] == ""


def test_rt_csv_layout(tmp_path):
    rows = [
        _row(4, 0.5, error_rt=0.25),
        _row(16, 0.25, error_rt=0.125, order_u=1.0, order_rt=1.0),
    ]
    path = tmp_path / "rt.csv"
    study.write_convergence_csv(rows, str(path), study.RT_COLUMNS)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["nElements", "errorProjU", "orderProjU",
                      "errorRtU", "orderRtU"]
    assert got[1] == ["4", "5.00000e-01", "", "2.50000e-01", ""]
    assert got[2] == ["16", "2.50000e-01", "1.00000e+00",
                      "1.25000e-01", "1.00000e+00"]


def test_format_table_strings():
    assert study.format_table([]) == "(no completed levels)"
    rows = [
        _row(16, 0.1),
        _row(64, 0.05, order_u=1.25, order_p="exact"),
    ]
    text = study.format_table(rows)
    lines = text.splitlines()
    assert "errorU" in lines[0]
    assert "-" in lines[1]
    assert "1.250" in lines[2]
    assert "exact" in lines[2]


def test_format_table_rt_branch():
    rows = [_row(4, 0.5, error_rt=0.25)]
    text = study.format_table(rows, study.RT_COLUMNS)
    assert "errProjU" in text.splitlines()[0]
    assert "-" in text.splitlines()[1]
