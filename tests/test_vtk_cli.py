"""VTK snapshot writer and the command-line driver."""

import csv
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import polydarcy
from polydarcy import cases, cli, linsolve, ncvem, polymesh, study, vtk_export
from polydarcy.cases import get_case, polynomial_case

REPO_ROOT = Path(__file__).resolve().parents[1]


def solve_unit_square(k):
    mesh = polymesh.generate_uniform_quads(2, 2)
    return study.solve_case(mesh, get_case("bubble-unit"), k)


def test_vtk_layout_lowest_order(tmp_path):
    result = solve_unit_square(0)
    path = tmp_path / "out.vtk"
    vtk_export.export_vtk(result, str(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert "POINTS 9 double" in lines
    points = lines[lines.index("POINTS 9 double") + 1:][:9]
    assert all(row.split()[2] == "0.0" for row in points)
    # each quad row is "4 v0 v1 v2 v3", so the size field is 4 * 5
    assert "CELLS 4 20" in lines
    ct = lines.index("CELL_TYPES 4")
    assert lines[ct + 1:ct + 5] == ["7"] * 4  # VTK_POLYGON
    assert "CELL_DATA 4" in lines
    assert "SCALARS pressure double 1" in lines
    assert "SCALARS div_velocity double 1" in lines
    assert "VECTORS velocity double" in lines
    assert "VECTORS rt_velocity double" in lines


def test_vtk_omits_rt_for_higher_order(tmp_path):
    result = solve_unit_square(1)
    path = tmp_path / "out.vtk"
    vtk_export.export_vtk(result, str(path))
    text = path.read_text(encoding="utf-8")
    assert "rt_velocity" not in text
    assert "VECTORS velocity double" in text


def _vtk_block(lines, header, n):
    start = lines.index(header) + (2 if header.startswith("SCALARS") else 1)
    return np.array([[float(v) for v in row.split()] for row in lines[start:start + n]])


def test_vtk_pressure_values_round_trip(tmp_path):
    # every cell-data array holds its field evaluated at the cell centroid
    for k in [0, 1]:
        result = solve_unit_square(k)
        path = tmp_path / f"out{k}.vtk"
        vtk_export.export_vtk(result, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        vel = result.velocity
        fields = [("SCALARS pressure double 1", result.pressure.evaluate),
                  ("SCALARS div_velocity double 1", vel.divergence.evaluate),
                  ("VECTORS velocity double", vel.projected.evaluate)]
        if k == 0:
            fields.append(("VECTORS rt_velocity double", vel.rt.evaluate))
        for header, evaluate in fields:
            written = _vtk_block(lines, header, 4)
            expected = np.array([
                np.atleast_1d(evaluate(c, result.pressure.centers[c][None, :])[0])
                for c in range(4)
            ])
            assert np.abs(written[:, :expected.shape[1]] - expected).max() < 1e-14, header
            if header.startswith("VECTORS"):
                assert np.all(written[:, 2] == 0.0)


@pytest.mark.parametrize("k", [0, 2])
def test_vtk_bytes_match_reference_writer(tmp_path, k):
    # 4-, 5-, 6- and 7-gons in one CELLS block; k = 0 adds the RT section
    mesh = polymesh.generate_distorted_polygonal(4, 4, seed=10, distortion=0.2)
    assert sorted({len(loop) for loop in mesh.cells}) == [4, 5, 6, 7]
    result = study.solve_case(mesh, get_case("bubble-sine"), k)
    got, want = tmp_path / "got.vtk", tmp_path / "want.vtk"
    vtk_export.export_vtk(result, str(got))
    oracles.export_vtk_reference(result, str(want))
    assert got.read_bytes() == want.read_bytes()
    assert (b"rt_velocity" in got.read_bytes()) == (k == 0)


def gen_mesh(tmp_path, extra=()):
    path = tmp_path / "mesh.txt"
    rc = cli.main(["mesh", "gen", "--nx", "2", "--ny", "2",
                   "--out", str(path), *extra])
    assert rc == 0
    return path


def test_cli_mesh_gen_uniform(tmp_path, capsys):
    path = gen_mesh(tmp_path)
    out = capsys.readouterr().out
    assert "4 cells" in out
    mesh = polymesh.read_mesh(str(path))
    assert mesh.num_cells == 4
    assert mesh.num_vertices == 9


def test_cli_mesh_gen_distorted(tmp_path):
    uniform = polymesh.read_mesh(str(gen_mesh(tmp_path)))
    path = tmp_path / "dist.txt"
    rc = cli.main(["mesh", "gen", "--nx", "2", "--ny", "2",
                   "--distortion", "0.2", "--seed", "5", "--out", str(path)])
    assert rc == 0
    distorted = polymesh.read_mesh(str(path))
    assert distorted.num_cells == 4
    assert not np.array_equal(uniform.vertices, distorted.vertices)


def test_cli_solve_writes_outputs(tmp_path, capsys):
    mesh_path = gen_mesh(tmp_path)
    prefix = tmp_path / "run"
    rc = cli.main(["solve", "--mesh", str(mesh_path), "--order", "0",
                   "--case", "bubble-unit", "--out-prefix", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "errors:" in out and "checks:" in out
    assert (tmp_path / "run.vtk").exists()
    csv_text = (tmp_path / "run.csv").read_text(encoding="utf-8")
    assert csv_text.startswith("nElements,errorU,orderU")


def test_cli_solves_a_mesh_file_with_a_u_cell(tmp_path, monkeypatch, capsys):
    # read_mesh -> build_topology admits the U cell of a mesh file, and the
    # solve reproduces p in P_2 to rounding
    mesh_path = tmp_path / "u.txt"
    polymesh.write_mesh(oracles.comb_mesh(1), str(mesh_path))
    monkeypatch.setitem(cases.CASES, "poly-2", polynomial_case(1, seed=1))
    prefix = tmp_path / "run"
    rc = cli.main(["solve", "--mesh", str(mesh_path), "--order", "1",
                   "--case", "poly-2", "--out-prefix", str(prefix)])
    assert rc == 0, capsys.readouterr().err
    assert "solved 'poly-2' k=1: 2 cells" in capsys.readouterr().out
    with open(tmp_path / "run.csv", encoding="utf-8") as fh:
        (row,) = csv.DictReader(fh)
    assert float(row["errorU"]) <= 1e-13
    assert float(row["errorP"]) <= 1e-13
    assert (tmp_path / "run.vtk").exists()


def test_cli_converge_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "rates.csv"
    rc = cli.main(["converge", "--order", "0", "--levels", "3",
                   "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "errorU" in out
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert len(rows) == 4


def test_cli_studies_need_three_levels(capsys):
    # the library takes any number of meshes; the CLI studies need 3 levels
    for command in (["converge", "--order", "0"], ["rt-compare"]):
        assert cli.main([*command, "--levels", "2"]) == 1
        assert "at least 3 levels" in capsys.readouterr().err


def test_cli_solve_rejects_a_mesh_without_cells(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("polymesh 2d\nvertices 0\ncells 0\n", encoding="utf-8")
    rc = cli.main(["solve", "--mesh", str(path), "--order", "0",
                   "--out-prefix", str(tmp_path / "run")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}:0: mesh has no cells\n"
    assert not (tmp_path / "run.vtk").exists()


def test_cli_converge_reports_failed_solve(monkeypatch, capsys):
    real = ncvem.solve_pressure
    calls = {"n": 0}

    def failing_third(system):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise linsolve.SolverError("missed certificate", residual=1.0)
        return real(system)

    monkeypatch.setattr(ncvem, "solve_pressure", failing_third)
    rc = cli.main(["converge", "--order", "0", "--levels", "3"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "pressure solve failed on level 3" in err
    assert "completed 2 of 3 levels" in err


def test_cli_rt_compare_reports_failed_solve(monkeypatch, capsys):
    real = ncvem.solve_pressure
    calls = {"n": 0}

    def failing_third(system):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise linsolve.SolverError("missed certificate", residual=1.0)
        return real(system)

    monkeypatch.setattr(ncvem, "solve_pressure", failing_third)
    rc = cli.main(["rt-compare", "--levels", "3"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "errProjU" in captured.out
    assert "pressure solve failed on level 3" in captured.err
    assert "completed 2 of 3 levels" in captured.err


def test_cli_rt_compare(tmp_path, capsys):
    csv_path = tmp_path / "rt.csv"
    rc = cli.main(["rt-compare", "--levels", "3", "--csv", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "errProjU" in out
    rows = csv_path.read_text(encoding="utf-8").strip().splitlines()
    assert rows[0] == "nElements,errorProjU,orderProjU,errorRtU,orderRtU"
    assert len(rows) == 4


def test_cli_export(tmp_path):
    mesh_path = gen_mesh(tmp_path)
    vtk_path = tmp_path / "fields.vtk"
    rc = cli.main(["export", "--mesh", str(mesh_path), "--order", "1",
                   "--vtk", str(vtk_path)])
    assert rc == 0
    assert "rt_velocity" not in vtk_path.read_text(encoding="utf-8")


def test_cli_missing_option_fails(tmp_path, capsys):
    rc = cli.main(["solve", "--order", "0", "--out-prefix",
                   str(tmp_path / "x")])
    assert rc == 1
    assert "error: missing required option --mesh" in capsys.readouterr().err


def test_cli_missing_mesh_file_fails(tmp_path, capsys):
    rc = cli.main(["export", "--mesh", str(tmp_path / "absent.txt"),
                   "--order", "0", "--vtk", str(tmp_path / "x.vtk")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["converge", "solve"])
def test_cli_negative_order_fails(tmp_path, capsys, command):
    args = {"converge": ["--levels", "3"],
            "solve": ["--mesh", str(gen_mesh(tmp_path)), "--out-prefix", str(tmp_path / "x")]}
    rc = cli.main([command, "--order", "-1", *args[command]])
    assert rc == 1
    assert capsys.readouterr().err == "error: polynomial order k must be >= 0\n"
    assert not (tmp_path / "x.vtk").exists()


@pytest.mark.parametrize("command", ["mesh gen", "converge"])
def test_cli_negative_seed_fails(tmp_path, capsys, command):
    args = {"mesh gen": ["--nx", "3", "--ny", "3", "--distortion", "0.3",
                         "--out", str(tmp_path / "m.txt")],
            "converge": ["--order", "0", "--levels", "3"]}
    rc = cli.main([*command.split(), "--seed", "-1", *args[command]])
    assert rc == 1
    assert capsys.readouterr().err == "error: seed must be a nonnegative integer\n"
    assert not (tmp_path / "m.txt").exists()


def test_cli_unknown_case_fails(tmp_path, capsys):
    mesh_path = gen_mesh(tmp_path)
    rc = cli.main(["solve", "--mesh", str(mesh_path), "--order", "0",
                   "--case", "vortex", "--out-prefix", str(tmp_path / "x")])
    assert rc == 1
    assert "vortex" in capsys.readouterr().err


def test_cli_config_supplies_flags(tmp_path):
    out_path = tmp_path / "cfg_mesh.txt"
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text(
        "# grid size\nnx = 4\nny = 3\n"
        f"out = {out_path}\n",
        encoding="utf-8",
    )
    rc = cli.main(["mesh", "gen", "--config", str(cfg)])
    assert rc == 0
    assert polymesh.read_mesh(str(out_path)).num_cells == 12


def test_cli_flags_override_config(tmp_path):
    out_path = tmp_path / "cfg_mesh.txt"
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text(f"nx = 4\nny = 3\nout = {out_path}\n", encoding="utf-8")
    rc = cli.main(["mesh", "gen", "--config", str(cfg), "--nx", "2"])
    assert rc == 0
    assert polymesh.read_mesh(str(out_path)).num_cells == 6


def test_cli_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text("resolution = 4\n", encoding="utf-8")
    rc = cli.main(["mesh", "gen", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key 'resolution'" in capsys.readouterr().err


def test_cli_converge_config_matches_flags(tmp_path):
    flags_csv = tmp_path / "flags.csv"
    rc = cli.main(["converge", "--order", "0", "--levels", "3",
                   "--distortion", "0", "--csv", str(flags_csv)])
    assert rc == 0
    cfg_csv = tmp_path / "cfg.csv"
    cfg = tmp_path / "converge.cfg"
    cfg.write_text(f"order = 0\nlevels = 3\ndistortion = 0\ncsv = {cfg_csv}\n",
                   encoding="utf-8")
    rc = cli.main(["converge", "--config", str(cfg)])
    assert rc == 0
    assert cfg_csv.read_text(encoding="utf-8") == flags_csv.read_text(encoding="utf-8")
    assert len(cfg_csv.read_text(encoding="utf-8").splitlines()) == 4


def test_cli_config_value_of_wrong_type_fails(tmp_path, capsys):
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text(f"nx = four\nny = 3\nout = {tmp_path / 'm.txt'}\n",
                   encoding="utf-8")
    try:
        rc = cli.main(["mesh", "gen", "--config", str(cfg)])
    except SystemExit as exc:  # argparse reports a bad value and exits
        rc = exc.code
    assert rc != 0
    err = capsys.readouterr().err
    assert "error:" in err and "four" in err
    assert not (tmp_path / "m.txt").exists()


def test_cli_config_rejects_key_of_other_command(tmp_path, capsys):
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text(f"nx = 2\nny = 2\nout = {tmp_path / 'm.txt'}\nvtk = x\n",
                   encoding="utf-8")
    rc = cli.main(["mesh", "gen", "--config", str(cfg)])
    assert rc == 1
    assert "unknown config key 'vtk'" in capsys.readouterr().err


def test_cli_config_rejects_bad_line(tmp_path, capsys):
    cfg = tmp_path / "mesh.cfg"
    cfg.write_text("nx 4\n", encoding="utf-8")
    rc = cli.main(["mesh", "gen", "--config", str(cfg)])
    assert rc == 1
    assert "expected 'key = value'" in capsys.readouterr().err


def console_script_command():
    """Command that runs the ``polydarcy`` console script.

    An installed script is run as is.  Without one, the ``[project.scripts]``
    target in ``pyproject.toml`` is called the way a generated script calls
    it, so the declared entry point is what gets checked either way.
    """
    exe = shutil.which("polydarcy")
    if exe is not None:
        return [exe]
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["polydarcy"]
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    return [sys.executable, "-c", code]


def test_console_script_help():
    # the child imports the package under test, not an older installed copy
    package_root = str(Path(polydarcy.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(console_script_command() + ["--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    # match whole names in the usage line's {a,b,...}: "mesh" and "solve"
    # are also substrings of the description "solver on polygonal meshes"
    listed = proc.stdout.partition("{")[2].partition("}")[0].split(",")
    for name in ["mesh", "solve", "converge", "rt-compare", "export"]:
        assert name in listed
