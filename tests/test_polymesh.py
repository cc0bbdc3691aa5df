"""Mesh topology, generators, quality metrics and the text format."""

import dataclasses
import hashlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from polydarcy import polymesh
from polydarcy.polymesh import (
    MeshError,
    MeshFormatError,
    build_topology,
    euler_check,
    generate_distorted_polygonal,
    generate_uniform_quads,
    kernel_inradius,
    mesh_quality,
    polygon_area,
    read_mesh,
    write_mesh,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def test_single_cell_counts():
    mesh = build_topology(UNIT_SQUARE, [[0, 1, 2, 3]])
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 1
    assert mesh.num_edges == 4
    assert mesh.num_boundary_edges == 4
    assert mesh.num_interior_edges == 0
    assert euler_check(mesh)


def test_two_by_two_counts():
    mesh = generate_uniform_quads(2, 2)
    assert mesh.num_vertices == 9
    assert mesh.num_cells == 4
    assert mesh.num_edges == 12
    assert mesh.num_interior_edges == 4
    assert mesh.num_boundary_edges == 8
    assert euler_check(mesh)


def test_eight_by_eight_quality():
    mesh = generate_uniform_quads(8, 8)
    assert mesh.num_cells == 64
    report = mesh_quality(mesh)
    assert report.max_diameter == pytest.approx(math.sqrt(2.0) / 8.0, abs=1e-14)
    assert report.min_edge_to_cell_ratio == pytest.approx(1.0 / math.sqrt(2.0),
                                                          abs=1e-12)
    assert report.min_kernel_radius_ratio == pytest.approx(0.35355, abs=1e-5)
    assert report.min_kernel_radius_ratio == pytest.approx(
        0.5 / math.sqrt(2.0), abs=1e-9)


@pytest.mark.parametrize("mesh", [
    generate_uniform_quads(5, 3),
    generate_distorted_polygonal(6, 6, seed=3, distortion=0.25),
])
def test_cell_areas_tile_the_unit_square(mesh):
    total = sum(polygon_area(mesh.vertices[mesh.cells[c]]) for c in range(mesh.num_cells))
    assert abs(total - 1.0) < 1e-12


def test_outward_normals_close_every_cell():
    mesh = generate_distorted_polygonal(5, 5, seed=11, distortion=0.2)
    for group in mesh.cell_groups():
        total = (group.signs[..., None] * mesh.edge_lengths[group.edges, None]
                 * mesh.edge_normals[group.edges]).sum(axis=1)
        assert np.abs(total).max() < 1e-14


def test_interior_edges_have_two_distinct_cells():
    mesh = generate_distorted_polygonal(4, 4, seed=1, distortion=0.2)
    interior = ~mesh.boundary_mask
    assert np.all(mesh.edge_left[interior] != mesh.edge_right[interior])
    assert np.all(mesh.edge_left >= 0)


def _file_mesh(tmp_path, mesh):
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, str(path))
    return read_mesh(str(path))


@pytest.mark.parametrize("distortion", [0.0, 0.2, 0.45])
@pytest.mark.parametrize("seed", [1, 6, 2026])
def test_generated_meshes_satisfy_the_edge_count_identity(tmp_path, distortion, seed):
    # build_topology counts each edge once per incident cell, so every mesh
    # it returns, generated or read back from a file, satisfies the identity
    mesh = generate_distorted_polygonal(7, 5, seed=seed, distortion=distortion)
    assert euler_check(mesh)
    assert euler_check(_file_mesh(tmp_path, mesh))
    # the check is live: an edge table with every edge on the boundary fails
    assert not euler_check(dataclasses.replace(mesh, edge_right=np.full(mesh.num_edges, -1)))


GEOMETRY = {"area": polygon_area, "center": polymesh.polygon_centroid,
            "diameter": polymesh.polygon_diameter, "ears": polymesh.ear_triangles}


def _assert_groups_match_fresh_cells(mesh, groups, cells):
    # the groups hold exactly `cells`, by ascending vertex count and index,
    # with each cell's loop and edges and its geometry bit for bit as a fresh
    # call on the stacked loops computes it
    assert [g.loops.shape[1] for g in groups] == sorted({len(mesh.cells[c]) for c in cells})
    assert sorted(np.concatenate([g.cells for g in groups]).tolist()) == sorted(set(cells))
    for group in groups:
        assert np.all(np.diff(group.cells) > 0)
        coords = mesh.vertices[group.loops]
        for name, fresh in GEOMETRY.items():
            assert np.array_equal(getattr(group, name), fresh(coords)), name
        for row, c in enumerate(group.cells.tolist()):
            assert np.array_equal(group.loops[row], mesh.cells[c])
            edges, signs = oracles.cell_edges(mesh, c)
            assert np.array_equal(group.edges[row], edges)
            assert np.array_equal(group.signs[row], signs)


@pytest.mark.parametrize("source", ["uniform", "distorted-0.2", "distorted-0.45", "file"])
def test_mesh_groups_hold_each_cells_geometry(tmp_path, source):
    if source == "uniform":
        mesh = generate_uniform_quads(6, 4)
    elif source == "file":
        mesh = _file_mesh(tmp_path, generate_distorted_polygonal(8, 8, seed=5, distortion=0.45))
    else:
        mesh = generate_distorted_polygonal(8, 8, seed=11, distortion=float(source.split("-")[1]))
    _assert_groups_match_fresh_cells(mesh, mesh.cell_groups(), range(mesh.num_cells))
    # a selection, unsorted and with a repeat, takes the stored rows
    subset = np.random.default_rng(3).choice(mesh.num_cells, 20).tolist()
    _assert_groups_match_fresh_cells(mesh, mesh.cell_groups(subset), subset)
    (one,) = mesh.cell_groups([subset[0]])
    assert one.cells.tolist() == [subset[0]]


def test_clockwise_loop_rejected():
    with pytest.raises(MeshError):
        build_topology(UNIT_SQUARE, [[0, 3, 2, 1]])


def test_bowtie_loop_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError):
        build_topology(verts, [[0, 1, 2, 3]])


def test_edge_with_three_cells_rejected():
    verts = np.array([
        [0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0],
    ])
    loops = [[0, 1, 2], [1, 0, 3], [0, 1, 4]]
    with pytest.raises(MeshError):
        build_topology(verts, loops)


def roofed_row():
    """Six unit cells in a row: quads 0, 2, 4 and roofed pentagons 1, 3, 5."""
    bottom = [(float(i), 0.0) for i in range(7)]
    top = [(float(i), 1.0) for i in range(7)]
    roofs = [(i + 0.5, 1.3) for i in range(6)]
    loops = [[i, i + 1, 8 + i, 7 + i] if i % 2 == 0 else
             [i, i + 1, 8 + i, 14 + i, 7 + i] for i in range(6)]
    return np.array(bottom + top + roofs), loops


@pytest.mark.parametrize("bad, expected, cell", [
    ({5: [5, 6, 13, 12, 19]}, "cell 5: self-intersecting", 5),   # bowtie
    ({4: [4, 11, 12, 5]}, "cell 4: loop is not counterclockwise", 4),
    ({3: [3, 4, 11, 17, 11]}, "cell 3: repeated vertex", 3),
    # cell 4 overlaps cell 3 and runs along its bottom edge 3 -> 4: the
    # later cell is named
    ({4: [3, 4, 11, 10]}, "cells 3 and 4 traverse it in the same direction", 4),
    # the smaller index wins across vertex-count groups
    ({4: [4, 11, 12, 5], 3: [3, 4, 11, 10, 17]}, "cell 3: self-intersecting", 3),
    ({0: [0, 1, 8, 10**30]}, "cell 0: vertex index out of range", 0),
    # an index beyond int64 is checked in cell order like any other
    ({4: [4, 5, 12, 10**30], 2: [2, 9, 10, 3]}, "cell 2: loop is not counterclockwise", 2),
], ids=["bowtie", "clockwise", "repeated-vertex", "same-direction", "two-groups",
        "beyond-int64", "beyond-int64-later"])
def test_invalid_loop_error_names_its_cell(bad, expected, cell):
    vertices, loops = roofed_row()
    build_topology(vertices, loops)  # the unedited row is valid
    for c, loop in bad.items():
        loops[c] = loop
    with pytest.raises(MeshError, match=expected) as err:
        build_topology(vertices, loops)
    assert err.value.cell == cell


def test_distortion_zero_equals_uniform():
    a = generate_distorted_polygonal(4, 4, seed=9, distortion=0.0)
    b = generate_uniform_quads(4, 4)
    assert np.array_equal(a.vertices, b.vertices)
    assert len(a.cells) == len(b.cells)
    for la, lb in zip(a.cells, b.cells):
        assert np.array_equal(la, lb)


def test_generator_determinism():
    a = generate_distorted_polygonal(8, 8, seed=2026, distortion=0.2)
    b = generate_distorted_polygonal(8, 8, seed=2026, distortion=0.2)
    assert np.array_equal(a.vertices, b.vertices)
    assert np.array_equal(a.edges, b.edges)
    for la, lb in zip(a.cells, b.cells):
        assert np.array_equal(la, lb)
    other = generate_distorted_polygonal(8, 8, seed=2027, distortion=0.2)
    assert not np.array_equal(a.vertices, other.vertices)


def mesh_digest(mesh) -> str:
    """SHA-256 of the vertex coordinates and the cell loops, in order."""
    digest = hashlib.sha256(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    for loop in mesh.cells:
        digest.update(np.asarray(loop, dtype="<i8").tobytes())
        digest.update(b"|")
    return digest.hexdigest()


# Recorded with the generator that copied every vertex per split candidate;
# (24, 2028) and (12, 601) are benchmark meshes (seed 2026 level 2, seed 601).
PINNED_MESHES = [
    (2, 0, 0.2, "e4b0a8ce2a11f9cfa779265942a9d433f240723ba2e4f7121f8cd2966c80dc96"),
    (4, 3, 0.2, "13928e6a26bb7e253b54cc8e7c38ece85ba98b0bdeb294ecf270c301d457bf8b"),
    (8, 11, 0.25, "15e5b22ef4e1e42eac029d30288126144f86e67b74a32b168c0bb8ec86d34688"),
    (12, 601, 0.2, "306c46a050c56c849963f7b09e9edce48cd45cb380bc1d95de6ff31896362a5d"),
    (24, 2028, 0.2, "e8149f7be1df4bc2d864afe8c883aca2a3a29a6d7cdcee421b25176a35517256"),
    # Recorded with the one-vertex-at-a-time generator; at distortion 0.45
    # split candidates get rejected, which no pin above reaches.
    # (6, 11): two pentagon and one hexagon rejection, and one valid
    # pentagon whose centroid sees not every edge (the stacked kernel test).
    (6, 11, 0.45, "cac33a8a44a6d2e16d7dffa6286ae80c1781c631e48175bcc432dc644db75104"),
    # (8, 39): self-intersections in 5-, 6- and 7-gons rewind three blocks,
    # one split vertex is rejected twice in a row (the retry loop) and two
    # more once each, and cell 12, a heptagon, has an empty kernel.
    (8, 39, 0.45, "597841db3351af1206a3db83fd010f943c19500c6e7afaef2d87f672fdcee0d3"),
    # (4, 37): one rejection, at the second split vertex, after a one-vertex
    # accepted prefix.
    (4, 37, 0.45, "8ae910d2d6997d8ebb8f1ddc8356240e4096d4af5ff3e0e735a947f58d0cea6d"),
]


@pytest.mark.parametrize("n, seed, distortion, expected", PINNED_MESHES)
def test_generated_meshes_are_pinned(n, seed, distortion, expected):
    mesh = generate_distorted_polygonal(n, n, seed=seed, distortion=distortion)
    assert mesh_digest(mesh) == expected


def test_distorted_mesh_stays_admissible():
    mesh = generate_distorted_polygonal(8, 8, seed=4, distortion=0.3)
    assert euler_check(mesh)
    report = mesh_quality(mesh)
    assert report.min_kernel_radius_ratio > 0.0
    assert report.min_edge_to_cell_ratio > 0.0
    sizes = {len(loop) for loop in mesh.cells}
    assert sizes - {4} != set()  # some edges were midside-split


@pytest.mark.parametrize("seed, distortion", [(2026, 0.0), (7, 0.2), (11, 0.45)])
def test_distorted_family_yields_the_generators_meshes(seed, distortion):
    # level L is the (4 * 2**L)-square distorted mesh of seed `seed + L`
    levels = list(polymesh.distorted_family(4, seed, distortion))
    assert len(levels) == 4
    for level, mesh in enumerate(levels):
        n = 4 * 2 ** level
        direct = generate_distorted_polygonal(n, n, seed=seed + level, distortion=distortion)
        assert np.array_equal(mesh.vertices, direct.vertices)
        assert [c.tolist() for c in mesh.cells] == [c.tolist() for c in direct.cells]


def test_distorted_family_defaults():
    (mesh,) = polymesh.distorted_family(1)
    direct = generate_distorted_polygonal(4, 4, seed=2026, distortion=0.2)
    assert np.array_equal(mesh.vertices, direct.vertices)


def test_generator_argument_validation():
    with pytest.raises(MeshError):
        generate_uniform_quads(0, 2)
    with pytest.raises(MeshError):
        generate_distorted_polygonal(4, 4, seed=0, distortion=0.5)
    with pytest.raises(MeshError):
        generate_distorted_polygonal(0, 4, seed=0, distortion=0.1)


@pytest.mark.parametrize("seed", [-1, 2.5])
@pytest.mark.parametrize("distortion", [0.0, 0.2])
def test_seed_must_be_a_nonnegative_integer(seed, distortion):
    # at any distortion, before numpy's seeding could reject it
    with pytest.raises(MeshError, match="^seed must be a nonnegative integer$"):
        generate_distorted_polygonal(3, 3, seed, distortion)
    with pytest.raises(MeshError, match="^seed must be a nonnegative integer$"):
        list(polymesh.distorted_family(3, seed=seed - 1, distortion=distortion))


def test_generator_gives_up_without_an_admissible_offset(monkeypatch):
    # every trial loop rejected: each interior vertex exhausts its 100 draws
    monkeypatch.setattr(polymesh, "_loop_defects",
                        lambda coords: (np.ones(len(coords), dtype=int),))
    with pytest.raises(MeshError, match="no admissible offset for interior vertex"):
        generate_distorted_polygonal(3, 3, seed=0, distortion=0.2)


def test_centroid_rejects_a_loop_below_the_area_guard():
    tiny = 1e-160 * UNIT_SQUARE
    assert 0.0 < polymesh.polygon_area(tiny) < polymesh._MIN_AREA
    with pytest.raises(MeshError, match="degenerate polygon: zero area"):
        polymesh.polygon_centroid(tiny)


def test_build_topology_rejects_vertices_not_in_the_plane():
    with pytest.raises(MeshError, match=r"vertices must be an \(n, 2\) array"):
        build_topology(np.zeros((4, 3)), [np.arange(4)])


def test_kernel_inradius_against_grid_search():
    cells = [
        UNIT_SQUARE,
        np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0],
                  [1.0, 2.0], [0.0, 2.0]]),  # L-shape, kernel smaller than hull
    ]
    mesh = generate_distorted_polygonal(3, 3, seed=8, distortion=0.3)
    cells += [mesh.vertices[mesh.cells[c]] for c in range(3)]
    for coords in cells:
        exact = kernel_inradius(coords)
        grid = oracles.kernel_inradius_grid(coords, n=400)
        spacing = float((coords.max(axis=0) - coords.min(axis=0)).max()) / 399
        assert abs(exact - grid) <= 2.0 * spacing
        assert exact >= grid - 1e-12  # the exact optimum dominates any sample


def sees_every_edge(coords, p) -> bool:
    d = np.roll(coords, -1, axis=-2) - coords
    rel = p[..., None, :] - coords
    return bool(np.all(d[..., 0] * rel[..., 1] - d[..., 1] * rel[..., 0] > 0.0))


THIN_L = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 1.0], [1.0, 1.0], [1.0, 4.0], [0.0, 4.0]])
L_SHAPE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]])
U_SHAPE = np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 3.0], [2.0, 3.0],
                    [2.0, 1.0], [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]])


def test_build_topology_accepts_thin_l_with_centroid_outside_kernel():
    # the centroid (1.357, 1.357) of the thin L lies outside its kernel [0, 1]^2
    assert not sees_every_edge(THIN_L, polymesh.polygon_centroid(THIN_L))
    mesh = build_topology(THIN_L, [np.arange(6)])
    assert mesh.num_cells == 1


def test_build_topology_accepts_u_shape():
    # simple and counterclockwise, with an empty kernel: a cell like any other,
    # whose six ears tile it
    mesh = build_topology(U_SHAPE, [np.arange(8)])
    assert mesh.num_cells == 1
    (group,) = mesh.cell_groups()
    assert group.ears.shape == (1, 6, 3)
    ears = U_SHAPE[group.ears[0]]
    assert np.all(polygon_area(ears) > 0.0)
    assert abs(polygon_area(ears).sum() - polygon_area(U_SHAPE)) <= 1e-14
    assert group.area[0] == polygon_area(U_SHAPE) == 7.0


@pytest.mark.parametrize("notches", [1, 2])
def test_quality_report_gives_a_comb_a_kernel_ratio_of_zero(notches):
    # the U (one notch) and the three-tooth comb have empty kernels; the
    # rectangles in their slots do not
    mesh = oracles.comb_mesh(notches)
    assert mesh_quality(mesh).min_kernel_radius_ratio == 0.0
    radii = [kernel_inradius(mesh.vertices[loop]) for loop in mesh.cells]
    assert radii[0] == 0.0 and min(radii[1:]) > 0.0


def test_generator_keeps_a_simple_loop_with_an_empty_kernel():
    # the generator admits what build_topology admits: the (8, 39) pin keeps
    # a heptagon without a kernel
    mesh = generate_distorted_polygonal(8, 8, seed=39, distortion=0.45)
    assert len(mesh.cells[12]) == 7
    assert kernel_inradius(mesh.vertices[mesh.cells[12]]) == 0.0
    assert mesh_quality(mesh).min_kernel_radius_ratio == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("coords, radius", [
    (THIN_L, 0.5),   # both L kernels are [0, 1]^2
    (L_SHAPE, 0.5),
    (U_SHAPE, 0.0),  # the kernel needs x >= 2 and x <= 1
    # the bottom edge split at its exact midpoint: two identical edge lines,
    # so some triples are singular
    (np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]), 0.5),
])
def test_kernel_disk_closed_forms(coords, radius):
    assert abs(kernel_inradius(coords) - radius) <= 1e-15


@pytest.mark.filterwarnings("error")
def test_stacked_kernel_calls_equal_per_loop_calls():
    # the (6, 11) pin has a pentagon whose centroid lies outside its kernel
    mesh = generate_distorted_polygonal(6, 6, seed=11, distortion=0.45)
    for group in mesh.cell_groups():
        stack = mesh.vertices[group.loops]
        assert np.array_equal(kernel_inradius(stack), [kernel_inradius(xy) for xy in stack])
    hexagons = np.stack([THIN_L, L_SHAPE])  # only the thin L's centroid is outside
    assert np.array_equal(kernel_inradius(hexagons), [kernel_inradius(xy) for xy in hexagons])


def test_kernel_inradius_rejects_zero_length_edge():
    # build_topology rejects this loop as self-intersecting; a direct call
    # still gets the input check
    with pytest.raises(MeshError, match="zero-length edge"):
        kernel_inradius(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))


def test_import_leaves_scipy_optimize_unloaded():
    # the Gauss rules come from numpy and the quality report solves its
    # kernel disks in closed form, so neither importing the package nor
    # meshing at distortion 0.45 nor the report on that mesh (the (8, 39)
    # pin has a heptagon with an empty kernel) loads scipy.optimize or
    # scipy.special
    package_root = str(Path(polymesh.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import polydarcy; "
            "from polydarcy import polymesh; "
            "loaded = lambda: [m in sys.modules for m in ('scipy.optimize', 'scipy.special')]; "
            "print(loaded()); "
            "polymesh.mesh_quality(polymesh.generate_distorted_polygonal(8, 8, seed=39, "
            "distortion=0.45)); "
            "print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code, package_root],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[False, False]", "[False, False]"]


def test_mesh_file_roundtrip(tmp_path):
    mesh = generate_distorted_polygonal(4, 4, seed=5, distortion=0.25)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, str(path))
    back = read_mesh(str(path))
    assert np.array_equal(mesh.vertices, back.vertices)
    assert len(mesh.cells) == len(back.cells)
    for la, lb in zip(mesh.cells, back.cells):
        assert np.array_equal(la, lb)
    assert np.array_equal(mesh.edges, back.edges)


def test_mesh_file_comments_and_blanks(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(
        "# a comment line\n"
        "polymesh 2d\n"
        "\n"
        "vertices 4  # trailing comment\n"
        "0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
        "cells 1\n"
        "4 0 1 2 3\n"
    )
    mesh = read_mesh(str(path))
    assert mesh.num_cells == 1
    assert mesh.num_vertices == 4


@pytest.mark.parametrize("content,lineno", [
    ("polymesh 3d\nvertices 0\ncells 0\n", 1),
    ("polymesh 2d\nvertices x\ncells 0\n", 2),
    ("polymesh 2d\nvertices 1\n0.0\ncells 0\n", 3),
    ("polymesh 2d\nvertices 1\n0.0 0.0\ncells 1\n4 0 0 0\n", 5),
    ("polymesh 2d\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n3 0 1 9\n", 8),
    ("polymesh 2d\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 1 2 3\njunk\n", 9),
])
def test_format_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MeshFormatError) as err:
        read_mesh(str(path))
    assert err.value.lineno == lineno


def test_truncated_file_reports_end(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("polymesh 2d\nvertices 2\n0.0 0.0\n")
    with pytest.raises(MeshFormatError):
        read_mesh(str(path))


def test_clockwise_loop_in_file_rejected(tmp_path):
    path = tmp_path / "cw.txt"
    path.write_text(
        "polymesh 2d\nvertices 4\n0 0\n1 0\n1 1\n0 1\ncells 1\n4 0 3 2 1\n"
    )
    with pytest.raises(MeshFormatError, match="cell 0: loop is not counterclockwise") as err:
        read_mesh(str(path))
    assert err.value.lineno == 8


SQUARE_FILE = "polymesh 2d\nvertices 4\n0 0\n1 0\n1 1\n0 1\n"


@pytest.mark.parametrize("content, lineno, message", [
    ("polymesh 2d\nvertices -2\n", 2, "vertex count must be nonnegative"),
    # a count is not trusted for an allocation: the file ends first
    ("polymesh 2d\nvertices 100000000000000\n0 0\n", 3, "unexpected end of file"),
    ("polymesh 2d\nvertices 1\n0.0 zero\ncells 0\n", 3, "bad coordinate in '0.0 zero'"),
    ("polymesh 2d\nvertices 0\nfaces 0\n", 3, "expected 'cells M'"),
    ("polymesh 2d\nvertices 0\ncells x\n", 3, "bad cell count 'x'"),
    ("polymesh 2d\nvertices 0\n\ncells 1\n3 a b c\n", 5, "bad cell line '3 a b c'"),
    (SQUARE_FILE + "cells -1\n", 7, "cell count must be nonnegative"),
    (SQUARE_FILE + "cells 2\n3 0 1 2\n# comment\n\n3 0 2 3 9\n", 11,
     "cell declares 3 vertices but lists 4"),
    # cell errors come from build_topology, at the line of the cell named
    (SQUARE_FILE + "cells 2\n3 0 1 2\n# comment\n\n4 0 2 3 9\n", 11,
     "cell 1: vertex index out of range"),
    (SQUARE_FILE + "cells 1\n4 0 1 2 100000000000000000000000000000\n", 8,
     "cell 0: vertex index out of range"),
    # two CCW triangles run along edge 0 -> 1: the later one is named
    (SQUARE_FILE + "cells 2\n3 0 1 2\n3 0 1 3\n", 9,
     "cells 0 and 1 traverse it in the same direction"),
], ids=["negative-vertices", "huge-count", "coordinate", "cells-keyword", "cell-count", "cell-line",
        "negative-cells", "count-mismatch", "out-of-range", "beyond-int64",
        "same-direction"])
def test_file_errors_name_line_and_reason(tmp_path, content, lineno, message):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(MeshFormatError, match=message) as err:
        read_mesh(str(path))
    assert err.value.lineno == lineno
    assert str(err.value).startswith(f"{path}:{lineno}: ")


def test_file_cell_below_the_area_guard_reports_its_line(tmp_path):
    # a square of side 1e-160 has a positive area below the 1e-300 guard of
    # polygon_centroid: the area test rejects it as degenerate, at its line
    path = tmp_path / "tiny.txt"
    path.write_text("polymesh 2d\nvertices 4\n0 0\n1e-160 0\n1e-160 1e-160\n0 1e-160\n"
                    "cells 1\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError,
                       match="loop is not counterclockwise or is degenerate") as err:
        read_mesh(str(path))
    assert err.value.lineno == 8
    assert err.value.cell == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e308", "1e200", "square-1e160"])
def test_non_finite_vertex_is_named_before_any_cell(tmp_path, value):
    # the cell is also clockwise: the vertex is reported, not the loop.  A
    # finite coordinate beyond 1e100 is named too, before the validator's
    # products overflow: the unit square scaled by 1e160 has an area of
    # 1e320, which no float holds
    vertices = UNIT_SQUARE.copy()
    if value == "square-1e160":
        vertices *= 1e160
        v = 1
    else:
        vertices[2, 1] = float(value)
        v = 2
    finite = np.isfinite(vertices[v]).all()
    message = f"vertex {v}: coordinate {'exceeds 1e+100 in magnitude' if finite else 'is not finite'}"
    with pytest.raises(MeshError, match=f"^{re.escape(message)}$") as err:
        build_topology(vertices, [[0, 3, 2, 1]])
    assert (err.value.vertex, err.value.cell) == (v, None)
    path = tmp_path / "bad.txt"
    rows = "".join(f"{x!r} {y!r}\n" for x, y in vertices.tolist())
    path.write_text(f"polymesh 2d\nvertices 4\n{rows}cells 1\n4 0 1 2 3\n")
    with pytest.raises(MeshFormatError) as err:
        read_mesh(str(path))
    assert str(err.value) == f"{path}:{v + 3}: {message}"
    assert (err.value.lineno, err.value.vertex, err.value.cell) == (v + 3, v, None)


@pytest.mark.parametrize("n_vertices", [0, 3])
def test_mesh_without_cells_is_rejected(tmp_path, n_vertices):
    # an error of the whole mesh: no cell or vertex is named, and the file
    # reports it at line 0
    vertices = UNIT_SQUARE[:n_vertices]
    with pytest.raises(MeshError, match="^mesh has no cells$") as err:
        build_topology(vertices, [])
    assert (err.value.cell, err.value.vertex) == (None, None)
    path = tmp_path / "empty.txt"
    rows = "".join(f"{x!r} {y!r}\n" for x, y in vertices.tolist())
    path.write_text(f"polymesh 2d\nvertices {n_vertices}\n{rows}cells 0\n")
    with pytest.raises(MeshFormatError) as err:
        read_mesh(str(path))
    assert str(err.value) == f"{path}:0: mesh has no cells"
    assert (err.value.lineno, err.value.cell, err.value.vertex) == (0, None, None)
