"""Legacy ASCII VTK export of a solved case.

Writes an unstructured grid of polygon cells with cell-data arrays sampled
at cell centroids: the projected velocity, its divergence, the RT-type
velocity when available (k = 0), and the projected pressure.  The centroid
is the center of each cell's scaled monomial basis, so every sample is
coefficient 0 of its field (see `PiecewisePolyField.centroid_values`).

Each section is formatted as one string, by one `%` operation over all of
its numbers (`%.16e` for reals, plain integers in CELLS), and the file is
written at once.
"""

from __future__ import annotations

import numpy as np

from .study import SolveResult


def _rows(line: str, values: np.ndarray) -> str:
    """`line` formatted with each row of `values` in turn, as one string."""
    return (line * len(values)) % tuple(np.ravel(values).tolist())


def export_vtk(result: SolveResult, path: str) -> None:
    mesh = result.mesh
    nc = mesh.num_cells
    vel = result.velocity
    # each CELLS line is the vertex count followed by the loop
    sizes = np.array([len(loop) for loop in mesh.cells], dtype=np.int64)
    cells = np.insert(np.concatenate(mesh.cells), np.cumsum(sizes) - sizes, sizes)
    line_of = {n: "%d" + " %d" * n + "\n" for n in np.unique(sizes).tolist()}
    cell_lines = "".join(line_of[n] for n in sizes.tolist()) % tuple(cells.tolist())

    sections = [
        "# vtk DataFile Version 3.0\npolydarcy fields\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {mesh.num_vertices} double\n",
        _rows("%.16e %.16e 0.0\n", mesh.vertices),
        f"CELLS {nc} {len(cells)}\n",
        cell_lines,
        f"CELL_TYPES {nc}\n",
        "7\n" * nc,  # VTK_POLYGON
        f"CELL_DATA {nc}\n",
        "SCALARS pressure double 1\nLOOKUP_TABLE default\n",
        _rows("%.16e\n", vel.pressure.centroid_values()[:, 0]),
        "SCALARS div_velocity double 1\nLOOKUP_TABLE default\n",
        _rows("%.16e\n", vel.divergence.centroid_values()[:, 0]),
        "VECTORS velocity double\n",
        _rows("%.16e %.16e 0.0\n", vel.projected.centroid_values()),
    ]
    if vel.rt is not None:
        sections += ["VECTORS rt_velocity double\n",
                     _rows("%.16e %.16e 0.0\n", vel.rt.centroid_values())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(sections))
