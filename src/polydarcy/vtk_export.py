"""Legacy ASCII VTK export of a solved case.

Writes an unstructured grid of polygon cells with cell-data arrays sampled
at cell centroids: the projected velocity, its divergence, the RT-type
velocity when available (k = 0), and the projected pressure.  The centroid
is the center of each cell's scaled monomial basis, so every sample is
coefficient 0 of its field (see `PiecewisePolyField.centroid_values`).
"""

from __future__ import annotations

from .study import SolveResult


def export_vtk(result: SolveResult, path: str) -> None:
    mesh = result.mesh
    nc = mesh.num_cells
    vel = result.velocity
    pressure = vel.pressure.centroid_values()[:, 0]
    div_u = vel.divergence.centroid_values()[:, 0]
    velocity = vel.projected.centroid_values()
    rt = None if vel.rt is None else vel.rt.centroid_values()

    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("polydarcy fields\n")
        fh.write("ASCII\n")
        fh.write("DATASET UNSTRUCTURED_GRID\n")
        fh.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.16e} {y:.16e} 0.0\n")
        total = sum(len(loop) + 1 for loop in mesh.cells)
        fh.write(f"CELLS {nc} {total}\n")
        for loop in mesh.cells:
            fh.write(f"{len(loop)} " + " ".join(str(int(v)) for v in loop) + "\n")
        fh.write(f"CELL_TYPES {nc}\n")
        for _ in range(nc):
            fh.write("7\n")  # VTK_POLYGON
        fh.write(f"CELL_DATA {nc}\n")
        fh.write("SCALARS pressure double 1\nLOOKUP_TABLE default\n")
        for v in pressure:
            fh.write(f"{v:.16e}\n")
        fh.write("SCALARS div_velocity double 1\nLOOKUP_TABLE default\n")
        for v in div_u:
            fh.write(f"{v:.16e}\n")
        fh.write("VECTORS velocity double\n")
        for vx, vy in velocity:
            fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")
        if rt is not None:
            fh.write("VECTORS rt_velocity double\n")
            for vx, vy in rt:
                fh.write(f"{vx:.16e} {vy:.16e} 0.0\n")
