"""Solve one manufactured case end to end and export the fields.

Runs the pressure solve, recovers the conservative velocity, reports the
broken L2 errors and the structural check residuals, then writes a legacy
VTK snapshot with cell-centroid samples of every field.
"""

import os

from polydarcy import (error_norms, export_vtk, generate_distorted_polygonal,
                       get_case, solve_case)

OUT = os.path.join(os.path.dirname(__file__), "demo_out")


def main():
    os.makedirs(OUT, exist_ok=True)
    case = get_case("bubble-sine")
    mesh = generate_distorted_polygonal(16, 16, seed=7, distortion=0.2)
    k = 1

    result = solve_case(mesh, case, k)
    print(f"case '{case.name}', order k={k}: {mesh.num_cells} cells, "
          f"{result.system.dofmap.n_global} pressure unknowns")

    row = error_norms(result, case)
    print(f"errors  u {row.error_u:.3e}   p {row.error_p:.3e}   "
          f"grad p {row.error_grad_p:.3e}   div {row.error_div:.3e}")

    v = result.velocity
    print(f"checks  interior flux agreement {v.flux_gap:.1e}   "
          f"local conservation gap {v.div_gap:.1e}   "
          f"global conservation {v.conservation_gap:.1e}")

    path = os.path.join(OUT, "bubble_sine_k1.vtk")
    export_vtk(result, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
