"""Polynomial patch test: exact solutions are reproduced to rounding.

For every order k the scheme reproduces pressures in P_{k+1} with constant
permeability exactly, whatever the mesh distortion.  All four broken L2
errors land at machine precision instead of any mesh-dependent rate.
"""

from polydarcy import (error_norms, generate_distorted_polygonal,
                       polynomial_case, solve_case)


def main():
    mesh = generate_distorted_polygonal(4, 4, seed=8, distortion=0.2)
    print(f"distorted mesh with {mesh.num_cells} cells")
    print(f"{'k':>2} {'errorU':>10} {'errorP':>10} {'errGradP':>10} "
          f"{'errorDiv':>10}")
    for k in range(4):
        case = polynomial_case(k, seed=1)
        result = solve_case(mesh, case, k)
        row = error_norms(result, case)
        print(f"{k:>2} {row.error_u:>10.1e} {row.error_p:>10.1e} "
              f"{row.error_grad_p:>10.1e} {row.error_div:>10.1e}")
    print("all errors sit at rounding level: the discrete space contains")
    print("these solutions, so only floating-point noise remains")


if __name__ == "__main__":
    main()
