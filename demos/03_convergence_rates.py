"""Estimate convergence orders for one polynomial degree.

Four refinement levels of the distorted family (`distorted_family`),
halving the mesh width per level; the velocity and pressure-gradient errors
should drop at order k+1, the pressure error at k+2 and the divergence
error at k+1.
"""

import argparse
import os

from polydarcy import convergence_study, distorted_family, get_case
from polydarcy.study import format_table, write_convergence_csv

OUT = os.path.join(os.path.dirname(__file__), "demo_out")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-k", type=int, default=1, choices=range(4),
                    help="polynomial order of the velocity space")
    ap.add_argument("--levels", type=int, default=4)
    args = ap.parse_args()

    case = get_case("bubble-sine")
    print(f"case '{case.name}', k={args.k}, {args.levels} levels "
          f"(expect velocity order {args.k + 1})")
    rows = convergence_study(case, args.k, distorted_family(args.levels))
    print(format_table(rows))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"rates_k{args.k}.csv")
    write_convergence_csv(rows, path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
