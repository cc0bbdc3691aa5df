"""Compare the two lowest-order velocity representations.

At k = 0 the recovered velocity admits, besides its cellwise-constant L2
projection, a closed-form affine field whose divergence equals the cell
average of the source.  Both converge at first order, and the affine field
is consistently the more accurate of the two.  The study runs on four levels
of the distorted family (`distorted_family`).
"""

import os

from polydarcy import convergence_study, distorted_family, get_case
from polydarcy.study import RT_COLUMNS, format_table, write_convergence_csv

OUT = os.path.join(os.path.dirname(__file__), "demo_out")


def main():
    rows = convergence_study(get_case("bubble-unit"), 0, distorted_family(4))
    print(format_table(rows, RT_COLUMNS))
    wins = sum(r.error_rt < r.error_u for r in rows)
    print(f"affine field more accurate on {wins} of {len(rows)} levels")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "rt_comparison.csv")
    write_convergence_csv(rows, path, RT_COLUMNS)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
