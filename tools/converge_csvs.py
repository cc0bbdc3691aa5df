"""Print the four-level convergence CSVs of orders k = 0..6, one after another.

For each k the output is a ``# k = <k>`` line followed by exactly the CSV
that ``polydarcy converge --order <k> --levels 4 --csv FILE`` writes with the
command's defaults (``bubble-sine``, seed 2026, distortion 0.2; 16 to 1024
cells).  Comparing the output of two checkouts with ``diff`` shows every
error and order that a change moves.  Takes about 5 s.

Usage: PYTHONPATH=src python tools/converge_csvs.py   (takes no options)
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

from polydarcy import cli

ORDERS = range(7)
LEVELS = 4


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "converge.csv")
        for k in ORDERS:
            # the command also prints its rate table, which is not wanted here
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(["converge", "--order", str(k), "--levels", str(LEVELS),
                          "--csv", path])
            with open(path, encoding="utf-8") as fh:
                print(f"# k = {k}")
                sys.stdout.write(fh.read())
    return 0


if __name__ == "__main__":
    sys.exit(main())
