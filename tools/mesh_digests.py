"""Print one SHA-256 digest per generated distorted mesh, over a fixed sweep.

Each line is ``n seed distortion digest``; the digest covers the vertex
coordinates and then every cell loop, as ``mesh_digest`` in
``tests/test_polymesh.py`` computes it.  A mesh whose generation raises
``MeshError`` prints the error message in place of the digest.  Two runs
print the same lines exactly when the generator returns bit-identical
meshes (and raises the same errors) over the sweep:

* seeds 0-39, n = 2..64, distortion 0.2;
* the benchmark meshes at distortion 0.2: ``pipeline-k1`` (n = 6, 12, 24
  at seeds s, s + 1, s + 2) for s = 7301..7310 and 2026, and ``solve-k3``
  (n = 12 at seed s) for s = 7401..7405 and 2026;
* seeds 0-39, n = 2..24, distortion 0.45, where candidate offsets get
  rejected and the star test of some loops, whose centroid sees not every
  edge, needs the largest disk in their kernel.

Usage: python tools/mesh_digests.py > digests.txt   (takes no options)

The sweep is fixed here; compare two checkouts with ``diff``.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from polydarcy.polymesh import MeshError, generate_distorted_polygonal


def mesh_digest(mesh) -> str:
    """SHA-256 of the vertex coordinates and the cell loops, in order."""
    digest = hashlib.sha256(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
    for loop in mesh.cells:
        digest.update(np.asarray(loop, dtype="<i8").tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def sweep():
    """(n, seed, distortion) of every mesh, in print order."""
    for seed in range(40):
        for n in range(2, 65):
            yield n, seed, 0.2
    for first in [*range(7301, 7311), 2026]:
        for level, n in enumerate((6, 12, 24)):
            yield n, first + level, 0.2
    for first in [*range(7401, 7406), 2026]:
        yield 12, first, 0.2
    for seed in range(40):
        for n in range(2, 25):
            yield n, seed, 0.45


def main() -> int:
    for n, seed, distortion in sweep():
        try:
            line = mesh_digest(generate_distorted_polygonal(n, n, seed=seed,
                                                            distortion=distortion))
        except MeshError as exc:
            line = f"MeshError: {exc}"
        print(n, seed, distortion, line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
