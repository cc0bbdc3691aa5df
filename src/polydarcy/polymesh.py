"""Conforming polygonal meshes of 2D domains.

Cells are simple polygons stored as counterclockwise vertex loops.  The
topology builder derives a global edge table in which every edge is the
unordered pair of its endpoints; two cells sharing an edge therefore agree on
its identity, which is what makes edge-based degrees of freedom single-valued
across the mesh.

Conventions fixed here and relied on by the discretization modules:

* edges are sorted lexicographically by (min vertex, max vertex);
* the stored direction of an edge is the traversal direction of its "left"
  cell, the incident cell with the smallest index;
* the stored unit normal is the stored direction rotated by -90 degrees,
  i.e. (dy, -dx)/length, which points out of the left cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog


class MeshError(ValueError):
    """Topologically or geometrically invalid mesh input."""


class MeshFormatError(MeshError):
    """Unparseable mesh file; carries the file path and 1-based line number."""

    def __init__(self, path: str, lineno: int, message: str):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


def polygon_area(coords: np.ndarray):
    """Signed area of a polygon given as an (n, 2) vertex loop.

    A stack of loops (..., n, 2) with one vertex count gives the areas (...).
    """
    x = coords[..., 0]
    y = coords[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                        axis=-1)


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon (CCW or CW); (..., 2) for a stack."""
    x = coords[..., 0]
    y = coords[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(np.abs(area) < 1e-300):
        raise MeshError("degenerate polygon: zero area")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(coords: np.ndarray):
    """Largest pairwise vertex distance; (...) for a stack of loops."""
    diff = coords[..., :, None, :] - coords[..., None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1)).max(axis=(-2, -1))


def _segments_conflict(p0, p1, q0, q1, adjacent: bool, eps: float) -> bool:
    """True if two polygon edges violate simplicity.

    Adjacent edges (sharing one endpoint) conflict only if they fold back
    onto each other; non-adjacent edges conflict on any contact.
    """
    d0 = p1 - p0
    d1 = q1 - q0
    if adjacent:
        # Loop order guarantees the shared endpoint is p1 == q0.
        cross = d0[0] * d1[1] - d0[1] * d1[0]
        if abs(cross) <= eps and np.dot(d0, d1) < 0.0:
            return True
        return False
    denom = d0[0] * d1[1] - d0[1] * d1[0]
    r = q0 - p0
    if abs(denom) > eps:
        t = (r[0] * d1[1] - r[1] * d1[0]) / denom
        s = (r[0] * d0[1] - r[1] * d0[0]) / denom
        return -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= s <= 1 + 1e-12
    # Parallel: conflict only if collinear with overlapping extents.
    if abs(r[0] * d0[1] - r[1] * d0[0]) > eps:
        return False
    axis = 0 if abs(d0[0]) >= abs(d0[1]) else 1
    lo0, hi0 = sorted((p0[axis], p1[axis]))
    lo1, hi1 = sorted((q0[axis], q1[axis]))
    return hi0 >= lo1 - eps and hi1 >= lo0 - eps


def is_simple_polygon(coords: np.ndarray) -> bool:
    """Check that a vertex loop bounds a simple polygon (no self-contact)."""
    n = len(coords)
    if n < 3:
        return False
    scale = polygon_diameter(coords)
    if scale == 0.0:
        return False
    eps = 1e-12 * scale * scale
    for i in range(n):
        p0, p1 = coords[i], coords[(i + 1) % n]
        for j in range(i + 1, n):
            adjacent = (j == i + 1) or (i == 0 and j == n - 1)
            q0, q1 = coords[j], coords[(j + 1) % n]
            if adjacent:
                # Orient so the shared endpoint sits between the two.
                if j == i + 1:
                    a0, a1, b0, b1 = p0, p1, q0, q1
                else:
                    a0, a1, b0, b1 = q0, q1, p0, p1
                if _segments_conflict(a0, a1, b0, b1, True, eps):
                    return False
            elif _segments_conflict(p0, p1, q0, q1, False, eps):
                return False
    return True


def polygon_kernel(coords: np.ndarray) -> np.ndarray | None:
    """Kernel of a simple CCW polygon (points seeing every vertex).

    Clips the polygon by the half-plane left of each edge; returns the kernel
    as a vertex loop, or None if it is empty (the polygon is not star-shaped).
    """
    kernel = [np.asarray(v, dtype=float) for v in coords]
    n = len(coords)
    scale = polygon_diameter(coords)
    eps = 1e-14 * scale
    for i in range(n):
        a = coords[i]
        b = coords[(i + 1) % n]
        d = b - a
        # signed distance > 0 on the interior side
        out = []
        m = len(kernel)
        if m == 0:
            return None
        dist = [d[0] * (p[1] - a[1]) - d[1] * (p[0] - a[0]) for p in kernel]
        for j in range(m):
            p, q = kernel[j], kernel[(j + 1) % m]
            dp, dq = dist[j], dist[(j + 1) % m]
            if dp >= -eps:
                out.append(p)
            if (dp > eps and dq < -eps) or (dp < -eps and dq > eps):
                t = dp / (dp - dq)
                out.append(p + t * (q - p))
        kernel = out
    if len(kernel) < 3:
        return None
    arr = np.array(kernel)
    if abs(polygon_area(arr)) < (1e-12 * scale) ** 2:
        return None
    return arr


def _chebyshev_center(coords: np.ndarray) -> tuple:
    """Center and radius of the largest disk inside the polygon's kernel.

    The kernel is the intersection of the half-planes left of each edge of
    the CCW loop.  With n_i the unit outward normal of edge i's line through
    a_i, the disk of center x and radius r lies in all of them exactly when
    n_i . x + r <= n_i . a_i, so the linear program maximizes r under those
    rows.  Returns (None, 0.0) when the program fails (empty kernel).
    """
    n = len(coords)
    a_rows = np.empty((n, 3))
    b_rows = np.empty(n)
    for i in range(n):
        a = coords[i]
        b = coords[(i + 1) % n]
        d = b - a
        length = math.hypot(d[0], d[1])
        if length == 0.0:
            raise MeshError("degenerate polygon: zero-length edge")
        # interior lies where cross(d, x - a) >= 0; outward normal of the line
        nx, ny = d[1] / length, -d[0] / length
        a_rows[i] = (nx, ny, 1.0)
        b_rows[i] = nx * a[0] + ny * a[1]
    res = linprog(
        c=[0.0, 0.0, -1.0],
        A_ub=a_rows,
        b_ub=b_rows,
        bounds=[(None, None), (None, None), (0.0, None)],
        method="highs",
    )
    if not res.success:
        return None, 0.0
    return res.x[:2].copy(), float(res.x[2])


def kernel_inradius(coords: np.ndarray) -> float:
    """Radius of the largest disk inside the kernel of a CCW polygon.

    Solved as a Chebyshev-center linear program over the edge half-planes
    (see `_chebyshev_center`).  Returns 0.0 for an empty kernel.
    """
    return _chebyshev_center(coords)[1]


def star_point(coords: np.ndarray) -> np.ndarray:
    """A point from which every vertex of the CCW polygon is visible.

    The kernel is the intersection of the inner half-planes of the edges, so
    the centroid is returned when it lies strictly on the inner side of every
    edge; otherwise the Chebyshev center of the kernel.  A stack of loops
    (..., n, 2) is tested at once and only the loops whose centroid fails go
    to the linear program.  Raises MeshError if a polygon is not star-shaped.
    """
    pts = np.asarray(coords)
    c = polygon_centroid(pts)
    d = np.roll(pts, -1, axis=-2) - pts
    rel = c[..., None, :] - pts
    inside = np.all(d[..., 0] * rel[..., 1] - d[..., 1] * rel[..., 0] > 0.0, axis=-1)
    for idx in map(tuple, np.argwhere(~inside)):
        center, radius = _chebyshev_center(pts[idx])
        if radius <= 0.0:
            raise MeshError("cell is not star-shaped with respect to any point")
        c[idx] = center
    return c


@dataclass
class MeshQualityReport:
    """Shape-regularity summary used to gate generated meshes."""

    min_edge_to_cell_ratio: float
    min_kernel_radius_ratio: float
    max_diameter: float


@dataclass
class PolyMesh:
    """Polygonal mesh with a global, orientation-resolved edge table.

    Arrays are built once by build_topology and treated as read-only.
    """

    vertices: np.ndarray
    cells: list[np.ndarray]
    edges: np.ndarray
    edge_left: np.ndarray
    edge_right: np.ndarray
    edge_normals: np.ndarray
    edge_lengths: np.ndarray
    cell_edges: list[np.ndarray] = field(repr=False)
    cell_edge_signs: list[np.ndarray] = field(repr=False)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def boundary_mask(self) -> np.ndarray:
        return self.edge_right < 0

    @property
    def num_boundary_edges(self) -> int:
        return int(np.count_nonzero(self.edge_right < 0))

    @property
    def num_interior_edges(self) -> int:
        return self.num_edges - self.num_boundary_edges

    def cell_coords(self, c: int) -> np.ndarray:
        return self.vertices[self.cells[c]]

    def cell_groups(self, cells=None) -> list[CellGroup]:
        """The given cells (default all) grouped by vertex count.

        Groups come in ascending vertex count, each with its cells in index
        order and their loops, edges and edge signs stacked row by row.
        """
        cells = np.arange(self.num_cells) if cells is None else np.asarray(cells)
        counts = np.array([len(self.cells[c]) for c in cells.tolist()], dtype=np.int64)
        groups = []
        for n in np.unique(counts):
            members = np.sort(cells[counts == n])
            rows = members.tolist()
            loops, edges, signs = (
                np.concatenate([per_cell[c] for c in rows]).reshape(-1, n)
                for per_cell in (self.cells, self.cell_edges, self.cell_edge_signs))
            groups.append(CellGroup(cells=members, loops=loops, edges=edges, signs=signs))
        return groups


@dataclass(frozen=True)
class CellGroup:
    """Cells of one vertex count, stacked: row i describes cell `cells[i]`."""

    cells: np.ndarray   # (G,) cell indices, ascending
    loops: np.ndarray   # (G, n) vertex loops
    edges: np.ndarray   # (G, n) edge ids in loop order
    signs: np.ndarray   # (G, n) +1 where the loop runs along the stored edge


def build_topology(vertices: np.ndarray, cells: list) -> PolyMesh:
    """Assemble a PolyMesh from vertex coordinates and CCW cell loops.

    Validates each loop (at least 3 distinct vertices, positive signed area,
    simple) and global conformity (an edge belongs to at most two cells, with
    opposite traversal directions when shared).
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    nv = len(vertices)
    loops: list[np.ndarray] = []
    for c, cell in enumerate(cells):
        loop = np.asarray(cell, dtype=np.int64)
        if loop.ndim != 1 or len(loop) < 3:
            raise MeshError(f"cell {c}: needs at least 3 vertices")
        if loop.min() < 0 or loop.max() >= nv:
            raise MeshError(f"cell {c}: vertex index out of range")
        if len(np.unique(loop)) != len(loop):
            raise MeshError(f"cell {c}: repeated vertex in loop")
        coords = vertices[loop]
        if polygon_area(coords) <= 0.0:
            raise MeshError(f"cell {c}: loop is not counterclockwise or is degenerate")
        if not is_simple_polygon(coords):
            raise MeshError(f"cell {c}: self-intersecting polygon")
        loops.append(loop)

    # Collect directed edge uses keyed by the unordered vertex pair.
    uses: dict[tuple[int, int], list[tuple[int, bool]]] = {}
    for c, loop in enumerate(loops):
        n = len(loop)
        for i in range(n):
            a, b = int(loop[i]), int(loop[(i + 1) % n])
            key = (a, b) if a < b else (b, a)
            forward = a < b
            for other_cell, other_forward in uses.get(key, ()):  # conformity
                if other_cell == c:
                    raise MeshError(f"cell {c}: edge {key} traversed twice")
                if other_forward == forward:
                    raise MeshError(
                        f"edge {key}: cells {other_cell} and {c} traverse it in "
                        "the same direction (overlapping or flipped cell)"
                    )
            uses.setdefault(key, []).append((c, forward))
    for key, inc in uses.items():
        if len(inc) > 2:
            raise MeshError(f"edge {key}: shared by more than two cells")

    keys = sorted(uses)
    ne = len(keys)
    edges = np.empty((ne, 2), dtype=np.int64)
    edge_left = np.empty(ne, dtype=np.int64)
    edge_right = np.full(ne, -1, dtype=np.int64)
    index_of = {}
    for e, key in enumerate(keys):
        inc = sorted(uses[key])  # smallest incident cell first
        left_cell, left_forward = inc[0]
        edges[e] = key if left_forward else (key[1], key[0])
        edge_left[e] = left_cell
        if len(inc) == 2:
            edge_right[e] = inc[1][0]
        index_of[key] = e

    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(vec[:, 0], vec[:, 1])
    if np.any(edge_lengths <= 0.0):
        raise MeshError("zero-length edge")
    tangents = vec / edge_lengths[:, None]
    edge_normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    cell_edges = []
    cell_edge_signs = []
    for c, loop in enumerate(loops):
        n = len(loop)
        ids = np.empty(n, dtype=np.int64)
        signs = np.empty(n, dtype=np.int64)
        for i in range(n):
            a, b = int(loop[i]), int(loop[(i + 1) % n])
            key = (a, b) if a < b else (b, a)
            e = index_of[key]
            ids[i] = e
            signs[i] = 1 if (edges[e, 0] == a and edges[e, 1] == b) else -1
        cell_edges.append(ids)
        cell_edge_signs.append(signs)

    return PolyMesh(
        vertices=vertices,
        cells=loops,
        edges=edges,
        edge_left=edge_left,
        edge_right=edge_right,
        edge_normals=edge_normals,
        edge_lengths=edge_lengths,
        cell_edges=cell_edges,
        cell_edge_signs=cell_edge_signs,
    )


def euler_check(mesh: PolyMesh) -> bool:
    """Edge-count consistency: sum of cell edge counts = 2 #interior + #boundary."""
    lhs = sum(len(loop) for loop in mesh.cells)
    rhs = 2 * mesh.num_interior_edges + mesh.num_boundary_edges
    return lhs == rhs


def _quad_grid(nx: int, ny: int) -> tuple:
    """Vertices of the uniform nx-by-ny grid and its CCW quad loops."""
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be positive")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    xv, yv = np.meshgrid(xs, ys)
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    loops = []
    for j in range(ny):
        for i in range(nx):
            v0 = j * (nx + 1) + i
            loops.append([v0, v0 + 1, v0 + nx + 2, v0 + nx + 1])
    return vertices, loops


def generate_uniform_quads(nx: int, ny: int) -> PolyMesh:
    """Uniform nx-by-ny quadrilateral mesh of the unit square."""
    return build_topology(*_quad_grid(nx, ny))


# Share of interior edges that receive a midside vertex.
_SPLIT_FRACTION = 0.15


def _loop_valid(coords: np.ndarray) -> bool:
    return (
        polygon_area(coords) > 0.0
        and is_simple_polygon(coords)
        and polygon_kernel(coords) is not None
    )


def generate_distorted_polygonal(
    nx: int,
    ny: int,
    seed: int,
    distortion: float,
) -> PolyMesh:
    """Randomly perturbed quad mesh with a fraction of edges midside-split.

    Interior vertices of the uniform nx-by-ny grid are jittered by offsets
    drawn uniformly from [-distortion*h, distortion*h]^2 with h the smaller
    grid spacing; each offset is retried (up to 100 draws) until every cell
    touching the vertex stays simple, CCW and star-shaped, and a MeshError is
    raised if no admissible offset is found.  A fixed share (15%) of the
    interior edges then receives a jittered midside vertex, turning some quads
    into pentagons and hexagons.  Fully deterministic for fixed arguments.
    """
    if not 0.0 <= distortion < 0.5:
        raise MeshError("distortion must lie in [0, 0.5)")
    if distortion == 0.0:
        return generate_uniform_quads(nx, ny)

    vertices, loops = _quad_grid(nx, ny)
    rng = np.random.default_rng([seed, nx, ny, int(round(distortion * 1e9))])

    vertex_cells: dict[int, list[int]] = {}
    for c, loop in enumerate(loops):
        for v in loop:
            vertex_cells.setdefault(v, []).append(c)

    amp = distortion * min(1.0 / nx, 1.0 / ny)
    for j in range(1, ny):
        for i in range(1, nx):
            v = j * (nx + 1) + i
            base = vertices[v].copy()
            placed = False
            for _ in range(100):
                candidate = base + rng.uniform(-amp, amp, size=2)
                vertices[v] = candidate
                if all(
                    _loop_valid(vertices[np.asarray(loops[c])])
                    for c in vertex_cells[v]
                ):
                    placed = True
                    break
            if not placed:
                raise MeshError(
                    f"no admissible offset for interior vertex {v} "
                    f"after 100 attempts (distortion={distortion})"
                )

    # Split a deterministic subset of interior edges at a jittered midpoint.
    edge_cells: dict[tuple[int, int], list[int]] = {}
    for c, loop in enumerate(loops):
        n = len(loop)
        for i in range(n):
            a, b = loop[i], loop[(i + 1) % n]
            key = (a, b) if a < b else (b, a)
            edge_cells.setdefault(key, []).append(c)
    interior = sorted(k for k, inc in edge_cells.items() if len(inc) == 2)
    pick = rng.random(len(interior)) < _SPLIT_FRACTION

    # One preallocated slot per split; only the two trial loops are tested.
    coords = np.empty((len(vertices) + int(np.count_nonzero(pick)), 2))
    coords[:len(vertices)] = vertices
    new_id = len(vertices)
    for key, chosen in zip(interior, pick):
        if not chosen:
            continue
        a, b = key
        mid = 0.5 * (coords[a] + coords[b])
        c0, c1 = edge_cells[key]
        trial0 = _insert_after_edge(loops[c0], a, b, new_id)
        trial1 = _insert_after_edge(loops[c1], a, b, new_id)
        idx0, idx1 = np.asarray(trial0), np.asarray(trial1)
        placed = False
        for _ in range(100):
            coords[new_id] = mid + rng.uniform(-0.5 * amp, 0.5 * amp, size=2)
            if _loop_valid(coords[idx0]) and _loop_valid(coords[idx1]):
                placed = True
                break
        if not placed:
            coords[new_id] = mid  # exact midpoint is always admissible
        loops[c0] = trial0
        loops[c1] = trial1
        new_id += 1

    return build_topology(coords, loops)


def _insert_after_edge(loop: list, a: int, b: int, new_id: int) -> list:
    """Copy of `loop` with `new_id` inserted between the endpoints a and b."""
    n = len(loop)
    for i in range(n):
        if {loop[i], loop[(i + 1) % n]} == {a, b}:
            return loop[:i + 1] + [new_id] + loop[i + 1:]
    raise MeshError("edge not found in incident cell")


def mesh_quality(mesh: PolyMesh) -> MeshQualityReport:
    """Shape-regularity report over all cells."""
    min_edge_ratio = math.inf
    min_kernel_ratio = math.inf
    max_h = 0.0
    for c in range(mesh.num_cells):
        coords = mesh.cell_coords(c)
        h = polygon_diameter(coords)
        max_h = max(max_h, h)
        lengths = mesh.edge_lengths[mesh.cell_edges[c]]
        min_edge_ratio = min(min_edge_ratio, float(lengths.min()) / h)
        rho = kernel_inradius(coords)
        min_kernel_ratio = min(min_kernel_ratio, rho / h)
    return MeshQualityReport(
        min_edge_to_cell_ratio=min_edge_ratio,
        min_kernel_radius_ratio=min_kernel_ratio,
        max_diameter=max_h,
    )


def write_mesh(mesh: PolyMesh, path: str) -> None:
    """Write the plain-text mesh format (shortest round-trip float repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("polymesh 2d\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.num_cells}\n")
        for loop in mesh.cells:
            fh.write(f"{len(loop)} " + " ".join(str(int(v)) for v in loop) + "\n")


def read_mesh(path: str) -> PolyMesh:
    """Parse the plain-text mesh format; errors carry the offending line."""
    with open(path, encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = []  # (lineno, content without comments)
    for i, line in enumerate(raw, start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    pos = 0

    def take(expect: str | None = None):
        nonlocal pos
        if pos >= len(lines):
            lineno = lines[-1][0] if lines else 0
            raise MeshFormatError(path, lineno, "unexpected end of file")
        lineno, content = lines[pos]
        pos += 1
        return lineno, content

    lineno, header = take()
    if header != "polymesh 2d":
        raise MeshFormatError(path, lineno, f"expected 'polymesh 2d', got '{header}'")
    lineno, vline = take()
    parts = vline.split()
    if len(parts) != 2 or parts[0] != "vertices":
        raise MeshFormatError(path, lineno, "expected 'vertices N'")
    try:
        nv = int(parts[1])
    except ValueError:
        raise MeshFormatError(path, lineno, f"bad vertex count '{parts[1]}'") from None
    if nv < 0:
        raise MeshFormatError(path, lineno, "vertex count must be nonnegative")
    vertices = np.empty((nv, 2))
    for i in range(nv):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError(path, lineno, "expected 'x y'")
        try:
            vertices[i] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad coordinate in '{line}'") from None
    lineno, cline = take()
    parts = cline.split()
    if len(parts) != 2 or parts[0] != "cells":
        raise MeshFormatError(path, lineno, "expected 'cells M'")
    try:
        nc = int(parts[1])
    except ValueError:
        raise MeshFormatError(path, lineno, f"bad cell count '{parts[1]}'") from None
    cells = []
    for _ in range(nc):
        lineno, line = take()
        parts = line.split()
        try:
            count = int(parts[0])
            ids = [int(p) for p in parts[1:]]
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad cell line '{line}'") from None
        if len(ids) != count:
            raise MeshFormatError(
                path, lineno, f"cell declares {count} vertices but lists {len(ids)}"
            )
        bad = [v for v in ids if v < 0 or v >= nv]
        if bad:
            raise MeshFormatError(
                path, lineno, f"cell references missing vertex {bad[0]} (have {nv})"
            )
        cells.append(ids)
    if pos != len(lines):
        lineno, line = lines[pos]
        raise MeshFormatError(path, lineno, f"trailing content '{line}'")
    try:
        return build_topology(vertices, cells)
    except MeshError as exc:
        raise MeshFormatError(path, 0, str(exc)) from exc
