"""Conforming polygonal meshes of 2D domains.

Cells are simple polygons, star-shaped or not, stored as counterclockwise
vertex loops.  The topology builder derives a global edge table in which
every edge is the unordered pair of its endpoints; two cells sharing an edge
therefore agree on its identity, which is what makes edge-based degrees of
freedom single-valued across the mesh.

Conventions fixed here and relied on by the discretization modules:

* edges are sorted lexicographically by (min vertex, max vertex);
* the stored direction of an edge is the traversal direction of its "left"
  cell, the incident cell with the smallest index;
* the stored unit normal is the stored direction rotated by -90 degrees,
  i.e. (dy, -dx)/length, which points out of the left cell.

One validity routine, `_loop_defects`, decides whether loops are admissible
cells, for a whole stack of loops with one vertex count at a time: positive
signed area, then the pairwise edge test for simplicity, and nothing else.
`build_topology` runs it per vertex-count group and builds the edge table
from the sorted vertex pairs.  The distorted-mesh generator runs it on
blocks of speculatively placed vertices and rewinds its random stream at a
rejected candidate, so it returns the meshes of placing one vertex at a
time.  Every simple polygon has an ear, so the ear quadrature covers any
cell.  A nonempty kernel, which the VEM error analysis assumes, is only
reported: `mesh_quality` gives a cell that is not star-shaped a kernel
radius ratio of 0.0.

`build_topology` keeps its vertex-count groups as the mesh's `CellGroup`s:
each stacks its cells' loops, edges and edge signs with their areas and
diameters, which `_loop_defects` measured for its tests, their centroids
and their first-ear triangulations (`ear_triangles`).  So every cell is
grouped, measured and cut once per mesh, and the element build, the error
integration and the quality report read these arrays.

`distorted_family` is the sequence of distorted meshes that the
convergence studies run on: one generator, each level halving the mesh
width, with each mesh built only when the study draws it.

`build_topology` is also the only validator of a mesh file's cells:
`read_mesh` checks the file's syntax alone and passes the loops on, and a
`MeshError` that names a cell (`MeshError.cell`) comes back from it as a
`MeshFormatError` at that cell's line.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np


class MeshError(ValueError):
    """Topologically or geometrically invalid mesh input.

    `cell` and `vertex` are the indices of the cell or vertex the error
    names, or None; neither is set for an error of the mesh as a whole (bad
    vertex array, generator arguments).
    """

    def __init__(self, message: str, cell: int | None = None,
                 vertex: int | None = None):
        self.cell = cell
        self.vertex = vertex
        super().__init__(message)


class MeshFormatError(MeshError):
    """Invalid mesh file; carries the file path and 1-based line number.

    Raised for a syntax error at its line, and for a `build_topology` error
    at the line of the cell or vertex it names (line 0 when it names none).
    """

    def __init__(self, path: str, lineno: int, message: str, cell: int | None = None,
                 vertex: int | None = None):
        self.path = path
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}", cell, vertex)


def polygon_area(coords: np.ndarray):
    """Signed area of a polygon given as an (n, 2) vertex loop.

    A stack of loops (..., n, 2) with one vertex count gives the areas (...).
    """
    x = coords[..., 0]
    y = coords[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                        axis=-1)


# Smallest signed area of an admissible loop: the centroid divides by it.
_MIN_AREA = 1e-300
# Largest vertex coordinate magnitude.  The highest-degree product that
# `build_topology` forms is the centroid's (x + x') (x y' - x' y), at most
# 4e300 per vertex at this bound, so no sum it forms overflows.
_MAX_COORD = 1e100


def polygon_centroid(coords: np.ndarray) -> np.ndarray:
    """Area centroid of a simple polygon (CCW or CW); (..., 2) for a stack."""
    x = coords[..., 0]
    y = coords[..., 1]
    xn = np.roll(x, -1, axis=-1)
    yn = np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    area = 0.5 * np.sum(cross, axis=-1)
    if np.any(np.abs(area) < _MIN_AREA):
        raise MeshError("degenerate polygon: zero area")
    cx = np.sum((x + xn) * cross, axis=-1) / (6.0 * area)
    cy = np.sum((y + yn) * cross, axis=-1) / (6.0 * area)
    return np.stack([cx, cy], axis=-1)


def polygon_diameter(coords: np.ndarray):
    """Largest pairwise vertex distance; (...) for a stack of loops."""
    diff = coords[..., :, None, :] - coords[..., None, :, :]
    return np.sqrt((diff[..., 0] ** 2 + diff[..., 1] ** 2).max(axis=(-2, -1)))


def ear_triangles(coords: np.ndarray) -> np.ndarray:
    """(..., n-2, 3) vertex indices of the first-ear triangulation of a stack
    of simple CCW loops (..., n, 2) with one vertex count.

    An ear is a vertex whose turn (prev, tip, next) is strictly convex and
    whose triangle holds no other remaining vertex, inside or on its
    boundary.  Each step cuts the first ear in the current loop order as
    (prev, tip, next), one stacked step for all loops; the last three
    vertices are emitted in loop order.  Every simple polygon has an ear
    (Meisters, "Polygons have ears", 1975); a loop that has none, clockwise
    or self-intersecting, raises MeshError naming its position in the
    flattened stack.  Each step tests every tip's three sides against every
    vertex, so memory grows as n^2 per loop.
    """
    n = coords.shape[-2]
    flat = coords.reshape(-1, n, 2)
    g = len(flat)
    loop = np.arange(g)
    # vertex-major (n, G), so that the stacked arithmetic runs along the loops
    x, y = flat[..., 0].T.copy(), flat[..., 1].T.copy()
    alive = np.ones((n, g), dtype=bool)
    # the remaining loops as linked lists of positions vertex * G + loop:
    # link[:, j] = (prev, j, next, prev) of vertex j
    vert = np.arange(n)[:, None]
    link = np.stack([vert - 1, vert, vert + 1, vert - 1]) % n * g + loop
    ears = np.empty((n - 2, 3, g), dtype=np.intp)
    for step in range(n - 2):
        # the sides a -> b (p -> t, t -> q, q -> p) of every tip's triangle
        # against every vertex r: turn[side, tip, r] = (b - a) x (r - a)
        cx, cy = x.take(link), y.take(link)
        turn = y - cy[:3, :, None]
        turn *= (cx[1:] - cx[:3])[:, :, None]
        cross = x - cx[:3, :, None]
        cross *= (cy[1:] - cy[:3])[:, :, None]
        turn -= cross
        # r covers a tip: on or left of all three sides, remaining, no corner
        covers = turn.min(axis=0) >= 0.0
        covers &= alive
        covers.reshape(n, -1)[vert, link[:3]] = False
        convex = turn[0].reshape(n, -1)[vert, link[2]] > 0.0
        ear = alive & convex & ~covers.any(axis=1)
        tip = ear.argmax(axis=0)  # the first ear; vertex 0 if there is none
        if not ear[tip, loop].all():
            bad = np.argmin(ear[tip, loop])
            raise MeshError(f"loop {bad} has no ear: not a simple counterclockwise polygon")
        if step == n - 3:
            ears[step] = np.nonzero(alive.T)[1].reshape(g, 3).T * g + loop
            break
        ears[step] = cut = link[:3, tip, loop]
        link.reshape(4, -1)[2, cut[0]] = cut[2]
        link.reshape(4, -1)[::3, cut[2]] = cut[0]
        alive.reshape(-1)[cut[1]] = False
    return (ears // g).transpose(2, 0, 1).reshape(coords.shape[:-2] + (n - 2, 3))


def _is_simple(coords: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """(G,) True where a loop of the (G, n, 2) stack has no self-contact.

    Every pair of edges is tested.  Adjacent edges (sharing one endpoint)
    conflict only if they fold back onto each other; non-adjacent edges
    conflict on any contact, within eps = 1e-12 * scale^2 for the cross
    products and 1e-12 for the segment parameters; `scale` holds the (G,)
    loop diameters.
    """
    n = coords.shape[-2]
    eps = (1e-12 * scale * scale)[:, None]
    ends = np.roll(coords, -1, axis=-2)
    d = ends - coords
    # edge k and edge k + 1 share vertex k + 1
    dn = np.roll(d, -1, axis=-2)
    cross = d[..., 0] * dn[..., 1] - d[..., 1] * dn[..., 0]
    dot = d[..., 0] * dn[..., 0] + d[..., 1] * dn[..., 1]
    folded = (np.abs(cross) <= eps) & (dot < 0.0)

    i, j = np.triu_indices(n, 2)
    nonadjacent = (i > 0) | (j < n - 1)
    i, j = i[nonadjacent], j[nonadjacent]
    p0, p1, q0, q1 = coords[:, i], ends[:, i], coords[:, j], ends[:, j]
    d0, d1 = d[:, i], d[:, j]
    r = q0 - p0
    denom = d0[..., 0] * d1[..., 1] - d0[..., 1] * d1[..., 0]
    r_d1 = r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]
    r_d0 = r[..., 0] * d0[..., 1] - r[..., 1] * d0[..., 0]
    crossing = np.abs(denom) > eps
    with np.errstate(divide="ignore", invalid="ignore"):
        t = r_d1 / denom
        s = r_d0 / denom
    lo, hi = -1e-12, 1 + 1e-12
    meet = crossing & (lo <= t) & (t <= hi) & (lo <= s) & (s <= hi)
    # Parallel: a conflict only if collinear with overlapping extents along
    # the dominant axis of the first edge.
    along_x = np.abs(d0[..., 0]) >= np.abs(d0[..., 1])
    a0, a1, b0, b1 = (np.where(along_x, pt[..., 0], pt[..., 1]) for pt in (p0, p1, q0, q1))
    overlap = (~crossing & (np.abs(r_d0) <= eps)
               & (np.maximum(a0, a1) >= np.minimum(b0, b1) - eps)
               & (np.maximum(b0, b1) >= np.minimum(a0, a1) - eps))
    return ~(folded.any(axis=-1) | (meet | overlap).any(axis=-1))


def kernel_inradius(coords: np.ndarray):
    """Radius of the largest disk inside the kernel of a CCW polygon.

    The kernel is the intersection of the half-planes left of each edge.
    With n_i the unit outward normal of edge i and b_i = n_i . a_i for its
    tail a_i, the disk of center x and radius r lies in all of them exactly
    when n_i . x + r <= b_i; the largest such r is reached where three rows
    are tight.  So every triple of edge lines is solved in closed form (r
    eliminated by differences of rows, then Cramer's rule), and a candidate
    center x scores its true inscribed radius min_i (b_i - n_i . x).  That
    score is r where the candidate satisfies every row and less where it
    does not, so the best score is the optimum and no feasibility tolerance
    is needed.  A triple in which two lines face the same way has no unique
    solution and is masked.  0.0 for an empty kernel (or one without
    interior), and (...) radii for a stack (..., n, 2).  Raises MeshError
    for a zero-length edge.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[-2]
    a = coords - coords.mean(axis=-2, keepdims=True)  # rows at the loop's own scale
    d = np.roll(a, -1, axis=-2) - a
    length = np.hypot(d[..., 0], d[..., 1])
    if np.any(length == 0.0):
        raise MeshError("degenerate polygon: zero-length edge")
    nx, ny = d[..., 1] / length, -d[..., 0] / length
    b = nx * a[..., 0] + ny * a[..., 1]
    i, j, k = np.array(list(itertools.combinations(range(n), 3))).T
    ux, uy, ub = nx[..., j] - nx[..., i], ny[..., j] - ny[..., i], b[..., j] - b[..., i]
    vx, vy, vb = nx[..., k] - nx[..., i], ny[..., k] - ny[..., i], b[..., k] - b[..., i]
    det = ux * vy - uy * vx
    singular = det == 0.0
    det[singular] = 1.0
    x = (ub * vy - uy * vb) / det
    y = (ux * vb - ub * vx) / det
    # one edge row at a time, so the transient stays (..., triples)
    score = np.where(singular, -np.inf, np.inf)
    for m in range(n):
        np.minimum(score, b[..., m, None] - nx[..., m, None] * x - ny[..., m, None] * y,
                   out=score)
    return np.maximum(score.max(axis=-1), 0.0)


# Why a loop is not admissible as a cell; `_loop_defects` returns code i + 1
# for _LOOP_DEFECTS[i].
_LOOP_DEFECTS = ("loop is not counterclockwise or is degenerate", "self-intersecting polygon")


def _loop_defects(coords: np.ndarray) -> tuple:
    """The one cell-validity routine, over a (G, n, 2) stack of loops.

    A loop is admissible when its signed area is at least `_MIN_AREA`
    (positive, and large enough for `polygon_centroid`) and it is simple
    (`_is_simple`, at the scale of its diameter); any such loop is a cell,
    star-shaped or not.  Returns the (G,) codes, 0 for an admissible loop,
    else 1 or 2 for the first test it fails, in that order; then the (G,)
    areas and diameters the tests took.
    """
    area = polygon_area(coords)
    diameter = polygon_diameter(coords)
    defects = np.where(area < _MIN_AREA, 1, np.where(_is_simple(coords, diameter), 0, 2))
    return defects, area, diameter


@dataclass
class MeshQualityReport:
    """Shape-regularity summary used to gate generated meshes."""

    min_edge_to_cell_ratio: float
    min_kernel_radius_ratio: float
    max_diameter: float


@dataclass(frozen=True)
class CellGroup:
    """Cells of one vertex count n, stacked: row i describes cell `cells[i]`.

    `build_topology` forms the groups and measures and cuts every cell here,
    once per mesh: the area and diameter are those that `_loop_defects`
    took with `polygon_area` and `polygon_diameter` for its tests, and the
    centroid and ears come from `polygon_centroid` and `ear_triangles`, all
    on the stacked loops.
    """

    cells: np.ndarray     # (G,) cell indices, ascending
    loops: np.ndarray     # (G, n) vertex loops
    edges: np.ndarray     # (G, n) edge ids in loop order
    signs: np.ndarray     # (G, n) +1 where the loop runs along the stored edge
    area: np.ndarray      # (G,) signed area, positive
    center: np.ndarray    # (G, 2) area centroid
    diameter: np.ndarray  # (G,) largest vertex distance
    ears: np.ndarray      # (G, n - 2, 3) first-ear triangles, as loop positions

    def take(self, rows) -> CellGroup:
        """The group of the given rows (ascending) only."""
        return CellGroup(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class PolyMesh:
    """Polygonal mesh with a global, orientation-resolved edge table.

    Arrays are built once by build_topology and treated as read-only.
    `groups` holds the cells by vertex count (see `cell_groups`).
    """

    vertices: np.ndarray
    cells: list[np.ndarray]
    edges: np.ndarray
    edge_left: np.ndarray
    edge_right: np.ndarray
    edge_normals: np.ndarray
    edge_lengths: np.ndarray
    groups: list[CellGroup] = field(repr=False)

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

    def cell_groups(self, cells=None) -> list[CellGroup]:
        """The given cells (default all) grouped by vertex count.

        Groups come in ascending vertex count, each with its cells in index
        order; a selection takes the rows of the stored groups.
        """
        if cells is None:
            return list(self.groups)
        chosen = np.zeros(self.num_cells, dtype=bool)
        chosen[cells] = True
        rows = [np.flatnonzero(chosen[group.cells]) for group in self.groups]
        return [group.take(r) for group, r in zip(self.groups, rows) if len(r)]


# Why a cell is rejected before its geometry is tested.
_INDEX_DEFECTS = ("needs at least 3 vertices", "vertex index out of range",
                  "repeated vertex in loop")


def _check_loops(vertices: np.ndarray, loops: list) -> tuple:
    """Vertex counts and stacks of the loops; MeshError names the first
    inadmissible one.

    Index checks run per vertex-count group, and `_loop_defects` on the
    loops that pass them; a cell is reported for the first check it fails.
    Returns the (C,) vertex counts and, by ascending count n, the (G,)
    cells of that count with their (G, n) loops and the (G,) areas and
    diameters that `_loop_defects` measured.
    """
    sizes = np.array([loop.size if loop.ndim == 1 else 0 for loop in loops], dtype=np.int64)
    defects = np.where(sizes < 3, 1, 0)
    stacks = []
    for n in np.unique(sizes[sizes >= 3]).tolist():
        members = np.flatnonzero(sizes == n)
        stack = np.stack([loops[c] for c in members.tolist()])
        found = np.where((stack.min(axis=1) < 0) | (stack.max(axis=1) >= len(vertices)), 2, 0)
        ordered = np.sort(stack, axis=1)
        found[(found == 0) & np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)] = 3
        rows = np.flatnonzero(found == 0)
        geometry, *measures = _loop_defects(vertices[stack[rows]])
        found[rows] = np.where(geometry > 0, geometry + len(_INDEX_DEFECTS), 0)
        defects[members] = found
        stacks.append((members, stack, *measures))
    if np.any(defects):
        c = int(np.argmax(defects > 0))
        message = (*_INDEX_DEFECTS, *_LOOP_DEFECTS)[defects[c] - 1]
        raise MeshError(f"cell {c}: {message}", c)
    return sizes, stacks


def _edge_table(num_vertices: int, flat: np.ndarray, sizes: np.ndarray) -> tuple:
    """Global edge table of the cell loops `flat`, given back to back.

    Cell c owns `sizes[c]` entries of `flat`, in cell order.  A use is one
    loop edge tail -> head, numbered like `flat`.  Edges are the distinct
    (min, max) vertex pairs in lexicographic order, each stored in the
    direction of its first use, whose cell is the smallest incident one (the
    left cell); a second use must run the other way (the right cell).
    Returns (edges, edge_left, edge_right, use_edge, use_sign), where
    use_sign is +1 for a use along the stored direction.  Raises MeshError
    for an edge that two cells traverse in the same direction, naming the
    later of the two; a third use always does.
    """
    ends = np.cumsum(sizes)
    head = np.roll(flat, -1)
    head[ends - 1] = flat[ends - sizes]
    cell = np.repeat(np.arange(len(sizes)), sizes)
    forward = flat < head
    key = np.minimum(flat, head) * num_vertices + np.maximum(flat, head)
    order = np.argsort(key, kind="stable")  # by edge, then in use order
    first = np.ones(len(order), dtype=bool)
    first[1:] = key[order[1:]] != key[order[:-1]]
    again = np.flatnonzero(~first)
    clash = again[~first[again - 1] | (forward[order[again]] == forward[order[again - 1]])]
    if len(clash):
        q = clash[np.argmin(order[clash])]  # the first clash in use order
        u = order[q]
        earlier = order[np.searchsorted(key[order], key[u]):q]
        w = earlier[forward[earlier] == forward[u]][0]
        raise MeshError(
            f"edge ({min(flat[u], head[u])}, {max(flat[u], head[u])}): cells {cell[w]} "
            f"and {cell[u]} traverse it in the same direction (overlapping or flipped cell)",
            int(cell[u]),
        )
    edge_of = np.cumsum(first) - 1
    leading = order[first]
    edges = np.column_stack([flat[leading], head[leading]])
    edge_right = np.full(len(leading), -1, dtype=np.int64)
    edge_right[edge_of[again]] = cell[order[again]]
    use_edge = np.empty_like(order)
    use_edge[order] = edge_of
    use_sign = np.empty_like(order)
    use_sign[order] = np.where(first, 1, -1)
    return edges, cell[leading], edge_right, use_edge, use_sign


def _as_loop(cell) -> np.ndarray:
    """A cell's vertex indices as int64; an index beyond int64 becomes -1.

    Such an index is out of range for any vertex array, and -1 makes
    `_check_loops` report it so, in cell order, instead of an OverflowError.
    """
    try:
        return np.asarray(cell, dtype=np.int64)
    except OverflowError:
        return np.full(np.shape(cell), -1, dtype=np.int64)


def build_topology(vertices: np.ndarray, cells: list) -> PolyMesh:
    """Assemble a PolyMesh from vertex coordinates and CCW cell loops.

    This is the one validator of cell loops, for generated meshes and mesh
    files alike.  A mesh needs at least one cell.  Every vertex coordinate
    must be finite and at most `_MAX_COORD` in magnitude; a MeshError names
    the first vertex that is not, as `vertex`, before any cell is tested.
    Each loop is checked by vertex-count group (at least 3 vertices, every
    index in range, no repeated vertex, then `_loop_defects`: positive
    signed area and simple, so any simple CCW polygon is a cell), and then
    global conformity (an edge belongs to at most two cells, with opposite
    traversal directions when shared).  The MeshError names the first cell
    that fails, in its message and as `cell`; an edge clash names the later
    of the two cells.  The edge table is built from sorted vertex pairs
    (`_edge_table`), and each group keeps the areas and diameters that
    `_loop_defects` measured, with the centroids and ears of its accepted
    stack.
    """
    vertices = np.ascontiguousarray(np.asarray(vertices, dtype=float))
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (n, 2) array")
    loops = [_as_loop(cell) for cell in cells]
    if not loops:
        raise MeshError("mesh has no cells")
    bounded = (np.abs(vertices) <= _MAX_COORD).all(axis=1)  # False at nan
    if not bounded.all():
        v = int(np.argmin(bounded))
        defect = ("is not finite" if not np.isfinite(vertices[v]).all()
                  else f"exceeds {_MAX_COORD:g} in magnitude")
        raise MeshError(f"vertex {v}: coordinate {defect}", vertex=v)
    sizes, stacks = _check_loops(vertices, loops)
    flat = np.concatenate(loops)
    edges, edge_left, edge_right, use_edge, use_sign = _edge_table(len(vertices), flat, sizes)

    vec = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    edge_lengths = np.hypot(vec[:, 0], vec[:, 1])  # > 0: `_is_simple` saw every edge
    tangents = vec / edge_lengths[:, None]
    edge_normals = np.column_stack([tangents[:, 1], -tangents[:, 0]])

    groups = []
    starts = np.cumsum(sizes) - sizes
    for members, stack, area, diameter in stacks:
        uses = starts[members, None] + np.arange(stack.shape[1])
        coords = vertices[stack]
        groups.append(CellGroup(
            cells=members, loops=stack, edges=use_edge[uses], signs=use_sign[uses],
            area=area, center=polygon_centroid(coords), diameter=diameter,
            ears=ear_triangles(coords)))
    return PolyMesh(
        vertices=vertices,
        cells=[flat[a:a + n] for a, n in zip(starts.tolist(), sizes.tolist())],
        edges=edges,
        edge_left=edge_left,
        edge_right=edge_right,
        edge_normals=edge_normals,
        edge_lengths=edge_lengths,
        groups=groups,
    )


def euler_check(mesh: PolyMesh) -> bool:
    """Edge-count consistency: sum of cell edge counts = 2 #interior + #boundary."""
    lhs = sum(len(loop) for loop in mesh.cells)
    rhs = 2 * mesh.num_interior_edges + mesh.num_boundary_edges
    return lhs == rhs


def _quad_grid(nx: int, ny: int) -> tuple:
    """Vertices of the uniform nx-by-ny grid and its (nx*ny, 4) CCW quad loops."""
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be positive")
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    xv, yv = np.meshgrid(xs, ys)
    vertices = np.column_stack([xv.ravel(), yv.ravel()])
    v0 = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    return vertices, np.column_stack([v0, v0 + 1, v0 + nx + 2, v0 + nx + 1])


def generate_uniform_quads(nx: int, ny: int) -> PolyMesh:
    """Uniform nx-by-ny quadrilateral mesh of the unit square."""
    return build_topology(*_quad_grid(nx, ny))


# Share of interior edges that receive a midside vertex.
_SPLIT_FRACTION = 0.15


def _place_vertices(rng, coords: np.ndarray, ids: np.ndarray, half: float,
                    trials: dict) -> list:
    """Move vertices ids[0], ids[1], ... off their anchors, one after another.

    Vertex ids[k] starts at its anchor coords[ids[k]] and takes the first
    of up to 100 candidates anchor + rng.uniform(-half, half, size=2) that
    keeps every trial loop of k admissible (`_loop_defects`), with
    ids[:k] at their placed and ids[k+1:] at their anchor positions.
    `trials` maps a vertex count n to (owner (T,), loops (T, n)), sorted by
    owner: the loops that vertex ids[owner] must keep admissible.

    The candidates are drawn as one block for all vertices still to place
    and validated in one stacked call per vertex count, assuming each is
    accepted.  At the first rejected candidate the generator is rewound, the
    accepted prefix redrawn, that vertex retried alone and the block resumed
    after it, so the draws and the result are those of placing one vertex at
    a time.  Returns the ids left at their anchor after 100 rejections.
    """
    rank = np.full(len(coords), -1)
    rank[ids] = np.arange(len(ids))

    def rejected(start: int, points: np.ndarray) -> np.ndarray:
        # vertex ids[start + k] at points[k], with points[:k] placed before it
        bad = np.zeros(len(points), dtype=bool)
        for owner, loops in trials.values():
            lo, hi = np.searchsorted(owner, [start, start + len(points)])
            owner, loops = owner[lo:hi], loops[lo:hi]
            order = rank[loops]
            moved = (order >= start) & (order <= owner[:, None])
            xy = coords[loops]
            xy[moved] = points[order[moved] - start]
            bad[owner[_loop_defects(xy)[0] > 0] - start] = True
        return bad

    failed = []
    start = 0
    while start < len(ids):
        state = rng.bit_generator.state
        points = coords[ids[start:]] + rng.uniform(-half, half, size=(len(ids) - start, 2))
        bad = rejected(start, points)
        k = int(np.argmax(bad)) if bad.any() else len(bad)
        coords[ids[start:start + k]] = points[:k]
        if k == len(bad):
            break
        rng.bit_generator.state = state
        rng.uniform(-half, half, size=(k, 2))  # the accepted prefix again
        v = start + k
        for _ in range(100):
            point = coords[ids[v]] + rng.uniform(-half, half, size=2)
            if not rejected(v, point[None])[0]:
                coords[ids[v]] = point
                break
        else:
            failed.append(int(ids[v]))
        start = v + 1
    return failed


def generate_distorted_polygonal(
    nx: int,
    ny: int,
    seed: int,
    distortion: float,
) -> PolyMesh:
    """Randomly perturbed quad mesh with a fraction of edges midside-split.

    Interior vertices of the uniform nx-by-ny grid are jittered, in
    row-major order, by offsets drawn uniformly from
    [-distortion*h, distortion*h]^2 with h the smaller grid spacing; each
    offset is retried (up to 100 draws) until every cell touching the vertex
    passes the one validity routine `_loop_defects` (CCW and simple, the
    rule of `build_topology`), and a MeshError is raised if no admissible
    offset is found.  A fixed share (15%) of the interior edges then receives a
    midside vertex jittered by half as much, retried the same way against
    its two trial loops and left at the exact midpoint if none is found;
    this turns some quads into pentagons and hexagons.

    Both phases place vertices through `_place_vertices`: a block of
    candidate offsets drawn at once and validated in stacked calls,
    rewound at a rejection, so the random stream, and hence the mesh, is
    that of placing one vertex at a time.  Fully deterministic for fixed
    arguments.  A seed that is not a nonnegative integer raises MeshError,
    at any distortion.
    """
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise MeshError("seed must be a nonnegative integer")
    if not 0.0 <= distortion < 0.5:
        raise MeshError("distortion must lie in [0, 0.5)")
    if distortion == 0.0:
        return generate_uniform_quads(nx, ny)

    vertices, quads = _quad_grid(nx, ny)
    rng = np.random.default_rng([seed, nx, ny, int(round(distortion * 1e9))])
    amp = distortion * min(1.0 / nx, 1.0 / ny)

    # Interior vertices row by row; the trial loops of each are its 4 quads.
    j, i = (axis.ravel() for axis in np.mgrid[1:ny, 1:nx])
    inner = j * (nx + 1) + i
    around = np.column_stack([(j - 1) * nx + i - 1, (j - 1) * nx + i,
                              j * nx + i - 1, j * nx + i])
    owner = np.repeat(np.arange(len(inner)), 4)
    failed = _place_vertices(rng, vertices, inner, amp, {4: (owner, quads[around.ravel()])})
    if failed:
        raise MeshError(
            f"no admissible offset for interior vertex {failed[0]} "
            f"after 100 attempts (distortion={distortion})"
        )

    # Split a deterministic subset of interior edges at a jittered midpoint.
    # Which loops each split rewrites does not depend on where its vertex
    # lands, so all trial loops are known before any split vertex is placed.
    nv = len(vertices)
    edges, left, right = _edge_table(nv, quads.ravel(), np.full(len(quads), 4))[:3]
    interior = np.flatnonzero(right >= 0)
    chosen = interior[rng.random(len(interior)) < _SPLIT_FRACTION]
    ends = np.sort(edges[chosen], axis=1)
    coords = np.concatenate([vertices, 0.5 * (vertices[ends[:, 0]] + vertices[ends[:, 1]])])
    loops = quads.tolist()
    trials: dict[int, tuple] = {}
    for s, (a, b) in enumerate(ends.tolist()):
        for c in (int(left[chosen[s]]), int(right[chosen[s]])):
            loops[c] = _insert_after_edge(loops[c], a, b, nv + s)
            owners, stack = trials.setdefault(len(loops[c]), ([], []))
            owners.append(s)
            stack.append(loops[c])
    trials = {n: (np.array(owners), np.array(stack)) for n, (owners, stack) in trials.items()}
    # a split vertex without an admissible offset stays at the exact midpoint
    _place_vertices(rng, coords, nv + np.arange(len(chosen)), 0.5 * amp, trials)
    return build_topology(coords, loops)


def _insert_after_edge(loop: list, a: int, b: int, new_id: int) -> list:
    """Copy of `loop` with `new_id` inserted between the endpoints a and b."""
    n = len(loop)
    i = next(i for i in range(n) if {loop[i], loop[(i + 1) % n]} == {a, b})
    return loop[:i + 1] + [new_id] + loop[i + 1:]


# Cells per side of the coarsest mesh of `distorted_family`.
_FAMILY_BASE = 4


def distorted_family(levels: int, seed: int = 2026, distortion: float = 0.2):
    """Yield `levels` distorted meshes, each of half the previous mesh width.

    Level L is `generate_distorted_polygonal(n, n, seed + L, distortion)`
    with n = 4 * 2**L; distortion 0 gives the uniform quadrilateral meshes.
    Each mesh is generated when it is drawn, so a study that stops early
    never builds the finer ones.
    """
    for level in range(levels):
        n = _FAMILY_BASE * 2 ** level
        yield generate_distorted_polygonal(n, n, seed + level, distortion)


def mesh_quality(mesh: PolyMesh) -> MeshQualityReport:
    """Shape-regularity report over all cells, one stacked pass per group."""
    min_edge_ratio = min_kernel_ratio = math.inf
    max_h = 0.0
    for group in mesh.cell_groups():
        coords = mesh.vertices[group.loops]
        h = group.diameter
        lengths = mesh.edge_lengths[group.edges]
        min_edge_ratio = min(min_edge_ratio, float((lengths.min(axis=1) / h).min()))
        min_kernel_ratio = min(min_kernel_ratio, float((kernel_inradius(coords) / h).min()))
        max_h = max(max_h, float(h.max()))
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
    """Parse the plain-text mesh format that `write_mesh` writes.

    The file holds a `polymesh 2d` line, a `vertices N` line and N `x y`
    lines, then a `cells M` line and M lines `n v_1 ... v_n`; `#` starts a
    comment and blank lines are skipped.  Only this syntax is checked here,
    with a MeshFormatError at the offending line.  The vertices and cells
    are validated by `build_topology` alone, and its MeshError comes back
    as a MeshFormatError at the line of the cell or vertex it names (line 0
    when it names neither).
    """
    with open(path, encoding="utf-8") as fh:
        lines = [(i, content) for i, line in enumerate(fh, start=1)
                 if (content := line.split("#", 1)[0].strip())]
    rows = iter(lines)

    def take():
        row = next(rows, None)
        if row is None:
            raise MeshFormatError(path, lines[-1][0] if lines else 0, "unexpected end of file")
        return row

    def count(keyword: str, symbol: str, noun: str) -> int:
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFormatError(path, lineno, f"expected '{keyword} {symbol}'")
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad {noun} count '{parts[1]}'") from None
        if n < 0:
            raise MeshFormatError(path, lineno, f"{noun} count must be nonnegative")
        return n

    lineno, header = take()
    if header != "polymesh 2d":
        raise MeshFormatError(path, lineno, f"expected 'polymesh 2d', got '{header}'")
    vertices, vertex_lines = [], []
    for _ in range(count("vertices", "N", "vertex")):
        lineno, line = take()
        parts = line.split()
        if len(parts) != 2:
            raise MeshFormatError(path, lineno, "expected 'x y'")
        try:
            vertices.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad coordinate in '{line}'") from None
        vertex_lines.append(lineno)
    cells, cell_lines = [], []
    for _ in range(count("cells", "M", "cell")):
        lineno, line = take()
        parts = line.split()
        try:
            declared, ids = int(parts[0]), [int(p) for p in parts[1:]]
        except ValueError:
            raise MeshFormatError(path, lineno, f"bad cell line '{line}'") from None
        if len(ids) != declared:
            raise MeshFormatError(
                path, lineno, f"cell declares {declared} vertices but lists {len(ids)}")
        cells.append(ids)
        cell_lines.append(lineno)
    trailing = next(rows, None)
    if trailing is not None:
        raise MeshFormatError(path, trailing[0], f"trailing content '{trailing[1]}'")
    try:
        return build_topology(np.array(vertices, dtype=float).reshape(-1, 2), cells)
    except MeshError as exc:
        if exc.vertex is not None:
            lineno = vertex_lines[exc.vertex]
        else:
            lineno = 0 if exc.cell is None else cell_lines[exc.cell]
        raise MeshFormatError(path, lineno, str(exc), exc.cell, exc.vertex) from exc
