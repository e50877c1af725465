"""Oriented 2D triangle meshes of rectangles, facet connectivity and nested
uniform refinement hierarchies.  A mesh is its cells and their frames: each
cell's vertex numbers and its own copy of their coordinates."""

import numpy as np


class MeshError(Exception):
    pass


class Mesh2D:
    """Triangle mesh with canonical low-to-high edge orientation.

    Local edge e of a cell (v0, v1, v2) is the edge opposite vertex e, i.e.
    e0 = (v1, v2), e1 = (v0, v2), e2 = (v0, v1).  Every global edge is stored
    with its vertex ids sorted ascending; `cell_edge_signs` records whether the
    local tangent agrees (+1) or disagrees (-1) with that global orientation.

    `cell_coords` (nc, 3, 2) is each cell's frame: the coordinates of its
    vertices as that cell sees them.  On a periodic mesh the frames are
    unwrapped, so a vertex on the seam has one position in the cells on
    each side of it.  The cell geometry every space and form reads is
    computed once from these frames (`_build_geometry`).  The vertices are
    numbered 0 .. cells.max().
    """

    def __init__(self, cells, cell_coords):
        self.cells = np.asarray(cells, dtype=np.int64)
        self.cell_coords = np.asarray(cell_coords, dtype=float)
        self._build_connectivity()
        self._build_geometry()
        if np.any(self.cell_area <= 0):
            raise MeshError("cells with non-positive area")
        self.edge_markers = np.zeros(self.num_edges, dtype=np.int64)
        self.marker_names = {}
        self.facet_cache = {}   # qdeg -> assembly.facet_data

    # -- construction ------------------------------------------------------

    def _build_connectivity(self):
        c = self.cells
        pairs = np.concatenate([c[:, [1, 2]], c[:, [0, 2]], c[:, [0, 1]]])
        pairs_sorted = np.sort(pairs, axis=1)
        uniq, inv = np.unique(pairs_sorted, axis=0, return_inverse=True)
        ncells = len(c)
        self.edges = uniq
        self.cell_edges = inv.reshape(3, ncells).T.copy()
        signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1)
        self.cell_edge_signs = signs.reshape(3, ncells).T.copy()

        ne = len(uniq)
        edge_cells = -np.ones((ne, 2), dtype=np.int64)
        edge_local = -np.ones((ne, 2), dtype=np.int64)
        order = np.argsort(self.cell_edges.ravel(), kind="stable")
        flat_edges = self.cell_edges.ravel()[order]
        flat_cells = np.repeat(np.arange(ncells), 3)[order]
        loc = np.tile(np.arange(3)[None, :], (ncells, 1)).ravel()[order]
        first = np.ones(len(flat_edges), dtype=bool)
        first[1:] = flat_edges[1:] != flat_edges[:-1]
        slot = np.zeros(len(flat_edges), dtype=np.int64)
        slot[~first] = 1
        edge_cells[flat_edges, slot] = flat_cells
        edge_local[flat_edges, slot] = loc
        self.edge_cells = edge_cells
        self.edge_local = edge_local
        self.boundary_edges = np.flatnonzero(edge_cells[:, 1] < 0)

    def _build_geometry(self):
        """Per cell: signed area, centre, scale (longest edge), the affine
        map x = p0 + J xi from the reference cell with J and J^-1; per
        (cell, local edge): the endpoints ordered along the global edge
        direction, with the edge's length, unit tangent and normal."""
        p = self.cell_coords
        self.cell_centers = p.mean(axis=1)
        e = np.stack([p[:, 2] - p[:, 1], p[:, 2] - p[:, 0], p[:, 1] - p[:, 0]],
                     axis=1)
        self.cell_scale = np.linalg.norm(e, axis=2).max(axis=1)
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        self.cell_area = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        self.jac = np.stack([d1, d2], axis=-1)
        self.jac_inv = np.linalg.inv(self.jac)
        coords = p[:, _LOCAL_EDGE_VERTICES]             # (nc, 3, 2pts, 2)
        cv = self.cells[:, _LOCAL_EDGE_VERTICES]        # (nc, 3, 2)
        swap = cv[:, :, 0] != self.edges[self.cell_edges][:, :, 0]
        ordered = coords.copy()
        ordered[swap] = coords[swap][:, ::-1]
        self.cell_edge_points = ordered
        t = ordered[:, :, 1] - ordered[:, :, 0]
        L = np.linalg.norm(t, axis=2)
        t = t / L[..., None]
        self.cell_edge_len = L
        self.cell_edge_tangent = t
        self.cell_edge_normal = np.stack([t[..., 1], -t[..., 0]], axis=-1)

    # -- queries -------------------------------------------------------------

    @property
    def num_vertices(self):
        return int(self.cells.max()) + 1

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    def mark_boundary(self):
        """Assign left/right/top/bottom markers from coordinates: a boundary
        edge takes the first of these sides of the cells' bounding box that
        its midpoint lies on.  The box is taken over the unwrapped
        `cell_coords`, so a periodic mesh's box is its whole domain."""
        lo = self.cell_coords.min(axis=(0, 1))
        hi = self.cell_coords.max(axis=(0, 1))
        tol = 1e-12 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
        self.marker_names = {"left": 1, "right": 2, "bottom": 3, "top": 4}
        e = self.boundary_edges
        mid = self.cell_edge_points[self.edge_cells[e, 0],
                                    self.edge_local[e, 0]].mean(axis=1)
        # last side first, so that an earlier side overwrites a later one
        for marker, axis, end in ((4, 1, hi), (3, 1, lo), (2, 0, hi),
                                  (1, 0, lo)):
            on_side = np.abs(mid[:, axis] - end[axis]) < tol
            self.edge_markers[e[on_side]] = marker

    def edges_with_markers(self, markers):
        ids = [self.marker_names[m] for m in markers]
        return np.flatnonzero(np.isin(self.edge_markers, ids))

    def min_edge_length(self):
        return float(self.cell_edge_len[self.edge_cells[:, 0],
                                        self.edge_local[:, 0]].min())


_LOCAL_EDGE_VERTICES = np.array([[1, 2], [0, 2], [0, 1]])
# the corners of the four children of a cell among its corners (0-2) and
# its edge midpoints (3 + local edge)
_CHILD_CORNERS = np.array([[0, 5, 4], [1, 3, 5], [2, 4, 3], [3, 4, 5]])


def build_rect_mesh(domain, nx, ny, pattern="right", periodic_x=False):
    """Triangulate the rectangle `domain` = (x0, x1, y0, y1).

    pattern "right" splits each quad along the lower-left to upper-right
    diagonal (2 triangles); "crossed" adds the cell centers and splits each
    quad into 4 triangles, preserving both reflection symmetries.  Grid
    vertex (i, j) is numbered i (ny + 1) + j, and the cell centers follow.
    With `periodic_x` the right grid column is the left one: its cells keep
    their frames at x1 but share the left column's vertex numbers.
    """
    x0, x1, y0, y1 = domain
    if not (x1 > x0 and y1 > y0):
        raise MeshError("invalid domain: zero or negative extent")
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be >= 1")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    verts = np.column_stack([X.ravel(), Y.ravel()])
    vid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    # the corners of quad (i, j), in the order i then j
    sw, se = vid[:-1, :-1].ravel(), vid[1:, :-1].ravel()
    nw, ne = vid[:-1, 1:].ravel(), vid[1:, 1:].ravel()

    if pattern == "right":
        tris = [(sw, se, ne), (sw, ne, nw)]
    elif pattern == "crossed":
        CX, CY = np.meshgrid(0.5 * (xs[:-1] + xs[1:]),
                             0.5 * (ys[:-1] + ys[1:]), indexing="ij")
        c = len(verts) + np.arange(nx * ny)
        verts = np.vstack([verts, np.column_stack([CX.ravel(), CY.ravel()])])
        tris = [(sw, se, c), (se, ne, c), (ne, nw, c), (nw, sw, c)]
    else:
        raise MeshError(f"unknown pattern {pattern!r}")
    cells = np.array(tris).transpose(2, 0, 1).reshape(-1, 3)

    cell_coords = verts[cells]
    if periodic_x:
        remap = np.arange(len(verts))
        remap[vid[nx]] = vid[0]
        remap[vid.size:] -= ny + 1
        cells = remap[cells]

    mesh = Mesh2D(cells, cell_coords)
    mesh.mark_boundary()
    return mesh


class MeshHierarchy:
    """Nested uniformly refined meshes, coarse to fine."""

    def __init__(self, levels, cell_children):
        self.levels = levels
        self.cell_children = cell_children

    def __len__(self):
        return len(self.levels)

    @property
    def finest(self):
        return self.levels[-1]


def refine_uniform(mesh, levels):
    """Refine `levels` times; each triangle splits into 4 via edge midpoints.
    Each fine mesh marks its boundary from coordinates, as the base mesh of
    `build_rect_mesh` does."""
    if levels < 0:
        raise MeshError("levels must be >= 0")
    meshes = [mesh]
    children = []
    for _ in range(levels):
        fine, child = _refine_once(meshes[-1])
        fine.mark_boundary()
        meshes.append(fine)
        children.append(child)
    return MeshHierarchy(meshes, children)


def _refine_once(mesh):
    """Split each cell into four; the midpoint of edge e is vertex
    num_vertices + e, and its position in each child's frame is the mean of
    the edge's ends in the parent's frame.  Child k < 3 starts at the
    parent's corner k, and child 3 joins the three midpoints."""
    nc = mesh.num_cells
    q = mesh.cell_coords[:, _LOCAL_EDGE_VERTICES]   # (nc, 3, 2pts, 2)
    corners = np.concatenate([mesh.cells, mesh.num_vertices + mesh.cell_edges],
                             axis=1)
    coords = np.concatenate([mesh.cell_coords,
                             0.5 * (q[:, :, 0] + q[:, :, 1])], axis=1)
    fine = Mesh2D(corners[:, _CHILD_CORNERS].reshape(-1, 3),
                  coords[:, _CHILD_CORNERS].reshape(-1, 3, 2))
    return fine, np.arange(nc * 4).reshape(nc, 4)


def write_vtk(path, mesh, point_data=None):
    """Legacy ASCII VTK unstructured grid dump (cell type 5).

    The points are the distinct (vertex, position) pairs of the cells'
    frames, ordered by vertex: one point per vertex on a mesh without a
    seam, and one on each side of the seam for a periodic seam vertex.
    `point_data` arrays are indexed by vertex, and each point takes its
    vertex's value."""
    corners = np.concatenate([mesh.cells[..., None], mesh.cell_coords],
                             axis=2).reshape(-1, 3)
    points, cells = np.unique(corners, axis=0, return_inverse=True)
    cells = cells.reshape(-1, 3)
    vertex = points[:, 0].astype(np.int64)
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nmhdkit mesh\nASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {len(points)} double\n")
        for _, x, y in points:
            f.write(f"{x:.16e} {y:.16e} 0.0\n")
        nc = mesh.num_cells
        f.write(f"CELLS {nc} {4 * nc}\n")
        for c in cells:
            f.write(f"3 {c[0]} {c[1]} {c[2]}\n")
        f.write(f"CELL_TYPES {nc}\n")
        f.write("5\n" * nc)
        if point_data:
            f.write(f"POINT_DATA {len(points)}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)[vertex]
                if arr.ndim == 1:
                    f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        f.write(f"{v:.16e}\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    for row in arr:
                        z = row[2] if len(row) > 2 else 0.0
                        f.write(f"{row[0]:.16e} {row[1]:.16e} {z:.16e}\n")
