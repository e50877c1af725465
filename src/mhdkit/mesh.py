"""Oriented 2D triangle meshes of rectangles, facet connectivity and nested
uniform refinement hierarchies."""

import numpy as np


class MeshError(Exception):
    pass


class Mesh2D:
    """Triangle mesh with canonical low-to-high edge orientation.

    Local edge e of a cell (v0, v1, v2) is the edge opposite vertex e, i.e.
    e0 = (v1, v2), e1 = (v0, v2), e2 = (v0, v1).  Every global edge is stored
    with its vertex ids sorted ascending; `cell_edge_signs` records whether the
    local tangent agrees (+1) or disagrees (-1) with that global orientation.

    `cell_coords` carries per-cell vertex coordinates.  For periodic meshes
    these are unwrapped so each cell sees a geometrically consistent frame,
    while `vertices` keeps one representative coordinate per vertex.  The
    cell geometry every space and form reads is computed once from these
    frames (`_build_geometry`).
    """

    def __init__(self, vertices, cells, cell_coords=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.cells = np.asarray(cells, dtype=np.int64)
        if cell_coords is None:
            cell_coords = self.vertices[self.cells]
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
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_edges(self):
        return len(self.edges)

    def mark_boundary(self):
        """Assign left/right/top/bottom markers from coordinates."""
        v = self.vertices
        lo = v.min(axis=0)
        hi = v.max(axis=0)
        tol = 1e-12 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
        names = {1: "left", 2: "right", 3: "bottom", 4: "top"}
        self.marker_names = {v_: k for k, v_ in names.items()}
        for e in self.boundary_edges:
            cell = self.edge_cells[e, 0]
            loc = self.edge_local[e, 0]
            lv = _local_edge_vertices(loc)
            xy = self.cell_coords[cell][lv]
            mid = xy.mean(axis=0)
            if abs(mid[0] - lo[0]) < tol:
                self.edge_markers[e] = 1
            elif abs(mid[0] - hi[0]) < tol:
                self.edge_markers[e] = 2
            elif abs(mid[1] - lo[1]) < tol:
                self.edge_markers[e] = 3
            elif abs(mid[1] - hi[1]) < tol:
                self.edge_markers[e] = 4

    def edges_with_markers(self, markers):
        ids = [self.marker_names[m] if isinstance(m, str) else m
               for m in markers]
        return np.flatnonzero(np.isin(self.edge_markers, ids))

    def min_edge_length(self):
        return float(self.cell_edge_len[self.edge_cells[:, 0],
                                        self.edge_local[:, 0]].min())


_LOCAL_EDGE_VERTICES = np.array([[1, 2], [0, 2], [0, 1]])


def _local_edge_vertices(loc):
    return _LOCAL_EDGE_VERTICES[loc]


def build_rect_mesh(domain, nx, ny, pattern="right", periodic_x=False):
    """Triangulate the rectangle `domain` = (x0, x1, y0, y1).

    pattern "right" splits each quad along the lower-left to upper-right
    diagonal (2 triangles); "crossed" adds the cell centers and splits each
    quad into 4 triangles, preserving both reflection symmetries.
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

    cells = []
    if pattern == "right":
        for i in range(nx):
            for j in range(ny):
                sw, se = vid[i, j], vid[i + 1, j]
                nw, ne = vid[i, j + 1], vid[i + 1, j + 1]
                cells.append((sw, se, ne))
                cells.append((sw, ne, nw))
    elif pattern == "crossed":
        centers = []
        cid0 = len(verts)
        for i in range(nx):
            for j in range(ny):
                centers.append([0.5 * (xs[i] + xs[i + 1]),
                                0.5 * (ys[j] + ys[j + 1])])
        verts = np.vstack([verts, np.array(centers)])
        k = cid0
        for i in range(nx):
            for j in range(ny):
                sw, se = vid[i, j], vid[i + 1, j]
                nw, ne = vid[i, j + 1], vid[i + 1, j + 1]
                c = k
                k += 1
                cells.extend([(sw, se, c), (se, ne, c), (ne, nw, c),
                              (nw, sw, c)])
    else:
        raise MeshError(f"unknown pattern {pattern!r}")
    cells = np.asarray(cells, dtype=np.int64)

    cell_coords = verts[cells]
    if periodic_x:
        remap = np.arange(len(verts))
        right = np.isclose(verts[:, 0], x1)
        for v in np.flatnonzero(right):
            match = np.flatnonzero(np.isclose(verts[:, 0], x0)
                                   & np.isclose(verts[:, 1], verts[v, 1]))
            remap[v] = match[0]
        cells = remap[cells]
        # unwrapped frames already stored in cell_coords
        keep = np.unique(cells)
        new_id = -np.ones(len(verts), dtype=np.int64)
        new_id[keep] = np.arange(len(keep))
        cells = new_id[cells]
        verts = verts[keep]

    mesh = Mesh2D(verts, cells, cell_coords=cell_coords)
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
    """Refine `levels` times; each triangle splits into 4 via edge midpoints."""
    if levels < 0:
        raise MeshError("levels must be >= 0")
    meshes = [mesh]
    children = []
    for _ in range(levels):
        fine, child = _refine_once(meshes[-1])
        meshes.append(fine)
        children.append(child)
    return MeshHierarchy(meshes, children)


def _refine_once(mesh):
    nv = mesh.num_vertices
    ne = mesh.num_edges
    mid_id = nv + np.arange(ne)
    midpoints = 0.5 * (mesh.vertices[mesh.edges[:, 0]]
                       + mesh.vertices[mesh.edges[:, 1]])
    verts = np.vstack([mesh.vertices, midpoints])

    c = mesh.cells
    m = mid_id[mesh.cell_edges]  # (nc, 3): midpoint of local edge i
    child_cells = np.empty((mesh.num_cells, 4, 3), dtype=np.int64)
    child_cells[:, 0] = np.stack([c[:, 0], m[:, 2], m[:, 1]], axis=1)
    child_cells[:, 1] = np.stack([c[:, 1], m[:, 0], m[:, 2]], axis=1)
    child_cells[:, 2] = np.stack([c[:, 2], m[:, 1], m[:, 0]], axis=1)
    child_cells[:, 3] = np.stack([m[:, 0], m[:, 1], m[:, 2]], axis=1)

    p = mesh.cell_coords
    mc = np.empty((mesh.num_cells, 3, 2))
    mc[:, 0] = 0.5 * (p[:, 1] + p[:, 2])
    mc[:, 1] = 0.5 * (p[:, 0] + p[:, 2])
    mc[:, 2] = 0.5 * (p[:, 0] + p[:, 1])
    child_coords = np.empty((mesh.num_cells, 4, 3, 2))
    child_coords[:, 0] = np.stack([p[:, 0], mc[:, 2], mc[:, 1]], axis=1)
    child_coords[:, 1] = np.stack([p[:, 1], mc[:, 0], mc[:, 2]], axis=1)
    child_coords[:, 2] = np.stack([p[:, 2], mc[:, 1], mc[:, 0]], axis=1)
    child_coords[:, 3] = mc

    fine = Mesh2D(verts, child_cells.reshape(-1, 3),
                  cell_coords=child_coords.reshape(-1, 3, 2))
    # markers: fine boundary edges inherit from their coarse parent
    fine.marker_names = dict(mesh.marker_names)
    fine_edge_lookup = {tuple(e): i for i, e in enumerate(map(tuple, fine.edges))}
    for e in mesh.boundary_edges:
        a, b = mesh.edges[e]
        mmid = mid_id[e]
        for pair in ((a, mmid), (mmid, b)):
            key = tuple(sorted(pair))
            fe = fine_edge_lookup.get(key)
            if fe is not None:
                fine.edge_markers[fe] = mesh.edge_markers[e]
    child_map = np.arange(mesh.num_cells * 4).reshape(mesh.num_cells, 4)
    return fine, child_map


def write_vtk(path, mesh, point_data=None):
    """Legacy ASCII VTK unstructured grid dump (cell type 5)."""
    with open(path, "w") as f:
        f.write("# vtk DataFile Version 3.0\nmhdkit mesh\nASCII\n")
        f.write("DATASET UNSTRUCTURED_GRID\n")
        f.write(f"POINTS {mesh.num_vertices} double\n")
        for x, y in mesh.vertices:
            f.write(f"{x:.16e} {y:.16e} 0.0\n")
        nc = mesh.num_cells
        f.write(f"CELLS {nc} {4 * nc}\n")
        for c in mesh.cells:
            f.write(f"3 {c[0]} {c[1]} {c[2]}\n")
        f.write(f"CELL_TYPES {nc}\n")
        f.write("5\n" * nc)
        if point_data:
            f.write(f"POINT_DATA {mesh.num_vertices}\n")
            for name, arr in point_data.items():
                arr = np.asarray(arr, dtype=float)
                if arr.ndim == 1:
                    f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                    for v in arr:
                        f.write(f"{v:.16e}\n")
                else:
                    f.write(f"VECTORS {name} double\n")
                    for row in arr:
                        z = row[2] if len(row) > 2 else 0.0
                        f.write(f"{row[0]:.16e} {row[1]:.16e} {z:.16e}\n")
