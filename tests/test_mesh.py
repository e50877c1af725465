import numpy as np
import pytest

from mhdkit.elements import FunctionSpace, interpolate
from mhdkit.mesh import (MeshError, build_rect_mesh, refine_uniform,
                         write_vtk)


def vertex_positions(mesh):
    """One position per vertex, from the cells' frames (each vertex's
    position in the last cell that lists it)."""
    pos = np.empty((mesh.num_vertices, 2))
    pos[mesh.cells] = mesh.cell_coords
    return pos


def facet_geometry(mesh, edge):
    """(length, unit normal, adjacent cells) of one edge; the normal points
    out of the first adjacent cell."""
    pts = mesh.cell_edge_points[mesh.edge_cells[edge, 0],
                                mesh.edge_local[edge, 0]]
    t = pts[1] - pts[0]
    length = float(np.hypot(*t))
    n = np.array([t[1], -t[0]]) / length
    centroid = mesh.cell_coords[mesh.edge_cells[edge, 0]].mean(axis=0)
    if np.dot(n, pts.mean(axis=0) - centroid) < 0:
        n = -n
    return length, n, tuple(int(c) for c in mesh.edge_cells[edge])


def test_smallest_mesh_counts():
    m = build_rect_mesh((0, 1, 0, 1), 1, 1, "right")
    assert m.num_cells == 2
    assert m.num_vertices == 4
    assert m.num_edges == 5


def test_16x16_counts():
    m = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 16, 16, "right")
    assert m.num_cells == 2 * 16 * 16 == 512
    assert m.num_vertices == 17 * 17 == 289


def test_crossed_counts():
    m = build_rect_mesh((0, 1, 0, 1), 50, 50, "crossed")
    assert m.num_cells == 4 * 50 * 50 == 10000
    assert m.num_vertices == 51 * 51 + 50 * 50 == 5101


def test_invalid_domain():
    with pytest.raises(MeshError):
        build_rect_mesh((0, 0, 0, 1), 4, 4)


def test_positive_areas_and_euler():
    for pattern in ("right", "crossed"):
        m = build_rect_mesh((0, 2, 0, 1), 5, 3, pattern)
        assert np.all(m.cell_area > 0)
        assert m.num_vertices - m.num_edges + m.num_cells == 1


def test_edge_sharing():
    m = build_rect_mesh((0, 1, 0, 1), 4, 4, "right")
    counts = np.zeros(m.num_edges, dtype=int)
    for e in m.cell_edges.ravel():
        counts[e] += 1
    boundary = np.isin(np.arange(m.num_edges), m.boundary_edges)
    assert np.all(counts[boundary] == 1)
    assert np.all(counts[~boundary] == 2)


def test_edge_signs_reproduce_orientation():
    m = build_rect_mesh((0, 1, 0, 1), 3, 2, "right")
    from mhdkit.mesh import _LOCAL_EDGE_VERTICES
    for c in range(m.num_cells):
        for le in range(3):
            lv = _LOCAL_EDGE_VERTICES[le]
            a, b = m.cells[c][lv]
            e = m.edges[m.cell_edges[c, le]]
            sign = m.cell_edge_signs[c, le]
            if sign == 1:
                assert (a, b) == tuple(e)
            else:
                assert (b, a) == tuple(e)


def test_incidence_exactness():
    # CCW-signed cell-edge incidence: each interior edge is traversed once in
    # each direction, so the column sums of D vanish there (discrete
    # exactness of the incidence complex); local edge 1 runs against the CCW
    # boundary orientation of (v0, v1, v2)
    m = build_rect_mesh((0, 1, 0, 1), 6, 6, "crossed")
    ccw = m.cell_edge_signs * np.array([1, -1, 1])
    acc = np.zeros(m.num_edges)
    np.add.at(acc, m.cell_edges.ravel(), ccw.ravel())
    interior = np.setdiff1d(np.arange(m.num_edges), m.boundary_edges)
    assert np.all(acc[interior] == 0)


def test_refine_counts_and_areas():
    m = build_rect_mesh((0, 1, 0, 1), 1, 1, "right")
    h = refine_uniform(m, 1)
    assert h.finest.num_cells == 8
    h0 = refine_uniform(m, 0)
    assert len(h0) == 1 and h0.finest is m
    big = refine_uniform(build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 16, 16), 2)
    assert big.finest.num_cells == 512 * 16
    for lvl in big.levels:
        assert abs(lvl.cell_area.sum() - 1.0) < 1e-12


def test_refine_five_levels_cell_count():
    m = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 16, 16)
    n = m.num_cells
    for _ in range(5):
        n *= 4
    assert n == 524288  # 512x512-equivalent


def test_refine_vertex_embedding():
    # child k of a cell keeps the parent's corner k as its corner 0: its
    # number and its position in the frame
    m = build_rect_mesh((0, 1, 0, 1), 2, 3)
    h = refine_uniform(m, 2)
    for k in range(2):
        coarse, fine = h.levels[k], h.levels[k + 1]
        children = h.cell_children[k]
        for j in range(3):
            child = children[:, j]
            assert np.array_equal(fine.cells[child, 0], coarse.cells[:, j])
            assert np.array_equal(fine.cell_coords[child, 0],
                                  coarse.cell_coords[:, j])
        assert fine.num_vertices == coarse.num_vertices + coarse.num_edges


def test_refine_marker_inheritance():
    # every boundary edge of the finest mesh is marked with the side of the
    # domain it lies on; an x-periodic mesh has only top and bottom edges
    for domain, n, pattern, periodic_x in [
            ((0, 1, 0, 1), 2, "right", False),
            ((-1, 1, -1, 1), 4, "right", True),
            ((-1, 1, -1, 1), 4, "crossed", True)]:
        x0, x1, y0, y1 = domain
        m = build_rect_mesh(domain, n, n, pattern, periodic_x=periodic_x)
        fine = refine_uniform(m, 2).finest
        names = {v: k for k, v in fine.marker_names.items()}
        for e in fine.boundary_edges:
            # the midpoint in the unwrapped frame of the edge's cell
            mid = fine.cell_edge_points[fine.edge_cells[e, 0],
                                        fine.edge_local[e, 0]].mean(axis=0)
            assert fine.edge_markers[e] in names
            name = names[fine.edge_markers[e]]
            expected = {"left": mid[0] == x0, "right": mid[0] == x1,
                        "bottom": mid[1] == y0, "top": mid[1] == y1}
            assert expected[name]
            if periodic_x:
                assert name in ("top", "bottom")


def test_facet_geometry():
    m = build_rect_mesh((0, 1, 0, 1), 1, 1, "right")
    pos = vertex_positions(m)
    # horizontal bottom edge
    for e in range(m.num_edges):
        va, vb = pos[m.edges[e]]
        L, n, cells = facet_geometry(m, e)
        assert abs(L - np.linalg.norm(vb - va)) < 1e-14
        if np.allclose([va[1], vb[1]], 0.0):
            assert abs(L - 1.0) < 1e-14
            assert np.allclose(np.abs(n), [0, 1])
        if not np.allclose(va, vb) and np.allclose(va + vb, [1, 1]):
            assert abs(L - np.sqrt(2)) < 1e-14
            assert np.allclose(np.abs(n), [1 / np.sqrt(2)] * 2)
    mm = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 4, 4)
    pos = vertex_positions(mm)
    for e in mm.boundary_edges:
        L, n, cells = facet_geometry(mm, e)
        mid = pos[mm.edges[e]].mean(axis=0)
        if abs(mid[0] + 0.5) < 1e-12:
            assert np.allclose(n, [-1, 0])
        assert cells[1] == -1


def test_periodic_mesh():
    for pattern, centers in (("right", 0), ("crossed", 16)):
        m = build_rect_mesh((-1, 1, -1, 1), 4, 4, pattern, periodic_x=True)
        # the right vertex column is identified with the left one, and the
        # vertices are numbered contiguously
        assert m.num_vertices == 5 * 5 - 5 + centers
        assert np.array_equal(np.unique(m.cells), np.arange(m.num_vertices))
        assert np.all(m.cell_area > 0)
        # every vertical seam edge is interior now
        assert all(m.edge_markers[e] in
                   (m.marker_names.get("top"), m.marker_names.get("bottom"))
                   for e in m.boundary_edges)


def test_vtk_roundtrip(tmp_path, read_vtk):
    m = build_rect_mesh((0, 1, 0, 1), 3, 2)
    data = {"f": np.arange(m.num_vertices, dtype=float)}
    p = tmp_path / "mesh.vtk"
    write_vtk(p, m, data)
    m2, d2 = read_vtk(p)
    assert m2.num_cells == m.num_cells
    assert np.array_equal(m2.cells, m.cells)
    assert np.allclose(m2.cell_coords, m.cell_coords)
    assert np.allclose(d2["f"], data["f"])


@pytest.mark.parametrize("levels", [0, 1, 2])
def test_written_periodic_mesh_is_the_mesh(tmp_path, read_vtk, levels):
    # the file holds every cell in its own frame, seam cells included, and
    # each corner carries the value of its vertex
    mesh = refine_uniform(build_rect_mesh((-1, 1, -1, 1), 4, 4,
                                          periodic_x=True), levels).finest

    def f(x, y):
        return np.sin(np.pi * x) + y

    data = {"f": interpolate(FunctionSpace(mesh, "CG", 1), f).coefficients}
    p = tmp_path / "mesh.vtk"
    write_vtk(p, mesh, data)
    m2, d2 = read_vtk(p)
    assert np.array_equal(m2.cell_area, mesh.cell_area)
    x, y = np.moveaxis(mesh.cell_coords, -1, 0)
    assert np.abs(d2["f"][m2.cells] - f(x, y)).max() < 1e-14
