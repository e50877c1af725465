import functools

import numpy as np
import pytest

from mhdkit.mesh import Mesh2D, build_rect_mesh, refine_uniform
from mhdkit.elements import (SUPPORTED, REF_VERTICES, FunctionSpace, Field,
                             UnsupportedElementError,
                             interpolate, l2_project, complex_maps,
                             dirichlet_values, grad_to_hcurl, curl_to_dg,
                             reference_table, scalar_monomials)
from mhdkit.assembly import _Basis, cell_matrix, facet_data
from mhdkit.quadrature import gauss_interval
from mhdkit.multigrid import build_transfer

from facet_matrices import sipg_viscous

ALL_FAMILIES = [("CG", 1), ("CG", 2), ("DG", 0), ("DG", 1), ("RT", 1),
                ("RT", 2), ("BDM", 1), ("BDM", 2), ("NED", 1), ("NED", 2)]


@functools.cache
def _reference_mesh():
    mesh = Mesh2D(np.array([[0, 1, 2]]), REF_VERTICES[None])
    mesh.mark_boundary()
    return mesh


class ReferenceElement:
    """Single-cell view of an element family on the reference triangle."""

    def __init__(self, family, degree):
        self.space = FunctionSpace(_reference_mesh(), family, degree)
        self.dim = self.space.element.nloc

    def tabulate(self, points, grad=False):
        pts = np.asarray(points, dtype=float)[None, :, :]
        vals, grads = self.space.tabulate_cells([0], pts, grad)
        if grad:
            return vals[0], grads[0]
        return vals[0]


@pytest.fixture(scope="module")
def unit_mesh():
    return build_rect_mesh((0, 1, 0, 1), 3, 3, "right")


def dual_matrix(el):
    """The element's dual functionals applied to its basis on the reference
    cell: the identity when the basis is the dual basis."""
    pts, wts = el.space.dual_points_weights()
    vals, _ = el.space.tabulate_cells([0], pts[0:1])
    return np.einsum("qik,qjk->ij", wts[0], vals[0])


@pytest.mark.parametrize("fam,deg", ALL_FAMILIES)
def test_reference_duality(fam, deg):
    el = ReferenceElement(fam, deg)
    D = dual_matrix(el)
    assert np.abs(D - np.eye(el.dim)).max() < 1e-12


def test_classical_dimensions():
    assert ReferenceElement("RT", 1).dim == 3
    assert ReferenceElement("RT", 2).dim == 2 * (2 + 2)
    assert ReferenceElement("BDM", 2).dim == (2 + 1) * (2 + 2) == 12
    assert ReferenceElement("NED", 2).dim == 8
    assert ReferenceElement("CG", 2).dim == 6


def test_unsupported_element():
    with pytest.raises(UnsupportedElementError):
        ReferenceElement("RT", 3)


def test_cg1_nodal_at_vertices():
    el = ReferenceElement("CG", 1)
    vals = el.tabulate(np.array([[0, 0], [1, 0], [0, 1]], float))
    assert np.allclose(vals[:, :, 0], np.eye(3))


def test_rt1_edge_moments():
    # integral over edge i of phi_j . n equals delta_ij by construction
    el = ReferenceElement("RT", 1)
    D = dual_matrix(el)
    assert np.abs(D - np.eye(3)).max() < 1e-12


def test_piola_compatibility():
    # contravariant map of the reference basis matches the physical basis up
    # to the diagonal edge-length/orientation scaling of the dual functionals:
    # check div(mapped) = div(reference)/detJ pointwise instead
    ref = ReferenceElement("RT", 2)
    pts = np.array([[0.2, 0.3], [0.1, 0.6], [0.4, 0.4]])
    vals, grads = ref.tabulate(pts, grad=True)
    div_ref = grads[..., 0, 0] + grads[..., 1, 1]
    # affine cell
    J = np.array([[2.0, 0.3], [-0.1, 1.5]])
    detJ = np.linalg.det(J)
    m = build_rect_mesh((0, 1, 0, 1), 1, 1)
    # map reference basis through Piola and differentiate numerically
    eps = 1e-6
    for d in range(2):
        step = np.zeros(2)
        step[d] = eps

        def mapped(p):
            ref_p = np.linalg.solve(J, p.T).T
            v = ref.tabulate(ref_p)
            return np.einsum("ab,qib->qia", J, v) / detJ

        num = (mapped(pts @ J.T + step) - mapped(pts @ J.T - step)) / (2 * eps)
        if d == 0:
            div_num = num[..., 0]
        else:
            div_num += num[..., 1]
    assert np.abs(div_num - div_ref / detJ).max() < 1e-5


@pytest.mark.parametrize("fam,deg", ALL_FAMILIES)
def test_polynomial_reproduction(fam, deg, unit_mesh):
    space = FunctionSpace(unit_mesh, fam, deg)
    k = deg if fam != "DG" else deg
    if space.element.scalar:
        f = lambda x, y: (1 + x + y) ** k if k > 0 else np.ones_like(x)
    else:
        # a polynomial field inside every supported vector space
        if fam in ("RT", "NED") and deg == 1:
            f = lambda x, y: np.stack([1 + 0 * x, 2 + 0 * x], axis=-1)
        else:
            f = lambda x, y: np.stack([1 + x - 2 * y, 0.5 - x + y], axis=-1)
    fld = interpolate(space, f, quad_degree=deg + 6)
    qp, w = space.cell_quadrature(2 * deg + 2)
    vals = fld.eval_cells(np.arange(unit_mesh.num_cells), qp)
    ex = f(qp[..., 0], qp[..., 1])
    if ex.ndim == 2:
        ex = ex[..., None]
    assert np.abs(vals - ex).max() < 1e-12


def test_interpolate_divfree_constant():
    m = build_rect_mesh((0, 1, 0, 1), 4, 4)
    rt2 = FunctionSpace(m, "RT", 2)
    f = lambda x, y: np.stack([np.zeros_like(x), np.ones_like(y)], axis=-1)
    fld = interpolate(rt2, f, quad_degree=8)
    assert _div_l2(fld) < 1e-12


def _div_l2(field):
    sp_ = field.space
    qp, w = sp_.cell_quadrature(2 * sp_.element.degree + 2)
    _, grads = sp_.tabulate_cells(np.arange(sp_.mesh.num_cells), qp, True)
    loc = field.coefficients[sp_.dofmap]
    g = np.einsum("ci,cqikd->cqkd", loc, grads)
    div = g[..., 0, 0] + g[..., 1, 1]
    return np.sqrt(np.sum(div ** 2 * w))


def test_interpolation_quadrature_degree_controls_divergence():
    # trigonometric div-free field (vcurl of sin(2pi x)cos(2pi y)): low-degree
    # edge moments spoil div, high degree restores it to machine precision
    m = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 16, 16)
    rt2 = FunctionSpace(m, "RT", 2)

    def Bdf(x, y):
        return np.stack([-np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
                         -np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)],
                        axis=-1)

    low = interpolate(rt2, Bdf, quad_degree=2)
    high = interpolate(rt2, Bdf, quad_degree=8)
    dlow = _div_l2(low)
    dhigh = _div_l2(high)
    assert dhigh < 1e-10
    assert dlow > 1e-5
    assert dlow / max(dhigh, 1e-16) > 1e4


def test_l2_project_idempotent(unit_mesh):
    rng = np.random.default_rng(3)
    for fam, deg in [("CG", 2), ("RT", 2), ("NED", 1), ("DG", 1)]:
        space = FunctionSpace(unit_mesh, fam, deg)
        fld = Field(space, rng.standard_normal(space.total_dofs))
        proj = l2_project(space, fld)
        assert np.abs(proj.coefficients - fld.coefficients).max() < 1e-10


def test_l2_project_between_spaces_constants(unit_mesh):
    rt = FunctionSpace(unit_mesh, "RT", 2)
    ned = FunctionSpace(unit_mesh, "NED", 2)
    const = interpolate(rt, lambda x, y: np.stack(
        [np.full_like(x, 0.7), np.full_like(x, -0.2)], axis=-1), 8)
    to_ned = l2_project(ned, const)
    back = l2_project(rt, to_ned)
    assert np.abs(back.coefficients - const.coefficients).max() < 1e-10


def test_l2_project_nonexpansive(unit_mesh):
    rng = np.random.default_rng(7)
    rt = FunctionSpace(unit_mesh, "RT", 2)
    ned = FunctionSpace(unit_mesh, "NED", 2)
    Mrt = cell_matrix(rt, rt)
    Mned = cell_matrix(ned, ned)
    f = Field(rt, rng.standard_normal(rt.total_dofs))
    p = l2_project(ned, f)
    nf = np.sqrt(f.coefficients @ (Mrt @ f.coefficients))
    np_ = np.sqrt(p.coefficients @ (Mned @ p.coefficients))
    assert np_ <= nf + 1e-12


def test_complex_maps_exactness(unit_mesh):
    cg = FunctionSpace(unit_mesh, "CG", 2)
    rt = FunctionSpace(unit_mesh, "RT", 2)
    dg = FunctionSpace(unit_mesh, "DG", 1)
    V, D = complex_maps(cg, rt, dg)
    prod = np.abs((D @ V)).max()
    assert prod < 1e-12
    # vcurl of constant CG field vanishes
    const = np.ones(cg.total_dofs)
    assert np.abs(V @ const).max() < 1e-12
    # with B.n = 0 constrained, div maps onto the mean-zero part of DG:
    # rank = dim DG - 1 on a simply connected 2x2 mesh
    m2 = build_rect_mesh((0, 1, 0, 1), 2, 2)
    cg2, rt2, dg2 = (FunctionSpace(m2, f, d)
                     for f, d in [("CG", 2), ("RT", 2), ("DG", 1)])
    _, D2 = complex_maps(cg2, rt2, dg2)
    free = np.setdiff1d(np.arange(rt2.total_dofs), rt2.boundary_dofs())
    rank = np.linalg.matrix_rank(D2.toarray()[:, free], tol=1e-9)
    assert rank == dg2.total_dofs - 1


def test_grad_and_curl_maps(unit_mesh):
    cg = FunctionSpace(unit_mesh, "CG", 1)
    ned = FunctionSpace(unit_mesh, "NED", 1)
    dg = FunctionSpace(unit_mesh, "DG", 0)
    G = grad_to_hcurl(cg, ned)
    C = curl_to_dg(ned, dg)
    assert np.abs((C @ G)).max() < 1e-12


def test_mass_traversal_order_independent(unit_mesh):
    # the dof functionals are global, so assembling from a permuted cell
    # ordering gives the same matrix up to renumbering of cell-interior dofs
    rt = FunctionSpace(unit_mesh, "RT", 2)
    M1 = cell_matrix(rt, rt)
    perm = np.random.default_rng(0).permutation(unit_mesh.num_cells)
    from mhdkit.mesh import Mesh2D
    m2 = Mesh2D(unit_mesh.cells[perm], unit_mesh.cell_coords[perm])
    rt2 = FunctionSpace(m2, "RT", 2)
    M2 = cell_matrix(rt2, rt2)
    npc = rt.element.n_cell
    dofmap = np.arange(rt.total_dofs)
    for new_c, old_c in enumerate(perm):
        for j in range(npc):
            dofmap[rt.cell_offset + old_c * npc + j] = \
                rt2.cell_offset + new_c * npc + j
    import scipy.sparse as sp
    P = sp.coo_matrix((np.ones(rt.total_dofs),
                       (dofmap, np.arange(rt.total_dofs)))).tocsr()
    M2_mapped = P.T @ M2 @ P
    assert np.abs((M1 - M2_mapped)).max() < 1e-13


def test_boundary_dofs(unit_mesh):
    bdm = FunctionSpace(unit_mesh, "BDM", 2)
    top = bdm.boundary_dofs(["top"])
    # 3 moments per boundary edge on the top: 3 edges * 3
    assert len(top) == 9
    cg = FunctionSpace(unit_mesh, "CG", 2)
    allb = cg.boundary_dofs()
    # 12 boundary vertices + 12 boundary edges
    assert len(allb) == 24


def _data(ncomp):
    """g = sin(pi x)(1 + y), of period 2 in x; a second component 2 g."""
    def g(x, y):
        v = np.sin(np.pi * x) * (1.0 + y)
        return v if ncomp == 1 else np.stack([v, 2.0 * v], axis=-1)
    return g


@pytest.mark.parametrize("fam", ["CG", "VCG"])
def test_periodic_dirichlet_data_read_the_true_edge_midpoints(fam):
    # a wrap-around top/bottom edge ends on the representative vertex at
    # x = -1: its midpoint is read in the frame of its cell, not half a
    # period away
    mesh = build_rect_mesh((-1, 1, -1, 1), 6, 5, "right", periodic_x=True)
    space = FunctionSpace(mesh, fam, 2)
    ncomp = space.element.ncomp
    g = _data(ncomp)
    dofs, vals = dirichlet_values(space, g, ["top", "bottom"])
    edges = mesh.edges_with_markers(["top", "bottom"])
    # one representative position per vertex, wrapped into [-1, 1)
    pos = np.empty((mesh.num_vertices, 2))
    pos[mesh.cells] = mesh.cell_coords
    pos[:, 0] -= 2.0 * (pos[:, 0] > 1.0 - 1e-12)
    ends = pos[mesh.edges[edges]]
    dx = ends[:, 1, 0] - ends[:, 0, 0]
    ends[:, 1, 0] -= 2.0 * np.round(dx / 2.0)     # unwrap across the period
    assert np.any(np.abs(dx) > 1.0)
    expect = np.full(space.total_dofs, np.nan)
    gm = g(*ends.mean(axis=1).T).reshape(len(edges), ncomp)
    for j in range(ncomp):
        expect[space.edge_offset + edges * ncomp + j] = gm[:, j]
    got = dict(zip(dofs, vals))
    edge_dofs = [d for d in dofs if d >= space.edge_offset]
    assert len(edge_dofs) == 12 * ncomp
    assert max(abs(got[d] - expect[d]) for d in edge_dofs) < 1e-14


@pytest.mark.parametrize("fam,deg", sorted(SUPPORTED))
@pytest.mark.parametrize("markers", [None, ["top", "bottom"]])
def test_dirichlet_values_are_the_interpolant_on_the_boundary(fam, deg,
                                                              markers,
                                                              unit_mesh):
    space = FunctionSpace(unit_mesh, fam, deg)
    g = _data(space.element.ncomp)
    dofs, vals = dirichlet_values(space, g, markers)
    assert np.array_equal(dofs, space.boundary_dofs(markers))
    ref = interpolate(space, g).coefficients[dofs]
    assert np.abs(vals - ref).max(initial=0.0) < 1e-14


def test_pointwise_data_must_put_the_points_first(unit_mesh):
    vcg = FunctionSpace(unit_mesh, "VCG", 1)
    with pytest.raises(ValueError, match="leading axis"):
        interpolate(vcg, lambda x, y: np.stack([x, y]))
    with pytest.raises(ValueError, match="leading axis"):
        dirichlet_values(vcg, lambda x, y: 1.0)


def test_tabulate_module_level():
    pts = np.array([[0.25, 0.25]])
    vals = ReferenceElement("CG", 1).tabulate(pts)
    assert np.allclose(vals[:, :, 0].sum(), 1.0)


def _scaled(space, cells, pts):
    """Scaled local coordinates (x - centroid) / h of the cells."""
    return ((pts - space.mesh.cell_centers[cells][:, None, :])
            / space.mesh.cell_scale[cells][:, None, None])


def _scaled_monomial_coeff(space):
    """Per-cell coefficients of the basis in monomials of the scaled local
    coordinates: the construction the shared reference tables replaced."""
    el = space.element
    pts, wts = space.dual_points_weights()
    sm, _ = scalar_monomials(_scaled(space, np.arange(len(pts)), pts),
                             el.dmax)
    D = np.einsum("cqik,vks,cqs->civ", wts, el.vmono, sm)
    return np.linalg.inv(D).transpose(0, 2, 1)


def _scaled_monomial_tabulation(space, cells, pts, coeff=None):
    """Basis values (n, nq, nloc, ncomp) and gradients at physical points
    through the scaled monomials, by chained einsums: the reference for the
    shared-table evaluation and for FunctionSpace.tabulate_cells."""
    el = space.element
    if coeff is None:
        coeff = _scaled_monomial_coeff(space)
    sm, smg = scalar_monomials(_scaled(space, cells, pts), el.dmax, True)
    coeff = coeff[cells]
    vals = np.einsum("civ,cqvk->cqik", coeff,
                     np.einsum("vks,cqs->cqvk", el.vmono, sm))
    grads = np.einsum("civ,cqvkd->cqikd", coeff,
                      np.einsum("vks,cqsd->cqvkd", el.vmono, smg))
    h = space.mesh.cell_scale[cells]
    return vals, grads / h[:, None, None, None, None]


def _close(a, ref, rtol=1e-13):
    return a.shape == ref.shape and (np.abs(a - ref).max()
                                     <= rtol * np.abs(ref).max())


@pytest.mark.parametrize("fam,deg", ALL_FAMILIES)
def test_tabulate_cells_matches_einsum_reference(fam, deg, unit_mesh):
    space = FunctionSpace(unit_mesh, fam, deg)
    pts, _ = space.cell_quadrature(5)
    # cells out of order, as facet traces and transfers pass them
    cells = np.arange(unit_mesh.num_cells)[::-1]
    pts = pts[::-1]
    vals, grads = space.tabulate_cells(cells, pts, grad=True)
    ref_vals, ref_grads = _scaled_monomial_tabulation(space, cells, pts)
    assert _close(vals, ref_vals) and _close(grads, ref_grads)
    only_vals, none = space.tabulate_cells(cells, pts)
    assert none is None and np.array_equal(only_vals, vals)


def test_optimised_kernels_match_plain_einsum(monkeypatch):
    # the transfer and SIPG kernels contract with einsum(optimize=True);
    # plain einsum, one naive loop per call, is the reference
    hierarchy = refine_uniform(build_rect_mesh((0, 1, 0, 1), 2, 2), 1)

    def kernels():
        coarse, fine = (FunctionSpace(m, "BDM", 2) for m in hierarchy.levels)
        P = build_transfer(coarse, fine, hierarchy.cell_children[0])
        A, rhs = sipg_viscous(
            fine, nu=0.7, dirichlet_markers=["left", "bottom"],
            g_d=lambda x, y: np.stack([1 + x * y, x - y * y], axis=-1))
        return P.toarray(), A.toarray(), rhs

    optimised = kernels()
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *operands, optimize=False,
                        **kwargs: einsum(*operands, **kwargs))
    for a, ref in zip(optimised, kernels()):
        assert _close(a, ref)


# -- the shared reference tables against the scaled-monomial basis -----------

COVERAGE_MESHES = {
    # both edge orientations occur on each; the periodic mesh has cells
    # whose frames are unwrapped across x = +-1
    "right": lambda: build_rect_mesh((0, 1, 0, 1), 3, 2, "right"),
    "crossed": lambda: build_rect_mesh((0, 2, -1, 0), 2, 2, "crossed"),
    "periodic_x": lambda: build_rect_mesh((-1, 1, -1, 1), 4, 2,
                                          periodic_x=True),
}


def _ops(space):
    scalar = space.element.ncomp == 1
    return ("val", "grad") + (("vcurl",) if scalar else ("div", "curl"))


def _reference_op(vals, grads, op):
    """op of reference basis values and gradients, from the gradients."""
    if op == "val":
        return vals
    if op == "grad":
        return grads.reshape(grads.shape[:-2] + (-1,))
    if op == "div":
        return (grads[..., 0, 0] + grads[..., 1, 1])[..., None]
    if op == "curl":
        return (grads[..., 1, 0] - grads[..., 0, 1])[..., None]
    return np.stack([grads[..., 0, 1], -grads[..., 0, 0]], axis=-1)


def _per_basis(basis, n, nloc):
    """op of each basis function through the shared-table evaluation:
    (n, nq, nloc, C)."""
    return np.stack([basis.evaluate(np.broadcast_to(e, (n, nloc)))
                     for e in np.eye(nloc)], axis=2)


def _facet_points(mesh, fd, qdeg):
    """Physical Gauss points (ne, nq, 2) of the interior facets in the
    frames of their plus and minus cells, and of the boundary facets."""
    t = gauss_interval(qdeg).points[None, :, None]
    sides = []
    for s in range(2):
        cells = fd.int_cells[:, s]
        ends = [mesh.cell_edge_points[mesh.edge_cells[fd.int_edges, side],
                                      mesh.edge_local[fd.int_edges, side]]
                for side in range(2)]
        first = (mesh.edge_cells[fd.int_edges, 0] == cells)[:, None, None]
        e = np.where(first, ends[0], ends[1])
        sides.append(e[:, None, 0] * (1 - t) + e[:, None, 1] * t)
    return sides, fd.bdry_pts


def _close_rel(a, ref, rtol=1e-12):
    return a.shape == ref.shape and (np.abs(a - ref).max()
                                     <= rtol * np.abs(ref).max())


@pytest.mark.parametrize("mesh_name", list(COVERAGE_MESHES))
@pytest.mark.parametrize("fam,deg", sorted(SUPPORTED))
def test_dual_functionals_invert_the_basis(fam, deg, mesh_name):
    space = FunctionSpace(COVERAGE_MESHES[mesh_name](), fam, deg)
    pts, wts = space.dual_points_weights()
    vals, _ = space.tabulate_cells(np.arange(len(pts)), pts)
    D = np.einsum("cqik,cqjk->cij", wts, vals)
    assert np.abs(D - np.eye(space.element.nloc)).max() < 1e-12


@pytest.mark.parametrize("mesh_name", list(COVERAGE_MESHES))
@pytest.mark.parametrize("fam,deg", sorted(SUPPORTED))
def test_shared_tables_reproduce_the_scaled_monomial_basis(fam, deg,
                                                           mesh_name):
    # values, gradients and the derivative operators at cell quadrature and
    # at the facet points of both sides, through the shared reference
    # tables, against the per-cell scaled-monomial tabulation
    mesh = COVERAGE_MESHES[mesh_name]()
    space = FunctionSpace(mesh, fam, deg)
    coeff = _scaled_monomial_coeff(space)
    nloc = space.element.nloc
    qdeg = 5
    fd = facet_data(mesh, qdeg)
    int_pts, bdry_pts = _facet_points(mesh, fd, qdeg)
    pts, _ = space.cell_quadrature(qdeg)
    sets = [(None, None, np.arange(mesh.num_cells), pts),
            (fd.int_cells[:, 0], fd.int_var[0], fd.int_cells[:, 0],
             int_pts[0]),
            (fd.int_cells[:, 1], fd.int_var[1], fd.int_cells[:, 1],
             int_pts[1]),
            (fd.bdry_cells, fd.bdry_var, fd.bdry_cells, bdry_pts)]
    for cells, var, ref_cells, ref_pts in sets:
        ref = _scaled_monomial_tabulation(space, ref_cells, ref_pts, coeff)
        if cells is None:
            got = space.tabulate_cells(ref_cells, ref_pts, grad=True)
            assert _close_rel(got[0], ref[0]) and _close_rel(got[1], ref[1])
        for op in _ops(space):
            basis = _Basis(space, op, qdeg, cells, var)
            assert _close_rel(_per_basis(basis, len(ref_cells), nloc),
                              _reference_op(*ref, op))


def test_reference_table_points_are_the_facet_points():
    # the CG1 prime basis is (1, x, y), so its table gives the points:
    # variant 2 le + d runs along local edge le from its first vertex
    # (d = 0) or from its second (d = 1)
    vals, _ = reference_table("CG", 1, 3, facet=True)
    xi = vals[..., 1:, 0]
    t = gauss_interval(3).points[:, None]
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for le, (a, b) in enumerate([(1, 2), (0, 2), (0, 1)]):
        assert np.allclose(xi[2 * le], ref[a] * (1 - t) + ref[b] * t)
        assert np.allclose(xi[2 * le + 1], ref[b] * (1 - t) + ref[a] * t)
    with pytest.raises(ValueError):
        vals[0, 0, 0, 0] = 1.0
