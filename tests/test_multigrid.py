import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.mesh import build_rect_mesh, refine_uniform
from mhdkit.elements import FunctionSpace, interpolate, complex_maps
from mhdkit.assembly import cell_matrix, constrain_matrix
from mhdkit import multigrid
from mhdkit.multigrid import (build_transfer, star_patches, PatchSmoother,
                              MgHierarchy, GeometricMultigrid)
from mhdkit.linalg import fgmres


def _mg_hierarchy(hierarchy, specs, bc_markers):
    """MgHierarchy over new (family, degree) spaces on the finest mesh."""
    return MgHierarchy(hierarchy, [FunctionSpace(hierarchy.finest, f, d)
                                   for f, d in specs], bc_markers)


def _star_patches_loop(spaces, constrained=None):
    """Per-vertex loop form of star_patches, kept as its reference."""
    mesh = spaces[0].mesh
    nv = mesh.num_vertices
    v2e = [[] for _ in range(nv)]
    for e, (a, b) in enumerate(mesh.edges):
        v2e[a].append(e)
        v2e[b].append(e)
    v2c = [[] for _ in range(nv)]
    for c, vs in enumerate(mesh.cells):
        for v in vs:
            v2c[v].append(c)
    offsets = np.cumsum([0] + [s.total_dofs for s in spaces])
    mask = np.ones(offsets[-1], dtype=bool)
    if constrained is not None and len(constrained):
        mask[np.asarray(constrained, dtype=np.int64)] = False
    patches = []
    for v in range(nv):
        idx = []
        for k, s in enumerate(spaces):
            el = s.element
            off = offsets[k]
            idx.extend(off + s.vertex_offset + v * el.n_vertex + j
                       for j in range(el.n_vertex))
            for e in v2e[v]:
                idx.extend(off + s.edge_offset + e * el.n_edge + j
                           for j in range(el.n_edge))
            for c in v2c[v]:
                idx.extend(off + s.cell_offset + c * el.n_cell + j
                           for j in range(el.n_cell))
        arr = np.array(sorted(set(idx)), dtype=np.int64)
        arr = arr[mask[arr]]
        if len(arr):
            patches.append(arr)
    return patches


def _patch_solve_loop(A, patches, r):
    """sum_p R_p^T A_p^{-1} R_p r, one block extraction and inverse per
    patch (the smoother's arithmetic, summed in another order)."""
    A = A.tocsr()
    x = np.zeros_like(r)
    for p in patches:
        x[p] += np.linalg.inv(A[p][:, p].toarray()) @ r[p]
    return x


@pytest.fixture(scope="module")
def hierarchy():
    return refine_uniform(build_rect_mesh((0, 1, 0, 1), 4, 4), 2)


def test_transfer_constants(hierarchy):
    coarse = FunctionSpace(hierarchy.levels[0], "CG", 2)
    fine = FunctionSpace(hierarchy.levels[1], "CG", 2)
    P = build_transfer(coarse, fine, hierarchy.cell_children[0])
    ones = np.ones(coarse.total_dofs)
    assert np.abs(P @ ones - 1.0).max() < 1e-12


def test_transfer_polynomial_exact(hierarchy):
    # any coarse member is reproduced exactly on the fine level
    for fam, deg in [("CG", 2), ("BDM", 2), ("RT", 2), ("NED", 1),
                     ("DG", 1)]:
        coarse = FunctionSpace(hierarchy.levels[0], fam, deg)
        fine = FunctionSpace(hierarchy.levels[1], fam, deg)
        P = build_transfer(coarse, fine, hierarchy.cell_children[0])
        rng = np.random.default_rng(1)
        xc = rng.standard_normal(coarse.total_dofs)
        xf = P @ xc
        qp, w = fine.cell_quadrature(4)
        from mhdkit.elements import Field
        vf = Field(fine, xf).eval_cells(np.arange(fine.mesh.num_cells), qp)
        # evaluate coarse field at the same physical points via parent cells
        child = hierarchy.cell_children[0]
        parent = np.empty(fine.mesh.num_cells, dtype=int)
        for c, ch in enumerate(child):
            parent[ch] = c
        vc = Field(coarse, xc).eval_cells(parent, qp)
        assert np.abs(vf - vc).max() < 1e-10


def test_transfer_divfree_preserved(hierarchy):
    coarse_cg = FunctionSpace(hierarchy.levels[0], "CG", 2)
    coarse_rt = FunctionSpace(hierarchy.levels[0], "RT", 2)
    coarse_dg = FunctionSpace(hierarchy.levels[0], "DG", 1)
    V, _ = complex_maps(coarse_cg, coarse_rt, coarse_dg)
    fine_rt = FunctionSpace(hierarchy.levels[1], "RT", 2)
    fine_cg = FunctionSpace(hierarchy.levels[1], "CG", 2)
    fine_dg = FunctionSpace(hierarchy.levels[1], "DG", 1)
    _, Df = complex_maps(fine_cg, fine_rt, fine_dg)
    P = build_transfer(coarse_rt, fine_rt, hierarchy.cell_children[0])
    rng = np.random.default_rng(2)
    e = rng.standard_normal(coarse_cg.total_dofs)
    divfree_coarse = V @ e
    fine_field = P @ divfree_coarse
    assert np.abs(Df @ fine_field).max() < 1e-10


def test_patch_union_covers_free_dofs(hierarchy):
    mesh = hierarchy.levels[0]
    rt = FunctionSpace(mesh, "RT", 2)
    cg = FunctionSpace(mesh, "CG", 2)
    con = np.concatenate([cg.boundary_dofs(),
                          cg.total_dofs + rt.boundary_dofs()])
    patches = star_patches((cg, rt), con)
    covered = np.zeros(cg.total_dofs + rt.total_dofs, dtype=bool)
    for p in patches:
        covered[p] = True
    free = np.ones(len(covered), dtype=bool)
    free[con] = False
    assert np.all(covered[free])


def _spaces_and_constraints(mesh, fields):
    spaces = tuple(FunctionSpace(mesh, fam, deg) for fam, deg in fields)
    offs = np.cumsum([0] + [s.total_dofs for s in spaces])
    con = np.concatenate([off + s.boundary_dofs()
                          for off, s in zip(offs, spaces)])
    return spaces, con


@pytest.mark.parametrize("fields", [[("CG", 1)], [("CG", 2), ("RT", 2)],
                                    [("BDM", 2)]],
                         ids=["CG1", "CG2-RT2", "BDM2"])
def test_star_patches_match_loop_reference(hierarchy, fields):
    spaces, con = _spaces_and_constraints(hierarchy.levels[0], fields)
    for constrained in (None, con):
        got = star_patches(spaces, constrained)
        ref = _star_patches_loop(spaces, constrained)
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert g.dtype == np.int64
            assert np.array_equal(g, r)


def _em_system(spaces, con):
    # nonsymmetric (E, B)-type coupling: [[M, -K^T], [K, M + div div]]
    cg, rt = spaces
    K = cell_matrix(rt, cg, "val", "vcurl")
    A = sp.bmat([[cell_matrix(cg, cg), -K.T],
                 [K, cell_matrix(rt, rt) + cell_matrix(rt, rt, "div", "div")]],
                format="csr")
    return constrain_matrix(A, con)


def _graddiv_constrained(spaces, con):
    _, A = _graddiv_system(spaces[0].mesh, 1e2)
    return constrain_matrix(A, con)


@pytest.mark.parametrize("fields,system",
                         [([("CG", 2), ("RT", 2)], _em_system),
                          ([("BDM", 2)], _graddiv_constrained)],
                         ids=["CG2-RT2", "BDM2"])
def test_patch_smoother_matches_loop_reference(hierarchy, fields, system):
    spaces, con = _spaces_and_constraints(hierarchy.levels[1], fields)
    A = system(spaces, con)
    patches = star_patches(spaces, con)
    sm = PatchSmoother(patches)
    sm.setup(A)
    r = np.random.default_rng(6).standard_normal(A.shape[0])
    ref = _patch_solve_loop(A, patches, r)
    assert np.linalg.norm(sm.apply(r) - ref) <= 1e-13 * np.linalg.norm(ref)
    # scaling by a power of two is exact
    assert np.array_equal(sm.apply(r, omega=0.5), 0.5 * sm.apply(r))


def test_patch_smoother_singular_block_regularised(caplog):
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    cg = FunctionSpace(m, "CG", 2)
    A = (cell_matrix(cg, cg, "grad", "grad") + cell_matrix(cg, cg)).tolil()
    # a zero row and column make every patch block holding dof 5 singular
    A[5, :] = 0.0
    A[:, 5] = 0.0
    sm = PatchSmoother(star_patches((cg,)))
    with caplog.at_level("WARNING", logger="mhdkit.multigrid"):
        sm.setup(A.tocsr())
    assert "singular patch block" in caplog.text
    r = np.random.default_rng(7).standard_normal(cg.total_dofs)
    assert np.all(np.isfinite(sm.apply(r)))


def test_patch_smoother_zero_residual():
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    cg = FunctionSpace(m, "CG", 1)
    A = cell_matrix(cg, cg, "grad", "grad") + cell_matrix(cg, cg)
    patches = star_patches((cg,))
    sm = PatchSmoother(patches)
    sm.setup(A)
    assert np.abs(sm.apply(np.zeros(cg.total_dofs))).max() == 0.0


def test_single_patch_exact_solve():
    # one interior vertex: its star covers the whole mesh, so one application
    # solves the constrained problem exactly
    m = build_rect_mesh((0, 1, 0, 1), 2, 2)
    cg = FunctionSpace(m, "CG", 1)
    con = cg.boundary_dofs()
    A = constrain_matrix(
        cell_matrix(cg, cg, "grad", "grad") + cell_matrix(cg, cg), con)
    patches = star_patches((cg,), con)
    assert len(patches) == 1 and len(patches[0]) == 1
    sm = PatchSmoother(patches)
    sm.setup(A)
    rng = np.random.default_rng(0)
    b = rng.standard_normal(cg.total_dofs)
    b[con] = 0.0
    x = sm.apply(b, omega=1.0)
    assert np.abs((A @ x - b)[np.setdiff1d(np.arange(cg.total_dofs), con)]
                  ).max() < 1e-12


def test_no_star_patches_on_the_coarse_level(hierarchy, monkeypatch):
    # the coarsest level is solved by LU and never smoothed
    calls = []

    def counted(*args):
        calls.append(1)
        return star_patches(*args)

    monkeypatch.setattr(multigrid, "star_patches", counted)
    ctx = _mg_hierarchy(hierarchy, [("CG", 2), ("RT", 2)], ["all", "all"])
    assert len(calls) == ctx.nlevels - 1 == 2


def test_vcycle_zero_maps_to_zero(hierarchy):
    ctx = _mg_hierarchy(hierarchy, [("CG", 1)], ["all"])
    cg = ctx.fine_spaces[0]
    A = constrain_matrix(cell_matrix(cg, cg, "grad", "grad"),
                         ctx.constrained[-1])
    mg = GeometricMultigrid(ctx).setup(A)
    out = mg.apply(np.zeros(cg.total_dofs))
    assert np.abs(out).max() == 0.0


def test_poisson_vcycle_contraction():
    hier = refine_uniform(build_rect_mesh((0, 1, 0, 1), 4, 4), 2)
    ctx = _mg_hierarchy(hier, [("CG", 1)], ["all"])
    cg = ctx.fine_spaces[0]
    con = ctx.constrained[-1]
    A = constrain_matrix(cell_matrix(cg, cg, "grad", "grad"), con)
    mg = GeometricMultigrid(ctx).setup(A)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(cg.total_dofs)
    b[con] = 0.0
    x = np.zeros_like(b)
    r0 = np.linalg.norm(b)
    rates = []
    for _ in range(3):
        x = mg.vcycle(ctx.nlevels - 1, b, x)
        r = np.linalg.norm(b - A @ x)
        rates.append(r / r0)
        r0 = r
    assert rates[-1] < 0.2


def test_vcycle_deterministic(hierarchy):
    ctx = _mg_hierarchy(hierarchy, [("CG", 1)], ["all"])
    cg = ctx.fine_spaces[0]
    A = constrain_matrix(cell_matrix(cg, cg, "grad", "grad"),
                         ctx.constrained[-1])
    mg = GeometricMultigrid(ctx).setup(A)
    rng = np.random.default_rng(4)
    r = rng.standard_normal(cg.total_dofs)
    assert np.array_equal(mg.apply(r), mg.apply(r))


def test_poisson_h_independence(monkeypatch):
    # measured with a deliberately weak smoother (2 GMRES iterations) so the
    # contraction factor sits well above round-off and is comparable across
    # hierarchy depths
    monkeypatch.setattr(multigrid, "SMOOTH_ITERS", 2)
    rates = []
    for lev in (2, 4):
        hier = refine_uniform(build_rect_mesh((0, 1, 0, 1), 2, 2), lev)
        ctx = _mg_hierarchy(hier, [("CG", 1)], ["all"])
        cg = ctx.fine_spaces[0]
        con = ctx.constrained[-1]
        A = constrain_matrix(cell_matrix(cg, cg, "grad", "grad"), con)
        mg = GeometricMultigrid(ctx).setup(A)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(cg.total_dofs)
        b[con] = 0.0
        x = np.zeros_like(b)
        rprev = np.linalg.norm(b)
        rho = []
        for _ in range(4):
            x = mg.vcycle(ctx.nlevels - 1, b, x)
            rn = np.linalg.norm(b - A @ x)
            rho.append(rn / rprev)
            rprev = rn
        rates.append(np.max(rho[1:]))
    assert abs(rates[1] - rates[0]) <= 0.25 * max(rates)


def _graddiv_system(mesh, gamma):
    bdm = FunctionSpace(mesh, "BDM", 2)
    from mhdkit.assembly import EPS_CONTRACTION
    A = (gamma * cell_matrix(bdm, bdm, "div", "div")
         + cell_matrix(bdm, bdm))
    return bdm, A


def test_graddiv_kernel_contraction_gamma_robust():
    # smoother contraction on discretely div-free fields varies little over
    # four orders of magnitude in gamma (operational kernel decomposition)
    mesh = build_rect_mesh((0, 1, 0, 1), 8, 8)
    cg = FunctionSpace(mesh, "CG", 2)
    rt = FunctionSpace(mesh, "RT", 2)
    dg = FunctionSpace(mesh, "DG", 1)
    V, _ = complex_maps(cg, rt, dg)
    con = rt.boundary_dofs()
    cgcon = cg.boundary_dofs()
    free_stream = np.setdiff1d(np.arange(cg.total_dofs), cgcon)
    rng = np.random.default_rng(3)
    e = np.zeros(cg.total_dofs)
    e[free_stream] = rng.standard_normal(len(free_stream))
    kernel_field = V @ e  # div-free, zero normal trace
    rates = []
    for gamma in (1.0, 1e2, 1e4):
        A = constrain_matrix(gamma * cell_matrix(rt, rt, "div", "div")
                             + cell_matrix(rt, rt), con)
        patches = star_patches((rt,), con)
        sm = PatchSmoother(patches)
        sm.setup(A)
        x = kernel_field.copy()
        # error-propagation: e <- (I - omega sum R^T A_i^-1 R A) e
        for _ in range(1):
            x = x - sm.apply(A @ x, omega=0.5)
        num = np.sqrt(x @ (A @ x))
        den = np.sqrt(kernel_field @ (A @ kernel_field))
        rates.append(num / den)
    rates = np.array(rates)
    assert np.all(rates < 0.9)
    assert rates.max() - rates.min() <= 0.2 * rates.max()


def test_patch_residual_reduction_on_kernel():
    # one sweep reduces the patch-projected residual of a div-free field by
    # a healthy factor at every gamma
    mesh = build_rect_mesh((0, 1, 0, 1), 8, 8)
    cg = FunctionSpace(mesh, "CG", 2)
    rt = FunctionSpace(mesh, "RT", 2)
    dg = FunctionSpace(mesh, "DG", 1)
    V, _ = complex_maps(cg, rt, dg)
    con = rt.boundary_dofs()
    cgcon = cg.boundary_dofs()
    rng = np.random.default_rng(5)
    e = np.zeros(cg.total_dofs)
    free = np.setdiff1d(np.arange(cg.total_dofs), cgcon)
    e[free] = rng.standard_normal(len(free))
    z = V @ e
    for gamma in (1.0, 1e2, 1e4):
        A = constrain_matrix(gamma * cell_matrix(rt, rt, "div", "div")
                             + cell_matrix(rt, rt), con)
        sm = PatchSmoother(star_patches((rt,), con))
        sm.setup(A)
        b = A @ z
        x = np.zeros_like(z)
        for _ in range(4):
            res = fgmres(A, b, M=sm.apply, x0=x, rtol=0.0, atol=0.0,
                         restart=6, maxiter=6)
            x = res.x
        r = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert r < 0.1


class _CountingOperator:
    """A matrix whose products are counted."""

    def __init__(self, A):
        self.A = A
        self.calls = 0

    def __matmul__(self, v):
        self.calls += 1
        return self.A @ v


def _vcycle_reference(mg, lv, b, x):
    """The V-cycle that started every smoothing from an explicit zero
    vector, kept as the reference for the zero-start one."""
    if lv == 0:
        return mg.coarse_lu.solve(b)

    def smooth(x):
        return fgmres(mg.matrices[lv], b, M=mg.smoothers[lv - 1].apply,
                      x0=x, rtol=0.0, atol=0.0,
                      restart=multigrid.SMOOTH_ITERS,
                      maxiter=multigrid.SMOOTH_ITERS).x

    x = smooth(x)
    P = mg.ctx.transfers[lv - 1]
    rc = P.T @ (b - mg.matrices[lv] @ x)
    xc = _vcycle_reference(mg, lv - 1, rc, np.zeros_like(rc))
    return smooth(x + P @ xc)


def test_zero_start_vcycle_is_bitwise_the_reference(hierarchy):
    ctx = _mg_hierarchy(hierarchy, [("CG", 2), ("RT", 2)], ["all", "all"])
    A = _em_system(ctx.fine_spaces, ctx.constrained[-1])
    mg = GeometricMultigrid(ctx).setup(A)
    r = np.random.default_rng(5).standard_normal(A.shape[0])
    ref = _vcycle_reference(mg, ctx.nlevels - 1, r, np.zeros_like(r))
    counted = [_CountingOperator(M) for M in mg.matrices]
    mg.matrices = counted
    out = mg.apply(r)
    assert np.array_equal(out, ref)
    # per smoothed level: 6 + (1 + 6) smoother products and one residual;
    # no A @ 0 and no final residual of a spent smoother budget
    assert [c.calls for c in counted] == [0] + [14] * (ctx.nlevels - 1)


def test_chunked_patch_inverses_are_bitwise_unchunked(monkeypatch):
    # the fine levels of the hartmann preconditioner (4x4, levels=1): the
    # patches are gathered and inverted in chunks, each block on its own
    from mhdkit import problems
    from mhdkit.precond import field_indices

    spec = problems.make_problem("hartmann", levels=1, mesh_base=(4, 4))
    model = spec.model
    pc = spec.make_precond()
    A, _ = model.jacobian(model.initial_state().vector)
    for ctx, fields in ((pc.vel_ctx, ("u",)), (pc.em_ctx, ("E", "B"))):
        idx = field_indices(model.state_template, fields)
        block = A[idx][:, idx].tocsr()
        inverses = []
        for chunk in (7, 10 ** 9):
            monkeypatch.setattr(multigrid, "PATCH_CHUNK", chunk)
            sm = PatchSmoother(ctx.patches[-1])
            sm.setup(block)
            inverses.append(sm._inv)
        assert max(len(g) for g in sm.group_idx) > 7
        assert all(np.array_equal(a, b) for a, b in zip(*inverses))
