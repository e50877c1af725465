import gc
from math import factorial

import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.mesh import Mesh2D, build_rect_mesh
from mhdkit.elements import (FunctionSpace, Field, interpolate, complex_maps,
                             dirichlet_values)
from mhdkit.quadrature import triangle_rule
from mhdkit.assembly import (cell_matrix, cell_vector,
                             upwind_advection_residual,
                             EPS_CONTRACTION, facet_data)

from facet_matrices import (burman_stabilisation, sipg_viscous,
                            upwind_advection_matrix)


def apply_bcs(A, b, constrained, values=None):
    """Symmetric elimination: zero rows/cols of constrained dofs, unit
    diagonal, and lift the right-hand side by A[:, c] g_c so interior
    equations see the boundary data; b[c] = g_c afterwards."""
    constrained = np.asarray(constrained, dtype=np.int64)
    n = A.shape[0]
    if values is None:
        values = np.zeros(len(constrained))
    g = np.zeros(n)
    g[constrained] = values
    b = b - A @ g
    mask = np.ones(n)
    mask[constrained] = 0.0
    D = sp.diags(mask)
    A = D @ A @ D
    one = np.zeros(n)
    one[constrained] = 1.0
    A = (A + sp.diags(one)).tocsr()
    b[constrained] = values
    return A, b


def monomial_integral_triangle(a, b):
    """Exact value of the integral of x^a y^b over the reference triangle."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def test_quadrature_exactness():
    for deg in range(0, 13):
        rule = triangle_rule(deg)
        for a in range(deg + 1):
            for b in range(deg + 1 - a):
                val = np.sum(rule.weights * rule.points[:, 0] ** a
                             * rule.points[:, 1] ** b)
                assert abs(val - monomial_integral_triangle(a, b)) < 1e-13


def test_dg0_mass_is_cell_areas():
    m = build_rect_mesh((0, 1, 0, 1), 1, 1)
    dg0 = FunctionSpace(m, "DG", 0)
    M = cell_matrix(dg0, dg0).toarray()
    assert np.allclose(M, np.diag([0.5, 0.5]))


def test_cg1_stiffness_rowsums_zero():
    m = build_rect_mesh((0, 1, 0, 1), 4, 3)
    cg1 = FunctionSpace(m, "CG", 1)
    K = cell_matrix(cg1, cg1, "grad", "grad")
    assert np.abs(K @ np.ones(cg1.total_dofs)).max() < 1e-12


def test_divdiv_vanishes_on_vcurl_image():
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    cg = FunctionSpace(m, "CG", 2)
    rt = FunctionSpace(m, "RT", 2)
    dg = FunctionSpace(m, "DG", 1)
    V, _ = complex_maps(cg, rt, dg)
    K = cell_matrix(rt, rt, "div", "div")
    rng = np.random.default_rng(1)
    e = rng.standard_normal(cg.total_dofs)
    assert np.abs(K @ (V @ e)).max() < 1e-11


def test_adjoint_consistency_mixed_div():
    m = build_rect_mesh((0, 1, 0, 1), 3, 2)
    bdm = FunctionSpace(m, "BDM", 2)
    dg = FunctionSpace(m, "DG", 1)
    A = cell_matrix(bdm, dg, "div", "val")    # (p, div v): test v
    B = cell_matrix(dg, bdm, "val", "div")    # (div u, q): test q
    assert np.abs((A - B.T)).max() < 1e-13


def test_symmetric_kernels():
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    for fam, deg, op, w in [("CG", 2, "grad", None), ("RT", 2, "div", None),
                            ("BDM", 2, "grad", EPS_CONTRACTION)]:
        space = FunctionSpace(m, fam, deg)
        A = cell_matrix(space, space, op, op, weight=w)
        scale = np.abs(A).max()
        assert np.abs((A - A.T)).max() < 1e-12 * scale


def test_sipg_consistency_on_linear_solution():
    # a linear velocity solves the homogeneous viscous problem: the full DG
    # operator (volume eps:eps + all facet terms + Dirichlet data terms)
    # annihilates its interpolant
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    bdm = FunctionSpace(m, "BDM", 2)
    lin = lambda x, y: np.stack([1 + 2 * x - y, x + y], axis=-1)
    nu = 0.7
    Avol = 2 * nu * cell_matrix(bdm, bdm, "grad", "grad",
                                weight=EPS_CONTRACTION)
    Afac, rhs = sipg_viscous(bdm, nu=nu, sym=True,
                             dirichlet_markers=["left", "right", "top",
                                                "bottom"], g_d=lin)
    f = interpolate(bdm, lin, 8)
    r = (Avol + Afac) @ f.coefficients - rhs
    assert np.abs(r).max() < 1e-10


def test_sipg_penalty_value():
    # sigma defaults to 10 k^2 = 40 for k = 2, and the form is affine in sigma
    m = build_rect_mesh((0, 1, 0, 1), 2, 2)
    bdm = FunctionSpace(m, "BDM", 2)
    a_def, _ = sipg_viscous(bdm, nu=1.0)
    a_40, _ = sipg_viscous(bdm, nu=1.0, sigma=40.0)
    a_80, _ = sipg_viscous(bdm, nu=1.0, sigma=80.0)
    a_120, _ = sipg_viscous(bdm, nu=1.0, sigma=120.0)
    assert np.abs((a_def - a_40)).max() == 0.0
    scale = np.abs(a_120).max()
    assert np.abs(((a_120 - a_80) - (a_80 - a_40))).max() < 1e-12 * scale


def test_upwind_zero_wind():
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    bdm = FunctionSpace(m, "BDM", 2)
    zero = Field(bdm)
    A = upwind_advection_matrix(bdm, zero)
    assert (np.abs(A).max() if A.nnz else 0.0) == 0.0
    r = upwind_advection_residual(bdm, zero)
    assert np.abs(r).max() == 0.0


def test_upwind_jacobian_matches_fd():
    m = build_rect_mesh((0, 1, 0, 1), 2, 2)
    bdm = FunctionSpace(m, "BDM", 2)
    rng = np.random.default_rng(4)
    u0 = 0.5 + 0.1 * rng.standard_normal(bdm.total_dofs)
    u = Field(bdm, u0)
    J = upwind_advection_matrix(bdm, u, dirichlet_markers=["left", "top"],
                                g_d=lambda x, y: np.stack(
                                    [np.ones_like(x), 0 * y], axis=-1))
    h = 1e-6
    cols = rng.choice(bdm.total_dofs, size=12, replace=False)
    for c in cols:
        up = u0.copy()
        um = u0.copy()
        up[c] += h
        um[c] -= h
        args = dict(dirichlet_markers=["left", "top"],
                    g_d=lambda x, y: np.stack([np.ones_like(x), 0 * y],
                                              axis=-1))
        rp = upwind_advection_residual(bdm, Field(bdm, up), **args)
        rm = upwind_advection_residual(bdm, Field(bdm, um), **args)
        fd = (rp - rm) / (2 * h)
        col = np.asarray(J[:, c].todense()).ravel()
        denom = max(np.abs(fd).max(), 1.0)
        assert np.abs(col - fd).max() / denom < 1e-5


def test_upwind_single_facet_block():
    # one vertical interior facet, constant rightward wind u = (1,0), normal
    # n = (1,0): the derivative of the upwind flux pairs jumps as
    # [v] . ([du] + ([du].n) u), i.e. |u.n| facet mass plus a normal-normal
    # mass on jump traces -- verified against a dense quadrature oracle over
    # the dofs of both cells
    verts = np.array([[0., 0.], [1., 0.], [1., 1.], [2., 0.]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    m = Mesh2D(cells, verts[cells])
    m.mark_boundary()
    bdm = FunctionSpace(m, "BDM", 1)
    wind = interpolate(bdm, lambda x, y: np.stack(
        [np.ones_like(x), np.zeros_like(y)], axis=-1), 6)
    A = upwind_advection_matrix(bdm, wind)
    from mhdkit.quadrature import gauss_interval
    rule = gauss_interval(6)
    pts = np.stack([np.ones_like(rule.points), rule.points], axis=-1)[None]
    plus = 0 if m.cell_coords[0, :, 0].mean() < 1 else 1
    minus = 1 - plus
    n = np.array([1.0, 0.0])
    u = np.array([1.0, 0.0])
    nq = len(rule.points)
    jumps = np.zeros((nq, bdm.total_dofs, 2))
    for cell, sgn in ((plus, 1.0), (minus, -1.0)):
        vals, _ = bdm.tabulate_cells([cell], pts)
        for j, g in enumerate(bdm.dofmap[cell]):
            jumps[:, g, :] += sgn * vals[0][:, j, :]
    # oracle: w/2 = |u.n| = 1 and (1+sign)/2 = 1
    oracle = (np.einsum("qik,qjk,q->ij", jumps, jumps, rule.weights)
              + np.einsum("qik,k,qjl,l,q->ij", jumps, u, jumps, n,
                          rule.weights))
    assert np.allclose(A.toarray(), oracle, atol=1e-12)


def test_burman_kernel_and_linearity():
    m = build_rect_mesh((0, 1, 0, 1), 3, 3)
    bdm = FunctionSpace(m, "BDM", 2)
    S1 = burman_stabilisation(bdm, mu=5e-3)
    lin = interpolate(bdm, lambda x, y: np.stack([1 + x - 3 * y, 2 * x + y],
                                                 axis=-1), 8)
    assert np.abs(S1 @ lin.coefficients).max() < 1e-12
    S0 = burman_stabilisation(bdm, mu=0.0)
    assert S0.nnz == 0
    S2 = burman_stabilisation(bdm, mu=1e-2)
    assert np.abs((S2 - 2 * S1)).max() < 1e-14
    # SPSD
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.standard_normal(bdm.total_dofs)
        assert v @ (S1 @ v) >= -1e-12


def test_apply_bcs_homogeneous_zero_solution():
    m = build_rect_mesh((0, 1, 0, 1), 4, 4)
    cg = FunctionSpace(m, "CG", 1)
    K = cell_matrix(cg, cg, "grad", "grad")
    b = np.zeros(cg.total_dofs)
    A, bb = apply_bcs(K, b, *dirichlet_values(cg, None))
    x = np.linalg.solve(A.toarray(), bb)
    assert np.abs(x).max() < 1e-14


def test_apply_bcs_lifting_poisson():
    # u = x harmonic: recovered exactly by CG1 with lifted Dirichlet data
    m = build_rect_mesh((0, 1, 0, 1), 4, 4)
    cg = FunctionSpace(m, "CG", 1)
    K = cell_matrix(cg, cg, "grad", "grad")
    b = np.zeros(cg.total_dofs)
    idx, vals = dirichlet_values(cg, lambda x, y: x)
    A, bb = apply_bcs(K, b, idx, vals)
    x = np.linalg.solve(A.toarray(), bb)
    exact = interpolate(cg, lambda x, y: x, 4).coefficients
    assert np.abs(x - exact).max() < 1e-12
    assert np.abs(x[idx] - vals).max() == 0.0


def test_facet_data_cached_per_mesh():
    # distinct meshes built and dropped in turn: facet data must never come
    # back for a mesh other than the one it was built on
    for i in range(12):
        width = 1.0 + i
        m = build_rect_mesh((0, width, 0, 1), 2 + i % 2, 2)
        fd = facet_data(m, 3)
        assert np.array_equal(fd.int_edges,
                              np.flatnonzero(m.edge_cells[:, 1] >= 0))
        assert np.isclose(fd.bdry_len.sum(), 2.0 * width + 2.0)
        assert facet_data(m, 3) is fd
        assert facet_data(m, 2) is not fd
        del m, fd
        gc.collect()


def test_complex_maps_store_no_round_off():
    # entries far below the map's scale are round-off of exact zeros
    mesh = build_rect_mesh((0, 1, 0, 1), 8, 8, "right")
    V, D = complex_maps(*(FunctionSpace(mesh, f, d)
                          for f, d in [("CG", 2), ("RT", 2), ("DG", 1)]))
    for M in (V, D):
        a = np.abs(M.data)
        assert np.count_nonzero(a < 1e-12 * a.max()) == 0


def test_only_assembly_builds_coo_matrices():
    # one assembly path: every sparse matrix built from local arrays comes
    # out of assembly.py
    import pathlib
    import re

    import mhdkit

    root = pathlib.Path(mhdkit.__file__).parent
    offenders = [str(p.relative_to(root)) for p in sorted(root.rglob("*.py"))
                 if p != root / "assembly.py"
                 and re.search(r"\bcoo_(matrix|array)\b", p.read_text())]
    assert offenders == []


def test_only_the_dual_functionals_weight_edge_moments():
    # one set of dof functionals: the Legendre edge-moment weight is applied
    # in FunctionSpace.dual_points_weights alone, so interpolation,
    # Dirichlet data, the transfers and the complex maps share its scaling
    import ast
    import pathlib

    import mhdkit

    root = pathlib.Path(mhdkit.__file__).parent
    callers = []

    def visit(node, scope):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_legendre"):
            callers.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for p in sorted(root.rglob("*.py")):
        visit(ast.parse(p.read_text()), (str(p.relative_to(root)),))
    assert callers == [("elements.py", "FunctionSpace", "dual_points_weights")]
