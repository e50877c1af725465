"""Cell and facet assembly of bilinear/linear forms: mass/stiffness/grad-div
kernels, interior-penalty (SIPG) viscous terms and upwinded advection for the
H(div) x L2 velocity pair, gradient-jump stabilisation, and strong Dirichlet
application with right-hand-side lifting."""

import numpy as np
import scipy.sparse as sp

from .quadrature import gauss_interval

__all__ = [
    "cell_matrix", "cell_vector", "facet_data", "sipg_viscous",
    "upwind_advection_matrix", "upwind_advection_residual",
    "burman_stabilisation", "apply_bcs", "DirichletBC",
    "FormTerm", "FormDescriptor", "assemble_matrix",
]


# -- operator tabulation -----------------------------------------------------

def _op_arrays(space, vals, grads, op):
    """Flatten basis (derivative) arrays for an operator code.

    Returns (..., nloc, C):
      val: components as-is; grad: flattened (comp, deriv); div/curl: scalar;
      vcurl of a scalar: 2 components (d/dy, -d/dx).
    """
    el = space.element
    if op == "val":
        return vals
    if op == "grad":
        n = grads.shape
        return grads.reshape(n[:-2] + (n[-2] * n[-1],))
    if op == "div":
        return (grads[..., 0, 0] + grads[..., 1, 1])[..., None]
    if op == "curl":
        return (grads[..., 1, 0] - grads[..., 0, 1])[..., None]
    if op == "vcurl":
        if el.ncomp != 1:
            raise ValueError("vcurl applies to scalar spaces")
        return np.stack([grads[..., 0, 1], -grads[..., 0, 0]], axis=-1)
    raise ValueError(f"unknown operator {op!r}")


_NEEDS_GRAD = {"grad", "div", "curl", "vcurl"}

EPS_CONTRACTION = np.zeros((4, 4))
for _k in range(2):
    for _d in range(2):
        for _l in range(2):
            for _e in range(2):
                EPS_CONTRACTION[2 * _k + _d, 2 * _l + _e] = 0.5 * (
                    (_k == _l) * (_d == _e) + (_k == _e) * (_d == _l))


def _scatter(test_dm, trial_dm, local, shape):
    nt = test_dm.shape[1]
    nr = trial_dm.shape[1]
    rows = np.repeat(test_dm, nr, axis=1).ravel()
    cols = np.tile(trial_dm, (1, nt)).ravel()
    # local is (n, nt, nr): row-major pairing matches repeat/tile above
    return sp.coo_matrix((local.reshape(-1, nt * nr).ravel(), (rows, cols)),
                         shape=shape).tocsr()


def cell_matrix(test, trial, test_op="val", trial_op="val", weight=None,
                qdeg=None):
    """Assemble sum_K int (T_test v) . W . (T_trial u) dx.

    weight: None (identity contraction), scalar, constant (Ct, Cr) array,
    per-point (nc, nq, Ct, Cr) array, or callable(x, y) -> (Ct, Cr) blocks.
    """
    if qdeg is None:
        qdeg = 2 * max(test.element.degree, trial.element.degree) + 2
    gt = test_op in _NEEDS_GRAD
    gr = trial_op in _NEEDS_GRAD
    pts, w, tvals, tgrads = test.basis_at_quadrature(qdeg, grad=gt)
    _, _, rvals, rgrads = trial.basis_at_quadrature(qdeg, grad=gr)
    A = _op_arrays(test, tvals, tgrads, test_op)
    B = _op_arrays(trial, rvals, rgrads, trial_op)
    if callable(weight):
        Wv = np.asarray(weight(pts[..., 0], pts[..., 1]), dtype=float)
        weight = np.broadcast_to(Wv, pts.shape[:2] + Wv.shape[-2:])
    if weight is None:
        local = np.einsum("cqiA,cqjA,cq->cij", A, B, w, optimize=True)
    elif np.isscalar(weight):
        local = weight * np.einsum("cqiA,cqjA,cq->cij", A, B, w,
                                   optimize=True)
    else:
        Wv = np.asarray(weight, dtype=float)
        if Wv.ndim == 2:
            local = np.einsum("cqiA,AB,cqjB,cq->cij", A, Wv, B, w,
                              optimize=True)
        else:
            local = np.einsum("cqiA,cqAB,cqjB,cq->cij", A, Wv, B, w,
                              optimize=True)
    return _scatter(test.dofmap, trial.dofmap, local,
                    (test.total_dofs, trial.total_dofs))


def cell_vector(test, test_op="val", density=None, qdeg=None):
    """Assemble sum_K int (T_test v) . rho dx for density rho(x) or per-point
    array (nc, nq, C)."""
    if qdeg is None:
        qdeg = 2 * test.element.degree + 2
    gt = test_op in _NEEDS_GRAD
    pts, w, tvals, tgrads = test.basis_at_quadrature(qdeg, grad=gt)
    A = _op_arrays(test, tvals, tgrads, test_op)
    if callable(density):
        rho = np.asarray(density(pts[..., 0], pts[..., 1]), dtype=float)
        if rho.ndim == 2:
            rho = rho[..., None]
    else:
        rho = np.asarray(density, dtype=float)
    local = np.einsum("cqiA,cqA,cq->ci", A, rho, w, optimize=True)
    out = np.zeros(test.total_dofs)
    np.add.at(out, test.dofmap.ravel(), local.ravel())
    return out


def field_at_quadrature(field, qdeg, grad=False):
    """Values (nc, nq, C) (and gradients) of a Field at cell quadrature."""
    sp_ = field.space
    pts, w, vals, grads = sp_.basis_at_quadrature(qdeg, grad=grad)
    loc = field.coefficients[sp_.dofmap]
    out = np.einsum("ci,cqik->cqk", loc, vals)
    if grad:
        g = np.einsum("ci,cqikd->cqkd", loc, grads)
        return out, g
    return out


# -- facet geometry -----------------------------------------------------------


class _FacetData:
    pass


def facet_data(mesh, qdeg):
    """Interior and boundary facet quadrature in the frames of the adjacent
    cells; interior normals point from the plus to the minus side.  Cached
    on the mesh per quadrature degree."""
    if qdeg in mesh.facet_cache:
        return mesh.facet_cache[qdeg]
    rule = gauss_interval(qdeg)
    xi = rule.points
    fd = _FacetData()
    fd.qweights = rule.weights
    fd.nq = len(xi)

    interior = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    p0 = mesh.edge_endpoints_in_cell(interior, 0)
    p1 = mesh.edge_endpoints_in_cell(interior, 1)
    t = p0[:, 1] - p0[:, 0]
    L = np.linalg.norm(t, axis=1)
    t = t / L[:, None]
    n = np.stack([t[:, 1], -t[:, 0]], axis=-1)
    c0 = mesh.cell_coords[mesh.edge_cells[interior, 0]].mean(axis=1)
    mid = p0.mean(axis=1)
    outward0 = np.einsum("ek,ek->e", n, mid - c0) > 0
    plus = np.where(outward0, mesh.edge_cells[interior, 0],
                    mesh.edge_cells[interior, 1])
    minus = np.where(outward0, mesh.edge_cells[interior, 1],
                     mesh.edge_cells[interior, 0])
    pts_plus = np.where(outward0[:, None, None], p0, p1)
    pts_minus = np.where(outward0[:, None, None], p1, p0)
    fd.int_edges = interior
    fd.int_cells = np.stack([plus, minus], axis=1)
    fd.int_normal = n
    fd.int_len = L
    fd.int_pts = [
        pts_plus[:, None, 0, :] * (1 - xi)[None, :, None]
        + pts_plus[:, None, 1, :] * xi[None, :, None],
        pts_minus[:, None, 0, :] * (1 - xi)[None, :, None]
        + pts_minus[:, None, 1, :] * xi[None, :, None],
    ]

    bdry = mesh.boundary_edges
    pb = mesh.edge_endpoints_in_cell(bdry, 0)
    tb = pb[:, 1] - pb[:, 0]
    Lb = np.linalg.norm(tb, axis=1)
    tb = tb / Lb[:, None]
    nb = np.stack([tb[:, 1], -tb[:, 0]], axis=-1)
    cb = mesh.cell_coords[mesh.edge_cells[bdry, 0]].mean(axis=1)
    midb = pb.mean(axis=1)
    flip = np.einsum("ek,ek->e", nb, midb - cb) < 0
    nb[flip] *= -1
    fd.bdry_edges = bdry
    fd.bdry_cells = mesh.edge_cells[bdry, 0]
    fd.bdry_normal = nb
    fd.bdry_len = Lb
    fd.bdry_pts = (pb[:, None, 0, :] * (1 - xi)[None, :, None]
                   + pb[:, None, 1, :] * xi[None, :, None])
    mesh.facet_cache[qdeg] = fd
    return fd


def _facet_scatter(space, cells_t, cells_r, local):
    dm = space.dofmap
    return _scatter(dm[cells_t], dm[cells_r], local,
                    (space.total_dofs, space.total_dofs))


def _trace(space, cells, pts, grad=False, key=None):
    """Basis traces at facet quadrature points; cached on the space when a
    hashable key (facet-data id, side, qdeg) is supplied."""
    if key is None:
        return space.tabulate_cells(cells, pts, grad)
    cache = getattr(space, "_trace_cache", None)
    if cache is None:
        cache = space._trace_cache = {}
    if key not in cache:
        # gradients subsume values; store both at once
        cache[key] = space.tabulate_cells(cells, pts, True)
    vals, grads = cache[key]
    return (vals, grads) if grad else (vals, None)


# -- SIPG viscous term ---------------------------------------------------------

def sipg_viscous(space, nu, sigma=None, sym=True, qdeg=None,
                 dirichlet_markers=None, g_d=None):
    """Interior-penalty form of the viscous operator for a broken vector space.

    sym=True uses the symmetric gradient (consistency factor 2*nu), sym=False
    the full gradient (factor nu); the penalty is nu*sigma/h_F in both cases
    with sigma = 10 k^2 by default.  Returns (matrix, rhs) where rhs collects
    the boundary data terms for `g_d` on `dirichlet_markers` (rhs is zero if
    g_d is None).
    """
    el = space.element
    k = el.degree
    if sigma is None:
        sigma = 10.0 * k * k
    if qdeg is None:
        qdeg = 2 * k + 2
    mesh = space.mesh
    fd = facet_data(mesh, qdeg)
    cfac = 2.0 * nu if sym else nu
    n = fd.int_normal
    wq = fd.qweights

    vals = []
    grads = []
    for s in range(2):
        v, g = _trace(space, fd.int_cells[:, s], fd.int_pts[s], grad=True,
                      key=(qdeg, "int", s))
        vals.append(v)
        grads.append(g)

    def stress_n(g):
        if sym:
            e = 0.5 * (g + np.swapaxes(g, -2, -1))
        else:
            e = g
        return np.einsum("eqikd,ed->eqik", e, n)

    Sn = [stress_n(g) for g in grads]
    A = sp.csr_matrix((space.total_dofs, space.total_dofs))
    jump_sign = [1.0, -1.0]
    wL = wq[None, :] * fd.int_len[:, None]
    for st in range(2):
        for sr in range(2):
            sgn_t = jump_sign[st]
            sgn_r = jump_sign[sr]
            # -cfac * {stress(u)}n . [v]  - cfac * [u] . {stress(v)}n
            loc = (-cfac * 0.5 * sgn_t
                   * np.einsum("eqik,eqjk,eq->eij", vals[st], Sn[sr], wL,
                               optimize=True)
                   - cfac * 0.5 * sgn_r
                   * np.einsum("eqik,eqjk,eq->eij", Sn[st], vals[sr], wL,
                               optimize=True)
                   + nu * sigma / fd.int_len[:, None, None] * sgn_t * sgn_r
                   * np.einsum("eqik,eqjk,eq->eij", vals[st], vals[sr], wL,
                               optimize=True))
            A = A + _facet_scatter(space, fd.int_cells[:, st],
                                   fd.int_cells[:, sr], loc)

    rhs = np.zeros(space.total_dofs)
    if dirichlet_markers is not None:
        eb = mesh.edges_with_markers(dirichlet_markers)
        keep = np.isin(fd.bdry_edges, eb)
        cells = fd.bdry_cells[keep]
        pts = fd.bdry_pts[keep]
        nb = fd.bdry_normal[keep]
        Lb = fd.bdry_len[keep]
        mk = tuple(sorted(map(str, dirichlet_markers)))
        v, g = _trace(space, cells, pts, grad=True, key=(qdeg, "bdy", mk))
        if sym:
            e = 0.5 * (g + np.swapaxes(g, -2, -1))
        else:
            e = g
        Sb = np.einsum("eqikd,ed->eqik", e, nb)
        wLb = wq[None, :] * Lb[:, None]
        loc = (-cfac * np.einsum("eqik,eqjk,eq->eij", v, Sb, wLb,
                                 optimize=True)
               - cfac * np.einsum("eqik,eqjk,eq->eij", Sb, v, wLb,
                                  optimize=True)
               + nu * sigma / Lb[:, None, None]
               * np.einsum("eqik,eqjk,eq->eij", v, v, wLb, optimize=True))
        A = A + _facet_scatter(space, cells, cells, loc)
        if g_d is not None:
            gv = np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float)
            rloc = (nu * sigma / Lb[:, None]
                    * np.einsum("eqik,eqk,eq->ei", v, gv, wLb, optimize=True)
                    - cfac * np.einsum("eqik,eqk,eq->ei", Sb, gv, wLb,
                                       optimize=True))
            np.add.at(rhs, space.dofmap[cells].ravel(), rloc.ravel())
    return A, rhs


# -- upwinded DG advection -----------------------------------------------------

def upwind_advection_residual(space, u_field, qdeg=None,
                              dirichlet_markers=None, g_d=None):
    """Residual vector of the upwind facet form c_h^DG(u; u, v)."""
    el = space.element
    if qdeg is None:
        qdeg = 3 * el.degree + 1
    mesh = space.mesh
    fd = facet_data(mesh, qdeg)
    wq = fd.qweights
    out = np.zeros(space.total_dofs)

    n = fd.int_normal
    wL = wq[None, :] * fd.int_len[:, None]
    uv = []
    basis = []
    for s in range(2):
        v, _ = _trace(space, fd.int_cells[:, s], fd.int_pts[s],
                      key=(qdeg, "int", s))
        basis.append(v)
        loc = u_field.coefficients[space.dofmap[fd.int_cells[:, s]]]
        uv.append(np.einsum("ei,eqik->eqk", loc, v))
    flux = []
    for s in range(2):
        un = np.einsum("eqk,ek->eq", uv[s], n)
        w = un + np.abs(un)
        flux.append(0.5 * w[..., None] * uv[s])
    jump_flux = flux[0] - flux[1]
    for s, sgn in ((0, 1.0), (1, -1.0)):
        rloc = sgn * np.einsum("eqik,eqk,eq->ei", basis[s], jump_flux, wL,
                               optimize=True)
        np.add.at(out, space.dofmap[fd.int_cells[:, s]].ravel(), rloc.ravel())

    if dirichlet_markers is not None:
        eb = mesh.edges_with_markers(dirichlet_markers)
        keep = np.isin(fd.bdry_edges, eb)
        cells = fd.bdry_cells[keep]
        pts = fd.bdry_pts[keep]
        nb = fd.bdry_normal[keep]
        Lb = fd.bdry_len[keep]
        mk = tuple(sorted(map(str, dirichlet_markers)))
        v, _ = _trace(space, cells, pts, key=(qdeg, "bdy", mk))
        loc = u_field.coefficients[space.dofmap[cells]]
        ub = np.einsum("ei,eqik->eqk", loc, v)
        un = np.einsum("eqk,ek->eq", ub, nb)
        wLb = wq[None, :] * Lb[:, None]
        dens = 0.5 * ((un + np.abs(un))[..., None] * ub)
        if g_d is not None:
            gv = np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float)
            dens = dens + 0.5 * ((un - np.abs(un))[..., None] * gv)
        rloc = np.einsum("eqik,eqk,eq->ei", v, dens, wLb, optimize=True)
        np.add.at(out, space.dofmap[cells].ravel(), rloc.ravel())
    return out


def upwind_advection_matrix(space, u_field, qdeg=None,
                            dirichlet_markers=None, g_d=None):
    """Derivative of c_h^DG(u; u, v) with respect to u at u_field (the upwind
    switch |u.n| is differentiated with its sign frozen)."""
    el = space.element
    if qdeg is None:
        qdeg = 3 * el.degree + 1
    mesh = space.mesh
    fd = facet_data(mesh, qdeg)
    wq = fd.qweights
    A = sp.csr_matrix((space.total_dofs, space.total_dofs))

    n = fd.int_normal
    wL = wq[None, :] * fd.int_len[:, None]
    basis = []
    uv = []
    for s in range(2):
        v, _ = _trace(space, fd.int_cells[:, s], fd.int_pts[s],
                      key=(qdeg, "int", s))
        basis.append(v)
        loc = u_field.coefficients[space.dofmap[fd.int_cells[:, s]]]
        uv.append(np.einsum("ei,eqik->eqk", loc, v))
    for sr in range(2):
        un = np.einsum("eqk,ek->eq", uv[sr], n)
        w = un + np.abs(un)
        s1 = 1.0 + np.sign(un)
        dn = np.einsum("eqjk,ek->eqj", basis[sr], n)
        # d flux_sr = 0.5*[ w * dphi + s1*(dphi.n) u ]
        dflux = (0.5 * w[..., None, None] * basis[sr]
                 + 0.5 * s1[..., None, None] * dn[..., None]
                 * uv[sr][:, :, None, :])
        sgn_r = 1.0 if sr == 0 else -1.0
        for st, sgn_t in ((0, 1.0), (1, -1.0)):
            loc = sgn_t * sgn_r * np.einsum("eqik,eqjk,eq->eij",
                                            basis[st], dflux, wL,
                                            optimize=True)
            A = A + _facet_scatter(space, fd.int_cells[:, st],
                                   fd.int_cells[:, sr], loc)

    if dirichlet_markers is not None:
        eb = mesh.edges_with_markers(dirichlet_markers)
        keep = np.isin(fd.bdry_edges, eb)
        cells = fd.bdry_cells[keep]
        pts = fd.bdry_pts[keep]
        nb = fd.bdry_normal[keep]
        Lb = fd.bdry_len[keep]
        mk = tuple(sorted(map(str, dirichlet_markers)))
        v, _ = _trace(space, cells, pts, key=(qdeg, "bdy", mk))
        loc = u_field.coefficients[space.dofmap[cells]]
        ub = np.einsum("ei,eqik->eqk", loc, v)
        un = np.einsum("eqk,ek->eq", ub, nb)
        wLb = wq[None, :] * Lb[:, None]
        dn = np.einsum("eqjk,ek->eqj", v, nb)
        w = un + np.abs(un)
        s1 = 1.0 + np.sign(un)
        dflux = (0.5 * w[..., None, None] * v
                 + 0.5 * s1[..., None, None] * dn[..., None]
                 * ub[:, :, None, :])
        if g_d is not None:
            gv = np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float)
            s2 = 1.0 - np.sign(un)
            dflux = dflux + (0.5 * s2[..., None, None] * dn[..., None]
                             * gv[:, :, None, :])
        locm = np.einsum("eqik,eqjk,eq->eij", v, dflux, wLb, optimize=True)
        A = A + _facet_scatter(space, cells, cells, locm)
    return A


def burman_stabilisation(space, mu, qdeg=None):
    """Gradient-jump penalty sum_F mu h_F^2 int_F [grad u] : [grad v] ds over
    interior facets."""
    el = space.element
    if mu == 0.0:
        return sp.csr_matrix((space.total_dofs, space.total_dofs))
    if qdeg is None:
        qdeg = 2 * el.degree + 2
    fd = facet_data(space.mesh, qdeg)
    wq = fd.qweights
    grads = []
    for s in range(2):
        _, g = _trace(space, fd.int_cells[:, s], fd.int_pts[s], grad=True,
                      key=(qdeg, "int", s))
        gs = g.reshape(g.shape[:3] + (-1,))
        grads.append(gs)
    wL = wq[None, :] * fd.int_len[:, None] * fd.int_len[:, None] ** 2
    A = sp.csr_matrix((space.total_dofs, space.total_dofs))
    for st, sgn_t in ((0, 1.0), (1, -1.0)):
        for sr, sgn_r in ((0, 1.0), (1, -1.0)):
            loc = mu * sgn_t * sgn_r * np.einsum(
                "eqiA,eqjA,eq->eij", grads[st], grads[sr], wL, optimize=True)
            A = A + _facet_scatter(space, fd.int_cells[:, st],
                                   fd.int_cells[:, sr], loc)
    return A


# -- Dirichlet boundary conditions ---------------------------------------------


class DirichletBC:
    """Strong condition on the dofs of `space` over `markers`.

    `value` is a pointwise callable (or None for homogeneous); dof values of
    non-nodal families are edge moments evaluated with quadrature of exactness
    `quad_degree` (this is the divergence-preservation mechanism for RT data).
    """

    def __init__(self, space, markers=None, value=None, quad_degree=None):
        self.space = space
        self.markers = markers
        self.value = value
        self.quad_degree = quad_degree
        self.dofs = space.boundary_dofs(markers)

    def values(self):
        if self.value is None:
            return self.dofs, np.zeros(len(self.dofs))
        idx, vals = self.space.boundary_dof_values(
            self.value, self.markers, self.quad_degree)
        order = {d: i for i, d in enumerate(idx)}
        out = np.zeros(len(self.dofs))
        for i, d in enumerate(self.dofs):
            out[i] = vals[order[d]] if d in order else 0.0
        return self.dofs, out


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


def constrain_matrix(A, constrained):
    """Zero rows/columns of constrained dofs and put 1 on their diagonal."""
    n = A.shape[0]
    mask = np.ones(n)
    mask[np.asarray(constrained, dtype=np.int64)] = 0.0
    D = sp.diags(mask)
    out = D @ A @ D
    one = 1.0 - mask
    return (out + sp.diags(one)).tocsr()


# -- descriptor veneer ----------------------------------------------------------


class FormTerm:
    def __init__(self, test, trial, kernel, coeffs=(), weight=1.0):
        self.test = test
        self.trial = trial
        self.kernel = kernel
        self.coeffs = tuple(coeffs)
        self.weight = weight


class FormDescriptor:
    def __init__(self, terms, domain="cells"):
        self.terms = list(terms)
        self.domain = domain


_KERNELS = {
    "mass": ("val", "val", None),
    "stiffness": ("grad", "grad", None),
    "divdiv": ("div", "div", None),
    "eps_eps": ("grad", "grad", EPS_CONTRACTION),
    "div_pressure": ("div", "val", None),     # (q?, div v): test vector
    "pressure_div": ("val", "div", None),
    "scalar_vcurl": ("vcurl", "val", None),   # (B, vcurl F): test scalar F
    "vcurl_scalar": ("val", "vcurl", None),   # (vcurl E, C): test vector C
}


def assemble_matrix(form, spaces, state=None, qdeg=None):
    """Assemble a FormDescriptor into per-(test, trial) sparse blocks.

    `spaces` maps tags to FunctionSpaces; coefficient fields named in a term
    are looked up in `state` (a mapping tag -> Field); a missing coefficient
    raises an error naming the term.
    """
    if form.domain != "cells":
        raise ValueError("descriptor assembly covers cell terms; facet "
                         "terms use the dedicated builders")
    blocks = {}
    for term in form.terms:
        if term.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {term.kernel!r}")
        for c in term.coeffs:
            if state is None or c not in state:
                raise ValueError(
                    f"term {term.kernel!r} ({term.test},{term.trial}): "
                    f"missing coefficient field {c!r}")
        top, rop, W = _KERNELS[term.kernel]
        mat = cell_matrix(spaces[term.test], spaces[term.trial], top, rop,
                          weight=W, qdeg=qdeg)
        key = (term.test, term.trial)
        mat = mat * term.weight
        blocks[key] = blocks[key] + mat if key in blocks else mat
    return blocks
