"""Cell and facet assembly of bilinear/linear forms: mass/stiffness/grad-div
kernels, interior-penalty (SIPG) viscous terms and upwinded advection for the
H(div) x L2 velocity pair, gradient-jump stabilisation and the constraining
of matrices on strong Dirichlet dofs (whose values `elements.dirichlet_values`
computes).

Every sparse matrix built from local arrays comes out of this module:
`scatter` sums local arrays into a CSR matrix, `interpolation_matrix`
applies one space's dual functionals to another's basis (the exact
complex maps and the multigrid embeddings), and `SparsityPattern` keeps a
fixed pattern for repeated Jacobians.

The cell and facet forms never tabulate the basis cell by cell.  They
contract the element's shared reference table (`elements.reference_table`)
with the space's per-cell coefficients and the per-cell maps T_c and
J_c^-1 (`_Basis`); a local matrix is the product of the per-point weights,
pulled back to the reference components, with the reference tensor of the
two tables (`_local`).  The cell and edge geometry is the mesh's, and the
facet quadrature is cached on the mesh (`facet_data`)."""

import numpy as np
import scipy.sparse as sp

from .mesh import _LOCAL_EDGE_VERTICES
from .quadrature import gauss_interval

__all__ = [
    "scatter", "cell_local", "cell_matrix", "cell_vector",
    "interpolation_matrix",
    "facet_data", "facet_pairings", "sipg_local",
    "upwind_advection_local", "upwind_advection_residual", "burman_local",
    "SparsityPattern", "constrain_matrix",
]


# -- operator tabulation -----------------------------------------------------

# the derivative operators as linear maps of the gradient flattened
# (component, derivative); vcurl of a scalar is (d/dy, -d/dx)
_FROM_GRAD = {"div": np.array([[1.0, 0.0, 0.0, 1.0]]),
              "curl": np.array([[0.0, -1.0, 1.0, 0.0]]),
              "vcurl": np.array([[0.0, 1.0], [-1.0, 0.0]])}
_NEEDS_GRAD = {"grad", *_FROM_GRAD}


def _check_op(space, op):
    if op != "val" and op not in _NEEDS_GRAD:
        raise ValueError(f"unknown operator {op!r}")
    if op == "vcurl" and space.element.ncomp != 1:
        raise ValueError("vcurl applies to scalar spaces")


def _op_arrays(space, vals, grads, op):
    """op of physical basis values (..., nloc, C) and gradients (..., nloc,
    C, 2) as (..., nloc, C'), gradients flattened (component, derivative)."""
    _check_op(space, op)
    if op == "val":
        return vals
    g = grads.reshape(grads.shape[:-2] + (-1,))
    return g if op == "grad" else g @ _FROM_GRAD[op].T

EPS_CONTRACTION = np.zeros((4, 4))
for _k in range(2):
    for _d in range(2):
        for _l in range(2):
            for _e in range(2):
                EPS_CONTRACTION[2 * _k + _d, 2 * _l + _e] = 0.5 * (
                    (_k == _l) * (_d == _e) + (_k == _e) * (_d == _l))


def _op_table(space, table, op):
    """(R, P) of op of the basis of `space` on the reference points of
    `table` (values, gradients of the prime basis): R (nvar, nq, nvm, C^) the
    reference table of the op and P (nc, C, C^) the per-cell map to its
    physical components, None for the identity."""
    el = space.element
    vals, grads = table
    _check_op(space, op)
    if op == "val":
        return vals, space.piola
    if op == "div" and el.family in ("RT", "BDM"):
        # div (J psihat) = div^ psihat
        return (grads[..., 0, 0] + grads[..., 1, 1])[..., None], None
    if op == "curl" and el.family == "NED":
        # curl (J^-T psihat) = curl^ psihat / det J
        return ((grads[..., 1, 0] - grads[..., 0, 1])[..., None],
                (0.5 / space.mesh.cell_area)[:, None, None])
    # grad (T psihat(xi(x)))[k, d] = T[k, K] dpsihat[K, D] Jinv[D, d]
    T = np.eye(el.ncomp)[None] if space.piola is None else space.piola
    P = (T[:, :, None, :, None] * space.mesh.jac_inv.transpose(0, 2, 1)[
        :, None, :, None, :]).reshape(-1, 2 * el.ncomp, 2 * el.ncomp)
    R = grads.reshape(grads.shape[:-2] + (-1,))
    return R, P if op == "grad" else _FROM_GRAD[op] @ P


def _groups(*variants):
    """(variants, items) of each group of items that read the same reference
    tables: every item when there are no variants (cell points)."""
    if variants[0] is None:
        return [((0,) * len(variants), slice(None))]
    key = np.ravel_multi_index(variants, (6,) * len(variants))
    return [(np.unravel_index(k, (6,) * len(variants)),
             np.flatnonzero(key == k)) for k in np.unique(key)]


class _Basis:
    """op of the basis of `space` at the points of the rule of exactness
    `qdeg`: on every cell, or on the facets of `cells`, each reading its
    reference facet variant `var`.  Holds the reference table R (nvar, nq,
    m, C^), the per-item maps P (n, C, C^) (None for the identity) and the
    per-item coefficients coeff (n, nloc, nvm), None where the space's
    shared coefficients are folded into R (m = nloc)."""

    def __init__(self, space, op, qdeg, cells=None, var=None):
        R, P = _op_table(space, space.reference_table(
            qdeg, facet=cells is not None), op)
        sel = slice(None) if cells is None else cells
        self.var = var
        self.P = None if P is None else P[sel]
        if space.element.shared:
            self.R = np.einsum("iv,gqva->gqia", space.coeff[0], R)
            self.coeff = None
        else:
            self.R, self.coeff = R, space.coeff[sel]
        self.ncomp = R.shape[-1] if P is None else P.shape[1]

    def evaluate(self, loc):
        """op of the fields with local coefficients loc (n, nloc) at each
        item's points: (n, nq, C)."""
        a = loc if self.coeff is None else (loc[:, None] @ self.coeff)[:, 0]
        _, nq, m, c = self.R.shape
        out = np.empty((len(a), nq, c))
        for (g,), idx in _groups(self.var):
            out[idx] = (a[idx] @ self.R[g].transpose(1, 0, 2).reshape(
                m, nq * c)).reshape(-1, nq, c)
        return out if self.P is None else out @ self.P.transpose(0, 2, 1)

    def project(self, rho, w):
        """Local vectors (n, nloc): sum_q w (op phi_i) . rho over each item's
        points, for rho (n, nq, C) and weights w (n, nq)."""
        r = rho * w[..., None]
        if self.P is not None:
            r = r @ self.P
        _, nq, m, c = self.R.shape
        r = r.reshape(len(r), nq * c)
        b = np.empty((len(r), m))
        for (g,), idx in _groups(self.var):
            b[idx] = r[idx] @ self.R[g].transpose(0, 2, 1).reshape(nq * c, m)
        return b if self.coeff is None else (self.coeff @ b[..., None])[..., 0]


def _geometry(tb, W, rb, w):
    """The weights w P_t^T W P_r (n, nq, a * b) in the reference components
    a, b of the test and trial bases; W as in `cell_local`, or per item
    (n, 1, Ct, Cr)."""
    if W is None or np.ndim(W) == 0:
        W = np.eye(tb.ncomp) * (1.0 if W is None else W)
    W = np.asarray(W, dtype=float)
    if W.ndim == 2:
        W = W[None, None]
    n = len(w)
    A, B = W.shape[2:]
    W = W.reshape(W.shape[:2] + (A * B,)) * w[..., None]
    if tb.P is not None or rb.P is not None:
        # Q[n, (A, B), (a, b)] = P_t[n, A, a] P_r[n, B, b]
        Pt, Pr = (np.broadcast_to(np.eye(c), (n, c, c)) if P is None else P
                  for P, c in ((tb.P, A), (rb.P, B)))
        Q = Pt[:, :, None, :, None] * Pr[:, None, :, None, :]
        W = W @ Q.reshape(n, A * B, -1)
    return W


def _local(tb, rb, W, w):
    """Local arrays (n, nt, nr) of sum_q w (op v) . W . (op u) over the
    items of the test basis tb and the trial basis rb (the same items and
    points): the weights in reference components times the reference tensor
    of the two tables, then the per-item coefficients."""
    G = _geometry(tb, W, rb, w)
    G = G.reshape(len(G), -1)
    mt, mr = tb.R.shape[2], rb.R.shape[2]
    K = np.empty((len(G), mt, mr))
    for (gt, gr), idx in _groups(tb.var, rb.var):
        A0 = np.einsum("qva,qub->qabvu", tb.R[gt], rb.R[gr])
        K[idx] = (G[idx] @ A0.reshape(G.shape[1], mt * mr)).reshape(
            -1, mt, mr)
    if tb.coeff is not None:
        K = tb.coeff @ K
    if rb.coeff is not None:
        K = K @ rb.coeff.transpose(0, 2, 1)
    return K


def _entries(test_dm, trial_dm):
    """Row and column of every entry of local (n, nt, nr) arrays on the
    pairs of dof rows test_dm (n, nt) and trial_dm (n, nr), row-major."""
    nt = test_dm.shape[1]
    nr = trial_dm.shape[1]
    return (np.repeat(test_dm, nr, axis=1).ravel(),
            np.tile(trial_dm, (1, nt)).ravel())


def scatter(blocks, shape):
    """CSR sum of local arrays; blocks: (test_dm, trial_dm, local)."""
    rows, cols = zip(*(_entries(t, r) for t, r, _ in blocks))
    vals = [np.ravel(local) for _, _, local in blocks]
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=shape).tocsr()


def cell_local(test, trial, test_op="val", trial_op="val", weight=None,
               qdeg=None):
    """Local arrays (nc, nt, nr) of int_K (T_test v) . W . (T_trial u) dx.

    weight: None (identity contraction), scalar, constant (Ct, Cr) array
    or per-point (nc, nq, Ct, Cr) array.
    """
    if qdeg is None:
        qdeg = 2 * max(test.element.degree, trial.element.degree) + 2
    return _local(_Basis(test, test_op, qdeg),
                  _Basis(trial, trial_op, qdeg), weight,
                  test.quadrature_weights(qdeg))


def cell_matrix(test, trial, test_op="val", trial_op="val", weight=None,
                qdeg=None):
    """Assemble sum_K int (T_test v) . W . (T_trial u) dx (see
    `cell_local` for the weights)."""
    return scatter([(test.dofmap, trial.dofmap,
                     cell_local(test, trial, test_op, trial_op, weight,
                                qdeg))],
                   (test.total_dofs, trial.total_dofs))


def cell_vector(test, test_op="val", density=None, qdeg=None):
    """Assemble sum_K int (T_test v) . rho dx for density rho(x) or per-point
    array (nc, nq, C)."""
    if qdeg is None:
        qdeg = 2 * test.element.degree + 2
    if callable(density):
        pts, _ = test.cell_quadrature(qdeg)
        rho = np.asarray(density(pts[..., 0], pts[..., 1]), dtype=float)
        if rho.ndim == 2:
            rho = rho[..., None]
    else:
        rho = np.asarray(density, dtype=float)
    local = _Basis(test, test_op, qdeg).project(
        rho, test.quadrature_weights(qdeg))
    out = np.zeros(test.total_dofs)
    np.add.at(out, test.dofmap.ravel(), local.ravel())
    return out


def interpolation_matrix(src, dst, op="val", src_cells=None, dst_cells=None):
    """Coefficient matrix of the map u -> T_op u from `src` to `dst`: dst's
    dual functionals applied to op of src's basis, on the cell pairs
    (src_cells[e], dst_cells[e]) (each the mesh's cells when None).  A dof
    that cells share keeps the first cell's value; entries below 1e-12 of
    the largest are dropped."""
    if dst_cells is None:
        dst_cells = np.arange(dst.mesh.num_cells)
    if src_cells is None:
        src_cells = dst_cells
    pts, wts = dst.dual_points_weights(cells=dst_cells)
    vals, grads = src.tabulate_cells(src_cells, pts, grad=op in _NEEDS_GRAD)
    local = np.einsum("cqik,cqjk->cij", wts,
                      _op_arrays(src, vals, grads, op), optimize=True)
    rows, cols = _entries(dst.dofmap[dst_cells], src.dofmap[src_cells])
    key = rows.astype(np.int64) * src.total_dofs + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = order[np.r_[True, key[1:] != key[:-1]]]
    indptr = np.searchsorted(rows[keep], np.arange(dst.total_dofs + 1))
    M = sp.csr_matrix((local.ravel()[keep], cols[keep], indptr),
                      shape=(dst.total_dofs, src.total_dofs))
    M.data[np.abs(M.data) < 1e-12 * np.abs(M.data).max()] = 0.0
    M.eliminate_zeros()
    return M


def field_op_at_quadrature(field, op, qdeg):
    """op of a Field (nc, nq, C) at cell quadrature; gradients flattened
    (component, derivative)."""
    sp_ = field.space
    return _Basis(sp_, op, qdeg).evaluate(field.coefficients[sp_.dofmap])


def field_at_quadrature(field, qdeg, grad=False):
    """Values (nc, nq, C) (and gradients) of a Field at cell quadrature."""
    out = field_op_at_quadrature(field, "val", qdeg)
    if grad:
        g = field_op_at_quadrature(field, "grad", qdeg)
        return out, g.reshape(g.shape[:-1] + (-1, 2))
    return out


# -- facet geometry -----------------------------------------------------------


class _FacetData:
    pass


def _facet_variants(mesh, edges, side):
    """The reference facet variant 2 le + d of each edge in its cell `side`:
    its local edge le, traversed along the global direction from the local
    edge's first vertex (d = 0) or from its second (d = 1)."""
    cells = mesh.edge_cells[edges, side]
    le = mesh.edge_local[edges, side]
    first = mesh.cells[cells, _LOCAL_EDGE_VERTICES[le, 0]]
    return 2 * le + (first != mesh.edges[edges, 0])


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

    interior = np.flatnonzero(mesh.edge_cells[:, 1] >= 0)
    c0, le0 = mesh.edge_cells[interior, 0], mesh.edge_local[interior, 0]
    n = mesh.cell_edge_normal[c0, le0]
    L = mesh.cell_edge_len[c0, le0]
    mid = mesh.cell_edge_points[c0, le0].mean(axis=1)
    outward0 = np.einsum("ek,ek->e", n, mid - mesh.cell_centers[c0]) > 0
    plus = np.where(outward0, mesh.edge_cells[interior, 0],
                    mesh.edge_cells[interior, 1])
    minus = np.where(outward0, mesh.edge_cells[interior, 1],
                     mesh.edge_cells[interior, 0])
    fd.int_edges = interior
    fd.int_cells = np.stack([plus, minus], axis=1)
    var0, var1 = (_facet_variants(mesh, interior, s) for s in range(2))
    fd.int_var = [np.where(outward0, var0, var1),
                  np.where(outward0, var1, var0)]
    fd.int_normal = n
    fd.int_len = L

    bdry = mesh.boundary_edges
    cb, leb = mesh.edge_cells[bdry, 0], mesh.edge_local[bdry, 0]
    pb = mesh.cell_edge_points[cb, leb]
    nb = mesh.cell_edge_normal[cb, leb]
    Lb = mesh.cell_edge_len[cb, leb]
    midb = pb.mean(axis=1)
    flip = np.einsum("ek,ek->e", nb, midb - mesh.cell_centers[cb]) < 0
    nb[flip] *= -1
    fd.bdry_edges = bdry
    fd.bdry_cells = cb
    fd.bdry_var = _facet_variants(mesh, bdry, 0)
    fd.bdry_normal = nb
    fd.bdry_len = Lb
    fd.bdry_pts = (pb[:, None, 0, :] * (1 - xi)[None, :, None]
                   + pb[:, None, 1, :] * xi[None, :, None])
    mesh.facet_cache[qdeg] = fd
    return fd


def _boundary_selection(mesh, fd, dirichlet_markers):
    """Mask of the boundary facets of fd on `dirichlet_markers`."""
    return np.isin(fd.bdry_edges, mesh.edges_with_markers(dirichlet_markers))


def facet_pairings(space, qdeg, dirichlet_markers=None):
    """The cell pairs that facet forms couple: ("int", st, sr) -> (test
    cells, trial cells) over interior facets for the sides st, sr in
    {0 (plus), 1 (minus)}, and "bdry" -> (cells, cells) over the boundary
    facets on `dirichlet_markers` (when given)."""
    fd = facet_data(space.mesh, qdeg)
    out = {("int", st, sr): (fd.int_cells[:, st], fd.int_cells[:, sr])
           for st in range(2) for sr in range(2)}
    if dirichlet_markers is not None:
        keep = _boundary_selection(space.mesh, fd, dirichlet_markers)
        out["bdry"] = (fd.bdry_cells[keep],) * 2
    return out


# -- SIPG viscous term ---------------------------------------------------------

def _stress(normal, sym):
    """S (ne, 2, 4): S[k, (K, D)] g[K, D] = (sym(g) n)_k (or (g n)_k)."""
    eye = np.eye(2)
    S = np.einsum("kK,eD->ekKD", eye, normal)
    if sym:
        S = 0.5 * (S + np.einsum("kD,eK->ekKD", eye, normal))
    return S.reshape(len(normal), 2, 4)


def sipg_local(space, nu, sigma=None, sym=True, qdeg=None,
               dirichlet_markers=None, g_d=None):
    """Interior-penalty form of the viscous operator for a broken vector space.

    sym=True uses the symmetric gradient (consistency factor 2*nu), sym=False
    the full gradient (factor nu); the penalty is nu*sigma/h_F in both cases
    with sigma = 10 k^2 by default.  Returns (locals, rhs): the facet local
    arrays keyed as in `facet_pairings`, and the boundary data terms for
    `g_d` on `dirichlet_markers` (zero if g_d is None).
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
    wq = fd.qweights
    eye = np.eye(2)

    def form(bases, st, sr, S, ct, cr, pen, wL):
        # ct {stress(v)}n . [u] + cr [v] . {stress(u)}n + pen [v] . [u]
        (vt, gt), (vr, gr) = bases[st], bases[sr]
        return (_local(vt, gr, cr * S[:, None], wL)
                + _local(gt, vr, ct * S.transpose(0, 2, 1)[:, None], wL)
                + _local(vt, vr, pen[:, None, None, None] * eye, wL))

    def sides(cells, var):
        return tuple(_Basis(space, op, qdeg, cells, var)
                     for op in ("val", "grad"))

    bases = [sides(fd.int_cells[:, s], fd.int_var[s]) for s in range(2)]
    S = _stress(fd.int_normal, sym)
    wL = wq[None, :] * fd.int_len[:, None]
    pen = nu * sigma / fd.int_len
    # -cfac * {stress(u)}n . [v]  - cfac * [u] . {stress(v)}n
    out = {("int", st, sr): form(bases, st, sr, S, -cfac * 0.5 * sgn_r,
                                 -cfac * 0.5 * sgn_t, pen * sgn_t * sgn_r, wL)
           for st, sgn_t in ((0, 1.0), (1, -1.0))
           for sr, sgn_r in ((0, 1.0), (1, -1.0))}

    rhs = np.zeros(space.total_dofs)
    if dirichlet_markers is not None:
        keep = _boundary_selection(mesh, fd, dirichlet_markers)
        cells = fd.bdry_cells[keep]
        pts = fd.bdry_pts[keep]
        Lb = fd.bdry_len[keep]
        bdry = [sides(cells, fd.bdry_var[keep])]
        Sb = _stress(fd.bdry_normal[keep], sym)
        wLb = wq[None, :] * Lb[:, None]
        out["bdry"] = form(bdry, 0, 0, Sb, -cfac, -cfac, nu * sigma / Lb,
                           wLb)
        if g_d is not None:
            gv = np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float)
            v, g = bdry[0]
            rloc = (v.project((nu * sigma / Lb)[:, None, None] * gv, wLb)
                    - cfac * g.project(np.einsum("ekA,eqk->eqA", Sb, gv),
                                       wLb))
            np.add.at(rhs, space.dofmap[cells].ravel(), rloc.ravel())
    return out, rhs


# -- upwinded DG advection -----------------------------------------------------

def _upwind_sides(space, u_field, fd, qdeg):
    """The value bases of the two sides of the interior facets and the
    velocity u_field on each."""
    basis, uv = [], []
    for s in range(2):
        cells = fd.int_cells[:, s]
        basis.append(_Basis(space, "val", qdeg, cells, fd.int_var[s]))
        uv.append(basis[s].evaluate(
            u_field.coefficients[space.dofmap[cells]]))
    return basis, uv


def _upwind_boundary(space, u_field, fd, qdeg, mesh, dirichlet_markers):
    """The boundary facets on `dirichlet_markers`: (cells, points, normals,
    weights, value basis, velocity)."""
    keep = _boundary_selection(mesh, fd, dirichlet_markers)
    cells = fd.bdry_cells[keep]
    v = _Basis(space, "val", qdeg, cells, fd.bdry_var[keep])
    ub = v.evaluate(u_field.coefficients[space.dofmap[cells]])
    wLb = fd.qweights[None, :] * fd.bdry_len[keep][:, None]
    return cells, fd.bdry_pts[keep], fd.bdry_normal[keep], wLb, v, ub


def upwind_advection_residual(space, u_field, qdeg=None,
                              dirichlet_markers=None, g_d=None):
    """Residual vector of the upwind facet form c_h^DG(u; u, v)."""
    el = space.element
    if qdeg is None:
        qdeg = 3 * el.degree + 1
    mesh = space.mesh
    fd = facet_data(mesh, qdeg)
    out = np.zeros(space.total_dofs)

    n = fd.int_normal
    wL = fd.qweights[None, :] * fd.int_len[:, None]
    basis, uv = _upwind_sides(space, u_field, fd, qdeg)
    flux = []
    for s in range(2):
        un = np.einsum("eqk,ek->eq", uv[s], n)
        w = un + np.abs(un)
        flux.append(0.5 * w[..., None] * uv[s])
    jump_flux = flux[0] - flux[1]
    for s, sgn in ((0, 1.0), (1, -1.0)):
        rloc = sgn * basis[s].project(jump_flux, wL)
        np.add.at(out, space.dofmap[fd.int_cells[:, s]].ravel(), rloc.ravel())

    if dirichlet_markers is not None:
        cells, pts, nb, wLb, v, ub = _upwind_boundary(
            space, u_field, fd, qdeg, mesh, dirichlet_markers)
        un = np.einsum("eqk,ek->eq", ub, nb)
        dens = 0.5 * ((un + np.abs(un))[..., None] * ub)
        if g_d is not None:
            gv = np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float)
            dens = dens + 0.5 * ((un - np.abs(un))[..., None] * gv)
        rloc = v.project(dens, wLb)
        np.add.at(out, space.dofmap[cells].ravel(), rloc.ravel())
    return out


def upwind_advection_local(space, u_field, qdeg=None,
                           dirichlet_markers=None, g_d=None):
    """Derivative of c_h^DG(u; u, v) with respect to u at u_field (the upwind
    switch |u.n| is differentiated with its sign frozen), as facet local
    arrays keyed as in `facet_pairings`."""
    el = space.element
    if qdeg is None:
        qdeg = 3 * el.degree + 1
    mesh = space.mesh
    fd = facet_data(mesh, qdeg)
    out = {}

    def dflux(ub, normal, gv=None):
        # d flux = 0.5 * [ w * dphi + s1 * (dphi . n) u ] (+ the inflow data
        # term 0.5 * s2 * (dphi . n) g): the weight (test k, trial K) of dphi
        un = np.einsum("eqk,ek->eq", ub, normal)
        W = (0.5 * (un + np.abs(un))[..., None, None] * np.eye(2)
             + 0.5 * (1.0 + np.sign(un))[..., None, None]
             * ub[..., :, None] * normal[:, None, None, :])
        if gv is not None:
            W += (0.5 * (1.0 - np.sign(un))[..., None, None]
                  * gv[..., :, None] * normal[:, None, None, :])
        return W

    wL = fd.qweights[None, :] * fd.int_len[:, None]
    basis, uv = _upwind_sides(space, u_field, fd, qdeg)
    for sr, sgn_r in ((0, 1.0), (1, -1.0)):
        W = dflux(uv[sr], fd.int_normal)
        for st, sgn_t in ((0, 1.0), (1, -1.0)):
            out[("int", st, sr)] = sgn_t * sgn_r * _local(
                basis[st], basis[sr], W, wL)

    if dirichlet_markers is not None:
        _, pts, nb, wLb, v, ub = _upwind_boundary(
            space, u_field, fd, qdeg, mesh, dirichlet_markers)
        gv = (None if g_d is None
              else np.asarray(g_d(pts[..., 0], pts[..., 1]), dtype=float))
        out["bdry"] = _local(v, v, dflux(ub, nb, gv), wLb)
    return out


def burman_local(space, mu, qdeg=None):
    """Gradient-jump penalty sum_F mu h_F^2 int_F [grad u] : [grad v] ds over
    interior facets, as local arrays keyed as in `facet_pairings`."""
    if qdeg is None:
        qdeg = 2 * space.element.degree + 2
    fd = facet_data(space.mesh, qdeg)
    grads = [_Basis(space, "grad", qdeg, fd.int_cells[:, s],
                          fd.int_var[s]) for s in range(2)]
    wL = fd.qweights[None, :] * fd.int_len[:, None] * fd.int_len[:, None] ** 2
    return {("int", st, sr): mu * sgn_t * sgn_r * _local(
                grads[st], grads[sr], None, wL)
            for st, sgn_t in ((0, 1.0), (1, -1.0))
            for sr, sgn_r in ((0, 1.0), (1, -1.0))}


def constrain_matrix(A, constrained):
    """Zero rows/columns of constrained dofs and put 1 on their diagonal;
    the result stores no zeros."""
    A = sp.csr_matrix(A, copy=True)
    n = A.shape[0]
    one = np.zeros(n)
    one[np.asarray(constrained, dtype=np.int64)] = 1.0
    rows = np.repeat(np.arange(n), np.diff(A.indptr))
    A.data[(one[rows] + one[A.indices]) > 0] = 0.0
    # the sum keeps no zero entries
    return (A + sp.diags(one)).tocsr()


# -- fixed sparsity pattern ---------------------------------------------------


def _sorted_entries(lo, hi, n, pairs, con):
    """Sort the entries of rows lo..hi-1: those of the local arrays on
    `pairs` ((rows, cols) each, row-major) and the diagonal at `con`.
    Returns the sorted distinct keys (row - lo) * n + col (int64), the slot
    of each entry among them (int32, in input order: pairs, then con) and
    the bounds of each pair's entries in that order."""
    sizes = [r.size * c.shape[1] for r, c in pairs]
    bounds = np.cumsum([0] + sizes)
    m = int(bounds[-1]) + len(con)
    # sort keys, each packed with its entry's position into one int64 when
    # they fit
    shift = m.bit_length()
    packed = int((hi - lo) * n).bit_length() + shift < 63
    key = np.empty(m, dtype=np.int64)
    for (rows, cols), a, b in zip(pairs, bounds, bounds[1:]):
        r, c = _entries(rows, cols)
        np.subtract(r, lo, out=key[a:b])
        key[a:b] *= n
        key[a:b] += c
    key[bounds[-1]:] = (con - lo) * n + con
    if packed:
        for a in range(0, m, 1 << 20):
            b = min(m, a + (1 << 20))
            key[a:b] <<= shift
            key[a:b] |= np.arange(a, b)
        key.sort()
        order = np.empty(m, dtype=np.int32)
        np.bitwise_and(key, (1 << shift) - 1, out=order, casting="unsafe")
        key >>= shift
    else:
        order = np.argsort(key, kind="stable").astype(np.int32)
        key = key[order]
    first = np.ones(m, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    unique = key[first]
    del key
    slot_sorted = np.cumsum(first, dtype=np.int32)
    del first
    slot_sorted -= 1
    slot = np.empty(m, dtype=np.int32)
    slot[order] = slot_sorted
    return unique, slot, bounds


class SparsityPattern:
    """One fixed CSR pattern over the dofs 0..n-1 of a mixed operator.

    `pairings` maps a key to (rows, cols), (m, nt) and (m, nr) arrays of
    global dofs: a local array (m, nt, nr) on that key couples rows[e] with
    cols[e].  A pairing may instead be (key, index): the pairs `index`
    (an index array) of the pairing `key` given earlier.  The pattern is
    the union of all pairings plus the diagonal of the `constrained` dofs,
    with sorted column indices; `slots[key]` maps the key's local entries,
    row-major, to slots of the pattern's `data` (int32).  Constraining
    zeroes the slots in constrained rows and columns and puts 1 in the
    constrained diagonal slots."""

    def __init__(self, n, pairings, constrained):
        con = np.asarray(constrained, dtype=np.int64)
        direct = {k: v for k, v in pairings.items()
                  if not isinstance(v[0], tuple)}
        # row blocks: the merged row ranges of the pairings (one per test
        # field of a mixed operator) and the gaps between them, sorted one
        # at a time so that the sort keys span one block
        merged = []
        for a, b in sorted((r.min(), r.max() + 1)
                           for r, _ in direct.values() if r.size):
            if merged and a < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        cuts = np.unique(np.r_[0, n, np.ravel(merged)]).astype(np.int64)
        block = {k: np.searchsorted(cuts, r.min(), side="right") - 1
                 for k, (r, _) in direct.items() if r.size}
        mask = np.zeros(n, dtype=bool)
        mask[con] = True
        self.n = n
        self.slots = {k: np.zeros(0, dtype=np.int32) for k in direct}
        self.diag = np.empty(len(con), dtype=np.int32)
        indptr = [np.zeros(1, dtype=np.int32)]
        indices, dropped = [], []
        nnz = 0
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            keys = [k for k in direct if block.get(k) == i]
            on = np.flatnonzero((con >= lo) & (con < hi))
            unique, slot, bounds = _sorted_entries(
                lo, hi, n, [direct[k] for k in keys], con[on])
            slot += nnz
            for k, a, b in zip(keys, bounds[:-1], bounds[1:]):
                self.slots[k] = slot[a:b]
            self.diag[on] = slot[bounds[-1]:]
            starts = np.searchsorted(unique, np.arange(1, hi - lo + 1) * n)
            indptr.append((starts + nnz).astype(np.int32))
            rows = np.repeat(np.arange(hi - lo), np.diff(np.r_[0, starts]))
            unique -= rows * n
            indices.append(unique.astype(np.int32))
            dropped.append(nnz + np.flatnonzero(mask[lo + rows]
                                                | mask[indices[-1]]))
            nnz += len(unique)
            del unique, rows
        self.nnz = nnz
        self.indptr = np.concatenate(indptr)
        self.indices = np.concatenate(indices)
        self.dropped = np.concatenate(dropped).astype(np.int32)
        # matrices share these: a change in place would corrupt the pattern
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False
        for k, (base, index) in pairings.items():
            if k not in direct:
                pairs = len(pairings[base][0])
                self.slots[k] = self.slots[base].reshape(
                    pairs, -1)[index].ravel()

    def scatter(self, terms, out=None):
        """Add the local arrays `terms` (key -> local) to `out` (a new zero
        array when None), one unbuffered add per key."""
        if out is None:
            out = np.zeros(self.nnz)
        for key, local in terms.items():
            np.add.at(out, self.slots[key], np.ravel(local))
        return out

    def compact(self, data):
        """(slots, values) of the nonzero entries of pattern data."""
        nz = np.flatnonzero(data).astype(np.int32)
        return nz, data[nz]

    def expand(self, compact, weight=1.0, out=None):
        """Add weight * a compact array to `out` (a new zero array when
        None)."""
        if out is None:
            out = np.zeros(self.nnz)
        slots, vals = compact
        out[slots] += weight * vals
        return out

    def matrix(self, data):
        """CSR matrix over the pattern, sharing its read-only index
        arrays: operations that change a matrix's structure in place
        (eliminate_zeros, sort_indices) need a copy."""
        A = sp.csr_matrix((data, self.indices, self.indptr),
                          shape=(self.n, self.n))
        A.has_canonical_format = True
        return A

    def constrain(self, data):
        """Constrain `data` in place and return its matrix."""
        data[self.dropped] = 0.0
        data[self.diag] = 1.0
        return self.matrix(data)
