"""Reference elements, function spaces, dof maps, interpolation, strong
Dirichlet data and the discrete differential-complex maps (CG -vcurl-> RT
-div-> DG and the rotated H(curl) family).  CG3 -vcurl-> BDM2 -div-> DG1 is
an exact complex as well (Arnold, Falk & Winther, Acta Numerica 15, 2006):
with zero normal trace, every divergence-free BDM2 velocity is vcurl of one
CG3 stream function that vanishes on the boundary of a non-periodic mesh
(`MixedModel.stream_lift`).

Basis functions are constructed cell by cell: on each cell the local basis is
the dual of a set of *globally defined* functionals (point evaluations, edge
moments taken along the global low-to-high edge direction, interior
moments).  A CG_k space evaluates at the vertices, at the k - 1 points i / k
along each global edge direction and, for k = 3, at the centroid.  Shared
functionals then automatically produce normal/tangential continuity without
any sign bookkeeping.  `FunctionSpace.dual_points_weights`
is the one definition of these functionals: the basis, `interpolate`,
`dirichlet_values` and, through `assembly.interpolation_matrix`, the complex
maps and the multigrid transfers all apply it.  `DOF_COUNTS` gives each
family's dofs per vertex, per edge and per cell, and
`FunctionSpace.entity_dofs` is the one global numbering of them (vertex
block, then edge block, then cell block, each entity's dofs consecutive):
the dofmap, `FunctionSpace.boundary_dofs` and `multigrid.star_patches` read
it.  The sparse operators
themselves (mass matrices, the complex maps) are built by `assembly`:
`cell_matrix` and `interpolation_matrix`.

The per-cell coefficients `coeff` combine a prime basis that is written in
each cell's affine reference coordinates xi = J_c^-1 (x - p_c0) and mapped by
T_c: psi_v(x) = T_c psihat_v(xi), with T_c = I (CG, DG, VCG), J_c (RT, BDM:
the contravariant Piola map) or J_c^-T (NED: the covariant one).  So one
table of psihat and its reference gradients per element and quadrature rule
(`reference_table`), and one per reference facet variant, serves every cell
of every mesh, and a space holds no per-cell table: `assembly` contracts the
shared table with `coeff`, T_c and J_c^-1.  J_c, J_c^-1 and the rest of the
cell geometry are computed once per mesh (`Mesh2D`).  Nodal families with
at most one point per edge share one `coeff` for all cells; CG3 has one per
cell.  `FunctionSpace.tabulate_cells` evaluates the basis at arbitrary
physical points (transfers, interpolation, projection).
"""

import functools

import numpy as np
from scipy.sparse.linalg import spsolve

from .assembly import cell_matrix, cell_vector, interpolation_matrix
from .mesh import _LOCAL_EDGE_VERTICES
from .quadrature import gauss_interval, triangle_rule

SUPPORTED = {
    ("CG", 1), ("CG", 2), ("CG", 3), ("DG", 0), ("DG", 1), ("VCG", 1),
    ("VCG", 2), ("RT", 1), ("RT", 2), ("BDM", 1), ("BDM", 2), ("NED", 1),
    ("NED", 2),
}

# dofs per vertex, per edge and per cell of each family at degree k
DOF_COUNTS = {
    "CG": lambda k: (1, k - 1, (k - 1) * (k - 2) // 2),
    "VCG": lambda k: (2, 2 * (k - 1), 0),
    "DG": lambda k: (0, 0, (k + 1) * (k + 2) // 2),
    "RT": lambda k: (0, k, 2 * (k - 1)),
    "NED": lambda k: (0, k, 2 * (k - 1)),
    "BDM": lambda k: (0, k + 1, 3 * (k - 1)),
}


class UnsupportedElementError(Exception):
    pass


# -- scalar monomials ------------------------------------------------------

def _mono_exponents(dmax):
    return [(a, b) for d in range(dmax + 1) for a in range(d, -1, -1)
            for b in [d - a]]


def scalar_monomials(u, dmax, grad=False):
    """Evaluate monomials u^a v^b (total degree <= dmax) at local points
    u[..., 2].  Returns (..., nsm) values and optionally (..., nsm, 2)
    derivatives with respect to the *local* coordinates."""
    exps = _mono_exponents(dmax)
    x = u[..., 0]
    y = u[..., 1]
    vals = np.stack([x ** a * y ** b for a, b in exps], axis=-1)
    if not grad:
        return vals, None
    gx = np.stack([a * x ** max(a - 1, 0) * y ** b for a, b in exps], axis=-1)
    gy = np.stack([b * x ** a * y ** max(b - 1, 0) for a, b in exps], axis=-1)
    return vals, np.stack([gx, gy], axis=-1)


def _legendre(m, s):
    if m == 0:
        return np.ones_like(s)
    if m == 1:
        return s
    if m == 2:
        return 1.5 * s * s - 0.5
    raise ValueError(m)


# -- element descriptions ----------------------------------------------------

class ElementFamily:
    """Monomial span plus dual-functional layout for one (family, degree)."""

    def __init__(self, family, degree):
        if (family, degree) not in SUPPORTED:
            raise UnsupportedElementError(f"{family}{degree}")
        self.family = family
        self.degree = degree
        self.scalar = family in ("CG", "DG")
        self.nodal = family in ("CG", "DG", "VCG")
        self.ncomp = 1 if self.scalar else 2
        self._build_span()
        self.n_vertex, self.n_edge, self.n_cell = DOF_COUNTS[family](degree)
        # nodal functionals with at most one point per edge sit at the same
        # reference points in every cell, so one `coeff` serves them all;
        # CG3's two edge points are ordered along the global edge instead
        self.shared = self.nodal and self.n_edge <= self.ncomp
        self.nloc = 3 * self.n_vertex + 3 * self.n_edge + self.n_cell
        assert self.nloc == len(self.vmono)

    def _build_span(self):
        fam, k = self.family, self.degree
        if fam in ("CG", "DG"):
            self.dmax = k
            exps = _mono_exponents(k)
            nsm = len(exps)
            vm = np.zeros((nsm, 1, nsm))
            for i in range(nsm):
                vm[i, 0, i] = 1.0
            self.vmono = vm
        elif fam in ("BDM", "VCG"):
            self.dmax = k
            exps = _mono_exponents(k)
            nsm = len(exps)
            vm = np.zeros((2 * nsm, 2, nsm))
            for i in range(nsm):
                vm[2 * i, 0, i] = 1.0
                vm[2 * i + 1, 1, i] = 1.0
            self.vmono = vm
        elif fam in ("RT", "NED"):
            self.dmax = k
            exps = _mono_exponents(k)
            nsm = len(exps)
            idx = {e: i for i, e in enumerate(exps)}
            base = _mono_exponents(k - 1)
            rows = []
            for e in base:
                for comp in (0, 1):
                    r = np.zeros((2, nsm))
                    r[comp, idx[e]] = 1.0
                    rows.append(r)
            # x * homogeneous(k-1)  (RT); rotated (-y, x) * hom (NED)
            for a in range(k - 1, -1, -1):
                b = k - 1 - a
                r = np.zeros((2, nsm))
                if fam == "RT":
                    r[0, idx[(a + 1, b)]] = 1.0
                    r[1, idx[(a, b + 1)]] = 1.0
                else:
                    r[0, idx[(a, b + 1)]] = -1.0
                    r[1, idx[(a + 1, b)]] = 1.0
                rows.append(r)
            self.vmono = np.array(rows)
        self.nsm = self.vmono.shape[2]

    def prime_basis(self, xi, grad=True):
        """The prime basis psihat (..., nvm, ncomp) and its reference
        gradients (..., nvm, ncomp, 2) (None unless `grad`) at reference
        points xi (..., 2)."""
        sm, smg = scalar_monomials(xi, self.dmax, grad)
        nvm, ncomp, nsm = self.vmono.shape
        M = self.vmono.reshape(nvm * ncomp, nsm).T
        vals = (sm @ M).reshape(sm.shape[:-1] + (nvm, ncomp))
        if not grad:
            return vals, None
        G = (np.swapaxes(smg, -1, -2) @ M).reshape(
            smg.shape[:-2] + (2, nvm, ncomp))
        return vals, np.moveaxis(G, -3, -1)


class FunctionSpace:
    """A finite element space over a Mesh2D with global dof numbering
    (vertex block, then edge block, then cell block)."""

    def __init__(self, mesh, family, degree):
        self.mesh = mesh
        self.element = ElementFamily(family, degree)
        el = self.element
        nv, ne, nc = mesh.num_vertices, mesh.num_edges, mesh.num_cells
        self.vertex_offset = 0
        self.edge_offset = el.n_vertex * nv
        self.cell_offset = self.edge_offset + el.n_edge * ne
        self.total_dofs = self.cell_offset + el.n_cell * nc
        # T_c, the Piola map of the basis (None for the identity)
        self.piola = (mesh.jac if family in ("RT", "BDM")
                      else mesh.jac_inv.transpose(0, 2, 1) if family == "NED"
                      else None)
        self._build_dofmap()
        self._build_coefficients()

    def reference_coords(self, cells, pts):
        """Reference coordinates (n, nq, 2) of points pts (n, nq, 2)."""
        p0 = self.mesh.cell_coords[cells, 0]
        return np.einsum("cij,cqj->cqi", self.mesh.jac_inv[cells],
                         pts - p0[:, None, :])

    # dofmap ------------------------------------------------------------------

    def entity_dofs(self, dim, ids):
        """Global dofs (ids.shape + (n,)) of the vertices (dim 0), edges
        (dim 1) or cells (dim 2) `ids`, in local order: the last axis holds
        the n dofs of each entity."""
        el = self.element
        first, n = ((self.vertex_offset, el.n_vertex),
                    (self.edge_offset, el.n_edge),
                    (self.cell_offset, el.n_cell))[dim]
        return first + np.asarray(ids)[..., None] * n + np.arange(n)

    def _build_dofmap(self):
        el = self.element
        m = self.mesh
        nc = m.num_cells
        self.dofmap = np.concatenate([
            self.entity_dofs(0, m.cells).reshape(nc, 3 * el.n_vertex),
            self.entity_dofs(1, m.cell_edges).reshape(nc, 3 * el.n_edge),
            self.entity_dofs(2, np.arange(nc))], axis=1)

    # dual functionals -------------------------------------------------------

    def dual_points_weights(self, cells=None, edge_degree=None, cell_degree=None):
        """Quadrature representation of each cell's dual functionals.

        Returns (points (n, nQ, 2), weights (n, nQ, nloc, ncomp)) such that
        l_{c,i}(f) = sum_q weights[c,q,i,:] . f(points[c,q]).
        """
        el = self.element
        m = self.mesh
        if cells is None:
            cells = np.arange(m.num_cells)
        cells = np.asarray(cells)
        n = len(cells)
        if edge_degree is None:
            edge_degree = 2 * el.degree + 1
        if cell_degree is None:
            cell_degree = 2 * el.degree

        pts_list = []
        wts_list = []
        nloc = el.nloc

        def point_values(p, first):
            """Each component's value at each point of p (n, np, 2): the
            functionals first, first + 1, ..., points outer, components
            inner."""
            w = np.zeros(p.shape[:2] + (nloc, el.ncomp))
            for a in range(p.shape[1]):
                for j in range(el.ncomp):
                    w[:, a, first + a * el.ncomp + j, j] = 1.0
            pts_list.append(p)
            wts_list.append(w)

        if el.n_vertex:
            point_values(m.cell_coords[cells], 0)
        if el.n_edge and el.nodal:
            # the points at i / k along the global edge direction
            t = np.arange(1, el.degree)[:, None] / el.degree
            ep = m.cell_edge_points[cells]
            point_values((ep[:, :, None, 0] * (1 - t)
                          + ep[:, :, None, 1] * t).reshape(n, -1, 2),
                         3 * el.n_vertex)
        elif el.n_edge:
            rule = gauss_interval(edge_degree)
            xi = rule.points
            nq = len(xi)
            ep = m.cell_edge_points[cells]             # (n,3,2,2)
            pts = (ep[:, :, 0, None, :] * (1 - xi)[None, None, :, None]
                   + ep[:, :, 1, None, :] * xi[None, None, :, None])
            L = m.cell_edge_len[cells]                 # (n,3)
            # normal moments for H(div), tangential ones for H(curl)
            direc = (m.cell_edge_normal[cells] if el.family in ("RT", "BDM")
                     else m.cell_edge_tangent[cells])  # (n,3,2)
            s = 2.0 * xi - 1.0
            w = np.zeros((n, 3, nq, nloc, 2))
            for le in range(3):
                for mdeg in range(el.n_edge):
                    i = le * el.n_edge + mdeg
                    leg = _legendre(mdeg, s)
                    w[:, le, :, i, :] = (rule.weights[None, :, None]
                                         * leg[None, :, None]
                                         * L[:, le, None, None]
                                         * direc[:, le, None, :])
            pts_list.append(pts.reshape(n, 3 * nq, 2))
            wts_list.append(w.reshape(n, 3 * nq, nloc, 2))
        if el.family == "DG":
            # DG0: the centroid value; DG1: the vertex values
            p = m.cell_coords[cells]
            point_values(p if el.degree else p.mean(axis=1)[:, None, :], 0)
        elif el.n_cell and el.nodal:
            # CG3: the centroid value
            point_values(m.cell_centers[cells][:, None, :],
                         3 * (el.n_vertex + el.n_edge))
        elif el.n_cell:
            rule = triangle_rule(cell_degree)
            ref = rule.points
            p = m.cell_coords[cells]
            pts = (p[:, None, 0, :]
                   + ref[None, :, 0:1] * (p[:, None, 1, :] - p[:, None, 0, :])
                   + ref[None, :, 1:2] * (p[:, None, 2, :] - p[:, None, 0, :]))
            jac = 2.0 * m.cell_area[cells]
            wq = rule.weights[None, :] * jac[:, None]
            w = np.zeros((n, len(ref), nloc, 2))
            base = 3 * el.n_edge
            mom = []
            mom.append(lambda x, c, h: np.broadcast_to(
                np.array([1.0, 0.0]), x.shape))
            mom.append(lambda x, c, h: np.broadcast_to(
                np.array([0.0, 1.0]), x.shape))
            if el.family == "BDM":
                def rot(x, c, h):
                    u = (x - c[:, None, :]) / h[:, None, None]
                    return np.stack([-u[..., 1], u[..., 0]], axis=-1)
                mom.append(rot)
            for j, fn in enumerate(mom[:el.n_cell]):
                r = fn(pts, m.cell_centers[cells], m.cell_scale[cells])
                w[:, :, base + j, :] = wq[:, :, None] * r
            pts_list.append(pts)
            wts_list.append(w)
        points = np.concatenate(pts_list, axis=1)
        weights = np.concatenate(wts_list, axis=1)
        return points, weights

    # basis coefficients -----------------------------------------------------

    def _build_coefficients(self):
        el = self.element
        nc = self.mesh.num_cells
        # shared functionals: the first cell's coefficients serve every cell
        cells = np.arange(1 if el.shared else nc)
        pts, wts = self.dual_points_weights(cells)
        prime, _ = el.prime_basis(self.reference_coords(cells, pts),
                                  grad=False)
        if self.piola is not None:
            n, nq, nvm, ncomp = prime.shape
            prime = (prime.reshape(n, nq * nvm, ncomp)
                     @ self.piola[cells].transpose(0, 2, 1)).reshape(
                         prime.shape)
        D = np.einsum("cqik,cqvk->civ", wts, prime, optimize=True)
        try:
            coeff = np.linalg.inv(D).transpose(0, 2, 1).copy()
        except np.linalg.LinAlgError as exc:
            raise UnsupportedElementError(
                f"dual basis of {el.family}{el.degree} is singular") from exc
        # coeff: (nc, nloc, nvm) with basis_i = sum_v coeff[c,i,v] psi_v
        self.coeff = np.broadcast_to(coeff, (nc,) + coeff.shape[1:])

    # evaluation ---------------------------------------------------------------

    def reference_table(self, qdeg, facet=False):
        """The element's shared table (module-level `reference_table`)."""
        el = self.element
        return reference_table(el.family, el.degree, qdeg, facet)

    def tabulate_cells(self, cells, pts, grad=False):
        """Basis values (n, nq, nloc, ncomp) (and gradients
        (n, nq, nloc, ncomp, 2)) at physical points pts (n, nq, 2)."""
        el = self.element
        cells = np.asarray(cells)
        xi = self.reference_coords(cells, pts)
        sm, smg = scalar_monomials(xi, el.dmax, grad)
        n, nq, nsm = sm.shape
        nvm, ncomp, _ = el.vmono.shape
        nloc = self.coeff.shape[1]
        # fold the monomial table and T into the cell coefficients,
        # Ct[c, s, (i, k)] = sum_v,K coeff[c, i, v] vmono[v, K, s] T[c, k, K];
        # values and gradients are then one batched matmul each
        C = (self.coeff[cells].reshape(-1, nvm)
             @ el.vmono.reshape(nvm, ncomp * nsm)).reshape(
                 n, nloc, ncomp, nsm)
        if self.piola is None:
            Ct = C.reshape(n, nloc * ncomp, nsm).transpose(0, 2, 1)
        else:
            Ct = np.einsum("ckK,ciKs->csik", self.piola[cells], C).reshape(
                n, nsm, nloc * ncomp)
        vals = (sm @ Ct).reshape(n, nq, nloc, ncomp)
        if not grad:
            return vals, None
        # physical monomial gradients: d/dx_d = sum_D Jinv[D, d] d/dxi_D
        smg = np.einsum("cqsD,cDd->cqds", smg, self.mesh.jac_inv[cells])
        G = (smg.reshape(n, nq * 2, nsm) @ Ct).reshape(n, nq, 2, nloc, ncomp)
        # C order, so the gradients reshape without copies downstream
        return vals, np.ascontiguousarray(np.moveaxis(G, 2, -1))

    def quadrature_weights(self, degree):
        """Physical quadrature weights (nc, nq) of the cell rule of exactness
        `degree`."""
        return (triangle_rule(degree).weights[None, :]
                * (2.0 * self.mesh.cell_area)[:, None])

    def cell_quadrature(self, degree):
        """Physical quadrature points and weights on every cell."""
        ref = triangle_rule(degree).points
        p = self.mesh.cell_coords
        pts = (p[:, None, 0, :]
               + ref[None, :, 0:1] * (p[:, None, 1, :] - p[:, None, 0, :])
               + ref[None, :, 1:2] * (p[:, None, 2, :] - p[:, None, 0, :]))
        return pts, self.quadrature_weights(degree)

    # boundary dofs -------------------------------------------------------------

    def boundary_dofs(self, markers=None):
        """Global dofs whose functionals are supported on marked boundary
        edges (all boundary edges if markers is None)."""
        m = self.mesh
        edges = _marked_boundary_edges(m, markers)
        return np.unique(np.concatenate([
            self.entity_dofs(0, np.unique(m.edges[edges])).ravel(),
            self.entity_dofs(1, edges).ravel()]))


def _marked_boundary_edges(mesh, markers):
    if markers is None:
        return mesh.boundary_edges
    return np.intersect1d(mesh.boundary_edges,
                          mesh.edges_with_markers(markers))


def _eval_pointwise(g, pts):
    """g(x, y) at points pts (n, 2) as (n, ncomp); g returns (n,) or (n,
    ncomp) values."""
    out = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    if out.ndim not in (1, 2) or out.shape[0] != len(pts):
        raise ValueError(f"pointwise data at {len(pts)} points has shape "
                         f"{out.shape}; expected the points on the leading "
                         "axis")
    return out[:, None] if out.ndim == 1 else out


class Field:
    """Coefficient vector over a FunctionSpace."""

    def __init__(self, space, coefficients=None):
        self.space = space
        if coefficients is None:
            coefficients = np.zeros(space.total_dofs)
        coefficients = np.asarray(coefficients, dtype=float)
        if coefficients.shape != (space.total_dofs,):
            raise ValueError("coefficient length does not match space")
        self.coefficients = coefficients

    def eval_cells(self, cells, pts, grad=False):
        vals, grads = self.space.tabulate_cells(cells, pts, grad)
        loc = self.coefficients[self.space.dofmap[cells]]
        out = np.einsum("ci,cqik->cqk", loc, vals)
        if grad:
            gout = np.einsum("ci,cqikd->cqkd", loc, grads)
            return out, gout
        return out

    def copy(self):
        return Field(self.space, self.coefficients.copy())


# -- interpolation / projection ----------------------------------------------


def _dual_values(space, f, quad_degree=None, cells=None):
    """The dual functionals of `space` on `cells` (every cell if None)
    applied to the pointwise function f, evaluated with quadrature of
    exactness `quad_degree` (default degree + 6), as a coefficient vector
    that is 0 on the dofs of no cell in `cells`."""
    if quad_degree is None:
        quad_degree = space.element.degree + 6
    pts, wts = space.dual_points_weights(
        cells, edge_degree=quad_degree, cell_degree=quad_degree)
    shp = pts.shape
    fv = _eval_pointwise(f, pts.reshape(-1, 2)).reshape(shp[0], shp[1], -1)
    local = np.einsum("cqik,cqk->ci", wts, fv, optimize=True)
    out = np.zeros(space.total_dofs)
    # "set" semantics; shared functionals agree across cells
    dofmap = space.dofmap if cells is None else space.dofmap[cells]
    out[dofmap.ravel()] = local.ravel()
    return out


def interpolate(space, f, quad_degree=None):
    """Interpolate a pointwise function via the dual functionals, evaluated
    with quadrature of exactness `quad_degree` (default degree + 6)."""
    return Field(space, _dual_values(space, f, quad_degree))


def dirichlet_values(space, g, markers=None):
    """Strong Dirichlet data: the dofs of `space` on the boundary edges with
    `markers` (every boundary edge if None) and their values, the dual
    functionals applied to the pointwise function g as `interpolate` applies
    them (0 if g is None).  For RT data the values are the normal edge
    moments of g, so a field that matches them has the boundary flux of g."""
    dofs = space.boundary_dofs(markers)
    if g is None:
        return dofs, np.zeros(len(dofs))
    m = space.mesh
    cells = np.unique(m.edge_cells[_marked_boundary_edges(m, markers), 0])
    return dofs, _dual_values(space, g, cells=cells)[dofs]


def l2_project(space, source, quad_degree=None):
    """L2 projection of a Field or pointwise function onto `space`."""
    if quad_degree is None:
        quad_degree = 2 * space.element.degree + 2
    pts, _ = space.cell_quadrature(quad_degree)
    if isinstance(source, Field):
        sv = source.eval_cells(np.arange(space.mesh.num_cells), pts)
    else:
        shp = pts.shape
        sv = _eval_pointwise(source, pts.reshape(-1, 2)).reshape(
            shp[0], shp[1], -1)
    if sv.shape[-1] != space.element.ncomp:
        raise ValueError("source component count does not match space")
    M = cell_matrix(space, space, qdeg=quad_degree)
    b = cell_vector(space, "val", sv, qdeg=quad_degree)
    return Field(space, spsolve(M.tocsc(), b))


def complex_maps(cg, rt, dg):
    """Coefficient matrices of vcurl: CG_k -> RT_k and div: RT_k -> DG_{k-1}.

    Exact on coefficients because the spaces are drawn from one discrete
    complex; built by applying the target space's dual functionals to the
    mapped basis functions.
    """
    if not (cg.element.family == "CG" and rt.element.family == "RT"
            and dg.element.family == "DG"):
        raise ValueError("expected (CG, RT, DG) spaces")
    if not (cg.element.degree == rt.element.degree
            == dg.element.degree + 1):
        raise ValueError("incompatible degrees for the discrete complex")
    V = interpolation_matrix(cg, rt, op="vcurl")
    D = interpolation_matrix(rt, dg, op="div")
    return V, D


def grad_to_hcurl(cg, ned):
    """Coefficient matrix of grad: CG_k -> NED_k."""
    if cg.element.degree != ned.element.degree:
        raise ValueError("incompatible degrees")
    return interpolation_matrix(cg, ned, op="grad")


def curl_to_dg(ned, dg):
    """Coefficient matrix of curl: NED_k -> DG_{k-1}."""
    if ned.element.degree != dg.element.degree + 1:
        raise ValueError("incompatible degrees")
    return interpolation_matrix(ned, dg, op="curl")


# -- reference tables ---------------------------------------------------------

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@functools.lru_cache(maxsize=None)
def reference_table(family, degree, qdeg, facet=False):
    """The prime basis psihat of (family, degree) and its reference
    gradients, shared by every cell of every mesh, read-only: at the points
    of the reference cell rule of exactness `qdeg`, shapes (1, nq, nvm,
    ncomp) and (1, nq, nvm, ncomp, 2); or, with `facet`, at the Gauss points
    of each reference facet variant 2 le + d, shapes (6, nq, ...): local edge
    le traversed from its first vertex (d = 0) or from its second (d = 1)."""
    if facet:
        t = gauss_interval(qdeg).points[:, None]
        ends = REF_VERTICES[_LOCAL_EDGE_VERTICES]
        ends = np.stack([ends, ends[:, ::-1]], axis=1).reshape(6, 2, 1, 2)
        xi = ends[:, 0] * (1.0 - t) + ends[:, 1] * t
    else:
        xi = triangle_rule(qdeg).points[None]
    tables = ElementFamily(family, degree).prime_basis(xi)
    for a in tables:
        a.flags.writeable = False
    return tables
