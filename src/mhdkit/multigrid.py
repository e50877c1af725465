"""Geometric multigrid over nested mesh hierarchies: exact-embedding
prolongation, vertex-star additive-Schwarz patch relaxation wrapped in a few
GMRES iterations as the smoother, Galerkin coarse operators and a direct
coarse solve.  Works monolithically on any ordered tuple of fields.

Patch relaxation follows PCPATCH (Farrell, Knepley, Mitchell & Wechsung,
ACM TOMS 2021): patches of equal size form a group whose dense blocks are
gathered, inverted and applied as one batch."""

import logging

import numpy as np
import scipy.sparse as sp

from .elements import FunctionSpace
from .linalg import LuSolver, fgmres

log = logging.getLogger(__name__)


def build_transfer(coarse_space, fine_space, child_map):
    """Prolongation matrix embedding the coarse space exactly into the fine
    space of a nested uniform refinement (restriction is the transpose)."""
    if coarse_space.element.family != fine_space.element.family or \
            coarse_space.element.degree != fine_space.element.degree:
        raise ValueError("transfer requires matching element families")
    if child_map.shape[0] != coarse_space.mesh.num_cells:
        raise ValueError("hierarchy is not nested with these spaces")
    ncoarse = coarse_space.mesh.num_cells
    children = child_map.ravel()
    parents = np.repeat(np.arange(ncoarse), 4)
    pts, wts = fine_space.dual_points_weights(cells=children)
    vals, _ = coarse_space.tabulate_cells(parents, pts)
    local = np.einsum("cqik,cqjk->cij", wts, vals)
    rows = fine_space.dofmap[children]
    cols = coarse_space.dofmap[parents]
    nf = rows.shape[1]
    ncl = cols.shape[1]
    R = np.repeat(rows, ncl, axis=1).ravel()
    C = np.tile(cols, (1, nf)).ravel()
    V = local.reshape(-1)
    key = R.astype(np.int64) * coarse_space.total_dofs + C
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(len(key), dtype=bool)
    first[1:] = key[1:] != key[:-1]
    P = sp.coo_matrix((V[order][first], (R[order][first], C[order][first])),
                      shape=(fine_space.total_dofs, coarse_space.total_dofs))
    P = P.tocsr()
    P.data[np.abs(P.data) < 1e-12] = 0.0
    P.eliminate_zeros()
    return P


def star_patches(spaces, constrained=None):
    """Vertex-star patch index sets over a tuple of FunctionSpaces sharing one
    mesh.  Patch i collects, for every space, the dofs attached to vertex i,
    to the edges meeting i and to the cells meeting i (their basis functions
    are supported inside the star); constrained dofs are excluded and empty
    patches dropped.  Each patch is a sorted int64 array; patches come in
    vertex order."""
    mesh = spaces[0].mesh
    nv = mesh.num_vertices
    # vertex-entity incidence: each edge meets its two vertices, each cell
    # its three
    edges = np.asarray(mesh.edges, dtype=np.int64)
    cells = np.asarray(mesh.cells, dtype=np.int64)
    incidence = ((np.arange(nv), np.arange(nv)),
                 (edges.ravel(), np.repeat(np.arange(len(edges)), 2)),
                 (cells.ravel(), np.repeat(np.arange(len(cells)), 3)))
    offsets = np.cumsum([0] + [s.total_dofs for s in spaces])
    total = int(offsets[-1])
    verts, dofs = [], []
    for k, s in enumerate(spaces):
        el = s.element
        entity_dofs = ((s.vertex_offset, el.n_vertex),
                       (s.edge_offset, el.n_edge),
                       (s.cell_offset, el.n_cell))
        for (v, ent), (first, n) in zip(incidence, entity_dofs):
            if n:
                verts.append(np.repeat(v, n))
                dofs.append((offsets[k] + first + ent[:, None] * n
                             + np.arange(n)).ravel())
    verts = np.concatenate(verts)
    dofs = np.concatenate(dofs)
    if constrained is not None and len(constrained):
        keep = np.ones(total, dtype=bool)
        keep[np.asarray(constrained, dtype=np.int64)] = False
        verts, dofs = verts[keep[dofs]], dofs[keep[dofs]]
    # sort by (vertex, dof) and drop repeats; then cut at vertex boundaries
    key = np.unique(verts * total + dofs)
    verts, dofs = np.divmod(key, total)
    bounds = np.searchsorted(verts, np.arange(nv + 1))
    return [dofs[a:b] for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _gather_blocks(A, idx):
    """Dense blocks A[p][:, p] for the rows p of an (n, s) index array, read
    from a CSR matrix in one fancy-index call; the (n s^2) index arrays are
    freed on return, before the blocks are inverted."""
    n, s = idx.shape
    rows = np.repeat(idx, s, axis=1).ravel()
    cols = np.tile(idx, (1, s)).ravel()
    return np.asarray(A[rows, cols]).reshape(n, s, s)


def _invert_blocks(blocks):
    """Batched inverse of a stack of dense patch blocks; a singular block is
    regularised by a 1e-12 diagonal shift."""
    try:
        return np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        log.warning("singular patch block: regularising with 1e-12 "
                    "diagonal shift")
    shift = 1e-12 * np.eye(blocks.shape[-1])
    inv = np.empty_like(blocks)
    for i, block in enumerate(blocks):
        try:
            inv[i] = np.linalg.inv(block)
        except np.linalg.LinAlgError:
            inv[i] = np.linalg.inv(block + shift)
    return inv


class PatchSmoother:
    """Additive Schwarz over precomputed patch index sets:
    x = omega * sum_p R_p^T A_p^{-1} R_p r.

    Patches are grouped by size.  `setup` gathers each group's dense blocks
    from the CSR matrix in one fancy-index call and inverts them in one
    batched call; `apply` is a gather, one batched matmul per group and one
    `bincount` scatter over all patches."""

    def __init__(self, patches):
        groups = {}
        for p in patches:
            groups.setdefault(len(p), []).append(p)
        self.group_idx = [np.array(g) for g in groups.values()]
        self._scatter = np.concatenate([np.zeros(0, dtype=np.int64)]
                                       + [idx.ravel()
                                          for idx in self.group_idx])
        self._inv = None

    def setup(self, A):
        A = A.tocsr()
        self._inv = [_invert_blocks(_gather_blocks(A, idx))
                     for idx in self.group_idx]

    def apply(self, r, omega=1.0):
        """Sum of damped local solves of the restricted residual; inside a
        Krylov smoother the scaling is absorbed, hence omega = 1 by
        default."""
        local = [np.matmul(inv, r[idx][:, :, None]).ravel()
                 for idx, inv in zip(self.group_idx, self._inv)]
        x = np.concatenate([np.zeros(0)] + local)
        return np.bincount(self._scatter, weights=omega * x, minlength=len(r))


class MgConfig:
    def __init__(self, smooth_iters=6, cycles=1):
        if smooth_iters < 1:
            raise ValueError("smoother iterations must be >= 1")
        self.smooth_iters = smooth_iters
        self.cycles = cycles


class MgHierarchy:
    """Per-level spaces / transfers / patches for a tuple of fields over a
    MeshHierarchy; built once and reused across Jacobians."""

    def __init__(self, hierarchy, field_specs, bc_markers):
        """field_specs: list of (family, degree); bc_markers: per field, None
        (no strong dofs), 'all', or list of marker names."""
        self.hierarchy = hierarchy
        nlev = len(hierarchy)
        self.nlevels = nlev
        self.spaces = []
        self.constrained = []
        for mesh in hierarchy.levels:
            sps = tuple(FunctionSpace(mesh, fam, deg)
                        for fam, deg in field_specs)
            self.spaces.append(sps)
            offs = np.cumsum([0] + [s.total_dofs for s in sps])
            con = []
            for k, s in enumerate(sps):
                mk = bc_markers[k]
                if mk is None:
                    continue
                dofs = s.boundary_dofs(None if mk == "all" else mk)
                con.append(offs[k] + dofs)
            self.constrained.append(np.concatenate(con) if con
                                    else np.zeros(0, dtype=np.int64))
        self.transfers = []
        for lv in range(nlev - 1):
            child = hierarchy.cell_children[lv]
            blocks = [build_transfer(self.spaces[lv][k],
                                     self.spaces[lv + 1][k], child)
                      for k in range(len(field_specs))]
            P = sp.block_diag(blocks, format="csr")
            # corrections vanish on constrained dofs
            maskf = np.ones(P.shape[0])
            maskf[self.constrained[lv + 1]] = 0.0
            maskc = np.ones(P.shape[1])
            maskc[self.constrained[lv]] = 0.0
            P = sp.diags(maskf) @ P @ sp.diags(maskc)
            self.transfers.append(P.tocsr())
        # the coarsest level is solved by LU, not smoothed
        self.patches = [None] + [star_patches(self.spaces[lv],
                                              self.constrained[lv])
                                 for lv in range(1, nlev)]
        self.sizes = [sum(s.total_dofs for s in sps) for sps in self.spaces]

    @property
    def fine_spaces(self):
        return self.spaces[-1]


class GeometricMultigrid:
    """V-cycles with GMRES(patch) smoothing; coarse level solved by LU."""

    def __init__(self, mg_hierarchy, config=None):
        self.ctx = mg_hierarchy
        self.config = config or MgConfig()
        self.matrices = None
        self.smoothers = None
        self.coarse_lu = None

    def setup(self, A_fine):
        ctx = self.ctx
        n = ctx.nlevels
        mats = [None] * n
        mats[-1] = A_fine.tocsr()
        for lv in range(n - 2, -1, -1):
            P = ctx.transfers[lv]
            A = (P.T @ (mats[lv + 1] @ P)).tocsr()
            con = ctx.constrained[lv]
            if len(con):
                one = np.zeros(A.shape[0])
                one[con] = 1.0
                A = (A + sp.diags(one)).tocsr()
            mats[lv] = A
        self.matrices = mats
        self.smoothers = []
        for lv in range(1, n):
            sm = PatchSmoother(ctx.patches[lv])
            sm.setup(mats[lv])
            self.smoothers.append(sm)
        self.coarse_lu = LuSolver(mats[0])
        return self

    def _smooth(self, lv, b, x):
        sm = self.smoothers[lv - 1]
        res = fgmres(self.matrices[lv], b, M=sm.apply, x0=x,
                     rtol=0.0, atol=0.0, restart=self.config.smooth_iters,
                     maxiter=self.config.smooth_iters)
        return res.x

    def vcycle(self, lv, b, x):
        if lv == 0:
            return self.coarse_lu.solve(b)
        x = self._smooth(lv, b, x)
        r = b - self.matrices[lv] @ x
        P = self.ctx.transfers[lv - 1]
        rc = P.T @ r
        xc = self.vcycle(lv - 1, rc, np.zeros_like(rc))
        x = x + P @ xc
        return self._smooth(lv, b, x)

    def apply(self, r):
        """Preconditioner application: `cycles` V-cycles from zero."""
        x = np.zeros_like(r)
        for _ in range(self.config.cycles):
            x = self.vcycle(self.ctx.nlevels - 1, r, x)
        return x
