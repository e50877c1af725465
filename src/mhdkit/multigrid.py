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

from .assembly import _entries, interpolation_matrix
from .elements import FunctionSpace
from .linalg import LuSolver, fixed_iteration_solver

log = logging.getLogger(__name__)

# GMRES(patch) iterations of each smoothing pass.  On `hartmann_mg`, 1-5
# take 26 / 16 / 15 / 12 / 12 outer iterations, 6, 7, 8 and 10 take 7, and
# 12 takes 5 and is no faster
SMOOTH_ITERS = 6


def build_transfer(coarse_space, fine_space, child_map):
    """Prolongation matrix embedding the coarse space exactly into the fine
    space of a nested uniform refinement (restriction is the transpose)."""
    if coarse_space.element.family != fine_space.element.family or \
            coarse_space.element.degree != fine_space.element.degree:
        raise ValueError("transfer requires matching element families")
    if child_map.shape[0] != coarse_space.mesh.num_cells:
        raise ValueError("hierarchy is not nested with these spaces")
    parents = np.repeat(np.arange(coarse_space.mesh.num_cells), 4)
    return interpolation_matrix(coarse_space, fine_space,
                                src_cells=parents, dst_cells=child_map.ravel())


def star_patches(spaces, constrained=None):
    """Vertex-star patch index sets over a tuple of FunctionSpaces sharing one
    mesh.  Patch i collects, for every space, the dofs attached to vertex i,
    to the edges meeting i and to the cells meeting i (their basis functions
    are supported inside the star); constrained dofs are excluded and empty
    patches dropped.  The dof numbers are each space's
    `FunctionSpace.entity_dofs` of those entities, shifted by the sizes of
    the spaces before it.  Each patch is a sorted int64 array; patches come
    in vertex order."""
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
        for dim, (v, ent) in enumerate(incidence):
            d = s.entity_dofs(dim, ent)
            verts.append(np.repeat(v, d.shape[1]))
            dofs.append(offsets[k] + d.ravel())
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


# patches gathered and inverted at a time: the gather's index arrays are
# two int64 arrays of chunk * s^2 entries, and they die with each chunk
PATCH_CHUNK = 32


def _gather_blocks(A, idx):
    """Dense blocks A[p][:, p] for the rows p of an (n, s) index array, read
    from a CSR matrix in one fancy-index call; the (n s^2) index arrays are
    freed on return, before the blocks are inverted."""
    n, s = idx.shape
    return np.asarray(A[_entries(idx, idx)]).reshape(n, s, s)


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
    """Additive Schwarz over precomputed patch index sets, undamped:
    x = sum_p R_p^T A_p^{-1} R_p r (inside the Krylov smoother a damping
    factor would be absorbed).

    Patches are grouped by size.  `setup` gathers each group's dense blocks
    from the CSR matrix and inverts them in batches of `PATCH_CHUNK`
    patches, one fancy-index call and one batched inverse each; `apply` is
    a gather, one batched matmul per group and one `bincount` scatter over
    all patches."""

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
        self._inv = []
        for idx in self.group_idx:
            n, s = idx.shape
            inv = np.empty((n, s, s))
            for a in range(0, n, PATCH_CHUNK):
                b = a + PATCH_CHUNK
                inv[a:b] = _invert_blocks(_gather_blocks(A, idx[a:b]))
            self._inv.append(inv)

    def apply(self, r):
        """Sum of the local solves of the restricted residual."""
        local = [np.matmul(inv, r[idx][:, :, None]).ravel()
                 for idx, inv in zip(self.group_idx, self._inv)]
        x = np.concatenate([np.zeros(0)] + local)
        return np.bincount(self._scatter, weights=x, minlength=len(r))


class MgHierarchy:
    """Per-level spaces / transfers / patches for a tuple of fields over a
    MeshHierarchy; built once and reused across Jacobians."""

    def __init__(self, hierarchy, fine_spaces, bc_markers):
        """fine_spaces: per field, its space on the finest mesh (a model's
        own), whose element the coarser levels repeat; bc_markers: per
        field, None (no strong dofs), 'all', or list of marker names."""
        if any(s.mesh is not hierarchy.finest for s in fine_spaces):
            raise ValueError("the fine spaces must live on the finest mesh")
        self.hierarchy = hierarchy
        nlev = len(hierarchy)
        self.nlevels = nlev
        self.spaces = []
        self.constrained = []
        for mesh in hierarchy.levels[:-1]:
            self.spaces.append(tuple(
                FunctionSpace(mesh, s.element.family, s.element.degree)
                for s in fine_spaces))
        self.spaces.append(tuple(fine_spaces))
        for sps in self.spaces:
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
                      for k in range(len(fine_spaces))]
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
    """V-cycles with SMOOTH_ITERS GMRES(patch) smoothing iterations; coarse
    level solved by LU."""

    def __init__(self, mg_hierarchy):
        self.ctx = mg_hierarchy
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
        smooth = fixed_iteration_solver(self.matrices[lv],
                                        self.smoothers[lv - 1].apply,
                                        SMOOTH_ITERS)
        return smooth(b, x)

    def vcycle(self, lv, b, x=None):
        """One V-cycle from x on level lv; x=None is the zero start."""
        if lv == 0:
            return self.coarse_lu.solve(b)
        x = self._smooth(lv, b, x)
        r = b - self.matrices[lv] @ x
        P = self.ctx.transfers[lv - 1]
        xc = self.vcycle(lv - 1, P.T @ r)
        x = x + P @ xc
        return self._smooth(lv, b, x)

    def apply(self, r):
        """Preconditioner application: one V-cycle from zero."""
        return self.vcycle(self.ctx.nlevels - 1, r)
