"""Sparse LU (one diagonal block at a time for a block-triangular matrix),
flexible GMRES with right preconditioning and no restart length, ARPACK
shift-invert eigenpairs of generalized problems."""

import logging
import math
from collections import namedtuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.linalg as sla
from scipy.sparse.csgraph import connected_components

log = logging.getLogger(__name__)


class SingularMatrixError(Exception):
    pass


def _splu(A, what):
    """SuperLU factors of the CSC matrix A, which stores no zeros, and the
    name of their column ordering.  A matrix whose diagonal has no zero and
    whose values are symmetric to 1 %, ||A - A^T||_F <= 0.01 ||A||_F, is
    factorised in SuperLU's symmetric mode: minimum degree on A + A^T, with
    the diagonal pivot taken while it is at least 0.1 of its column's
    largest entry (X. S. Li, ACM TOMS 31(3), 2005); the default threshold
    1 pivots off the diagonal whenever an entry below it is larger, which
    spoils the symmetric order.  On the mass blocks, the stream-function
    (psi), theta and (E, B) blocks of the eigen-solves and the multigrid
    coarse blocks this fills 2-65 % less than COLAMD.  Any other matrix
    gets COLAMD and partial pivoting: a saddle block with a zero pressure
    diagonal, on which the symmetric order fills 3-6x more, and an
    advection-dominated block, on which it filled up to 19 % more (coarse
    velocity blocks at Re = Rem >= 400).  A block of a Schur complement
    that `LuSolver` forms by condensing interior dofs is ordered by the
    same rule: on the transient Hall step matrices the B block stays
    symmetric (symmetric mode) and the saddle block keeps COLAMD, which
    `MMD_ATA` and symmetric mode do not beat there either."""
    if A.diagonal().all() and spla.norm(A - A.T) <= 1e-2 * spla.norm(A):
        ordering = "MMD_AT_PLUS_A"
        options = {"SymmetricMode": True, "DiagPivotThresh": 0.1}
    else:
        ordering, options = "COLAMD", {}
    try:
        return spla.splu(A, permc_spec=ordering, options=options), ordering
    except RuntimeError as exc:
        raise SingularMatrixError(
            f"singular pivot during sparse LU of {what}: {exc}") from exc


def _diagonal_blocks(A):
    """Split the zero-free CSC matrix A by the strongly connected components
    of its graph (row i reads column j).  A segment holds one multi-dof
    component and the singleton components that come after it (the first
    segment also those before it).  Returns None when there are fewer than
    two segments or when no entry couples two of them (A is block
    diagonal).  Otherwise returns the symmetric permutation `perm` that
    makes A block lower-triangular and, per segment of the permuted matrix,
    (start, stop, diagonal block, coupling to the later segments), both
    CSC."""
    # A.T is the CSR form of A without a copy; its graph has the same
    # components.  scipy numbers a component only after every component
    # reachable from it, which in A.T are the ones that read it, so in
    # reversed numbering a component reads only lower numbers.  The check
    # in the loop below raises if that ever fails.
    ncomp, labels = connected_components(A.T, directed=True,
                                         connection="strong")
    labels = ncomp - 1 - labels
    multi = np.bincount(labels) > 1
    if multi.sum() < 2:
        return None
    segment = np.maximum(np.cumsum(multi) - 1, 0)[labels]
    # no entry's row is in an earlier segment than its column, so the rows'
    # and the columns' segment sums over the entries are equal only when no
    # entry couples two segments: A is block diagonal, and the whole
    # factorisation has the same fill
    row_nnz = np.bincount(A.indices, minlength=len(segment))
    if row_nnz @ segment == np.diff(A.indptr) @ segment:
        return None
    perm = np.argsort(segment, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(segment))])
    blocks = []
    for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        # the segment's columns, and their entries in its own rows and in
        # the later segments' rows; no copy of the whole matrix is made
        cols = A[:, perm[start:stop]]
        D = cols[perm[start:stop]]
        C = cols[perm[stop:]]
        if D.nnz + C.nnz != cols.nnz:
            raise RuntimeError("strongly connected components are not in "
                               "topological order")
        blocks.append((start, stop, D, C))
    return perm, blocks


def _split_rows(M, is_inner, number):
    """The rows of the CSC matrix M at the mask `is_inner` and those off
    it, both renumbered by `number`."""
    at = is_inner[M.indices]
    # the entries at the mask before each column's start
    before = np.concatenate([[0], np.cumsum(at, dtype=M.indptr.dtype)])[
        M.indptr]
    parts = []
    for keep, ends, n in ((at, before, np.count_nonzero(is_inner)),
                          (~at, M.indptr - before,
                           np.count_nonzero(~is_inner))):
        parts.append(sp.csc_matrix(
            (M.data[keep], number[M.indices[keep]], ends),
            shape=(n, M.shape[1])))
    return parts


def _condense(A, groups):
    """Condense the interior dofs `groups` (one row of dofs per group) out
    of the zero-free CSC matrix A.  With i the groups' dofs in row order
    and b the others in index order, returns the Schur complement S = A_bb
    - A_bi W (CSC) and what a solve needs besides it: (i, b, A_ii^-1
    (CSR), A_bi (CSC), W = A_ii^-1 A_ib (CSR)).

    A_ii must be block diagonal by group: an entry that couples two groups
    raises a ValueError naming the first such group.  Its blocks are
    inverted in one batch; a singular one raises SingularMatrixError."""
    ng, k = groups.shape
    inner = groups.ravel()
    is_inner = np.zeros(A.shape[0], dtype=bool)
    is_inner[inner] = True
    if np.count_nonzero(is_inner) != inner.size:
        raise ValueError("interior groups share a dof")
    outer = np.flatnonzero(~is_inner)
    number = np.empty(A.shape[0], dtype=A.indices.dtype)
    number[inner] = np.arange(inner.size)
    number[outer] = np.arange(outer.size)
    A_ii, A_bi = _split_rows(A[:, inner], is_inner, number)
    A_ib, A_bb = _split_rows(A[:, outer], is_inner, number)
    col = np.repeat(np.arange(inner.size), np.diff(A_ii.indptr))
    row = A_ii.indices
    coupled = row // k != col // k
    if coupled.any():
        g = int(col[coupled].min() // k)
        raise ValueError(f"interior group {g} (dofs {groups[g].tolist()}) "
                         "couples to another group")
    blocks = np.zeros((ng, k, k))
    blocks[col // k, row % k, col % k] = A_ii.data
    try:
        inv = np.linalg.inv(blocks)
    except np.linalg.LinAlgError:
        g = int(np.flatnonzero(np.linalg.matrix_rank(blocks) < k)[0])
        raise SingularMatrixError(
            f"singular interior block of group {g} (dofs "
            f"{groups[g].tolist()})") from None
    A_inv = sp.bsr_matrix((inv, np.arange(ng), np.arange(ng + 1)),
                          shape=(inner.size,) * 2).tocsr()
    W = A_inv @ A_ib.tocsr()
    return A_bb - A_bi @ W, (inner, outer, A_inv, A_bi, W)


class LuSolver:
    """Sparse LU factorisation handle for a square matrix (a dense array is
    converted).  The matrix is factorised without its stored zeros (a
    fixed-pattern Jacobian keeps the zeros of its state-dependent terms).

    `groups`, when given, is an (ngroups, k) array of interior dofs, one
    row per group (`MixedModel.interior_groups`: each cell's interior dofs
    of the fields that only cell integrals couple).  They are condensed out
    first, as in static condensation: A_ii must be block diagonal by group
    (else a ValueError names the first coupling group), its blocks are
    inverted in one batch (a singular one raises SingularMatrixError), and
    only the Schur complement S = A_bb - A_bi A_ii^-1 A_ib of the other dofs
    goes to SuperLU.  A solve eliminates b_i forward, solves with S and
    substitutes back for x_i.  On the Hall island's 8 x 8 step matrices
    (`timestepping.FrozenJacobianFactory`) L + U goes 2.34 M -> 2.16 M
    (Crank-Nicolson) and 2.66 M -> 2.23 M (BDF2).

    A block lower-triangular matrix (S, when condensed), one with two or
    more strongly connected components of more than one dof and a coupling
    between them, is factorised one diagonal block at a time and solved by
    block forward substitution; this is the block-triangular step of KLU
    (Davis & Palamadai Natarajan, ACM TOMS 37(3), 2010).  Such matrices are
    the Ra_c operator on the stream function (`bifurcation`) and the
    transient Jacobians times their Faraday map
    (`timestepping.FrozenJacobianFactory`), whose B block reads only B.
    Any other matrix is factorised whole: one whose only extra components
    are decoupled unit rows, and a block-diagonal one, whose whole
    factorisation has the same fill as its blocks'.  Each block is ordered
    by the rule of `_splu`, read from the block itself; `orderings` names
    each block's ordering.  `nnz` is the stored L + U count over all
    blocks; each factorisation logs n, the block sizes, `nnz`, each
    block's ordering and L + U count and the number of condensed dofs at
    DEBUG level to the `mhdkit.linalg` logger."""

    def __init__(self, A, groups=None):
        A = sp.csc_matrix(A, dtype=float, copy=True)
        A.eliminate_zeros()
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        self.shape = A.shape
        self._condensed = None
        if groups is not None and np.size(groups):
            A, self._condensed = _condense(A, np.asarray(groups))
        split = _diagonal_blocks(A)
        if split is None:
            self._perm, blocks = None, [(0, A.shape[0], A, None)]
        else:
            self._perm, blocks = split
            # free the zero-free copy before the factorisations
            del A
        self._blocks, self.orderings = [], []
        for k, (start, stop, D, C) in enumerate(blocks):
            lu, ordering = _splu(D, "the matrix" if split is None else
                                 f"diagonal block {k} ({stop - start} dofs)")
            self._blocks.append((start, stop, lu, C))
            self.orderings.append(ordering)
        self.nnz = sum(lu.nnz for _, _, lu, _ in self._blocks)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("sparse LU: n=%d, blocks %s, L+U nnz %d (%s), %d "
                      "interior dofs condensed", self.shape[0],
                      [stop - start for start, stop, _, _ in self._blocks],
                      self.nnz,
                      ", ".join(f"{ordering} {lu.nnz}" for ordering,
                                (_, _, lu, _) in zip(self.orderings,
                                                     self._blocks)),
                      0 if self._condensed is None
                      else len(self._condensed[0]))

    def _solve_factors(self, b):
        """The solve with the factorised matrix (S, when condensed)."""
        if self._perm is None:
            return self._blocks[0][2].solve(b)
        x = b[self._perm]
        for start, stop, lu, C in self._blocks:
            x[start:stop] = lu.solve(x[start:stop])
            x[stop:] -= C @ x[start:stop]
        out = np.empty_like(x)
        out[self._perm] = x
        return out

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self._condensed is None:
            return self._solve_factors(b)
        inner, outer, A_inv, A_bi, W = self._condensed
        y = A_inv @ b[inner]
        x = np.empty_like(b)
        x[outer] = self._solve_factors(b[outer] - A_bi @ y)
        x[inner] = y - W @ x[outer]
        return x

    __call__ = solve


FgmresResult = namedtuple("FgmresResult", "x iterations residuals converged")


class LinearSolveFailure(Exception):
    """An outer FGMRES solve that stopped unconverged."""

    def __init__(self, iterations, residual):
        super().__init__(f"FGMRES did not converge in {iterations} "
                         f"iterations (residual {residual:.3e})")
        self.iterations, self.residual = iterations, residual


def _as_operator(A):
    if callable(A) and not sp.issparse(A):
        return A
    return lambda v: A @ v


def fgmres(A, b, M=None, x0=None, rtol=1e-7, atol=1e-7, maxiter=100,
           callback=None):
    """Right-preconditioned flexible GMRES (Saad, SIAM J. Sci. Comput.
    14(2), 1993) with no restart length: one Arnoldi cycle runs until its
    residual estimate reaches max(rtol*||r_0||, atol) or `maxiter` steps
    are spent.  A new cycle, from the true residual and with the rest of
    the budget, starts only when the estimate meets that tolerance and the
    true residual does not.  M may change between iterations (e.g. an inner
    iterative solve).  rtol = atol = 0 runs all `maxiter` steps and forms
    no true residual."""
    matvec = _as_operator(A)
    n = len(b)
    fixed = rtol == 0 and atol == 0
    if M is None:
        M = lambda v: v
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - matvec(x)
    # norms as sqrt(w @ w), which is what np.linalg.norm computes for a real
    # vector; the Hessenberg column and the Givens rotations are Python
    # floats, so the loop does no scalar indexing into numpy arrays
    beta = math.sqrt(r @ r)
    residuals = [beta]
    tol = max(rtol * beta, atol)
    if beta <= tol:
        return FgmresResult(x, 0, residuals, True)
    total = 0
    while True:
        m = maxiter - total
        V = np.empty((m + 1, n))
        Z = np.empty((m, n))
        H = np.zeros((m, m))
        cs, sn = [], []
        g = [beta]
        V[0] = r / beta
        for k in range(m):
            Z[k] = M(V[k])
            w = matvec(Z[k])
            # modified Gram-Schmidt (+ one reorthogonalisation pass)
            norm0 = math.sqrt(w @ w)
            h = []
            for i in range(k + 1):
                hi = float(V[i] @ w)
                w -= hi * V[i]
                h.append(hi)
            if math.sqrt(w @ w) < 1e-8 * norm0:
                for i in range(k + 1):
                    h2 = float(V[i] @ w)
                    h[i] += h2
                    w -= h2 * V[i]
            # a zero norm makes sn[k] = 0 and the residual 0 below, so the
            # unset row V[k + 1] is never read
            h_next = math.sqrt(w @ w)
            if h_next > 0:
                V[k + 1] = w / h_next
            for i in range(k):
                t = cs[i] * h[i] + sn[i] * h[i + 1]
                h[i + 1] = -sn[i] * h[i] + cs[i] * h[i + 1]
                h[i] = t
            d = float(np.hypot(h[k], h_next))
            if d == 0.0:
                cs.append(1.0)
                sn.append(0.0)
            else:
                cs.append(h[k] / d)
                sn.append(h_next / d)
            h[k] = d
            H[:k + 1, k] = h
            g.append(-sn[k] * g[k])
            g[k] = cs[k] * g[k]
            total += 1
            res = abs(g[k + 1])
            residuals.append(res)
            if callback is not None:
                callback(total, res)
            if res <= tol:
                break
        y = sla.solve_triangular(H[:k + 1, :k + 1], g[:k + 1],
                                 check_finite=False)
        x = x + Z[:k + 1].T @ y
        if fixed and total >= maxiter:
            # nothing reads the true residual of a spent fixed budget
            return FgmresResult(x, total, residuals, False)
        r = b - matvec(x)
        beta = math.sqrt(r @ r)
        residuals[-1] = beta
        if beta <= tol or total >= maxiter:
            return FgmresResult(x, total, residuals, beta <= tol)


def fixed_iteration_solver(A, M, iters):
    """An approximate inverse given by `iters` FGMRES iterations with inner
    preconditioner M and no tolerance: the inner block solves of the block
    preconditioners and the multigrid smoother.  `apply(b, x0)` starts from
    x0, or from zero when x0 is None."""
    matvec = _as_operator(A)

    def apply(b, x0=None):
        return fgmres(matvec, b, M=M, x0=x0, rtol=0.0, atol=0.0,
                      maxiter=iters).x

    return apply


# -- shift-invert Arnoldi --------------------------------------------------------

class EigenResult:
    def __init__(self, values, vectors, residuals):
        self.values = values
        self.vectors = vectors
        self.residuals = residuals


def shift_invert_arnoldi(A, M=None, shift=0.0, k=6, tol=1e-8):
    """k eigenpairs of A x = lambda M x nearest `shift`, for sparse A and M.

    ARPACK's implicitly restarted Arnoldi (`scipy.sparse.linalg.eigs`) on
    OP = (A - shift M)^{-1} M, with A - shift M factorised once (A itself at
    zero shift) and a fixed start vector.  Pairs are sorted by |lambda -
    shift| and carry unit vectors and relative residuals ||A x - lambda M
    x|| / (||A|| + |lambda| ||M||).  Non-convergence raises
    `ArpackNoConvergence` (a RuntimeError).
    """
    n = A.shape[0]
    if M is None:
        M = sp.identity(n, format="csr")
    try:
        # LuSolver drops stored zeros, so A - 0 M and A give it the same
        # matrix; A is factorised without forming the shifted copy
        lu = LuSolver(A if shift == 0 else A - shift * M)
    except SingularMatrixError:
        shift = shift + 1e-8 * (1.0 + abs(shift))
        lu = LuSolver(A - shift * M)
    # the explicit dtype spares scipy a probing matvec, an extra LU solve
    op = spla.LinearOperator((n, n), matvec=lambda v: lu.solve(M @ v),
                             dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    theta, X = spla.eigs(op, k=k, tol=tol, v0=v0)
    # free the factorisation before the residuals are formed
    del op, lu
    lam = shift + 1.0 / theta
    order = np.argsort(np.abs(lam - shift))
    lam, X = lam[order], X[:, order]
    X = X / np.linalg.norm(X, axis=0)

    def apply(B):
        # B X from the parts of X: a complex product makes a complex copy
        # of B
        return B @ X.real + 1j * (B @ X.imag)

    residuals = (np.linalg.norm(apply(A) - apply(M) * lam, axis=0)
                 / (spla.norm(A) + np.abs(lam) * spla.norm(M)))
    return EigenResult(lam, X, residuals)
