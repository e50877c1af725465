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
    try:
        return spla.splu(A)
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


class LuSolver:
    """Sparse LU factorisation handle for a square matrix (a dense array is
    converted).  The matrix is factorised without its stored zeros (a
    fixed-pattern Jacobian keeps the zeros of its state-dependent terms).

    A block lower-triangular matrix, one with two or more strongly connected
    components of more than one dof and a coupling between them, is
    factorised one diagonal block at a time and solved by block forward
    substitution; this is the block-triangular step of KLU (Davis &
    Palamadai Natarajan, ACM TOMS 37(3), 2010).  Any other matrix is
    factorised whole: one whose only extra components are decoupled unit
    rows, and a block-diagonal one, whose whole factorisation has the same
    fill as its blocks'.  `nnz` is the stored L + U count over all blocks;
    each factorisation logs n, the block sizes and `nnz` at DEBUG level to
    the `mhdkit.linalg` logger."""

    def __init__(self, A):
        A = sp.csc_matrix(A, dtype=float, copy=True)
        A.eliminate_zeros()
        if A.shape[0] != A.shape[1]:
            raise ValueError("matrix must be square")
        self.shape = A.shape
        split = _diagonal_blocks(A)
        if split is None:
            self._perm = None
            self._blocks = [(0, A.shape[0], _splu(A, "the matrix"), None)]
        else:
            # free the zero-free copy before the factorisations
            del A
            self._perm, blocks = split
            self._blocks = [
                (start, stop, _splu(D, f"diagonal block {k} "
                                    f"({stop - start} dofs)"), C)
                for k, (start, stop, D, C) in enumerate(blocks)]
        self.nnz = sum(lu.nnz for _, _, lu, _ in self._blocks)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("sparse LU: n=%d, blocks %s, L+U nnz %d",
                      self.shape[0],
                      [stop - start for start, stop, _, _ in self._blocks],
                      self.nnz)

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self._perm is None:
            return self._blocks[0][2].solve(b)
        x = b[self._perm]
        for start, stop, lu, C in self._blocks:
            x[start:stop] = lu.solve(x[start:stop])
            x[stop:] -= C @ x[start:stop]
        out = np.empty_like(x)
        out[self._perm] = x
        return out

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
