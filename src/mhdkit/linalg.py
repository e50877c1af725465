"""Sparse/dense LU, flexible GMRES with right preconditioning, a shift-invert
Arnoldi eigensolver for generalized problems, block-matrix plumbing and
Matrix Market round trips."""

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.linalg as sla
import scipy.io


class SingularMatrixError(Exception):
    def __init__(self, message, pivot=None):
        super().__init__(message)
        self.pivot = pivot


class LuSolver:
    """LU factorisation handle for sparse or dense square matrices.  A
    sparse matrix is factorised without its stored zeros (a fixed-pattern
    Jacobian keeps the zeros of its state-dependent terms)."""

    def __init__(self, A):
        if sp.issparse(A):
            A = A.tocsc(copy=True)
            A.eliminate_zeros()
            if A.shape[0] != A.shape[1]:
                raise ValueError("matrix must be square")
            try:
                self._lu = spla.splu(A)
            except RuntimeError as exc:
                msg = str(exc)
                pivot = None
                for tok in msg.split():
                    if tok.strip(".,]").isdigit():
                        pivot = int(tok.strip(".,]"))
                        break
                raise SingularMatrixError(
                    f"singular pivot during sparse LU: {msg}", pivot) from exc
            self._dense = None
        else:
            A = np.asarray(A, dtype=float)
            if A.shape[0] != A.shape[1]:
                raise ValueError("matrix must be square")
            lu, piv = sla.lu_factor(A)
            d = np.abs(np.diag(lu))
            if d.size and d.min() <= 1e-300:
                raise SingularMatrixError(
                    "singular pivot in dense LU",
                    pivot=int(np.argmin(d)))
            self._dense = (lu, piv)
            self._lu = None
        self.shape = A.shape

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self._lu is not None:
            return self._lu.solve(b)
        lu, piv = self._dense
        return sla.lu_solve((lu, piv), b)

    __call__ = solve


class FgmresResult:
    def __init__(self, x, iterations, residuals, converged):
        self.x = x
        self.iterations = iterations
        self.residuals = residuals
        self.converged = converged


def _as_operator(A):
    if callable(A) and not sp.issparse(A):
        return A
    return lambda v: A @ v


def fgmres(A, b, M=None, x0=None, rtol=1e-7, atol=1e-7, restart=100,
           maxiter=None, callback=None):
    """Right-preconditioned flexible GMRES.

    The preconditioner M may change between iterations (e.g. an inner
    iterative solve); preconditioned directions are stored.  Stops when
    ||r_k|| <= max(rtol*||r_0||, atol); returns a non-convergence report
    rather than raising when the budget is exhausted.
    """
    matvec = _as_operator(A)
    n = len(b)
    fixed = rtol == 0 and atol == 0
    if maxiter is None:
        maxiter = 10 * restart
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
    while total < maxiter:
        m = min(restart, maxiter - total)
        V = np.empty((m + 1, n))
        Z = np.empty((m, n))
        H = np.zeros((m, m))
        cs, sn = [], []
        g = [beta]
        V[0] = r / beta
        k_used = 0
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
            k_used = k + 1
            total += 1
            res = abs(g[k + 1])
            residuals.append(res)
            if callback is not None:
                callback(total, res)
            if res <= tol or total >= maxiter:
                break
        y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used],
                                 check_finite=False)
        x = x + Z[:k_used].T @ y
        if fixed and total >= maxiter:
            # nothing reads the true residual of a spent fixed budget
            return FgmresResult(x, total, residuals, False)
        r = b - matvec(x)
        beta = math.sqrt(r @ r)
        residuals[-1] = beta
        if beta <= tol:
            return FgmresResult(x, total, residuals, True)
    return FgmresResult(x, total, residuals, False)


def fixed_iteration_solver(A, M, iters):
    """An approximate inverse given by `iters` FGMRES iterations with inner
    preconditioner M and no tolerance (used for the 2-iteration inner solves
    of the block preconditioner)."""
    matvec = _as_operator(A)

    def apply(b):
        res = fgmres(matvec, b, M=M, rtol=0.0, atol=0.0, restart=iters,
                     maxiter=iters)
        return res.x

    return apply


# -- shift-invert Arnoldi --------------------------------------------------------

class EigenResult:
    def __init__(self, values, vectors, residuals):
        self.values = values
        self.vectors = vectors
        self.residuals = residuals


def shift_invert_arnoldi(A, M=None, shift=0.0, k=6, ncv=None, tol=1e-8,
                         maxrestart=3, seed=0):
    """k eigenpairs of A x = lambda M x nearest `shift`.

    Arnoldi on OP = (A - shift M)^{-1} M with explicit restarts; returned
    pairs satisfy ||A x - lambda M x|| <= tol ||x|| scaled by the operator
    norms and are sorted by |lambda - shift|.
    """
    n = A.shape[0]
    if M is None:
        M = sp.identity(n, format="csr")
    K = (A - shift * M).tocsc() if sp.issparse(A) else A - shift * M
    try:
        solver = LuSolver(K)
    except SingularMatrixError:
        shift = shift + 1e-8 * (1.0 + abs(shift))
        K = (A - shift * M).tocsc() if sp.issparse(A) else A - shift * M
        solver = LuSolver(K)
    Mop = _as_operator(M)
    Aop = _as_operator(A)

    def op(v):
        return solver.solve(Mop(v))

    if ncv is None:
        ncv = min(n, max(3 * k + 12, 30))
    ncv = min(ncv, n)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(n)
    scaleA = spla.norm(A) if sp.issparse(A) else np.linalg.norm(A)
    scaleM = spla.norm(M) if sp.issparse(M) else np.linalg.norm(M)

    best = None
    for attempt in range(maxrestart):
        V = np.zeros((ncv + 1, n))
        H = np.zeros((ncv + 1, ncv))
        nv0 = np.linalg.norm(v0)
        if nv0 == 0:
            v0 = rng.standard_normal(n)
            nv0 = np.linalg.norm(v0)
        V[0] = v0 / nv0
        j_used = ncv
        for j in range(ncv):
            w = op(V[j])
            for i in range(j + 1):
                H[i, j] = V[i] @ w
                w -= H[i, j] * V[i]
            for i in range(j + 1):
                h2 = V[i] @ w
                H[i, j] += h2
                w -= h2 * V[i]
            H[j + 1, j] = np.linalg.norm(w)
            if H[j + 1, j] < 1e-13:
                j_used = j + 1
                break
            V[j + 1] = w / H[j + 1, j]
        Hm = H[:j_used, :j_used]
        theta, Y = np.linalg.eig(Hm)
        nonzero = np.abs(theta) > 1e-14
        lam = np.full(theta.shape, np.inf, dtype=complex)
        lam[nonzero] = shift + 1.0 / theta[nonzero]
        order = np.argsort(np.abs(lam - shift))
        vals = []
        vecs = []
        resids = []
        for idx in order:
            if not np.isfinite(lam[idx]):
                continue
            x = (V[:j_used].T @ Y[:, idx])
            nx = np.linalg.norm(x)
            if nx == 0:
                continue
            x = x / nx
            Ax = Aop(x.real) + 1j * Aop(x.imag)
            Mx = Mop(x.real) + 1j * Mop(x.imag)
            res = np.linalg.norm(Ax - lam[idx] * Mx)
            rel = res / max(scaleA + abs(lam[idx]) * scaleM, 1e-30)
            if rel <= tol:
                vals.append(lam[idx])
                vecs.append(x)
                resids.append(rel)
            if len(vals) >= k:
                break
        if len(vals) >= min(k, j_used):
            return EigenResult(np.array(vals), np.array(vecs).T,
                               np.array(resids))
        best = EigenResult(np.array(vals), (np.array(vecs).T if vecs
                                            else np.zeros((n, 0))),
                           np.array(resids))
        # restart from a perturbed combination of the current Ritz vectors
        if vecs:
            v0 = np.real(np.sum(vecs, axis=0)) + 0.1 * rng.standard_normal(n)
        else:
            v0 = rng.standard_normal(n)
        ncv = min(n, ncv + ncv // 2)
    if best is None or best.values.size == 0:
        raise RuntimeError("Arnoldi failed to converge any eigenpair "
                           f"after {maxrestart} restarts")
    return best


# -- block matrices ----------------------------------------------------------------


class BlockMatrix:
    """Grid of sparse blocks tagged by (row field, col field)."""

    def __init__(self, fields, sizes, blocks=None):
        self.fields = list(fields)
        self.sizes = dict(sizes)
        self.offsets = {}
        off = 0
        for f in self.fields:
            self.offsets[f] = off
            off += self.sizes[f]
        self.total = off
        self.blocks = dict(blocks or {})

    def add(self, row, col, mat):
        if mat.shape != (self.sizes[row], self.sizes[col]):
            raise ValueError(f"block ({row},{col}) has wrong shape")
        key = (row, col)
        self.blocks[key] = (self.blocks[key] + mat if key in self.blocks
                            else mat.tocsr())

    def tocsr(self):
        rows = []
        cols = []
        vals = []
        for (r, c), mat in self.blocks.items():
            coo = mat.tocoo()
            rows.append(coo.row + self.offsets[r])
            cols.append(coo.col + self.offsets[c])
            vals.append(coo.data)
        if not rows:
            return sp.csr_matrix((self.total, self.total))
        return sp.coo_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(self.total, self.total)).tocsr()

    def field_slice(self, field):
        o = self.offsets[field]
        return slice(o, o + self.sizes[field])

    def group_indices(self, fields):
        return np.concatenate([np.arange(self.offsets[f],
                                         self.offsets[f] + self.sizes[f])
                               for f in fields])


def write_matrix_market(path, A):
    scipy.io.mmwrite(path, sp.coo_matrix(A) if sp.issparse(A)
                     else np.atleast_2d(A))


def read_matrix_market(path):
    out = scipy.io.mmread(path)
    return out.tocsr() if sp.issparse(out) else np.asarray(out)
