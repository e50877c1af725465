import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from mhdkit.assembly import constrain_matrix
from mhdkit.bifurcation import critical_parameter
from mhdkit.linalg import (LuSolver, SingularMatrixError, fgmres,
                           fixed_iteration_solver, shift_invert_arnoldi)
from mhdkit.problems import make_problem


def test_lu_identity():
    b = np.arange(5.0)
    assert np.allclose(LuSolver(sp.csr_matrix(np.eye(5))).solve(b), b)


def test_lu_pivoting():
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = LuSolver(sp.csr_matrix(A)).solve(np.array([2.0, 3.0]))
    assert np.allclose(x, [3.0, 2.0])


def test_lu_spd_residual():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((50, 50))
    A = B @ B.T + 50 * np.eye(50)
    b = rng.standard_normal(50)
    x = LuSolver(sp.csr_matrix(A)).solve(b)
    assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-12


def test_lu_sparse_roundtrip_many():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = 30
        A = sp.random(n, n, density=0.2, random_state=rng.integers(1 << 31))
        A = A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)
        b = rng.standard_normal(n)
        x = LuSolver(A.tocsr()).solve(b)
        assert np.linalg.norm(A @ x - b) / np.linalg.norm(b) < 1e-11


def test_lu_singular():
    with pytest.raises(SingularMatrixError):
        LuSolver(sp.csr_matrix(np.zeros((3, 3))))


def _lu_block_sizes(caplog, A):
    """The LU of A and the diagonal block sizes its DEBUG record gives."""
    with caplog.at_level("DEBUG", logger="mhdkit.linalg"):
        lu = LuSolver(A)
    record = caplog.records[-1]
    assert record.name == "mhdkit.linalg" and record.args[0] == A.shape[0]
    return lu, record.args[1]


def test_lu_block_triangular_matches_dense_solve(caplog):
    # three multi-dof blocks and singletons, each reading every earlier dof,
    # symmetrically permuted so that no block is contiguous
    rng = np.random.default_rng(4)
    sizes = [1, 5, 1, 6, 1, 1, 4, 1]
    n = sum(sizes)
    A = np.tril(rng.standard_normal((n, n)))
    start = 0
    for m in sizes:
        A[start:start + m, start:start + m] = (
            rng.standard_normal((m, m)) + 2 * m * np.eye(m))
        start += m
    p = rng.permutation(n)
    A = A[p][:, p]
    lu, blocks = _lu_block_sizes(caplog, sp.csr_matrix(A))
    assert blocks == [7, 8, 5]
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x = lu.solve(b)
        ref = np.linalg.solve(A, b)
        assert x.shape == b.shape
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("parts", [1, 2])
def test_lu_with_decoupled_unit_rows_is_plain_splu(caplog, parts):
    # one multi-dof component, or two that do not couple, and constrained
    # unit rows: factorised whole, so the solution is bitwise that of splu
    rng = np.random.default_rng(5)
    n = 40
    A = sp.block_diag([sp.random(n // parts, n // parts, density=0.2 * parts,
                                 random_state=6 + k) for k in range(parts)])
    A = (A + sp.diags(np.abs(A).sum(axis=1).A1 + 1.0)).tocsr()
    A = constrain_matrix(A, [0, 7, 8, 39])
    _, labels = connected_components(A, directed=True, connection="strong")
    assert np.count_nonzero(np.bincount(labels) > 1) == parts
    lu, blocks = _lu_block_sizes(caplog, A)
    assert blocks == [n]
    b = rng.standard_normal(n)
    assert np.array_equal(lu.solve(b), spla.splu(A.tocsc()).solve(b))


def _block_lower_triangular(rng, sizes):
    """A dense block lower-triangular matrix with the given diagonal block
    sizes, symmetrically permuted so that no block is contiguous."""
    n = sum(sizes)
    A = np.tril(rng.standard_normal((n, n)))
    start = 0
    for m in sizes:
        A[start:start + m, start:start + m] = (
            rng.standard_normal((m, m)) + 2 * m * np.eye(m))
        start += m
    p = rng.permutation(n)
    return A[p][:, p]


@pytest.mark.parametrize("sizes, blocks", [([12], [12]),
                                           ([1, 5, 1, 6, 1, 1, 4, 1],
                                            [7, 8, 5])],
                         ids=["whole", "block-triangular"])
def test_lu_multi_rhs_equals_column_solves(caplog, sizes, blocks):
    rng = np.random.default_rng(7)
    A = _block_lower_triangular(rng, sizes)
    lu, found = _lu_block_sizes(caplog, sp.csr_matrix(A))
    assert found == blocks
    b = rng.standard_normal((A.shape[0], 4))
    x = lu.solve(b)
    cols = np.column_stack([lu.solve(b[:, k]) for k in range(4)])
    assert x.shape == b.shape
    assert np.linalg.norm(x - cols) <= 1e-14 * np.linalg.norm(cols)


def test_lu_singular_diagonal_block_raises():
    A = np.array([[2.0, 1.0, 0.0, 0.0],
                  [1.0, 3.0, 0.0, 0.0],
                  [1.0, 0.0, 1.0, 1.0],
                  [0.0, 1.0, 1.0, 1.0]])
    with pytest.raises(SingularMatrixError, match="diagonal block 1"):
        LuSolver(sp.csr_matrix(A))


def test_rayleigh_operator_factorises_as_two_blocks(caplog):
    # no (u, p, E, B) row reads theta once buoyancy is on the right-hand
    # side, so the Ra_c operator splits into those dofs and theta's
    model = make_problem("rayleigh_benard", mesh_base=(4, 4)).model
    with caplog.at_level("DEBUG", logger="mhdkit.linalg"):
        critical_parameter(model, "Ra_c", count=1)
    blocks = [r.args[1] for r in caplog.records
              if r.name == "mhdkit.linalg" and r.args[0] == 1191]
    assert blocks == [[1064, 127]]


def test_fgmres_identity_one_iteration():
    b = np.ones(10)
    res = fgmres(np.eye(10), b, rtol=1e-12)
    assert res.converged and res.iterations == 1


def test_fgmres_exact_preconditioner():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((40, 40)) + 40 * np.eye(40)
    Ainv = np.linalg.inv(A)
    b = rng.standard_normal(40)
    res = fgmres(A, b, M=lambda v: Ainv @ v, rtol=1e-12, atol=0.0)
    assert res.converged and res.iterations <= 2
    assert np.linalg.norm(A @ res.x - b) <= 1e-10 * np.linalg.norm(b)


def test_fgmres_right_preconditioning_solves_original():
    # returned x solves A x = b, not the preconditioned system
    rng = np.random.default_rng(3)
    A = sp.diags(np.linspace(1, 50, 64)).tocsr()
    M = lambda v: v / np.linspace(1, 50, 64) ** 0.7
    b = rng.standard_normal(64)
    res = fgmres(A, b, M=M, rtol=1e-10, atol=0.0)
    assert res.converged
    assert np.linalg.norm(A @ res.x - b) <= 1e-9 * np.linalg.norm(b)


def _laplacian_1d(n):
    e = np.ones(n)
    return sp.diags([-e[:-1], 2 * e, -e[:-1]], [-1, 0, 1]).tocsr() * (n + 1) ** 2


def test_fgmres_laplacian_and_two_level_mg():
    n = 64
    A = _laplacian_1d(n)
    b = np.ones(n)
    plain = fgmres(A, b, rtol=1e-8, atol=0.0, maxiter=400)
    assert plain.converged
    # crude 2-level preconditioner: damped Jacobi + coarse solve
    P = sp.lil_matrix((n, n // 2))
    for j in range(n // 2):
        P[2 * j, j] = 0.5
        P[2 * j + 1, j] = 1.0
        if 2 * j + 2 < n:
            P[2 * j + 2, j] = 0.5
    P = P.tocsr()
    Ac = (P.T @ A @ P).tocsc()
    Acinv = LuSolver(Ac)
    d = A.diagonal()

    def mg(v):
        x = 0.6 * v / d
        r = v - A @ x
        x = x + P @ Acinv.solve(P.T @ r)
        r = v - A @ x
        return x + 0.6 * r / d

    pre = fgmres(A, b, M=mg, rtol=1e-8, atol=0.0, maxiter=30)
    assert pre.converged and pre.iterations < 10
    assert pre.iterations < plain.iterations


def test_fgmres_monotone_history():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((60, 60)) + 12 * np.eye(60)
    b = rng.standard_normal(60)
    res = fgmres(A, b, rtol=1e-10, atol=0.0, maxiter=60)
    hist = np.array(res.residuals)
    assert np.all(hist[1:] <= hist[:-1] * (1 + 1e-12))


def test_fgmres_nonconvergence_report():
    A = sp.diags(np.linspace(1e-8, 1, 100)).tocsr()
    b = np.ones(100)
    res = fgmres(A, b, rtol=1e-14, atol=0.0, maxiter=10)
    assert not res.converged
    assert res.iterations == 10


def _reference_fgmres(A, b, M, x0, rtol, atol, maxiter):
    """The FGMRES loop with the Hessenberg matrix, the Givens rotations and
    the norms in numpy arrays and np.linalg.norm, kept as the reference for
    the float loop of linalg.fgmres."""
    n = len(b)
    fixed = rtol == 0 and atol == 0
    if M is None:
        M = lambda v: v
    if x0 is None:
        x = np.zeros(n)
        r = b.copy()
    else:
        x = np.array(x0, dtype=float)
        r = b - A @ x
    beta = np.linalg.norm(r)
    residuals = [beta]
    tol = max(rtol * beta, atol)
    if beta <= tol:
        return x, residuals
    total = 0
    while total < maxiter:
        m = maxiter - total
        V = np.zeros((m + 1, n))
        Z = np.zeros((m, n))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        V[0] = r / beta
        g[0] = beta
        k_used = 0
        for k in range(m):
            Z[k] = M(V[k])
            w = A @ Z[k]
            norm0 = np.linalg.norm(w)
            for i in range(k + 1):
                H[i, k] = V[i] @ w
                w -= H[i, k] * V[i]
            if np.linalg.norm(w) < 1e-8 * norm0:
                for i in range(k + 1):
                    h2 = V[i] @ w
                    H[i, k] += h2
                    w -= h2 * V[i]
            H[k + 1, k] = np.linalg.norm(w)
            if H[k + 1, k] > 0:
                V[k + 1] = w / H[k + 1, k]
            for i in range(k):
                t = cs[i] * H[i, k] + sn[i] * H[i + 1, k]
                H[i + 1, k] = -sn[i] * H[i, k] + cs[i] * H[i + 1, k]
                H[i, k] = t
            d = np.hypot(H[k, k], H[k + 1, k])
            if d == 0.0:
                cs[k], sn[k] = 1.0, 0.0
            else:
                cs[k] = H[k, k] / d
                sn[k] = H[k + 1, k] / d
            H[k, k] = d
            H[k + 1, k] = 0.0
            g[k + 1] = -sn[k] * g[k]
            g[k] = cs[k] * g[k]
            k_used = k + 1
            total += 1
            res = abs(g[k + 1])
            residuals.append(res)
            if res <= tol:
                break
        y = sla.solve_triangular(H[:k_used, :k_used], g[:k_used],
                                 check_finite=False)
        x = x + Z[:k_used].T @ y
        if fixed and total >= maxiter:
            return x, residuals
        r = b - A @ x
        beta = np.linalg.norm(r)
        residuals[-1] = beta
        if beta <= tol:
            return x, residuals
    return x, residuals


def _convection_diffusion(n=80, wind=30.0):
    h = 1.0 / (n + 1)
    return sp.diags([-1 / h ** 2 - wind / (2 * h), 2 / h ** 2,
                     -1 / h ** 2 + wind / (2 * h)], [-1, 0, 1],
                    shape=(n, n)).tocsr()


def _flexible_scaling(d):
    # changes from one application to the next, as an inner solve does
    calls = [0]

    def apply(v):
        calls[0] += 1
        return v / d * (1.0 + 0.1 * (calls[0] % 3))
    return apply


@pytest.mark.parametrize("case", ["fixed", "fixed_x0", "converging",
                                  "reorthogonalised"])
def test_fgmres_iterates_are_bitwise_the_reference(case):
    A = _convection_diffusion()
    n = A.shape[0]
    b = np.sin(np.linspace(0.0, 3.0, n)) + 0.5
    d = A.diagonal()
    x0 = None
    kw = dict(rtol=0.0, atol=0.0, maxiter=12)
    if case == "fixed_x0":
        x0 = np.cos(np.linspace(0.0, 2.0, n))
    elif case == "converging":
        x0 = np.cos(np.linspace(0.0, 2.0, n))
        kw = dict(rtol=1e-10, atol=0.0, maxiter=400)
    elif case == "reorthogonalised":
        # three distinct eigenvalues: the Krylov space is exhausted after
        # three steps and the next products trigger the second MGS pass
        A = sp.diags(np.tile([1.0, 2.0, 5.0], n // 3 + 1)[:n]).tocsr()
        d = np.ones(n)
        kw = dict(rtol=0.0, atol=0.0, maxiter=6)
    got = fgmres(A, b, M=_flexible_scaling(d), x0=x0, **kw)
    x, residuals = _reference_fgmres(A, b, _flexible_scaling(d), x0, **kw)
    if case == "converging":
        assert got.converged and got.iterations < kw["maxiter"]
    assert np.array_equal(got.x, x)
    assert got.residuals == residuals


def test_fgmres_continues_when_the_true_residual_misses():
    # the products change once the first cycle's estimate meets the
    # tolerance, so its true residual does not: a second cycle starts from
    # it with the rest of the budget, and the first cycle's last residual
    # is the true one
    A = _laplacian_1d(16)
    b = np.ones(16)
    scale = [1.1]
    tol = 1e-8 * np.linalg.norm(b)
    estimates = []

    def callback(it, res):
        estimates.append(res)
        if res <= tol:
            scale[0] = 1.0

    res = fgmres(lambda v: scale[0] * (A @ v), b, rtol=1e-8, atol=0.0,
                 maxiter=40, callback=callback)
    first = next(i for i, r in enumerate(estimates, 1) if r <= tol)
    assert res.converged and first < res.iterations <= 40
    assert res.residuals[first] == pytest.approx(
        np.linalg.norm(b - A @ np.linalg.solve(1.1 * A.toarray(), b)),
        rel=1e-6)
    assert res.residuals[first] > tol
    assert np.linalg.norm(b - A @ res.x) <= tol


def test_fixed_iteration_solver_runs_exactly_k():
    count = []
    A = _laplacian_1d(32)

    def track(v):
        count.append(1)
        return v

    solver = fixed_iteration_solver(A, track, iters=2)
    solver(np.ones(32))
    assert len(count) == 2


def test_fixed_iteration_solver_forms_no_unread_residual():
    # two Arnoldi products; neither the zero start nor the spent budget
    # costs a product with A, and the iterate is the one with them
    A = _laplacian_1d(32)
    products = []

    def matvec(v):
        products.append(1)
        return A @ v

    b = np.linspace(1.0, 2.0, 32)
    x = fixed_iteration_solver(matvec, lambda v: 0.5 * v, iters=2)(b)
    assert len(products) == 2
    ref = fgmres(A, b, M=lambda v: 0.5 * v, x0=np.zeros(32), rtol=0.0,
                 atol=0.0, maxiter=2)
    assert np.array_equal(x, ref.x)


def test_arnoldi_diagonal():
    A = sp.diags([1.0, 2.0, 3.0]).tocsr()
    res = shift_invert_arnoldi(A, shift=0.0, k=1)
    assert abs(res.values[0] - 1.0) < 1e-10


def test_arnoldi_generalized_degenerate():
    # every eigenvalue is 2; ARPACK needs k < n - 1
    A = sp.diags([2.0, 4.0, 6.0, 8.0]).tocsr()
    M = sp.diags([1.0, 2.0, 3.0, 4.0]).tocsr()
    res = shift_invert_arnoldi(A, M, shift=0.0, k=2)
    assert np.allclose(sorted(res.values.real), [2.0, 2.0], atol=1e-9)


def test_arnoldi_laplacian_pi_squared():
    n = 100
    h = 1.0 / (n + 1)
    K = _laplacian_1d(n) * h    # stiffness (1/h) tridiag(-1, 2, -1)
    M = sp.diags([np.full(n - 1, h / 6), np.full(n, 4 * h / 6),
                  np.full(n - 1, h / 6)], [-1, 0, 1]).tocsr()
    res = shift_invert_arnoldi(K, M, shift=0.0, k=3)
    lam = np.sort(res.values.real)
    assert abs(lam[0] - np.pi ** 2) / np.pi ** 2 < 0.01


def test_arnoldi_residual_quality():
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    A = sp.csr_matrix(Q @ np.diag(np.arange(1, 41.0)) @ Q.T)
    res = shift_invert_arnoldi(A, shift=2.2, k=4)
    # pairs come back sorted by |lambda - shift|
    assert np.allclose(res.values.real[:2], [2.0, 3.0], atol=1e-8)
    assert np.all(res.residuals <= 1e-8)


def test_arnoldi_complex_conjugate_pair_residuals():
    # block upper-triangular: the 2x2 block gives 1 +- 2i, the diagonal
    # 3..n; the residuals of the complex vectors are formed from their
    # real and imaginary parts
    n = 50
    rng = np.random.default_rng(3)
    A = sp.diags(np.arange(1.0, n + 1)).tolil()
    A[0, 1], A[1, 0], A[1, 1] = -2.0, 2.0, 1.0
    A = (A.tocsr() + sp.triu(sp.random(n, n, density=0.1, random_state=rng),
                             k=2)).tocsr()
    res = shift_invert_arnoldi(A, k=3)
    assert np.allclose(np.sort_complex(res.values), [1 - 2j, 1 + 2j, 3.0],
                       atol=1e-10)
    assert np.all(res.residuals <= 1e-12)


def test_arnoldi_zero_shift_factorises_a_itself():
    # at zero shift A is factorised as it is, without forming A - 0 M;
    # the two are the same matrix once zeros are dropped, so the eigenvalues
    # are bitwise those of the explicit A - 0 M (M is singular, and some of
    # its entries lie outside A's pattern)
    n = 60
    rng = np.random.default_rng(5)
    A = (sp.diags(rng.uniform(1.0, 2.0, n))
         + sp.random(n, n, density=0.05, random_state=rng)).tocsr()
    M = sp.diags([np.r_[np.ones(n - 10), np.zeros(10)], np.full(n - 1, 0.1)],
                 [0, 1]).tocsr()
    res = shift_invert_arnoldi(A, M, k=4)
    ref = shift_invert_arnoldi((A - 0.0 * M).tocsr(), M, k=4)
    assert np.array_equal(res.values, ref.values)
