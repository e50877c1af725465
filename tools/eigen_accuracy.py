"""Accuracy, step count and conditioning of the critical Rayleigh numbers.

  PYTHONPATH=src python tools/eigen_accuracy.py --base 12 12 --draws 3

Builds `rayleigh_benard` on the crossed base mesh and prints:
  - the Ra_c values of `critical_parameter`;
  - on a base mesh of at most 4x4, the dense shift-invert reference on the
    coupled free pencil, the Jacobian with its (u, p) rows and its (u, E)
    Lorentz block, and the largest relative error against it;
  - the LU solves of the Arnoldi run (one per step), unperturbed and over
    `--draws` runs with the operator's entries scaled by
    1 + 1e-15 N(0, 1), which shows whether round-off moves the count;
  - per diagonal block that `LuSolver` factorises the operator by, its
    fields, its size, its ordering (MMD_AT_PLUS_A in symmetric mode for a
    zero-free diagonal and near-symmetric values, else COLAMD), its L + U
    nnz and its 1-norm condition number, ||D||_1 ||D^-1||_1 by
    `onenormest`.
The operator is the one `critical_parameter` hands to
`shift_invert_arnoldi`: the stream-function pencil, whose unknowns are psi
(the velocity is vcurl psi) and the fields other than u and p.  So the tool
reads whichever gamma that uses.
"""

import argparse
import sys

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from mhdkit import bifurcation
from mhdkit.linalg import LuSolver
from mhdkit.problems import make_problem

DENSE_MAX_BASE = 4


def critical_run(model, count, rng=None):
    """`critical_parameter` with its operator A scaled entrywise by
    1 + 1e-15 N(0, 1) when `rng` is given; returns the values, the operator
    pair, the free dofs and the number of LU solves inside the Arnoldi
    run."""
    seen = {"solves": 0}
    arnoldi, solve = bifurcation.shift_invert_arnoldi, LuSolver.solve

    def perturbed_arnoldi(A, M, **kwargs):
        if rng is not None:
            A = A.copy()
            A.data *= 1.0 + 1e-15 * rng.standard_normal(A.nnz)
        before = seen["solves"]
        res = arnoldi(A, M, **kwargs)
        # the pressure recovery's solve comes after the Arnoldi run
        seen.update(A=A, M=M, arnoldi_solves=seen["solves"] - before)
        return res

    def counted_solve(self, b):
        seen["solves"] += 1
        return solve(self, b)

    bifurcation.shift_invert_arnoldi = perturbed_arnoldi
    LuSolver.solve = counted_solve
    try:
        vals, _, free = bifurcation.critical_parameter(model, "Ra_c", count)
    finally:
        bifurcation.shift_invert_arnoldi, LuSolver.solve = arnoldi, solve
    return vals, seen["A"], seen["M"], free, seen["arnoldi_solves"]


def coupled_pencil(model, free):
    """The free-dof Ra_c pencil with its (u, p) rows and its (u, E) Lorentz
    block: the Newton Jacobian at the conduction state without buoyancy and
    grad-div, and Pr times the buoyancy term."""
    state = bifurcation.conduction_state_vector(model).vector
    A = model.jacobian(state, "newton", drop_buoyancy=True,
                       drop_graddiv=True)
    M = model.params.Pr * model.constant_matrix("buoyancy")
    return A[free][:, free], M[free][:, free]


def reduced_fields(model, free):
    """The field of each unknown of the stream-function pencil, "psi" for
    the velocity's."""
    L = model.stream_lift()
    names = np.empty(L.shape[1], dtype=object)
    for name in model.fields:
        lifts = L[bifurcation._field_mask(model, free, name)].getnnz(axis=0)
        names[lifts > 0] = "psi" if name == model.velocity else name
    return names


def dense_critical(A, M, count):
    """The `count` smallest positive real eigenvalues of A x = lambda M x,
    as 1/theta for the nonzero eigenvalues theta of A^-1 M."""
    theta = sla.eigvals(np.linalg.solve(A.toarray(), M.toarray()))
    lam = 1.0 / theta[np.abs(theta) > 1e-12 * np.abs(theta).max()]
    real = lam[np.abs(lam.imag) <= 1e-6 * np.maximum(np.abs(lam.real), 1.0)]
    return np.sort(real.real[real.real > 0])[:count]


def condition_1norm(D, lu):
    """||D||_1 ||D^-1||_1, both by `onenormest`; D^-1 and D^-T are applied
    through the SuperLU factorisation `lu` of D."""
    inv = spla.LinearOperator(D.shape, matvec=lu.solve,
                              rmatvec=lambda b: lu.solve(b, trans="T"),
                              dtype=float)
    return spla.onenormest(D) * spla.onenormest(inv)


def diagonal_blocks(A, names):
    """(fields, size, ordering, L + U nnz, 1-norm condition) of each
    diagonal block that `LuSolver` factorises A by, in its order; `names`
    gives the field of each unknown."""
    lu = LuSolver(A)
    perm = np.arange(A.shape[0]) if lu._perm is None else lu._perm
    A = A.tocsr()
    out = []
    for (start, stop, block_lu, _), ordering in zip(lu._blocks,
                                                    lu.orderings):
        idx = perm[start:stop]
        D = A[idx][:, idx].tocsc()
        fields = list(dict.fromkeys(names[np.sort(idx)]))
        out.append((fields[0] if len(fields) == 1
                    else f"({', '.join(fields)})", stop - start, ordering,
                    block_lu.nnz, condition_1norm(D, block_lu)))
    return out


def _values(vals):
    return ", ".join(f"{v:.12g}" for v in vals)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=int, nargs=2, default=(4, 4),
                    metavar=("NX", "NY"))
    ap.add_argument("--count", type=int, default=2)
    ap.add_argument("--draws", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    model = make_problem("rayleigh_benard", mesh_base=tuple(args.base)).model
    vals, A, M, free, solves = critical_run(model, args.count)
    nx, ny = args.base
    print(f"rayleigh_benard {nx}x{ny} crossed: {len(free)} free dofs, "
          f"{A.shape[0]} on the stream function, model gamma "
          f"{model.params.gamma:g}")
    print(f"Ra_c (critical_parameter): {_values(vals)}")
    if max(args.base) <= DENSE_MAX_BASE:
        ref = dense_critical(*coupled_pencil(model, free), args.count)
        print(f"Ra_c (dense, coupled pencil): {_values(ref)}")
        if len(ref) == len(vals):
            err = np.max(np.abs(vals - ref) / np.abs(ref))
            print(f"relative error: {err:.2e}")
    rng = np.random.default_rng(args.seed)
    draws = [critical_run(model, args.count, rng)[4]
             for _ in range(args.draws)]
    print(f"Arnoldi LU solves: {solves} unperturbed; perturbed draws: "
          + (", ".join(map(str, draws)) or "none"))
    for k, (fields, size, ordering, nnz, cond) in enumerate(
            diagonal_blocks(A, reduced_fields(model, free))):
        print(f"block {k}: {fields}, {size} dofs, {ordering}, L + U nnz "
              f"{nnz}, 1-norm condition (onenormest) {cond:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
