"""The block preconditioner of every model: one field split,
(flow | electromagnetic), applied block upper-triangularly.  It eliminates
the flow block and approximates the outer Schur complement by the
electromagnetic block.  A model's flow group is its FLOW fields and the
pressure; the electromagnetic group is the model's other fields.

The flow block is inverted by a few FGMRES iterations preconditioned by an
augmented-Lagrangian block: star-patch multigrid on the FLOW fields and the
scaled inverse pressure mass -(nu + gamma) M_p^{-1} for the pressure Schur
complement.  The electromagnetic block is inverted by a few FGMRES
iterations preconditioned by its own star-patch multigrid, or, for the
2.5D Hall model, by a direct factorisation.  KrylovSolverFactory wraps a
preconditioner into the nonlinear driver's linear solver interface."""

import numpy as np

from .assembly import cell_local, scatter
from .linalg import (LinearSolveFailure, LuSolver, fgmres,
                     fixed_iteration_solver)
from .multigrid import MgHierarchy, GeometricMultigrid

# FGMRES iterations of the inner block solves.  The augmented-Lagrangian
# fluid block sets the outer Krylov count (made exact, it cuts the count
# threefold, where an exact electromagnetic block leaves it as it is), so it
# gets the larger budget.  4 halves the outer count on `hartmann`, where 3
# cuts it by less than a third; 5 and 6 are no faster.  An electromagnetic
# budget of 1 fails at the Rem = 500 stage of (S, Re = Rem) = (1, 1000).
# The multigrid smoother's budget is multigrid.SMOOTH_ITERS
AL_ITERS = 4
MG_ITERS = 2


class BlockPrecondConfig:
    """The block preconditioners have no options: every one has the single
    (flow | electromagnetic) grouping.  The class stays, empty, because
    perfbench/workloads.py constructs one and passes it to
    `ProblemSpec.make_precond`."""


def pressure_mass_inverse(p_space, qdeg=6):
    """Exact cellwise inverse of the DG pressure mass matrix."""
    if p_space.element.family != "DG":
        raise ValueError("cellwise mass inverse needs a discontinuous "
                         "pressure")
    inv = np.linalg.inv(cell_local(p_space, p_space, qdeg=qdeg))
    return scatter([(p_space.dofmap, p_space.dofmap, inv)],
                   (p_space.total_dofs,) * 2)


class BlockUpperPrecond:
    """[I, -M~^{-1} K; 0, I] diag(M~^{-1}, S~^{-1}) applied to the grouping
    (group1 | group2); the two inverses are supplied as callables (typically
    a fixed number of inner FGMRES iterations)."""

    def __init__(self, A, idx1, idx2, inv1, inv2):
        self.idx1 = idx1
        self.idx2 = idx2
        self.K = A[idx1][:, idx2].tocsr()
        self.inv1 = inv1
        self.inv2 = inv2

    def apply(self, r):
        r = np.asarray(r)
        y = np.zeros_like(r)
        y2 = self.inv2(r[self.idx2])
        y1 = self.inv1(r[self.idx1] - self.K @ y2)
        y[self.idx1] = y1
        y[self.idx2] = y2
        return y


def lu_inverse(A):
    lu = LuSolver(A.tocsc())
    return lu.solve


def mg_inverse(ctx, A):
    """MG_ITERS FGMRES iterations on A preconditioned by one V-cycle of
    star-patch multigrid over the hierarchy ctx (the electromagnetic
    block)."""
    mg = GeometricMultigrid(ctx).setup(A)
    return fixed_iteration_solver(A, mg.apply, MG_ITERS)


def al_inverse(ctx, Mp_inv, schur_scale, A):
    """AL_ITERS FGMRES iterations on an augmented (flow | pressure) block A,
    preconditioned block upper-triangularly: star-patch multigrid over the
    hierarchy ctx on the flow fields, and schur_scale * M_p^{-1} for the
    pressure Schur complement (exactly invertible cellwise for the
    discontinuous pressure).  The first pressure dof is the model's pin and
    passes through."""
    n = A.shape[0] - Mp_inv.shape[0]
    Bt = A[:n, n:]
    mg = GeometricMultigrid(ctx).setup(A[:n, :n])

    def apply(r):
        rp = r[n:]
        yp = schur_scale * (Mp_inv @ rp)
        yp[0] = rp[0]
        yt = mg.apply(r[:n] - Bt @ yp)
        return np.concatenate([yt, yp])

    return fixed_iteration_solver(A, apply, AL_ITERS)


def field_indices(state_template, names):
    """Global dof indices of the named fields, in the given order."""
    return np.concatenate([np.arange(state_template.field_slice(n).start,
                                     state_template.field_slice(n).stop)
                           for n in names])


class FieldSplitPrecond:
    """The (flow | electromagnetic) block preconditioner of a model's
    Jacobian.  The flow group is FLOW + ("p",), inverted by al_inverse with
    the pressure Schur scale -(nu + gamma) of the model's weights; the
    electromagnetic group is the model's other fields in state order,
    inverted by mg_inverse, or by a direct factorisation when EM_MULTIGRID
    is false.  The multigrid hierarchies constrain the dofs the model
    constrains."""

    FLOW = ("u",)
    EM_MULTIGRID = True

    def __init__(self, model, hierarchy):
        self.model = model
        flow = self.FLOW + ("p",)
        em = tuple(f for f in model.fields if f not in flow)

        def ctx(fields):
            return MgHierarchy(hierarchy,
                               [model.spaces[f] for f in fields],
                               [model.bc_markers[f] for f in fields])

        self.flow_ctx = ctx(self.FLOW)
        self.em_ctx = ctx(em) if self.EM_MULTIGRID else None
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.top_idx = field_indices(st, flow)
        self.eb_idx = field_indices(st, em)

    def build(self, A):
        w = self.model._weights()
        A_top = A[self.top_idx][:, self.top_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        inv_top = al_inverse(self.flow_ctx, self.Mp_inv,
                             -(w["nu"] + w["gamma"]), A_top)
        inv_eb = (mg_inverse(self.em_ctx, A_eb) if self.EM_MULTIGRID
                  else lu_inverse(A_eb))
        return BlockUpperPrecond(A, self.top_idx, self.eb_idx,
                                 inv_top, inv_eb)


# The per-model names hold FieldSplitPrecond's `__init__` and `build` in
# their own namespaces because the benchmark's span layer
# (perfbench/layers.py) wraps them per class through vars(cls).

class StandardMHDPrecond(FieldSplitPrecond):
    """(u, p | E, B) for the standard-MHD models."""
    __init__, build = FieldSplitPrecond.__init__, FieldSplitPrecond.build


class AnisothermalPrecond(FieldSplitPrecond):
    """(u, theta, p | E, B) for the Boussinesq model: one monolithic
    multigrid on (u, theta)."""
    FLOW = ("u", "theta")
    __init__, build = FieldSplitPrecond.__init__, FieldSplitPrecond.build


class HallPrecond(FieldSplitPrecond):
    """(ut, u3, p | Et, E3, Bt, B3, jt, j3) for the 2.5D Hall model; the
    six-field electromagnetic block is factorised directly, following the
    2.5D practice."""
    FLOW = ("ut", "u3")
    EM_MULTIGRID = False
    __init__, build = FieldSplitPrecond.__init__, FieldSplitPrecond.build


class KrylovSolverFactory:
    """Wraps a block preconditioner into the nonlinear driver's linear
    solver interface: each call builds the preconditioner on A and returns
    an FGMRES solve, which raises LinearSolveFailure if FGMRES does not
    converge.  `rows` records (call, outer iteration, residual), the calls
    counted from 1.  The second argument is unread; it stays because the
    benchmark's Krylov span wrapper (perfbench/layers.py) takes (self, A,
    parts)."""

    def __init__(self, precond, rtol=1e-7, atol=1e-7, maxiter=100):
        self.precond = precond
        self.rtol = rtol
        self.atol = atol
        self.maxiter = maxiter
        self.rows = []
        self.calls = 0

    def __call__(self, A, parts):
        M = self.precond.build(A)
        self.calls += 1
        call = self.calls

        def solve(rhs):
            res = fgmres(A, rhs, M=M.apply, rtol=self.rtol, atol=self.atol,
                         maxiter=self.maxiter,
                         callback=lambda it, r: self.rows.append(
                             (call, it, r)))
            if not res.converged:
                raise LinearSolveFailure(res.iterations, res.residuals[-1])
            return res.x, res.iterations

        return solve
