"""Block preconditioners: block upper-triangular application over the one
(flow | electromagnetic) field grouping, which eliminates the flow block and
approximates the outer Schur complement by the electromagnetic block; the
augmented-Lagrangian inner block (star-patch multigrid on the coupled flow
fields + scaled pressure mass), the electromagnetic multigrid wiring and the
Hall electromagnetic block."""

import numpy as np

from .assembly import cell_local, scatter
from .linalg import LuSolver, fgmres, fixed_iteration_solver
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


class IterationLedger:
    """Rows (nonlinear step, outer iteration, residual)."""

    def __init__(self):
        self.rows = []
        self.step = 0

    def new_step(self):
        self.step += 1

    def record(self, it, resid):
        self.rows.append((self.step, it, resid))

    def write_csv(self, path):
        with open(path, "w") as f:
            f.write("step,iter,resid\n")
            for s, i, r in self.rows:
                f.write(f"{s},{i},{r:.6e}\n")


class AugmentedLagrangianPrecond:
    """Block upper-triangular preconditioner of an augmented
    (flow fields | pressure) block: star-patch multigrid on the flow fields,
    and the pressure Schur complement by the scaled inverse pressure mass
    schur_scale * M_p^{-1} (exactly invertible cellwise for the
    discontinuous pressure); the pinned pressure dofs pass through."""

    def __init__(self, mg, Mp_inv, schur_scale, n_top, pin_local=()):
        self.mg = mg
        self.Mp_inv = Mp_inv
        self.schur_scale = schur_scale
        self.n_top = n_top
        self.pin_local = np.asarray(pin_local, dtype=np.int64)
        self.Bt = None

    def setup(self, A_block):
        n = self.n_top
        self.Bt = A_block[:n, n:]
        self.mg.setup(A_block[:n, :n])
        return self

    def apply(self, r):
        rt = r[:self.n_top]
        rp = r[self.n_top:]
        yp = self.schur_scale * (self.Mp_inv @ rp)
        if len(self.pin_local):
            yp[self.pin_local] = rp[self.pin_local]
        yt = self.mg.apply(rt - self.Bt @ yp)
        return np.concatenate([yt, yp])


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
        self.n = A.shape[0]

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
    """AL_ITERS FGMRES iterations on an augmented (flow | pressure) block
    preconditioned by AugmentedLagrangianPrecond; the first pressure dof is
    the model's pin.  This is the fluid block of every model's
    preconditioner."""
    n_top = A.shape[0] - Mp_inv.shape[0]
    inner = AugmentedLagrangianPrecond(GeometricMultigrid(ctx), Mp_inv,
                                       schur_scale, n_top, pin_local=[0])
    inner.setup(A)
    return fixed_iteration_solver(A, inner.apply, AL_ITERS)


def field_indices(state_template, names):
    """Global dof indices of the named fields, in the given order."""
    return np.concatenate([np.arange(state_template.field_slice(n).start,
                                     state_template.field_slice(n).stop)
                           for n in names])


class StandardMHDPrecond:
    """Outer block preconditioner for the standard-MHD Jacobian: the (u, p)
    block is the top-left group, its approximate inverse is AL_ITERS FGMRES
    iterations preconditioned by the fluid AL preconditioner, and the outer
    Schur approximation is the exact (E, B) diagonal block, inverted by
    MG_ITERS FGMRES iterations preconditioned by the monolithic
    electromagnetic multigrid."""

    def __init__(self, model, hierarchy):
        self.model = model
        mk = model.bc_markers
        s = model.spaces
        self.vel_ctx = MgHierarchy(hierarchy, [s["u"]], [mk["u"]])
        self.em_ctx = MgHierarchy(hierarchy, [s["E"], s["B"]],
                                  [mk["E"], mk["B"]])
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.up_idx = field_indices(st, ("u", "p"))
        self.eb_idx = field_indices(st, ("E", "B"))

    def build(self, A, parts):
        pr = self.model.params
        A_up = A[self.up_idx][:, self.up_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        inv_up = al_inverse(self.vel_ctx, self.Mp_inv,
                            -(1.0 / pr.Re + pr.gamma), A_up)
        inv_eb = mg_inverse(self.em_ctx, A_eb)
        return BlockUpperPrecond(A, self.up_idx, self.eb_idx, inv_up, inv_eb)


class KrylovSolverFactory:
    """Wraps a preconditioner factory into the nonlinear driver's linear
    solver interface; records the outer iteration ledger."""

    def __init__(self, precond, rtol=1e-7, atol=1e-7, restart=100,
                 maxiter=200, ledger=None):
        self.precond = precond
        self.rtol = rtol
        self.atol = atol
        self.restart = restart
        self.maxiter = maxiter
        self.ledger = ledger

    def __call__(self, A, parts):
        M = self.precond.build(A, parts)
        if self.ledger is not None:
            self.ledger.new_step()

        def solve(rhs):
            cb = None
            if self.ledger is not None:
                cb = lambda it, res: self.ledger.record(it, res)
            res = fgmres(A, rhs, M=M.apply, rtol=self.rtol, atol=self.atol,
                         restart=self.restart, maxiter=self.maxiter,
                         callback=cb)
            return res.x, res.iterations

        return solve


class AnisothermalPrecond:
    """Outer preconditioner of the Boussinesq Jacobian: group (u, theta, p)
    against (E, B); the top block is inverted by AL_ITERS FGMRES iterations
    with a further ((u, theta) | p) splitting -- monolithic star-patch
    multigrid on the (u, theta) block and -gamma M_p^{-1} for the pressure
    Schur complement -- and the outer Schur approximation is the
    electromagnetic diagonal block, inverted by MG_ITERS FGMRES iterations
    of its monolithic multigrid."""

    def __init__(self, model, hierarchy):
        self.model = model
        mk = model.bc_markers
        s = model.spaces
        self.uth_ctx = MgHierarchy(hierarchy, [s["u"], s["theta"]],
                                   [mk["u"], mk["theta"]])
        self.em_ctx = MgHierarchy(hierarchy, [s["E"], s["B"]],
                                  [mk["E"], mk["B"]])
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.top_idx = field_indices(st, ("u", "theta", "p"))
        self.eb_idx = field_indices(st, ("E", "B"))

    def build(self, A, parts):
        A_top = A[self.top_idx][:, self.top_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        inv_top = al_inverse(self.uth_ctx, self.Mp_inv,
                             -self.model.params.gamma, A_top)
        inv_eb = mg_inverse(self.em_ctx, A_eb)
        return BlockUpperPrecond(A, self.top_idx, self.eb_idx,
                                 inv_top, inv_eb)


class HallPrecond:
    """Outer preconditioner of the 2.5D Hall Jacobian: fluid group
    (ut, u3, p), inverted by AL_ITERS FGMRES iterations with a monolithic
    (ut, u3) multigrid and AL pressure Schur;
    the six-field electromagnetic Schur block is inverted, following the
    2.5D practice, by a direct factorisation."""

    def __init__(self, model, hierarchy):
        self.model = model
        mk = model.bc_markers
        s = model.spaces
        self.flow_ctx = MgHierarchy(hierarchy, [s["ut"], s["u3"]],
                                    [mk["ut"], mk["u3"]])
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.top_idx = field_indices(st, ("ut", "u3", "p"))
        self.eb_idx = field_indices(st, ("Et", "E3", "Bt", "B3", "jt", "j3"))

    def build(self, A, parts):
        pr = self.model.params
        A_top = A[self.top_idx][:, self.top_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        inv_top = al_inverse(self.flow_ctx, self.Mp_inv,
                             -(1.0 / pr.Re + pr.gamma), A_top)
        return BlockUpperPrecond(A, self.top_idx, self.eb_idx,
                                 inv_top, lu_inverse(A_eb))
