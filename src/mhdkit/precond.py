"""Block preconditioners: block upper-triangular application over a 2x2 field
grouping, outer Schur approximations for both elimination orders, the
augmented-Lagrangian inner block (star-patch multigrid on the coupled flow
fields + scaled pressure mass), the electromagnetic multigrid wiring and the
Hall electromagnetic block."""

import numpy as np
import scipy.sparse as sp

from .linalg import LuSolver, fgmres, fixed_iteration_solver
from .multigrid import MgHierarchy, GeometricMultigrid

# FGMRES iterations of each inner block solve
INNER_ITERS = 2


class BlockPrecondConfig:
    def __init__(self, elimination="eliminate_up"):
        self.elimination = elimination


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
    from .assembly import cell_matrix
    el = p_space.element
    if el.family != "DG":
        raise ValueError("cellwise mass inverse needs a discontinuous "
                         "pressure")
    _, w, vals, _ = p_space.basis_at_quadrature(qdeg)
    local = np.einsum("cqik,cqjk,cq->cij", vals, vals, w)
    inv = np.linalg.inv(local)
    dm = p_space.dofmap
    nloc = dm.shape[1]
    rows = np.repeat(dm, nloc, axis=1).ravel()
    cols = np.tile(dm, (1, nloc)).ravel()
    return sp.coo_matrix((inv.ravel(), (rows, cols)),
                         shape=(p_space.total_dofs,) * 2).tocsr()


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
    """INNER_ITERS FGMRES iterations on A preconditioned by one V-cycle of
    star-patch multigrid over the hierarchy ctx."""
    mg = GeometricMultigrid(ctx).setup(A)
    return fixed_iteration_solver(A, mg.apply, INNER_ITERS)


def al_inverse(ctx, Mp_inv, schur_scale, A):
    """INNER_ITERS FGMRES iterations on an augmented (flow | pressure) block
    preconditioned by AugmentedLagrangianPrecond; the first pressure dof is
    the model's pin."""
    n_top = A.shape[0] - Mp_inv.shape[0]
    inner = AugmentedLagrangianPrecond(GeometricMultigrid(ctx), Mp_inv,
                                       schur_scale, n_top, pin_local=[0])
    inner.setup(A)
    return fixed_iteration_solver(A, inner.apply, INNER_ITERS)


def field_indices(state_template, names):
    """Global dof indices of the named fields, in the given order."""
    return np.concatenate([np.arange(state_template.field_slice(n).start,
                                     state_template.field_slice(n).stop)
                           for n in names])


class StandardMHDPrecond:
    """Outer block preconditioner for the standard-MHD Jacobian.

    eliminate_up (default): the (u,p) block is the 2x2 top-left group, its
    approximate inverse is 2 FGMRES iterations preconditioned by the fluid
    AL preconditioner, and the outer Schur approximation is the exact (E,B)
    diagonal block, inverted by 2 FGMRES iterations preconditioned by the
    monolithic electromagnetic multigrid.

    eliminate_eb: the roles swap; the Schur approximation is the fluid block
    with the linearised Lorentz term scaled by
    alpha = dt / (dt + Rem h^2 + delta Rem h ||u^n|| dt) in the transient
    case (stationary: alpha = 1).
    """

    def __init__(self, model, hierarchy, config=None):
        self.model = model
        self.config = config or BlockPrecondConfig()
        mk = model.bc_markers
        self.vel_ctx = MgHierarchy(hierarchy, [("BDM", 2)], [mk["u"]])
        self.em_ctx = MgHierarchy(hierarchy, [("CG", 2), ("RT", 2)],
                                  [mk["E"], mk["B"]])
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.up_idx = field_indices(st, ("u", "p"))
        self.eb_idx = field_indices(st, ("E", "B"))
        self.nu_ = st.spaces["u"].total_dofs
        self.np_ = st.spaces["p"].total_dofs
        self._h = model.mesh.min_edge_length()

    def _fluid_inverse(self, A_up):
        pr = self.model.params
        return al_inverse(self.vel_ctx, self.Mp_inv,
                          -(1.0 / pr.Re + pr.gamma), A_up)

    def build(self, A, parts):
        cfg = self.config
        A_up = A[self.up_idx][:, self.up_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        if cfg.elimination == "eliminate_up":
            inv_up = self._fluid_inverse(A_up)
            inv_eb = mg_inverse(self.em_ctx, A_eb)
            return BlockUpperPrecond(A, self.up_idx, self.eb_idx,
                                     inv_up, inv_eb)
        # eliminate_EB: Schur approximation is the fluid block with the
        # Lorentz term scaled by alpha
        alpha = self.lorentz_alpha(parts)
        S = A_up
        if alpha != 1.0:
            D = parts["D"]
            con = self.model.constrained_idx
            con_u = con[con < self.nu_]
            mask = np.ones(self.nu_)
            mask[con_u] = 0.0
            Dz = sp.diags(mask) @ D @ sp.diags(mask)
            Dfull = sp.bmat([[Dz, None],
                             [None, sp.csr_matrix((self.np_, self.np_))]],
                            format="csr")
            S = (A_up + (alpha - 1.0) * Dfull).tocsr()
        inv_eb = mg_inverse(self.em_ctx, A_eb)
        inv_up = self._fluid_inverse(S)
        return BlockUpperPrecond(A, self.eb_idx, self.up_idx,
                                 inv_eb, inv_up)

    def lorentz_alpha(self, parts):
        pr = self.model.params
        mass_coeff = parts.get("mass_coeff", 0.0)
        if not mass_coeff:
            return 1.0
        dt = 1.0 / mass_coeff
        delta = parts.get("delta", 1.0)
        u_l2 = parts.get("u_l2", 0.0)
        h = self._h
        return dt / (dt + pr.Rem * h ** 2 + delta * pr.Rem * h * u_l2 * dt)


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
    against (E, B); the top block is inverted by 2 FGMRES iterations with a
    further ((u, theta) | p) splitting -- monolithic star-patch multigrid on
    the (u, theta) block and -gamma M_p^{-1} for the pressure Schur
    complement -- and the outer Schur approximation is the electromagnetic
    diagonal block with its monolithic multigrid.  The grouping is fixed:
    `config` is taken for the shared constructor signature only."""

    def __init__(self, model, hierarchy, config=None):
        self.model = model
        mk = model.bc_markers
        self.uth_ctx = MgHierarchy(hierarchy, [("BDM", 2), ("CG", 2)],
                                   [mk["u"], mk["theta"]])
        self.em_ctx = MgHierarchy(hierarchy, [("CG", 2), ("RT", 2)],
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
    (ut, u3, p) with a monolithic (ut, u3) multigrid and AL pressure Schur;
    the six-field electromagnetic Schur block is inverted, following the
    2.5D practice, by a direct factorisation.  The grouping is fixed:
    `config` is taken for the shared constructor signature only."""

    def __init__(self, model, hierarchy, config=None):
        self.model = model
        mk = model.bc_markers
        self.flow_ctx = MgHierarchy(hierarchy, [("BDM", 2), ("CG", 2)],
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
