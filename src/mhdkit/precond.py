"""Block preconditioners: block upper-triangular application over a 2x2 field
grouping, outer Schur approximations for both elimination orders, the
augmented-Lagrangian fluid-block inner preconditioner (velocity multigrid +
scaled pressure mass), the monolithic electromagnetic / (u, theta) multigrid
wiring and the Hall electromagnetic block."""

import numpy as np
import scipy.sparse as sp

from .linalg import LuSolver, fgmres, fixed_iteration_solver
from .multigrid import MgHierarchy, GeometricMultigrid, MgConfig


class BlockPrecondConfig:
    def __init__(self, elimination="eliminate_up", inner_iters=2,
                 mg_config=None, mg_levels=None, hall_schur="direct",
                 smooth_iters=6):
        self.elimination = elimination
        self.inner_iters = inner_iters
        self.mg_config = mg_config or MgConfig(smooth_iters=smooth_iters)
        self.mg_levels = mg_levels
        self.hall_schur = hall_schur


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


def _identity_on(indices, n):
    def wrap(apply):
        def inner(r):
            out = apply(r)
            if len(indices):
                out[indices] = r[indices]
            return out
        return inner
    return wrap


class FluidBlockPrecond:
    """Block upper-triangular preconditioner of the augmented (u, p) system:
    velocity block by star-patch multigrid, pressure Schur complement by the
    scaled inverse pressure mass -(1/Re + gamma) M_p^{-1} (exactly invertible
    cellwise for the discontinuous pressure)."""

    def __init__(self, mg, Mp_inv, schur_scale, nu, np_, pin_local=()):
        self.mg = mg
        self.Mp_inv = Mp_inv
        self.schur_scale = schur_scale
        self.nu = nu
        self.np_ = np_
        self.pin_local = np.asarray(pin_local, dtype=np.int64)
        self.Bt = None

    def setup(self, A_up):
        n = self.nu
        self.Bt = A_up[:n, n:]
        self.mg.setup(A_up[:n, :n])
        return self

    def apply(self, r):
        ru = r[:self.nu]
        rp = r[self.nu:]
        yp = self.schur_scale * (self.Mp_inv @ rp)
        if len(self.pin_local):
            yp[self.pin_local] = rp[self.pin_local]
        yu = self.mg.apply(ru - self.Bt @ yp)
        return np.concatenate([yu, yp])


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
        levels = self.config.mg_levels
        markers = getattr(model, "bc_markers", {})

        def mk(name):
            m = markers.get(name, "all")
            return m

        self.vel_ctx = MgHierarchy(hierarchy, [("BDM", 2)], [mk("u")],
                                   levels=levels)
        self.em_ctx = MgHierarchy(hierarchy, [("CG", 2), ("RT", 2)],
                                  [mk("E"), mk("B")], levels=levels)
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        self.up_idx = np.concatenate([np.arange(st.field_slice("u").start,
                                                st.field_slice("u").stop),
                                      np.arange(st.field_slice("p").start,
                                                st.field_slice("p").stop)])
        self.eb_idx = np.concatenate([np.arange(st.field_slice("E").start,
                                                st.field_slice("E").stop),
                                      np.arange(st.field_slice("B").start,
                                                st.field_slice("B").stop)])
        self.nu_ = st.spaces["u"].total_dofs
        self.np_ = st.spaces["p"].total_dofs
        self._h = model.mesh.min_edge_length()

    def _fluid_inverse(self, A_up):
        pr = self.model.params
        mg = GeometricMultigrid(self.vel_ctx, self.config.mg_config)
        fluid = FluidBlockPrecond(mg, self.Mp_inv,
                                  -(1.0 / pr.Re + pr.gamma),
                                  self.nu_, self.np_, pin_local=[0])
        fluid.setup(A_up)
        return fixed_iteration_solver(A_up, fluid.apply,
                                      self.config.inner_iters)

    def _em_inverse(self, A_eb):
        mg = GeometricMultigrid(self.em_ctx, self.config.mg_config)
        mg.setup(A_eb)
        return fixed_iteration_solver(A_eb, mg.apply,
                                      self.config.inner_iters)

    def build(self, A, parts):
        cfg = self.config
        A_up = A[self.up_idx][:, self.up_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        if cfg.elimination == "eliminate_up":
            inv_up = self._fluid_inverse(A_up)
            inv_eb = self._em_inverse(A_eb)
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
        inv_eb = self._em_inverse(A_eb)
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


# -- dense Schur oracles --------------------------------------------------------


def dense_outer_schur_eb(blocks, free, offsets, sizes, fields=("u", "p",
                                                               "E", "B")):
    """Dense S^(E,B): fluid block minus coupling through the inverted
    electromagnetic block, all restricted to free dofs (oracle use only)."""
    import numpy.linalg as la

    def blk(r, c):
        b = blocks.blocks.get((r, c))
        n, m = sizes[r], sizes[c]
        out = np.zeros((n, m))
        if b is not None:
            out = b.toarray()
        return out[np.ix_(free[r], free[c])]

    top = np.block([[blk("u", "u"), blk("u", "p")],
                    [blk("p", "u"), blk("p", "p")]])
    K = np.block([[blk("u", "E"), blk("u", "B")],
                  [blk("p", "E"), blk("p", "B")]])
    L = np.block([[blk("E", "u"), blk("E", "p")],
                  [blk("B", "u"), blk("B", "p")]])
    M = np.block([[blk("E", "E"), blk("E", "B")],
                  [blk("B", "E"), blk("B", "B")]])
    return top - K @ la.solve(M, L)


def dense_outer_schur_up(blocks, free, sizes):
    """Dense S^(u,p): electromagnetic block minus coupling through the
    inverted fluid block (oracle use only)."""
    import numpy.linalg as la

    def blk(r, c):
        b = blocks.blocks.get((r, c))
        out = np.zeros((sizes[r], sizes[c]))
        if b is not None:
            out = b.toarray()
        return out[np.ix_(free[r], free[c])]

    M = np.block([[blk("E", "E"), blk("E", "B")],
                  [blk("B", "E"), blk("B", "B")]])
    L = np.block([[blk("E", "u"), blk("E", "p")],
                  [blk("B", "u"), blk("B", "p")]])
    K = np.block([[blk("u", "E"), blk("u", "B")],
                  [blk("p", "E"), blk("p", "B")]])
    top = np.block([[blk("u", "u"), blk("u", "p")],
                    [blk("p", "u"), blk("p", "p")]])
    return M - L @ la.solve(top, K)


class MonolithicBlockPrecond:
    """2x2 inner preconditioner of a (coupled-fields | pressure) block:
    monolithic star-patch multigrid on the coupled fields and a scaled exact
    inverse pressure mass for the AL Schur complement."""

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


class AnisothermalPrecond:
    """Outer preconditioner of the Boussinesq Jacobian: group (u, theta, p)
    against (E, B); the top block is inverted by 2 FGMRES iterations with a
    further ((u, theta) | p) splitting -- monolithic star-patch multigrid on
    the (u, theta) block and -gamma M_p^{-1} for the pressure Schur
    complement -- and the outer Schur approximation is the electromagnetic
    diagonal block with its monolithic multigrid."""

    def __init__(self, model, hierarchy, config=None):
        self.model = model
        self.config = config or BlockPrecondConfig()
        levels = self.config.mg_levels
        markers = getattr(model, "bc_markers", {})
        self.uth_ctx = MgHierarchy(
            hierarchy, [("BDM", 2), ("CG", 2)],
            [markers.get("u", "all"), markers.get("theta", None)],
            levels=levels)
        self.em_ctx = MgHierarchy(
            hierarchy, [("CG", 2), ("RT", 2)],
            [markers.get("E", "all"), markers.get("B", "all")],
            levels=levels)
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        idx = lambda n: np.arange(st.field_slice(n).start,
                                  st.field_slice(n).stop)
        self.top_idx = np.concatenate([idx("u"), idx("theta"), idx("p")])
        self.eb_idx = np.concatenate([idx("E"), idx("B")])
        self.n_uth = (st.spaces["u"].total_dofs
                      + st.spaces["theta"].total_dofs)

    def build(self, A, parts):
        cfg = self.config
        pr = self.model.params
        A_top = A[self.top_idx][:, self.top_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        mg_top = GeometricMultigrid(self.uth_ctx, cfg.mg_config)
        inner = MonolithicBlockPrecond(mg_top, self.Mp_inv, -pr.gamma,
                                       self.n_uth, pin_local=[0])
        inner.setup(A_top)
        inv_top = fixed_iteration_solver(A_top, inner.apply, cfg.inner_iters)
        mg_eb = GeometricMultigrid(self.em_ctx, cfg.mg_config)
        mg_eb.setup(A_eb)
        inv_eb = fixed_iteration_solver(A_eb, mg_eb.apply, cfg.inner_iters)
        return BlockUpperPrecond(A, self.top_idx, self.eb_idx,
                                 inv_top, inv_eb)


class HallPrecond:
    """Outer preconditioner of the 2.5D Hall Jacobian: fluid group
    (ut, u3, p) with a monolithic (ut, u3) multigrid and AL pressure Schur;
    the six-field electromagnetic Schur block is inverted monolithically by
    multigrid or, following the 2.5D practice, by a direct factorisation."""

    def __init__(self, model, hierarchy, config=None):
        self.model = model
        self.config = config or BlockPrecondConfig()
        levels = self.config.mg_levels
        markers = getattr(model, "bc_markers", {})
        self.flow_ctx = MgHierarchy(
            hierarchy, [("BDM", 2), ("CG", 2)],
            [markers.get("ut", "all"), markers.get("u3", "all")],
            levels=levels)
        if self.config.hall_schur == "mg":
            self.em_ctx = MgHierarchy(
                hierarchy,
                [("NED", 2), ("CG", 2), ("RT", 2), ("CG", 2), ("NED", 2),
                 ("CG", 2)],
                [markers.get(n, "all") for n in
                 ("Et", "E3", "Bt", "B3", "jt", "j3")], levels=levels)
        self.Mp_inv = pressure_mass_inverse(model.spaces["p"])
        st = model.state_template
        idx = lambda n: np.arange(st.field_slice(n).start,
                                  st.field_slice(n).stop)
        self.top_idx = np.concatenate([idx("ut"), idx("u3"), idx("p")])
        self.eb_idx = np.concatenate([idx(n) for n in
                                      ("Et", "E3", "Bt", "B3", "jt", "j3")])
        self.n_flow = (st.spaces["ut"].total_dofs
                       + st.spaces["u3"].total_dofs)

    def build(self, A, parts):
        cfg = self.config
        pr = self.model.params
        A_top = A[self.top_idx][:, self.top_idx].tocsr()
        A_eb = A[self.eb_idx][:, self.eb_idx].tocsr()
        mg_top = GeometricMultigrid(self.flow_ctx, cfg.mg_config)
        inner = MonolithicBlockPrecond(mg_top, self.Mp_inv,
                                       -(1.0 / pr.Re + pr.gamma),
                                       self.n_flow, pin_local=[0])
        inner.setup(A_top)
        inv_top = fixed_iteration_solver(A_top, inner.apply, cfg.inner_iters)
        if cfg.hall_schur == "mg":
            mg_eb = GeometricMultigrid(self.em_ctx, cfg.mg_config)
            mg_eb.setup(A_eb)
            inv_eb = fixed_iteration_solver(A_eb, mg_eb.apply,
                                            cfg.inner_iters)
        else:
            inv_eb = lu_inverse(A_eb)
        return BlockUpperPrecond(A, self.top_idx, self.eb_idx,
                                 inv_top, inv_eb)
