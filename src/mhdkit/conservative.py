"""Energy/helicity-conserving midpoint integrators for 2.5D Hall MHD.

Fields live on the 2.5D reduction of the 3D complex, which keeps every
cancellation of the conservation proofs exact at the discrete level:

  H(curl)-type product:  (NED1, CG1)   for u (u x n = 0 family), E, j, H, w
  H(div)-type product:   (RT1, DG0)    for B (and u in the u . n = 0 family)

with 3D curl (Et, E3) -> (vcurl E3, curl Et) realised exactly on
coefficients by the discrete complex maps, so D_t B + curl E^{k+1/2} = 0
holds to machine precision and div B is preserved identically.

Each step runs the fixed-point iteration of the midpoint system.  A sweep
updates the auxiliary midpoint variables (j, H, w, E[, U, alpha]) from the
current iterate, solves the velocity/pressure system and updates B
explicitly.  The next iterate is the Anderson mixing of the last
ANDERSON_DEPTH + 1 sweeps (Walker & Ni, SIAM J. Numer. Anal. 49(4), 2011);
the step stops on the relative-increment criterion and accepts the last
sweep's output.  An attempt whose increment sets no new minimum over
STALL_SWEEPS sweeps restarts with a halved under-relaxation factor.  A
sweep makes three LU solve calls: the projections of the fields it reads in
one call with several right-hand sides, those of the cross products in
another, and the velocity solve.

The cross products of curl-type fields are a fixed trilinear form: the
scheme tabulates T[c, i, j, k] = int_c phi_i . (phi_j x phi_k) over the six
local curl-type basis functions once (216 doubles per cell), so each cross
product is a gather, two batched matmuls and one scatter, and the products
of several fields with one field contract T with it once."""

import functools

import numpy as np
import scipy.sparse as sp

from .elements import (FunctionSpace, interpolate, complex_maps,
                       grad_to_hcurl, curl_to_dg)
from .assembly import cell_matrix, constrain_matrix
from .linalg import LuSolver

QDEG = 5
# a step stops at a relative increment below TOL (times the
# under-relaxation factor); an attempt gives up after MAX_FP sweeps
TOL = 1e-11
MAX_FP = 100
# sweeps of history, beyond the last, in the Anderson mixing of the
# midpoint fixed point
ANDERSON_DEPTH = 3
# an attempt restarts once this many sweeps in a row set no new minimum of
# the increment.  Measured on the stiff 16x16 cells of
# tools/midpoint_sweeps.py: windows of 4 to 6 sweeps restart attempts that
# would have converged, 7 is the smallest that does not, and 8 keeps one
# sweep of margin
STALL_SWEEPS = 8


class FixedPointFailure(Exception):
    pass


class ProductSpace:
    """In-plane + out-of-plane component pair over one mesh."""

    def __init__(self, tangential, third):
        self.t = tangential
        self.z = third
        self.nt = tangential.total_dofs
        self.nz = third.total_dofs
        self.n = self.nt + self.nz

    def split(self, vec):
        return vec[:self.nt], vec[self.nt:]


def _blockdiag(A, B):
    return sp.block_diag([A, B], format="csr")


class ConservativeScheme:
    """Shared operators of the u x n and u . n families on one mesh; each
    step's fixed point runs to TOL within MAX_FP sweeps per attempt."""

    def __init__(self, mesh, S=1.0, R_H=0.0, inv_Re=0.0, inv_Rem=0.0):
        self.mesh = mesh
        self.S = S
        self.R_H = R_H
        self.inv_Re = inv_Re
        self.inv_Rem = inv_Rem
        self._potential = None

        ned = FunctionSpace(mesh, "NED", 1)
        cg = FunctionSpace(mesh, "CG", 1)
        rt = FunctionSpace(mesh, "RT", 1)
        dg = FunctionSpace(mesh, "DG", 0)
        self.curlsp = ProductSpace(ned, cg)
        self.divsp = ProductSpace(rt, dg)
        self.V, self.D = complex_maps(cg, rt, dg)   # vcurl, div
        self.C = curl_to_dg(ned, dg)                # curl: NED1 -> DG0
        # 3D curl on coefficients: (Et, E3) -> (vcurl E3, curl Et)
        self.CURL = sp.bmat([[None, self.V], [self.C, None]],
                            format="csr")
        self.GRAD = sp.bmat([[grad_to_hcurl(cg, ned)],
                             [sp.csr_matrix((cg.total_dofs,
                                             cg.total_dofs))]],
                            format="csr")

        self.M_c = _blockdiag(cell_matrix(ned, ned, qdeg=QDEG),
                              cell_matrix(cg, cg, qdeg=QDEG))
        self.M_rt = cell_matrix(rt, rt, qdeg=QDEG)
        self.M_dg = cell_matrix(dg, dg, qdeg=QDEG)
        self.M_d = _blockdiag(self.M_rt, self.M_dg)
        # cross mass: curl-type test x div-type trial
        self.M_cd = _blockdiag(cell_matrix(ned, rt, qdeg=QDEG),
                               cell_matrix(cg, dg, qdeg=QDEG))
        # the transposes the sweeps apply, held once: CSC views of the CSR
        # matrices, which share their arrays
        self.CURL_T = self.CURL.T
        self.M_cd_T = self.M_cd.T
        self.K_cc = (self.CURL_T @ self.M_d @ self.CURL).tocsr()

        # H0(curl) constraints for the auxiliary fields
        self.con_c = np.concatenate([
            ned.boundary_dofs(), ned.total_dofs + cg.boundary_dofs()])
        # B . n = 0; the DG0 part is unconstrained
        self.con_d = rt.boundary_dofs()
        Mc_con = constrain_matrix(self.M_c, self.con_c)
        self.Mc_lu = LuSolver(Mc_con)
        self._build_cross_form()

    def _build_cross_form(self):
        """T[c, k, j, i] = int_c phi_i . (phi_j x phi_k) over the local
        curl-type basis (NED1 tangential, then CG1 third component), stored
        as (cell, k, j * n + i).  Summed one quadrature point at a time, so
        no array spans all the points."""
        ned, cg = self.curlsp.t, self.curlsp.z
        pts, w = ned.cell_quadrature(QDEG)
        vt, vz = (s.tabulate_cells(np.arange(len(pts)), pts)[0]
                  for s in (ned, cg))
        nc, nq, n_t = vt.shape[:3]
        n = n_t + vz.shape[2]
        T = np.zeros((nc, n * n, n))
        phi = np.zeros((nc, n, 3))
        for q in range(nq):
            phi[:, :n_t, :2] = vt[:, q]
            phi[:, n_t:, 2] = vz[:, q, :, 0]
            cross = np.cross(phi[:, None], phi[:, :, None])   # [c, k, j]
            T += cross.reshape(nc, n * n, 3) @ (
                w[:, q, None, None] * phi.transpose(0, 2, 1))
        self._cross_T = T.reshape(nc, n, n * n)
        self._cross_dofs = np.hstack([ned.dofmap,
                                      ned.total_dofs + cg.dofmap])

    # -- projections -------------------------------------------------------------

    def project_curl(self, rhs):
        """Q_c of a functional vector, or of each row of a (k, n) stack,
        over the curl-type test space with homogeneous tangential boundary
        values; a stack is one solve with k right-hand sides."""
        r = np.array(rhs, dtype=float)
        r[..., self.con_c] = 0.0
        return self.Mc_lu.solve(r.T).T

    # -- pointwise products --------------------------------------------------------

    def cross_rhs(self, a, b):
        """Functional vector over the curl-type tests of the pointwise
        product a x b of two curl-type fields.  For a (k, n) stack `a` it
        returns the k products with the one `b`, contracting T with b
        once."""
        dm = self._cross_dofs
        nc, n = dm.shape
        Tb = (b[dm][:, None] @ self._cross_T).reshape(nc, n, n)
        stack = np.atleast_2d(a)
        k, n_c = stack.shape
        local = stack.T[dm].transpose(0, 2, 1) @ Tb          # [c, row, i]
        rows = dm[:, None] + n_c * np.arange(k)[:, None]     # [c, row, i]
        out = np.bincount(rows.ravel(), weights=local.ravel(),
                          minlength=k * n_c).reshape(k, n_c)
        return out if np.ndim(a) == 2 else out[0]

    def cross_pair_integral(self, a, b, c):
        """Integral of (a x b) . c for three curl-type fields
        (diagnostics)."""
        return float(c @ self.cross_rhs(a, b))

    # -- diagnostics -----------------------------------------------------------------

    def energy(self, u, B, u_space):
        Mu = self.M_c if u_space is self.curlsp else self.M_d
        return float(u @ (Mu @ u) + self.S * (B @ (self.M_d @ B)))

    def cross_helicity(self, u, B, u_space):
        if u_space is self.curlsp:
            return float(u @ (self.M_cd @ B))
        return float(B @ (self.M_d @ u))

    def div_norm_d(self, vec_d):
        """L2 norm of div of the in-plane part of a div-type field."""
        d = self.D @ self.divsp.split(vec_d)[0]
        return float(np.sqrt(d @ (self.M_dg @ d)))

    def _potential_solvers(self):
        """Factorisations of the two state-independent vector-potential
        operators, built on first use: vcurl^T M vcurl with one pinned dof,
        and curl^T M curl on NED1 gauged by a CG1 multiplier q,
        (At, grad q) = 0, with one pinned multiplier dof."""
        if self._potential is None:
            nt = self.curlsp.nt
            K_a3 = constrain_matrix((self.V.T @ self.M_rt @ self.V).tocsr(),
                                    [0])
            K_at = (self.C.T @ self.M_dg @ self.C).tocsr()
            G = (self.M_c[:nt, :nt] @ self.GRAD[:nt]).tocsr()
            gauged = sp.bmat([[K_at, G], [G.T, None]], format="csr")
            self._potential = (LuSolver(K_a3),
                               LuSolver(constrain_matrix(gauged, [nt])))
        return self._potential

    def _vector_potential(self, B):
        """Curl-type A with curl A = B: vcurl A3 = Bt and curl At = B3, each
        by a direct solve with the cached factorisations of
        `_potential_solvers` (A is unique up to its gauge, which leaves the
        helicity of a divergence-free B unchanged)."""
        lu_a3, lu_at = self._potential_solvers()
        Bt_c, B3_c = self.divsp.split(B)
        rhs = self.V.T @ (self.M_rt @ Bt_c)
        rhs[0] = 0.0
        A3 = lu_a3.solve(rhs)
        nt = self.curlsp.nt
        rhs = np.zeros(lu_at.shape[0])
        rhs[:nt] = self.C.T @ (self.M_dg @ B3_c)
        return np.concatenate([lu_at.solve(rhs)[:nt], A3])

    def magnetic_helicity(self, B):
        """int A . B with curl A = B (A curl-type, B div-type)."""
        return float(self._vector_potential(B) @ (self.M_cd @ B))

    def hybrid_helicity(self, u, B, omega, alpha, beta, u_space):
        """int (A + alpha u) . (B + beta w)."""
        A = self._vector_potential(B)
        hm = float(A @ (self.M_cd @ B))
        if u_space is self.curlsp:
            ub = float(u @ (self.M_cd @ B))
            uw = float(u @ (self.M_c @ omega))
        else:
            ub = float(B @ (self.M_d @ u))
            uw = float(omega @ (self.M_cd @ u))
        aw = float(A @ (self.M_c @ omega))
        return hm + alpha * ub + beta * aw + alpha * beta * uw


class MidpointState:
    """Endpoint (u, B) coefficients plus last midpoint auxiliaries."""

    def __init__(self, scheme, u, B, family):
        self.scheme = scheme
        self.u = np.asarray(u, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.family = family
        self.aux = {}
        # sweeps of the step that made this state, restarted attempts
        # included
        self.fp_iters = 0

    def copy_with(self, u, B):
        return MidpointState(self.scheme, u, B, self.family)


def _interpolate_product(space, fn, con):
    """Coefficients of the interpolant of fn (x, y) -> (..., 3) in a
    (tangential, third) product space by quadrature of exactness 10, the
    dofs `con` zeroed."""
    t = interpolate(space.t, lambda x, y: fn(x, y)[..., :2],
                    10).coefficients
    z = interpolate(space.z, lambda x, y: fn(x, y)[..., 2],
                    10).coefficients
    out = np.concatenate([t, z])
    out[con] = 0.0
    return out


def initial_uxn_state(scheme, u0_fn, B0_fn):
    """Interpolate initial data; the velocity is then projected onto the
    discrete constraint (u, grad Q) = 0 so the pressure term is exactly
    orthogonal from step one."""
    sc = scheme
    u = _interpolate_product(sc.curlsp, u0_fn, sc.con_c)
    B = _interpolate_product(sc.divsp, B0_fn, sc.con_d)
    return MidpointState(sc, _project_constraint_uxn(sc, u), B, "uxn")


def _project_constraint_uxn(sc, u):
    """Mc-orthogonal projection onto {(u, grad Q) = 0 for Q in H0^1}."""
    cg = sc.curlsp.z
    G = sc.GRAD
    con_q = cg.boundary_dofs()
    K = (G.T @ sc.M_c @ G).tocsr()
    K = constrain_matrix(K, con_q)
    rhs = G.T @ (sc.M_c @ u)
    rhs[con_q] = 0.0
    lam = LuSolver(K).solve(rhs)
    return u - G @ lam


def initial_udotn_state(scheme, u0_fn, B0_fn):
    """Interpolate initial data, both fields in the H(div)-type product."""
    sc = scheme
    u = _interpolate_product(sc.divsp, u0_fn, sc.con_d)
    B = _interpolate_product(sc.divsp, B0_fn, sc.con_d)
    return MidpointState(sc, u, B, "udotn")


class _Stepper:
    """The velocity/pressure solve of a family's constrained saddle-point
    matrix, factorised once per stepper in `A_lu`, and the proof-level
    identities of an accepted step, whose Ohm's law advects B with the aux
    field `ADVECTING`."""

    def identities(self, state):
        """The proof-level identities at the accepted step, scaled."""
        sc = self.sc
        a = state.aux
        scale_u = max(np.linalg.norm(state.u), 1.0)
        scale_B = max(np.linalg.norm(state.B), 1.0)
        i1 = abs(sc.cross_pair_integral(a[self.ADVECTING], a["H"], a["H"]))
        i2 = abs(sc.cross_pair_integral(a["j"], a["H"], a["H"]))
        EH = float(a["E"] @ (sc.M_c @ a["H"]))
        if sc.inv_Rem:
            EH -= sc.inv_Rem * float(a["j"] @ (sc.M_c @ a["H"]))
        return {"u_x_QcB_QcB": i1 / (scale_u * scale_B ** 2 + 1e-30),
                "j_x_QcB_QcB": i2 / (scale_B ** 3 + 1e-30),
                "E_dot_H": abs(EH) / (scale_B ** 2 + 1e-30)}

    def solve_velocity(self, rhs_u):
        rhs = np.concatenate([rhs_u, np.zeros(self.A_lu.shape[0] - self.n_u)])
        rhs[self.con] = 0.0
        out = self.A_lu.solve(rhs)
        return out[:self.n_u], out[self.n_u:]


class UxnStepper(_Stepper):
    """u x n = 0 family: velocity in the H(curl)-type product, total
    pressure in H0^1."""

    ADVECTING = "u_mid"

    def __init__(self, scheme, dt):
        self.sc = scheme
        self.dt = dt
        sc = scheme
        cg = sc.curlsp.z
        n_u = sc.curlsp.n
        A11 = (sc.M_c / dt + 0.5 * sc.inv_Re * sc.K_cc).tocsr()
        G = (sc.M_c @ sc.GRAD).tocsr()
        A = sp.bmat([[A11, G], [G.T, None]], format="csr")
        con = np.concatenate([sc.con_c, n_u + cg.boundary_dofs()])
        self.con = con
        self.n_u = n_u
        self.A_lu = LuSolver(constrain_matrix(A, con))

    def step(self, state):
        sc = self.sc
        # the u_k terms of the momentum right-hand side, fixed within a step
        rhs_k = (sc.M_c @ state.u) / self.dt \
            - 0.5 * sc.inv_Re * (sc.K_cc @ state.u)
        return _damped_fixed_point(sc, state,
                                   functools.partial(self._sweep, rhs_k))

    def _sweep(self, rhs_k, u_k, B_k, u_new, B_new):
        sc = self.sc
        dt = self.dt
        u_mid = 0.5 * (u_k + u_new)
        B_mid = 0.5 * (B_k + B_new)
        j, H, omega = sc.project_curl([
            sc.CURL_T @ (sc.M_d @ B_mid), sc.M_cd @ B_mid,
            sc.M_cd @ (sc.CURL @ u_mid)])
        # E = invRem j + Q_c[(R_H j - u_mid) x H]
        wH, jH = sc.cross_rhs([sc.R_H * j - u_mid, j], H)
        E = sc.inv_Rem * j + sc.project_curl(wH)
        rhs_u = rhs_k + sc.cross_rhs(u_mid, omega) + sc.S * jH
        u_next, P = self.solve_velocity(rhs_u)
        B_next = B_k - dt * (sc.CURL @ E)
        aux = {"j": j, "H": H, "omega": omega, "E": E}
        return u_next, B_next, aux


class UdotnStepper(_Stepper):
    """u . n = 0 family: velocity in the H(div)-type product, DG0 pressure;
    enforces div u = 0 exactly in addition to the conservation laws."""

    ADVECTING = "U"

    def __init__(self, scheme, dt):
        self.sc = scheme
        if scheme.inv_Re:
            raise ValueError("the u.n family is implemented for the ideal "
                             "viscous limit (1/Re = 0)")
        self.dt = dt
        sc = scheme
        n_u = sc.divsp.n
        DT = (sc.D.T @ sc.M_dg).tocsr()   # (p, div v) pairing
        Z = sp.csr_matrix((sc.divsp.nz, sc.divsp.nz))
        A11 = (sc.M_d / dt).tocsr()
        B1 = sp.bmat([[DT], [Z]], format="csr")
        A = sp.bmat([[A11, B1], [B1.T, None]], format="csr")
        con = np.concatenate([sc.con_d, np.array([n_u],
                                                 dtype=np.int64)])
        self.con = con
        self.n_u = n_u
        self.A_lu = LuSolver(constrain_matrix(A, con))

    def step(self, state):
        # the u_k term of the momentum right-hand side, fixed within a step
        rhs_k = (self.sc.M_d @ state.u) / self.dt
        return _damped_fixed_point(self.sc, state,
                                   functools.partial(self._sweep, rhs_k))

    def _sweep(self, rhs_k, u_k, B_k, u_new, B_new):
        sc = self.sc
        dt = self.dt
        u_mid = 0.5 * (u_k + u_new)
        B_mid = 0.5 * (B_k + B_new)
        j, H, omega, U = sc.project_curl([
            sc.CURL_T @ (sc.M_d @ B_mid), sc.M_cd @ B_mid,
            sc.CURL_T @ (sc.M_d @ u_mid), sc.M_cd @ u_mid])
        # alpha = Qc[w x U] - S Qc[j x H], E = invRem j + Qc[(R_H j - U) x H]
        jH, wH = sc.cross_rhs([j, sc.R_H * j - U], H)
        alpha, E = sc.project_curl([sc.cross_rhs(omega, U) - sc.S * jH, wH])
        E = sc.inv_Rem * j + E
        rhs_u = rhs_k - (sc.M_cd_T @ alpha)
        u_next, p = self.solve_velocity(rhs_u)
        B_next = B_k - dt * (sc.CURL @ E)
        aux = {"j": j, "H": H, "omega": omega, "E": E, "U": U}
        return u_next, B_next, aux

    def identities(self, state):
        """The proof-level identities and div u at the accepted step."""
        return dict(super().identities(state),
                    div_u=self.sc.div_norm_d(state.u))


def _anderson_mix(g, f):
    """Type-II Anderson mixing (Walker & Ni, SIAM J. Numer. Anal. 49(4),
    2011) of the sweep outputs g[i] and their residuals f[i], oldest first:
    g[-1] - dG gamma with gamma = argmin |f[-1] - dF gamma|, over the
    differences of consecutive entries."""
    if len(g) == 1:
        return g[0]
    dF = np.diff(f, axis=0).T
    dG = np.diff(g, axis=0).T
    gamma = np.linalg.lstsq(dF, f[-1], rcond=None)[0]
    return g[-1] - dG @ gamma


def _damped_fixed_point(sc, state, sweep):
    """Run the midpoint fixed point with Anderson mixing of the last
    ANDERSON_DEPTH + 1 sweeps.  An attempt whose relative increment sets no
    new minimum over STALL_SWEEPS sweeps in a row has stagnated or
    diverged; it restarts with a halved under-relaxation factor and no
    history (the converged limit is unaffected, only the iteration path
    changes).  The accepted state is a sweep's output, and every iterate is
    an affine combination of outputs, so B stays in B_k + range(CURL) and
    div B is kept exactly."""
    u_k, B_k = state.u, state.B
    n_u = len(u_k)
    theta = 1.0
    sweeps = 0
    for _ in range(6):
        u_new = u_k.copy()
        B_new = B_k.copy()
        g, f = [], []
        best = np.inf
        since_best = 0
        for _ in range(MAX_FP):
            u_next, B_next, aux = sweep(u_k, B_k, u_new, B_new)
            sweeps += 1
            if theta != 1.0:
                u_next = u_new + theta * (u_next - u_new)
                B_next = B_new + theta * (B_next - B_new)
            du = np.linalg.norm(u_next - u_new) / max(
                np.linalg.norm(u_new), 1e-14)
            dB = np.linalg.norm(B_next - B_new) / max(
                np.linalg.norm(B_new), 1e-14)
            inc = du + dB
            if not np.isfinite(inc):
                break
            if inc < TOL * theta:
                out = state.copy_with(u_next, B_next)
                out.fp_iters = sweeps
                aux["u_mid"] = 0.5 * (u_k + u_next)
                aux["B_mid"] = 0.5 * (B_k + B_next)
                out.aux = aux
                return out
            if inc < best:
                best, since_best = inc, 0
            else:
                since_best += 1
                if since_best >= STALL_SWEEPS:
                    break
            x_next = np.concatenate([u_next, B_next])
            g = g[-ANDERSON_DEPTH:] + [x_next]
            f = f[-ANDERSON_DEPTH:] + [
                x_next - np.concatenate([u_new, B_new])]
            x = _anderson_mix(g, f)
            u_new, B_new = x[:n_u], x[n_u:]
        theta *= 0.5
    raise FixedPointFailure(
        f"fixed point did not reach TOL={TOL} within {MAX_FP} "
        "iterations (after relaxation retries)")
