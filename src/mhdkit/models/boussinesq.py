"""Anisothermal (Boussinesq) MHD in 2D: (u, p, theta, E, B) with either the
H(div) x L2 velocity pair (BDM2 x DG1, DG viscous/advection forms, grad-div
augmentation) or Taylor-Hood (vector CG2 x CG1) for the bifurcation studies.

Stationary weak form: 2 Pr viscous + advection + grad p + S B x (E + u x B)
- Ra Pr theta e2 in the momentum row; heat equation with unit diffusivity;
Ohm and augmented Faraday rows carry the Pr/Pm coefficient."""

import numpy as np
import scipy.sparse as sp

from ..elements import FunctionSpace
from ..assembly import (cell_matrix, cell_vector, field_at_quadrature,
                        sipg_viscous, upwind_advection_matrix,
                        upwind_advection_residual, burman_stabilisation,
                        EPS_CONTRACTION)
from ..linalg import BlockMatrix
from .base import QDEG, MixedModel, perp, velocity_pair


class BoussinesqMHD(MixedModel):
    fields = ("u", "p", "theta", "E", "B")
    mass_fields = ("u", "theta", "B")
    FORCING = {"f": "u", "q_theta": "theta"}
    QDEG_RHS = 8

    # the buoyancy direction
    E3 = np.array([0.0, 1.0])

    def __init__(self, mesh, params, bcs=None, forcing=None,
                 velocity_variant="hdiv"):
        self.variant = velocity_variant
        u, p = velocity_pair(mesh, velocity_variant)
        super().__init__(mesh, params, {
            "u": u,
            "p": p,
            "theta": FunctionSpace(mesh, "CG", 2),
            "E": FunctionSpace(mesh, "CG", 2),
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    def _assemble_constant(self):
        u, p, th, E, B = (self.spaces[k] for k in self.fields)
        self.K_eps = cell_matrix(u, u, "grad", "grad",
                                 weight=EPS_CONTRACTION, qdeg=QDEG)
        if self.variant == "hdiv":
            self.K_sipg_unit, self.r_sipg_unit = sipg_viscous(
                u, nu=1.0, sym=True, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            self.K_divdiv_u = cell_matrix(u, u, "div", "div", qdeg=QDEG)
            self.K_burman_unit = burman_stabilisation(u, mu=1.0, qdeg=QDEG)
        self.D_up = cell_matrix(p, u, "val", "div", qdeg=QDEG)
        self.K_theta = cell_matrix(th, th, "grad", "grad", qdeg=QDEG)
        self.M_E = cell_matrix(E, E, qdeg=QDEG)
        self.A_curl = cell_matrix(E, B, "vcurl", "val", qdeg=QDEG)
        self.K_divdiv_B = cell_matrix(B, B, "div", "div", qdeg=QDEG)
        self.C_buoy = cell_matrix(u, th, "val", "val",
                                  weight=self.E3[:, None], qdeg=QDEG)

    def residual(self, vec, constrain=True):
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        u, p, th, E, B = (F[k] for k in self.fields)
        r = np.zeros(st.total)
        su, sp_, sth = (st.field_slice(k) for k in ("u", "p", "theta"))
        sE, sB = st.field_slice("E"), st.field_slice("B")

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        thq, gthq = field_at_quadrature(th, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)
        perpB = perp(Bq)
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)

        r[su] += 2 * pr.Pr * (self.K_eps @ u.coefficients)
        if self.variant == "hdiv":
            r[su] += pr.Pr * (self.K_sipg_unit @ u.coefficients
                              - self.r_sipg_unit)
            r[su] += pr.gamma * (self.K_divdiv_u @ u.coefficients)
            r[su] += upwind_advection_residual(
                self.spaces["u"], u, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            if pr.stab_mu:
                r[su] += pr.stab_mu * (self.K_burman_unit @ u.coefficients)
        adv = np.einsum("cqd,cqkd->cqk", uq, guq)
        r[su] += cell_vector(self.spaces["u"], "val", adv, qdeg=QDEG)
        r[su] -= self.D_up.T @ p.coefficients
        lor = pr.S * (Eq[..., 0] + uxB)[..., None] * perpB
        r[su] += cell_vector(self.spaces["u"], "val", lor, qdeg=QDEG)
        r[su] -= pr.Ra * pr.Pr * (self.C_buoy @ th.coefficients)

        r[sp_] -= self.D_up @ u.coefficients

        r[sth] += self.K_theta @ th.coefficients
        advt = np.einsum("cqd,cqkd->cqk", uq, gthq)
        r[sth] += cell_vector(self.spaces["theta"], "val", advt, qdeg=QDEG)

        r[sE] += self.M_E @ E.coefficients
        r[sE] += cell_vector(self.spaces["E"], "val", uxB[..., None],
                             qdeg=QDEG)
        r[sE] -= (pr.Pr / pr.Pm) * (self.A_curl @ B.coefficients)

        r[sB] += (pr.Pr / pr.Pm) * (self.K_divdiv_B @ B.coefficients)
        r[sB] += self.A_curl.T @ E.coefficients

        return self._finish_residual(r, constrain)

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0, drop_buoyancy=False, drop_lorentz=False):
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
        F = self._state_fields(vec)
        u, p, th, E, B = (F[k] for k in self.fields)
        spaces = self.spaces

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        thq, gthq = field_at_quadrature(th, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)
        perpB = perp(Bq)
        perpU = perp(uq)

        J_uu = 2 * pr.Pr * self.K_eps
        if self.variant == "hdiv":
            J_uu = J_uu + pr.Pr * self.K_sipg_unit \
                + pr.gamma * self.K_divdiv_u
            if pr.stab_mu:
                J_uu = J_uu + pr.stab_mu * self.K_burman_unit
            J_uu = J_uu + upwind_advection_matrix(
                spaces["u"], u, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
        W1 = np.zeros(uq.shape[:2] + (2, 4))
        for kk in range(2):
            for d in range(2):
                W1[..., kk, 2 * kk + d] = uq[..., d]
        J_uu = J_uu + cell_matrix(spaces["u"], spaces["u"], "val", "grad",
                                  weight=W1, qdeg=QDEG)
        J_uu = J_uu + cell_matrix(spaces["u"], spaces["u"], "val", "val",
                                  weight=guq, qdeg=QDEG)
        Sfac = 0.0 if drop_lorentz else pr.S
        D_mat = cell_matrix(spaces["u"], spaces["u"], "val", "val",
                            weight=Sfac * np.einsum("cqi,cqj->cqij",
                                                    perpB, perpB), qdeg=QDEG)
        J_uu = J_uu + D_mat
        J_uE = cell_matrix(spaces["u"], spaces["E"], "val", "val",
                           weight=Sfac * perpB[..., None], qdeg=QDEG)
        if delta and not drop_lorentz:
            uxB = np.einsum("cqk,cqk->cq", uq, perpB)
            Wt = np.zeros(uq.shape[:2] + (2, 2))
            scal = pr.S * (Eq[..., 0] + uxB)
            Wt[..., 0, 1] = scal
            Wt[..., 1, 0] = -scal
            Wt -= pr.S * np.einsum("cqi,cqj->cqij", perpB, perpU)
            J_uB = cell_matrix(spaces["u"], spaces["B"], "val", "val",
                               weight=Wt, qdeg=QDEG)
        else:
            J_uB = sp.csr_matrix((spaces["u"].total_dofs,
                                  spaces["B"].total_dofs))

        # temperature rows: (grad dth, grad tau) + (u^n . grad dth, tau)
        #                   + (du . grad th^n, tau)
        Wadv = np.zeros(uq.shape[:2] + (1, 2))
        Wadv[..., 0, :] = uq
        J_tt = self.K_theta + cell_matrix(spaces["theta"], spaces["theta"],
                                          "val", "grad", weight=Wadv,
                                          qdeg=QDEG)
        J_tu = cell_matrix(spaces["theta"], spaces["u"], "val", "val",
                           weight=gthq[..., 0, :][:, :, None, :], qdeg=QDEG)

        J_Eu = cell_matrix(spaces["E"], spaces["u"], "val", "val",
                           weight=perpB[:, :, None, :], qdeg=QDEG)
        if delta:
            J_EB_G = cell_matrix(spaces["E"], spaces["B"], "val", "val",
                                 weight=-perpU[:, :, None, :], qdeg=QDEG)
        else:
            J_EB_G = sp.csr_matrix((spaces["E"].total_dofs,
                                    spaces["B"].total_dofs))
        J_EB = J_EB_G - (pr.Pr / pr.Pm) * self.A_curl

        bm = BlockMatrix(list(self.fields), self.state_template.sizes())
        bm.add("u", "u", J_uu)
        bm.add("u", "p", -self.D_up.T)
        if not drop_buoyancy:
            bm.add("u", "theta", -pr.Ra * pr.Pr * self.C_buoy)
        bm.add("u", "E", J_uE)
        bm.add("u", "B", J_uB)
        bm.add("p", "u", -self.D_up)
        bm.add("theta", "theta", J_tt)
        bm.add("theta", "u", J_tu)
        bm.add("E", "u", J_Eu)
        bm.add("E", "E", self.M_E.copy())
        bm.add("E", "B", J_EB)
        bm.add("B", "E", self.A_curl.T.tocsr())
        bm.add("B", "B", (pr.Pr / pr.Pm) * self.K_divdiv_B)
        return self._finish_jacobian(bm, delta, mass_coeff, steady_coeff)

    # -- eigen/deflation support -----------------------------------------------------

    def deflation_gram(self):
        """|u-u1|^2 + |grad(u-u1)|^2 + |theta-theta1|^2 + |B-B1|^2."""
        st = self.state_template
        bm = BlockMatrix(list(self.fields), st.sizes())
        Ku = cell_matrix(self.spaces["u"], self.spaces["u"], "grad", "grad",
                         qdeg=QDEG)
        bm.add("u", "u", self.mass["u"] + Ku)
        bm.add("theta", "theta", self.mass["theta"].copy())
        bm.add("B", "B", self.mass["B"].copy())
        return bm.tocsr()

    def functionals(self, vec):
        st = self.state_template
        u = vec[st.field_slice("u")]
        th = vec[st.field_slice("theta")]
        B = vec[st.field_slice("B")]
        M = self.mass
        return {
            "u_norm2": float(u @ (M["u"] @ u)),
            "theta_norm2": float(th @ (M["theta"] @ th)),
            "B_norm2": float(B @ (M["B"] @ B)),
        }

    def symmetry_reflect(self, vec):
        """[u1,u2,theta,B1,B2](x,y) -> [-u1,u2,theta,B1,-B2](1-x,y) applied
        through interpolation (crossed meshes are invariant)."""
        from ..elements import interpolate
        st = self.state_template
        F = self._state_fields(vec)
        out = np.zeros_like(vec)

        for name, signs in (("u", (-1.0, 1.0)), ("B", (1.0, -1.0))):
            f = F[name]

            def g(x, y, f=f, signs=signs):
                v = _pointwise_eval(f, 1.0 - x, y)
                return v * np.asarray(signs)
            out[st.field_slice(name)] = interpolate(
                self.spaces[name], g, quad_degree=8).coefficients
        for name in ("theta", "E", "p"):
            f = F[name]

            def g(x, y, f=f, s=(-1.0 if name == "E" else 1.0)):
                return s * _pointwise_eval(f, 1.0 - x, y)[..., 0]
            out[st.field_slice(name)] = interpolate(
                self.spaces[name], g, quad_degree=8).coefficients
        return out


def _pointwise_eval(field, x, y):
    """Evaluate a Field at arbitrary physical points by locating cells."""
    mesh = field.space.mesh
    pts = np.stack([np.asarray(x, dtype=float).ravel(),
                    np.asarray(y, dtype=float).ravel()], axis=-1)
    cells = locate_cells(mesh, pts)
    vals = np.empty((len(pts), field.space.element.ncomp))
    for c in np.unique(cells):
        sel = cells == c
        v = field.eval_cells(np.array([c]), pts[sel][None, :, :])
        vals[sel] = v[0]
    return vals.reshape(np.shape(x) + (field.space.element.ncomp,))


def locate_cells(mesh, pts, tol=1e-10):
    """Brute-force point location via barycentric coordinates."""
    p = mesh.cell_coords
    out = np.empty(len(pts), dtype=np.int64)
    v0 = p[:, 0]
    T = np.stack([p[:, 1] - v0, p[:, 2] - v0], axis=-1)
    Tinv = np.linalg.inv(T)
    for i, pt in enumerate(pts):
        lam = np.einsum("cab,cb->ca", Tinv, pt - v0)
        ok = (lam[:, 0] >= -tol) & (lam[:, 1] >= -tol) \
            & (lam.sum(axis=1) <= 1 + tol)
        idx = np.flatnonzero(ok)
        if len(idx) == 0:
            raise ValueError(f"point {pt} outside mesh")
        out[i] = idx[0]
    return out
