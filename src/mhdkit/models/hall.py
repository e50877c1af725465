"""Stationary/transient Hall MHD in the 2.5D reduction: three-component
fields over a 2D mesh with vanishing z-derivatives, keeping the current
density as an unknown.

State ordering: (ut, u3, p, Et, E3, Bt, B3, jt, j3) with in-plane parts in
BDM2/NED2/RT2 and out-of-plane parts in CG2.  The "taylor_hood" velocity
variant (vector CG2 velocity, CG1 pressure, skew-symmetrised advection,
no grad-div term) reproduces the discrete energy identity exactly; the
"hdiv" variant carries the DG advection/viscous machinery and the grad-div
augmentation used by the solvers."""

import numpy as np
import scipy.sparse as sp

from ..elements import FunctionSpace
from ..assembly import (cell_matrix, cell_vector, field_at_quadrature,
                        sipg_viscous, upwind_advection_matrix,
                        upwind_advection_residual)
from ..linalg import BlockMatrix
from .base import QDEG, MixedModel, perp, velocity_pair


class HallMHD(MixedModel):
    fields = ("ut", "u3", "p", "Et", "E3", "Bt", "B3", "jt", "j3")
    mass_fields = ("ut", "u3", "Bt", "B3")
    velocity = "ut"
    magnetic = "Bt"
    FORCING = {"f_t": "ut", "f_3": "u3", "gB_t": "Bt", "gB_3": "B3",
               "gj_t": "jt", "gj_3": "j3"}
    QDEG_RHS = 10

    def __init__(self, mesh, params, bcs=None, forcing=None,
                 velocity_variant="hdiv"):
        self.variant = velocity_variant
        ut, p = velocity_pair(mesh, velocity_variant)
        cg2 = lambda: FunctionSpace(mesh, "CG", 2)
        super().__init__(mesh, params, {
            "ut": ut, "u3": cg2(), "p": p,
            "Et": FunctionSpace(mesh, "NED", 2), "E3": cg2(),
            "Bt": FunctionSpace(mesh, "RT", 2), "B3": cg2(),
            "jt": FunctionSpace(mesh, "NED", 2), "j3": cg2(),
        }, bcs, forcing)

    def _assemble_constant(self):
        s = self.spaces
        self.K_ut = cell_matrix(s["ut"], s["ut"], "grad", "grad", qdeg=QDEG)
        if self.variant == "hdiv":
            self.K_sipg_unit, self.r_sipg_unit = sipg_viscous(
                s["ut"], nu=1.0, sym=False, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            self.K_divdiv_u = cell_matrix(s["ut"], s["ut"], "div", "div",
                                          qdeg=QDEG)
        self.K_u3 = cell_matrix(s["u3"], s["u3"], "grad", "grad", qdeg=QDEG)
        self.D_up = cell_matrix(s["p"], s["ut"], "val", "div", qdeg=QDEG)
        # complex pairings
        self.M_jt = cell_matrix(s["jt"], s["jt"], qdeg=QDEG)
        self.M_j3 = cell_matrix(s["j3"], s["j3"], qdeg=QDEG)
        self.M_Et = cell_matrix(s["Et"], s["Et"], qdeg=QDEG)
        self.M_E3 = cell_matrix(s["E3"], s["E3"], qdeg=QDEG)
        # (B3, curl Ft): test NED (curl), trial CG val
        self.C_B3_Ft = cell_matrix(s["Et"], s["B3"], "curl", "val", qdeg=QDEG)
        # (Bt, vcurl F3): test CG (vcurl), trial RT val
        self.C_Bt_F3 = cell_matrix(s["E3"], s["Bt"], "vcurl", "val",
                                   qdeg=QDEG)
        self.K_divdiv_B = cell_matrix(s["Bt"], s["Bt"], "div", "div",
                                      qdeg=QDEG)

    # -- residual ------------------------------------------------------------

    def residual(self, vec, constrain=True):
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        r = np.zeros(st.total)
        S = {n: st.field_slice(n) for n in self.fields}
        sp_ = self.spaces

        utq, gutq = field_at_quadrature(F["ut"], QDEG, grad=True)
        u3q, gu3q = field_at_quadrature(F["u3"], QDEG, grad=True)
        Btq = field_at_quadrature(F["Bt"], QDEG)
        B3q = field_at_quadrature(F["B3"], QDEG)[..., 0]
        jtq = field_at_quadrature(F["jt"], QDEG)
        j3q = field_at_quadrature(F["j3"], QDEG)[..., 0]
        Etq = field_at_quadrature(F["Et"], QDEG)
        E3q = field_at_quadrature(F["E3"], QDEG)[..., 0]
        pBt = perp(Btq)
        pjt = perp(jtq)
        put = perp(utq)

        inv_re = 1.0 / pr.Re
        # momentum, in-plane
        r[S["ut"]] += inv_re * (self.K_ut @ F["ut"].coefficients)
        if self.variant == "hdiv":
            r[S["ut"]] += inv_re * (self.K_sipg_unit @ F["ut"].coefficients
                                    - self.r_sipg_unit)
            r[S["ut"]] += pr.gamma * (self.K_divdiv_u
                                      @ F["ut"].coefficients)
            r[S["ut"]] += upwind_advection_residual(
                sp_["ut"], F["ut"], qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            adv = np.einsum("cqd,cqkd->cqk", utq, gutq)
            r[S["ut"]] += cell_vector(sp_["ut"], "val", adv, qdeg=QDEG)
        else:
            r[S["ut"]] += self._skew_vec_residual(utq, gutq)
        lor_t = -pr.S * (B3q[..., None] * pjt - j3q[..., None] * pBt)
        r[S["ut"]] += cell_vector(sp_["ut"], "val", lor_t, qdeg=QDEG)
        r[S["ut"]] -= self.D_up.T @ F["p"].coefficients

        # momentum, out-of-plane
        r[S["u3"]] += inv_re * (self.K_u3 @ F["u3"].coefficients)
        if self.variant == "hdiv":
            adv3 = np.einsum("cqd,cqd->cq", utq, gu3q[..., 0, :])
            r[S["u3"]] += cell_vector(sp_["u3"], "val", adv3[..., None],
                                      qdeg=QDEG)
        else:
            r[S["u3"]] += self._skew_scalar_residual(utq, u3q[..., 0],
                                                     gu3q[..., 0, :])
        jxB = np.einsum("cqk,cqk->cq", jtq, pBt)  # jt x Bt (scalar)
        r[S["u3"]] += cell_vector(sp_["u3"], "val",
                                  (-pr.S * jxB)[..., None], qdeg=QDEG)

        # continuity
        r[S["p"]] -= self.D_up @ F["ut"].coefficients

        # current definitions
        r[S["Et"]] += self.M_jt @ F["jt"].coefficients \
            - self.C_B3_Ft @ F["B3"].coefficients
        r[S["E3"]] += self.M_j3 @ F["j3"].coefficients \
            - self.C_Bt_F3 @ F["Bt"].coefficients

        # Faraday + augmentation
        r[S["Bt"]] += self.C_Bt_F3.T @ F["E3"].coefficients \
            + self.K_divdiv_B @ F["Bt"].coefficients
        r[S["B3"]] += self.C_B3_Ft.T @ F["Et"].coefficients

        # Ohm's law
        ohm_t = (1.0 / pr.Rem) * jtq - (
            Etq + B3q[..., None] * put - u3q * pBt
            - pr.R_H * (B3q[..., None] * pjt - j3q[..., None] * pBt))
        r[S["jt"]] += cell_vector(sp_["jt"], "val", ohm_t, qdeg=QDEG)
        uxB = np.einsum("cqk,cqk->cq", utq, pBt)
        ohm_3 = (1.0 / pr.Rem) * j3q - (E3q + uxB - pr.R_H * jxB)
        r[S["j3"]] += cell_vector(sp_["j3"], "val", ohm_3[..., None],
                                  qdeg=QDEG)

        return self._finish_residual(r, constrain)

    def _skew_vec_residual(self, uq, guq):
        adv = 0.5 * np.einsum("cqd,cqkd->cqk", uq, guq)
        out = cell_vector(self.spaces["ut"], "val", adv, qdeg=QDEG)
        # -1/2 (u . grad v) . u: test gradient against u_d u_k
        W = 0.5 * np.einsum("cqk,cqd->cqkd", uq, uq)
        out -= cell_vector(self.spaces["ut"], "grad",
                           W.reshape(W.shape[:2] + (4,)), qdeg=QDEG)
        return out

    def _skew_scalar_residual(self, uq, sq, gsq):
        adv = 0.5 * np.einsum("cqd,cqd->cq", uq, gsq)
        out = cell_vector(self.spaces["u3"], "val", adv[..., None],
                          qdeg=QDEG)
        W = 0.5 * sq[..., None] * uq
        out -= cell_vector(self.spaces["u3"], "grad", W, qdeg=QDEG)
        return out

    # -- jacobian ---------------------------------------------------------------

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0):
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
        st = self.state_template
        F = self._state_fields(vec)
        s = self.spaces

        utq, gutq = field_at_quadrature(F["ut"], QDEG, grad=True)
        u3q, gu3q = field_at_quadrature(F["u3"], QDEG, grad=True)
        Btq = field_at_quadrature(F["Bt"], QDEG)
        B3q = field_at_quadrature(F["B3"], QDEG)[..., 0]
        jtq = field_at_quadrature(F["jt"], QDEG)
        j3q = field_at_quadrature(F["j3"], QDEG)[..., 0]
        pBt = perp(Btq)
        pjt = perp(jtq)
        put = perp(utq)
        shp = utq.shape[:2]
        ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])  # perp(db) = ROT @ db

        bm = BlockMatrix(list(self.fields), st.sizes())
        inv_re = 1.0 / pr.Re

        # -- ut row
        J_uu = inv_re * self.K_ut
        if self.variant == "hdiv":
            J_uu = J_uu + inv_re * self.K_sipg_unit \
                + pr.gamma * self.K_divdiv_u
            J_uu = J_uu + upwind_advection_matrix(
                s["ut"], F["ut"], qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            W1 = np.zeros(shp + (2, 4))
            for kk in range(2):
                for d in range(2):
                    W1[..., kk, 2 * kk + d] = utq[..., d]
            J_uu = J_uu + cell_matrix(s["ut"], s["ut"], "val", "grad",
                                      weight=W1, qdeg=QDEG)
            if delta:
                J_uu = J_uu + cell_matrix(s["ut"], s["ut"], "val", "val",
                                          weight=gutq, qdeg=QDEG)
        else:
            J_uu = J_uu + self._skew_vec_jacobian(utq, gutq, delta)
        bm.add("ut", "ut", J_uu)
        bm.add("ut", "p", -self.D_up.T)
        # Lorentz: -S (B3 perp(djt) - j3 perp(dBt) + [dB3 perp(jt) - dj3 perp(Bt)])
        bm.add("ut", "jt", cell_matrix(
            s["ut"], s["jt"], "val", "val",
            weight=-pr.S * B3q[..., None, None] * ROT, qdeg=QDEG))
        bm.add("ut", "j3", cell_matrix(
            s["ut"], s["j3"], "val", "val",
            weight=pr.S * pBt[..., None], qdeg=QDEG))
        if delta:
            bm.add("ut", "B3", cell_matrix(
                s["ut"], s["B3"], "val", "val",
                weight=-pr.S * pjt[..., None], qdeg=QDEG))
            bm.add("ut", "Bt", cell_matrix(
                s["ut"], s["Bt"], "val", "val",
                weight=pr.S * j3q[..., None, None] * ROT, qdeg=QDEG))

        # -- u3 row
        J_33 = inv_re * self.K_u3
        if self.variant == "hdiv":
            Wadv = np.zeros(shp + (1, 2))
            Wadv[..., 0, :] = utq
            J_33 = J_33 + cell_matrix(s["u3"], s["u3"], "val", "grad",
                                      weight=Wadv, qdeg=QDEG)
            bm.add("u3", "ut", cell_matrix(
                s["u3"], s["ut"], "val", "val",
                weight=(gu3q[..., 0, :][:, :, None, :]
                        if delta else np.zeros(shp + (1, 2))), qdeg=QDEG))
        else:
            J_33 = J_33 + self._skew_scalar_jacobian_33(utq)
            bm.add("u3", "ut", self._skew_scalar_jacobian_3u(
                u3q[..., 0], gu3q[..., 0, :], delta))
        bm.add("u3", "u3", J_33)
        # -S (djt x Bt + jt x dBt)
        bm.add("u3", "jt", cell_matrix(
            s["u3"], s["jt"], "val", "val",
            weight=-pr.S * pBt[:, :, None, :], qdeg=QDEG))
        if delta:
            # jt x dBt = -dBt . perp(jt) => derivative + S perp(jt)
            bm.add("u3", "Bt", cell_matrix(
                s["u3"], s["Bt"], "val", "val",
                weight=pr.S * pjt[:, :, None, :], qdeg=QDEG))

        bm.add("p", "ut", -self.D_up)

        # -- current definitions
        bm.add("Et", "jt", self.M_jt.copy())
        bm.add("Et", "B3", -self.C_B3_Ft)
        bm.add("E3", "j3", self.M_j3.copy())
        bm.add("E3", "Bt", -self.C_Bt_F3)

        # -- Faraday rows
        bm.add("Bt", "E3", self.C_Bt_F3.T.tocsr())
        bm.add("Bt", "Bt", self.K_divdiv_B.copy())
        bm.add("B3", "Et", self.C_B3_Ft.T.tocsr())

        # -- Ohm rows (jt tests)
        bm.add("jt", "jt", (1.0 / pr.Rem) * self.M_jt
               + cell_matrix(s["jt"], s["jt"], "val", "val",
                             weight=pr.R_H * B3q[..., None, None] * ROT,
                             qdeg=QDEG))
        bm.add("jt", "Et", -self.M_Et)
        bm.add("jt", "ut", cell_matrix(
            s["jt"], s["ut"], "val", "val",
            weight=-B3q[..., None, None] * ROT, qdeg=QDEG))
        bm.add("jt", "u3", cell_matrix(
            s["jt"], s["u3"], "val", "val", weight=pBt[..., None],
            qdeg=QDEG))
        bm.add("jt", "j3", cell_matrix(
            s["jt"], s["j3"], "val", "val",
            weight=-pr.R_H * pBt[..., None], qdeg=QDEG))
        if delta:
            bm.add("jt", "B3", cell_matrix(
                s["jt"], s["B3"], "val", "val", weight=-put[..., None]
                + pr.R_H * pjt[..., None], qdeg=QDEG))
            bm.add("jt", "Bt", cell_matrix(
                s["jt"], s["Bt"], "val", "val",
                weight=(u3q[..., 0] - pr.R_H * j3q)[..., None, None] * ROT,
                qdeg=QDEG))

        # -- Ohm rows (j3 tests)
        bm.add("j3", "j3", (1.0 / pr.Rem) * self.M_j3)
        bm.add("j3", "E3", -self.M_E3)
        bm.add("j3", "ut", cell_matrix(
            s["j3"], s["ut"], "val", "val", weight=-pBt[:, :, None, :],
            qdeg=QDEG))
        bm.add("j3", "jt", cell_matrix(
            s["j3"], s["jt"], "val", "val",
            weight=pr.R_H * pBt[:, :, None, :], qdeg=QDEG))
        if delta:
            # d/dBt of -(ut x Bt) + R_H jt x Bt: x dB = -perp(w).dB pattern
            W = (put - pr.R_H * pjt)[:, :, None, :]
            bm.add("j3", "Bt", cell_matrix(
                s["j3"], s["Bt"], "val", "val", weight=W, qdeg=QDEG))

        return self._finish_jacobian(bm, delta, mass_coeff, steady_coeff)

    def _skew_vec_jacobian(self, uq, guq, delta):
        s = self.spaces["ut"]
        shp = uq.shape[:2]
        W1 = np.zeros(shp + (2, 4))
        for kk in range(2):
            for d in range(2):
                W1[..., kk, 2 * kk + d] = 0.5 * uq[..., d]
        J = cell_matrix(s, s, "val", "grad", weight=W1, qdeg=QDEG)
        # -1/2 (u . grad v) . du: test grad (k,d), trial val k'
        W3 = np.zeros(shp + (4, 2))
        for kk in range(2):
            for d in range(2):
                W3[..., 2 * kk + d, kk] = -0.5 * uq[..., d]
        J = J + cell_matrix(s, s, "grad", "val", weight=W3, qdeg=QDEG)
        if delta:
            J = J + cell_matrix(s, s, "val", "val", weight=0.5 * guq,
                                qdeg=QDEG)
            # -1/2 (du . grad v) . u: test grad (k,d), trial val d'
            W4 = np.zeros(shp + (4, 2))
            for kk in range(2):
                for d in range(2):
                    W4[..., 2 * kk + d, d] = -0.5 * uq[..., kk]
            J = J + cell_matrix(s, s, "grad", "val", weight=W4, qdeg=QDEG)
        return J

    def _skew_scalar_jacobian_33(self, uq):
        s3 = self.spaces["u3"]
        shp = uq.shape[:2]
        Wa = np.zeros(shp + (1, 2))
        Wa[..., 0, :] = 0.5 * uq
        J = cell_matrix(s3, s3, "val", "grad", weight=Wa, qdeg=QDEG)
        Wb = np.zeros(shp + (2, 1))
        Wb[..., :, 0] = -0.5 * uq
        return J + cell_matrix(s3, s3, "grad", "val", weight=Wb, qdeg=QDEG)

    def _skew_scalar_jacobian_3u(self, sq, gsq, delta):
        s3, su = self.spaces["u3"], self.spaces["ut"]
        shp = sq.shape[:2]
        if not delta:
            return sp.csr_matrix((s3.total_dofs, su.total_dofs))
        Wa = gsq[:, :, None, :] * 0.5
        J = cell_matrix(s3, su, "val", "val", weight=Wa, qdeg=QDEG)
        Wb = -0.5 * sq[..., None, None] * np.eye(2)
        return J + cell_matrix(s3, su, "grad", "val", weight=Wb, qdeg=QDEG)

    # -- diagnostics ---------------------------------------------------------------

    def energy_identity_error(self, vec):
        """|Re^-1 ||grad u||^2 + Rem^-1 S ||j||^2 - <f, u>| scaled; the
        identity of any discrete solution with homogeneous BCs."""
        pr = self.params
        st = self.state_template
        ut = vec[st.field_slice("ut")]
        u3 = vec[st.field_slice("u3")]
        jt = vec[st.field_slice("jt")]
        j3 = vec[st.field_slice("j3")]
        grad2 = ut @ (self.K_ut @ ut) + u3 @ (self.K_u3 @ u3)
        j2 = jt @ (self.M_jt @ jt) + j3 @ (self.M_j3 @ j3)
        fu = (self._rhs_const[st.field_slice("ut")] @ ut
              + self._rhs_const[st.field_slice("u3")] @ u3)
        lhs = grad2 / pr.Re + pr.S * j2 / pr.Rem
        return abs(lhs - fu) / max(1.0, abs(fu))


def compatible_hall_bcs(params, lid_velocity=1.0, lid_marker="top"):
    """Boundary data for (Et, E3, jt, j3) compatible with the generalised
    Ohm's law on a lid-driven cavity: E x n = 0 everywhere, j x n = 0 away
    from the lid, and on the lid the closed form
    j x n = (Rem R_H, 0, 1)^T x n / (Rem^-1 + Rem R_H^2)."""
    Rem, RH = params.Rem, params.R_H
    denom = 1.0 / Rem + Rem * RH ** 2

    def jt_data(x, y, tol=1e-9):
        lid = np.abs(y - 0.5) < tol
        j1 = np.where(lid, lid_velocity * Rem * RH / denom, 0.0)
        return np.stack([j1, np.zeros_like(x)], axis=-1)

    def j3_data(x, y, tol=1e-9):
        lid = np.abs(y - 0.5) < tol
        return np.where(lid, lid_velocity / denom, 0.0)

    return {
        "Et": ("all", None),
        "E3": ("all", None),
        "jt": ("all", jt_data),
        "j3": ("all", j3_data),
    }
