"""Residual and Jacobian of the augmented B-E formulation of 2D
incompressible resistive MHD with the H(div) x L2 velocity pair:
(u, p, E, B) in BDM2 x DG1 x CG2 x RT2."""

import numpy as np
import scipy.sparse as sp

from ..elements import FunctionSpace
from ..assembly import (cell_matrix, cell_vector, field_at_quadrature,
                        sipg_viscous, upwind_advection_matrix,
                        upwind_advection_residual, burman_stabilisation,
                        EPS_CONTRACTION)
from ..linalg import BlockMatrix
from .base import QDEG, MixedModel, perp


class StandardMHD(MixedModel):
    """Standard MHD model; Picard omits exactly the tilde coupling blocks
    (B x E^n, B x (u^n x B^n), B^n x (u^n x B), u^n x B)."""

    fields = ("u", "p", "E", "B")
    mass_fields = ("u", "B")
    FORCING = {"f": "u", "g_E": "E", "g_B": "B"}
    QDEG_RHS = 10

    def __init__(self, mesh, params, bcs=None, forcing=None):
        super().__init__(mesh, params, {
            "u": FunctionSpace(mesh, "BDM", 2),
            "p": FunctionSpace(mesh, "DG", 1),
            "E": FunctionSpace(mesh, "CG", 2),
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    # -- cached constant kernels ---------------------------------------------------

    def _assemble_constant(self):
        u, p, E, B = (self.spaces[k] for k in self.fields)
        self.K_eps = cell_matrix(u, u, "grad", "grad",
                                 weight=EPS_CONTRACTION, qdeg=QDEG)
        self.K_sipg_unit, self.r_sipg_unit = sipg_viscous(
            u, nu=1.0, sym=True, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        self.K_divdiv_u = cell_matrix(u, u, "div", "div", qdeg=QDEG)
        self.D_up = cell_matrix(p, u, "val", "div", qdeg=QDEG)  # (div u, q)
        self.M_E = cell_matrix(E, E, qdeg=QDEG)
        self.A_curl = cell_matrix(E, B, "vcurl", "val", qdeg=QDEG)
        self.K_divdiv_B = cell_matrix(B, B, "div", "div", qdeg=QDEG)
        self.K_burman_unit = burman_stabilisation(u, mu=1.0, qdeg=QDEG)

    # -- residual -------------------------------------------------------------------

    def residual(self, vec, constrain=True):
        """Steady residual of the weak form; rows of constrained dofs zeroed."""
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        u, p, E, B = (F[k] for k in self.fields)
        r = np.zeros(st.total)
        su = st.field_slice("u")
        sp_ = st.field_slice("p")
        sE = st.field_slice("E")
        sB = st.field_slice("B")

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)

        nu = 1.0 / pr.Re
        r[su] += (2 * nu) * (self.K_eps @ u.coefficients)
        r[su] += nu * (self.K_sipg_unit @ u.coefficients - self.r_sipg_unit)
        r[su] += pr.gamma * (self.K_divdiv_u @ u.coefficients)
        r[su] -= self.D_up.T @ p.coefficients
        # advection: cell part + upwinded facet part
        adv = np.einsum("cqd,cqkd->cqk", uq, guq)
        r[su] += cell_vector(self.spaces["u"], "val", adv, qdeg=QDEG)
        r[su] += upwind_advection_residual(
            self.spaces["u"], u, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        if pr.stab_mu:
            r[su] += pr.stab_mu * (self.K_burman_unit @ u.coefficients)
        # Lorentz: S (B x E, v) + S (B x (u x B), v) with B x s = s * perp(B)
        perpB = perp(Bq)
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)
        lor = pr.S * (Eq[..., 0] + uxB)[..., None] * perpB
        r[su] += cell_vector(self.spaces["u"], "val", lor, qdeg=QDEG)

        r[sp_] -= self.D_up @ u.coefficients

        r[sE] += self.M_E @ E.coefficients
        r[sE] += cell_vector(self.spaces["E"], "val", uxB[..., None],
                             qdeg=QDEG)
        r[sE] -= (1.0 / pr.Rem) * (self.A_curl @ B.coefficients)

        r[sB] += (1.0 / pr.Rem) * (self.K_divdiv_B @ B.coefficients)
        r[sB] += self.A_curl.T @ E.coefficients

        return self._finish_residual(r, constrain)

    # -- jacobian --------------------------------------------------------------------

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0):
        """Constrained Jacobian matrix and a parts dict carrying the pieces
        the block preconditioners need (field sizes, Lorentz block D)."""
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
        F = self._state_fields(vec)
        u, p, E, B = (F[k] for k in self.fields)
        spaces = self.spaces

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)
        perpB = perp(Bq)
        perpU = perp(uq)

        nu = 1.0 / pr.Re
        J_uu = (2 * nu) * self.K_eps + nu * self.K_sipg_unit \
            + pr.gamma * self.K_divdiv_u
        if pr.stab_mu:
            J_uu = J_uu + pr.stab_mu * self.K_burman_unit
        # advection derivative: (u^n . grad du, v) + (du . grad u^n, v)
        W1 = np.zeros(uq.shape[:2] + (2, 4))
        for kk in range(2):
            for d in range(2):
                W1[..., kk, 2 * kk + d] = uq[..., d]
        J_uu = J_uu + cell_matrix(spaces["u"], spaces["u"], "val", "grad",
                                  weight=W1, qdeg=QDEG)
        W2 = np.einsum("cqkd->cqkd", guq)  # grad u^n as (k, l) weight
        J_uu = J_uu + cell_matrix(spaces["u"], spaces["u"], "val", "val",
                                  weight=W2, qdeg=QDEG)
        J_uu = J_uu + upwind_advection_matrix(
            spaces["u"], u, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        # D: S (B^n x (du x B^n), v) = S (du . perp B)(perp B . v)
        D_mat = cell_matrix(spaces["u"], spaces["u"], "val", "val",
                            weight=pr.S * np.einsum("cqi,cqj->cqij",
                                                    perpB, perpB),
                            qdeg=QDEG)
        J_uu = J_uu + D_mat

        # J: S (B^n x dE, v): (2 x 1) weight S perp(B)
        J_uE = cell_matrix(spaces["u"], spaces["E"], "val", "val",
                           weight=pr.S * perpB[..., None], qdeg=QDEG)
        # tilde blocks: S (dB x E^n, v) + S(dB x (u^n x B^n), v)
        #             + S(B^n x (u^n x dB), v)
        if delta:
            uxB = np.einsum("cqk,cqk->cq", uq, perpB)
            Wt = np.zeros(uq.shape[:2] + (2, 2))
            scal = pr.S * (Eq[..., 0] + uxB)
            Wt[..., 0, 1] = scal
            Wt[..., 1, 0] = -scal
            # u^n x dB = -perp(u^n) . dB, so B^n x (u^n x dB) carries a minus
            Wt -= pr.S * np.einsum("cqi,cqj->cqij", perpB, perpU)
            J_uB = cell_matrix(spaces["u"], spaces["B"], "val", "val",
                               weight=Wt, qdeg=QDEG)
        else:
            J_uB = sp.csr_matrix((spaces["u"].total_dofs,
                                  spaces["B"].total_dofs))

        # G: (du x B^n, F): (1 x 2) weight perp(B)
        J_Eu = cell_matrix(spaces["E"], spaces["u"], "val", "val",
                           weight=perpB[:, :, None, :], qdeg=QDEG)
        # G tilde: (u^n x dB, F) = -(dB . perp u^n) F
        if delta:
            J_EB_G = cell_matrix(spaces["E"], spaces["B"], "val", "val",
                                 weight=-perpU[:, :, None, :], qdeg=QDEG)
        else:
            J_EB_G = sp.csr_matrix((spaces["E"].total_dofs,
                                    spaces["B"].total_dofs))
        J_EB = J_EB_G - (1.0 / pr.Rem) * self.A_curl

        bm = BlockMatrix(list(self.fields), self.state_template.sizes())
        bm.add("u", "u", J_uu)
        bm.add("u", "p", -self.D_up.T)
        bm.add("u", "E", J_uE)
        bm.add("u", "B", J_uB)
        bm.add("p", "u", -self.D_up)
        bm.add("E", "u", J_Eu)
        bm.add("E", "E", self.M_E.copy())
        bm.add("E", "B", J_EB)
        bm.add("B", "E", self.A_curl.T.tocsr())
        bm.add("B", "B", (1.0 / pr.Rem) * self.K_divdiv_B)
        _, wq, _, _ = spaces["u"].basis_at_quadrature(QDEG)
        return self._finish_jacobian(
            bm, delta, mass_coeff, steady_coeff, D=D_mat,
            u_l2=float(np.sqrt(np.sum(uq ** 2 * wq[..., None]))))
