"""Residual and Jacobian of the augmented B-E formulation of 2D
incompressible resistive MHD with the H(div) x L2 velocity pair:
(u, p, E, B) in BDM2 x DG1 x CG2 x RT2."""

import numpy as np

from ..elements import FunctionSpace
from ..assembly import (cell_local, cell_matrix, cell_vector,
                        field_at_quadrature, sipg_local,
                        upwind_advection_local, upwind_advection_residual,
                        EPS_CONTRACTION)
from .base import QDEG, MixedModel, perp


class StandardMHD(MixedModel):
    """Standard MHD model; Picard omits exactly the tilde coupling blocks
    (B x E^n, B x (u^n x B^n), B^n x (u^n x B), u^n x B)."""

    fields = ("u", "p", "E", "B")
    mass_fields = ("u", "B")
    FORCING = {"f": "u", "g_E": "E", "g_B": "B"}
    QDEG_RHS = 10
    COUPLINGS = (("u", "u"), ("u", "p"), ("u", "E"), ("u", "B"), ("p", "u"),
                 ("E", "u"), ("E", "E"), ("E", "B"), ("B", "E"), ("B", "B"))

    def __init__(self, mesh, params, bcs=None, forcing=None):
        super().__init__(mesh, params, {
            "u": FunctionSpace(mesh, "BDM", 2),
            "p": FunctionSpace(mesh, "DG", 1),
            "E": FunctionSpace(mesh, "CG", 2),
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    # -- constant terms ---------------------------------------------------------

    def _weights(self):
        pr = self.params
        return {"one": 1.0, "nu": 1.0 / pr.Re, "gamma": pr.gamma,
                "stab_mu": pr.stab_mu, "inv_Rem": 1.0 / pr.Rem}

    def _sipg(self):
        return sipg_local(self.spaces["u"], nu=1.0, sym=True, qdeg=QDEG,
                          dirichlet_markers=self._vel_marker_list(),
                          g_d=self._velocity_bc_data())

    def _constant_terms(self):
        u, p, E, B = (self.spaces[k] for k in self.fields)
        sipg, self.r_sipg_unit = self._sipg()
        yield "nu", ("u", "u"), 2.0 * cell_local(
            u, u, "grad", "grad", weight=EPS_CONTRACTION, qdeg=QDEG)
        for key, loc in self._facet_terms(sipg).items():
            yield "nu", key, loc
        yield "gamma", ("u", "u"), cell_local(u, u, "div", "div", qdeg=QDEG)
        D_up = cell_local(p, u, "val", "div", qdeg=QDEG)  # (div u, q)
        yield "one", ("u", "p"), -D_up.transpose(0, 2, 1)
        yield "one", ("p", "u"), -D_up
        yield "one", ("E", "E"), cell_local(E, E, qdeg=QDEG)
        A_curl = cell_local(E, B, "vcurl", "val", qdeg=QDEG)
        yield "inv_Rem", ("E", "B"), -A_curl
        yield "one", ("B", "E"), A_curl.transpose(0, 2, 1)
        yield "inv_Rem", ("B", "B"), cell_local(B, B, "div", "div", qdeg=QDEG)

    # -- residual -------------------------------------------------------------------

    def residual(self, vec, constrain=True):
        """Steady residual of the weak form; rows of constrained dofs zeroed."""
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        u, E, B = F["u"], F["E"], F["B"]
        r = self._linear_residual(vec)
        su = st.field_slice("u")
        sE = st.field_slice("E")

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)

        r[su] -= (1.0 / pr.Re) * self.r_sipg_unit
        # advection: cell part + upwinded facet part
        adv = np.einsum("cqd,cqkd->cqk", uq, guq)
        r[su] += cell_vector(self.spaces["u"], "val", adv, qdeg=QDEG)
        r[su] += upwind_advection_residual(
            self.spaces["u"], u, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        # Lorentz: S (B x E, v) + S (B x (u x B), v) with B x s = s * perp(B)
        perpB = perp(Bq)
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)
        lor = pr.S * (Eq[..., 0] + uxB)[..., None] * perpB
        r[su] += cell_vector(self.spaces["u"], "val", lor, qdeg=QDEG)

        r[sE] += cell_vector(self.spaces["E"], "val", uxB[..., None],
                             qdeg=QDEG)
        return self._finish_residual(r, constrain)

    # -- jacobian --------------------------------------------------------------------

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0):
        """Constrained Jacobian matrix and a parts dict carrying the pieces
        the block preconditioners need (field sizes, Lorentz block D)."""
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
        F = self._state_fields(vec)
        u, E, B = (self.spaces[k] for k in ("u", "E", "B"))

        uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
        Bq = field_at_quadrature(F["B"], QDEG)
        Eq = field_at_quadrature(F["E"], QDEG)
        perpB = perp(Bq)
        perpU = perp(uq)

        # advection derivative: (u^n . grad du, v) + (du . grad u^n, v)
        W1 = np.zeros(uq.shape[:2] + (2, 4))
        for kk in range(2):
            for d in range(2):
                W1[..., kk, 2 * kk + d] = uq[..., d]
        # D: S (B^n x (du x B^n), v) = S (du . perp B)(perp B . v)
        W_D = pr.S * np.einsum("cqi,cqj->cqij", perpB, perpB)
        terms = {
            ("u", "u"): cell_local(u, u, "val", "grad", weight=W1, qdeg=QDEG)
            + cell_local(u, u, weight=guq + W_D, qdeg=QDEG),
            # J: S (B^n x dE, v): (2 x 1) weight S perp(B)
            ("u", "E"): cell_local(u, E, weight=pr.S * perpB[..., None],
                                   qdeg=QDEG),
            # G: (du x B^n, F): (1 x 2) weight perp(B)
            ("E", "u"): cell_local(E, u, weight=perpB[:, :, None, :],
                                   qdeg=QDEG),
        }
        terms.update(self._facet_terms(upwind_advection_local(
            u, F["u"], qdeg=QDEG, dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())))
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
            terms[("u", "B")] = cell_local(u, B, weight=Wt, qdeg=QDEG)
            # G tilde: (u^n x dB, F) = -(dB . perp u^n) F
            terms[("E", "B")] = cell_local(E, B, weight=-perpU[:, :, None, :],
                                           qdeg=QDEG)
        _, wq = u.cell_quadrature(QDEG)
        return self._finish_jacobian(
            terms, delta, mass_coeff, steady_coeff,
            lazy={"D": lambda: cell_matrix(u, u, weight=W_D, qdeg=QDEG)},
            u_l2=float(np.sqrt(np.sum(uq ** 2 * wq[..., None]))))
