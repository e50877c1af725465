"""Residual and Jacobian of the augmented B-E formulation of 2D
incompressible resistive MHD with the H(div) x L2 velocity pair:
(u, p, E, B) in BDM2 x DG1 x CG2 x RT2."""

import numpy as np

from ..elements import FunctionSpace
# cell_matrix is unused here; perfbench/tests/test_spans.py checks that
# tracing rebinds it in this module
from ..assembly import (cell_local, cell_matrix, cell_vector,  # noqa: F401
                        field_at_quadrature, EPS_CONTRACTION)
from .base import QDEG, MixedModel, advection_weight, perp, velocity_pair


class StandardMHD(MixedModel):
    """Standard MHD model; Picard omits exactly the tilde coupling blocks
    (B x E^n, B x (u^n x B^n), B^n x (u^n x B), u^n x B).

    The (u, p, E, B) form is written here once, with its weights named by
    role: the viscosity "nu" (1/Re), the magnetic diffusivity "inv_Rem"
    (1/Rem) and the Lorentz factor S; `BoussinesqMHD` maps the same roles to
    its own numbers."""

    fields = ("u", "p", "E", "B")
    mass_fields = ("u", "B")
    FORCING = {"f": "u", "g_E": "E", "g_B": "B"}
    QDEG_RHS = 10
    COUPLINGS = (("u", "u"), ("u", "p"), ("u", "E"), ("u", "B"), ("p", "u"),
                 ("E", "u"), ("E", "E"), ("E", "B"), ("B", "E"), ("B", "B"))

    def __init__(self, mesh, params, bcs=None, forcing=None):
        u, p = velocity_pair(mesh)
        super().__init__(mesh, params, {
            "u": u,
            "p": p,
            "E": FunctionSpace(mesh, "CG", 2),
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    # -- constant terms ---------------------------------------------------------

    def _weights(self):
        pr = self.params
        return {"one": 1.0, "nu": 1.0 / pr.Re, "gamma": pr.gamma,
                "stab_mu": pr.stab_mu, "inv_Rem": 1.0 / pr.Rem}

    def _constant_terms(self):
        u, p, E, B = (self.spaces[k] for k in ("u", "p", "E", "B"))
        yield "nu", ("u", "u"), 2.0 * cell_local(
            u, u, "grad", "grad", weight=EPS_CONTRACTION, qdeg=QDEG)
        yield from self._velocity_constants(sym=True)
        D_up = cell_local(p, u, "val", "div", qdeg=QDEG)  # (div u, q)
        yield "one", ("u", "p"), -D_up.transpose(0, 2, 1)
        yield "one", ("p", "u"), -D_up
        yield "one", ("E", "E"), cell_local(E, E, qdeg=QDEG)
        A_curl = cell_local(E, B, "vcurl", "val", qdeg=QDEG)
        yield "inv_Rem", ("E", "B"), -A_curl
        yield "one", ("B", "E"), A_curl.transpose(0, 2, 1)
        yield "inv_Rem", ("B", "B"), cell_local(B, B, "div", "div", qdeg=QDEG)

    # -- residual -------------------------------------------------------------------

    def _mhd_residual(self, r, F):
        """Add the state-dependent (u, E) rows at the fields F to r: the
        velocity block, the Lorentz force S (B x (E + u x B), v) and u x B
        against the E test functions.  Returns u at the quadrature
        points."""
        st = self.state_template
        su = st.field_slice("u")
        uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
        Bq = field_at_quadrature(F["B"], QDEG)
        Eq = field_at_quadrature(F["E"], QDEG)

        self._add_advection(r[su], F["u"], uq, guq, self._weights()["nu"])
        # B x s = s * perp(B)
        perpB = perp(Bq)
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)
        lor = self.params.S * (Eq[..., 0] + uxB)[..., None] * perpB
        r[su] += cell_vector(self.spaces["u"], "val", lor, qdeg=QDEG)
        r[st.field_slice("E")] += cell_vector(
            self.spaces["E"], "val", uxB[..., None], qdeg=QDEG)
        return uq

    def residual(self, vec, constrain=True):
        """Steady residual of the weak form; rows of constrained dofs zeroed."""
        r = self._linear_residual(vec)
        self._mhd_residual(r, self._state_fields(vec))
        return self._finish_residual(r, constrain)

    # -- jacobian --------------------------------------------------------------------

    def _mhd_terms(self, F, delta, S):
        """The state-dependent local arrays of the (u, E) rows at the fields
        F with Lorentz factor S, in scatter order, and u at the quadrature
        points."""
        u, E, B = (self.spaces[k] for k in ("u", "E", "B"))
        uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
        Bq = field_at_quadrature(F["B"], QDEG)
        Eq = field_at_quadrature(F["E"], QDEG)
        perpB = perp(Bq)
        perpU = perp(uq)

        # advection derivative: (u^n . grad du, v) + (du . grad u^n, v);
        # D: S (B^n x (du x B^n), v) = S (du . perp B)(perp B . v)
        W_D = S * np.einsum("cqi,cqj->cqij", perpB, perpB)
        terms = {
            ("u", "u"): cell_local(u, u, "val", "grad",
                                   weight=advection_weight(uq), qdeg=QDEG)
            + cell_local(u, u, weight=guq + W_D, qdeg=QDEG),
            # J: S (B^n x dE, v): (2 x 1) weight S perp(B)
            ("u", "E"): cell_local(u, E, weight=S * perpB[..., None],
                                   qdeg=QDEG),
            # G: (du x B^n, F): (1 x 2) weight perp(B)
            ("E", "u"): cell_local(E, u, weight=perpB[:, :, None, :],
                                   qdeg=QDEG),
        }
        terms.update(self._upwind_terms(F["u"]))
        # tilde blocks: S (dB x E^n, v) + S(dB x (u^n x B^n), v)
        #             + S(B^n x (u^n x dB), v), none without a Lorentz force
        if delta and S:
            uxB = np.einsum("cqk,cqk->cq", uq, perpB)
            Wt = np.zeros(uq.shape[:2] + (2, 2))
            scal = S * (Eq[..., 0] + uxB)
            Wt[..., 0, 1] = scal
            Wt[..., 1, 0] = -scal
            # u^n x dB = -perp(u^n) . dB, so B^n x (u^n x dB) carries a minus
            Wt -= S * np.einsum("cqi,cqj->cqij", perpB, perpU)
            terms[("u", "B")] = cell_local(u, B, weight=Wt, qdeg=QDEG)
        if delta:
            # G tilde: (u^n x dB, F) = -(dB . perp u^n) F
            terms[("E", "B")] = cell_local(E, B, weight=-perpU[:, :, None, :],
                                           qdeg=QDEG)
        return terms, uq

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0):
        """Constrained Jacobian matrix."""
        delta = 1.0 if linearisation == "newton" else 0.0
        terms, _ = self._mhd_terms(self._state_fields(vec), delta,
                                   self.params.S)
        return self._finish_jacobian(terms, mass_coeff, steady_coeff)
