"""Stationary/transient Hall MHD in the 2.5D reduction: three-component
fields over a 2D mesh with vanishing z-derivatives, keeping the current
density as an unknown.

State ordering: (ut, u3, p, Et, E3, Bt, B3, jt, j3) with in-plane parts in
BDM2/NED2/RT2 and out-of-plane parts in CG2.  The in-plane velocity and the
pressure are the H(div) x L2 pair BDM2 x DG1, with the DG advection/viscous
forms and the grad-div augmentation the solvers use."""

import numpy as np

from ..elements import FunctionSpace
from ..assembly import cell_local, cell_vector, field_at_quadrature
from .base import QDEG, MixedModel, advection_weight, perp, velocity_pair

# perp(b) = ROT @ b
ROT = np.array([[0.0, 1.0], [-1.0, 0.0]])


class HallMHD(MixedModel):
    fields = ("ut", "u3", "p", "Et", "E3", "Bt", "B3", "jt", "j3")
    mass_fields = ("ut", "u3", "Bt", "B3")
    velocity = "ut"
    magnetic = "Bt"
    electric = "E3"
    symmetric_viscosity = False
    FORCING = {"f_t": "ut", "f_3": "u3", "gB_t": "Bt", "gB_3": "B3",
               "gj_t": "jt", "gj_3": "j3"}
    QDEG_RHS = 10
    COUPLINGS = (
        ("ut", "ut"), ("ut", "p"), ("ut", "jt"), ("ut", "j3"), ("ut", "B3"),
        ("ut", "Bt"), ("u3", "u3"), ("u3", "ut"), ("u3", "jt"), ("u3", "Bt"),
        ("p", "ut"), ("Et", "jt"), ("Et", "B3"), ("E3", "j3"), ("E3", "Bt"),
        ("Bt", "E3"), ("Bt", "Bt"), ("B3", "Et"), ("jt", "jt"), ("jt", "Et"),
        ("jt", "ut"), ("jt", "u3"), ("jt", "j3"), ("jt", "B3"), ("jt", "Bt"),
        ("j3", "j3"), ("j3", "E3"), ("j3", "ut"), ("j3", "jt"), ("j3", "Bt"))

    def __init__(self, mesh, params, bcs=None, forcing=None):
        ut, p = velocity_pair(mesh)
        # the out-of-plane parts share one CG2 space, Et and jt one NED2
        cg2 = FunctionSpace(mesh, "CG", 2)
        ned2 = FunctionSpace(mesh, "NED", 2)
        super().__init__(mesh, params, {
            "ut": ut, "u3": cg2, "p": p, "Et": ned2, "E3": cg2,
            "Bt": FunctionSpace(mesh, "RT", 2), "B3": cg2, "jt": ned2,
            "j3": cg2,
        }, bcs, forcing)

    def _weights(self):
        pr = self.params
        return {"one": 1.0, "nu": 1.0 / pr.Re, "gamma": pr.gamma,
                "inv_Rem": 1.0 / pr.Rem}

    def _constant_terms(self):
        s = self.spaces
        yield "nu", ("ut", "ut"), cell_local(s["ut"], s["ut"], "grad",
                                             "grad", qdeg=QDEG)
        yield from self._velocity_constants()
        yield "nu", ("u3", "u3"), cell_local(s["u3"], s["u3"], "grad",
                                             "grad", qdeg=QDEG)
        D_up = cell_local(s["p"], s["ut"], "val", "div", qdeg=QDEG)
        yield "one", ("ut", "p"), -D_up.transpose(0, 2, 1)
        yield "one", ("p", "ut"), -D_up
        # current definitions: (j, F) - (B, curl F)
        M_jt = cell_local(s["jt"], s["jt"], qdeg=QDEG)
        M_j3 = cell_local(s["j3"], s["j3"], qdeg=QDEG)
        # (B3, curl Ft): test NED (curl), trial CG val
        C_B3_Ft = cell_local(s["Et"], s["B3"], "curl", "val", qdeg=QDEG)
        # (Bt, vcurl F3): test CG (vcurl), trial RT val
        C_Bt_F3 = cell_local(s["E3"], s["Bt"], "vcurl", "val", qdeg=QDEG)
        yield "one", ("Et", "jt"), M_jt
        yield "one", ("Et", "B3"), -C_B3_Ft
        yield "one", ("E3", "j3"), M_j3
        yield "one", ("E3", "Bt"), -C_Bt_F3
        # Faraday + augmentation
        yield "one", ("Bt", "E3"), C_Bt_F3.transpose(0, 2, 1)
        yield "one", ("Bt", "Bt"), cell_local(s["Bt"], s["Bt"], "div", "div",
                                              qdeg=QDEG)
        yield "one", ("B3", "Et"), C_B3_Ft.transpose(0, 2, 1)
        # Ohm's law: Rem^-1 (j, K) - (E, K)
        yield "inv_Rem", ("jt", "jt"), M_jt
        yield "inv_Rem", ("j3", "j3"), M_j3
        yield "one", ("jt", "Et"), -cell_local(s["jt"], s["Et"], qdeg=QDEG)
        yield "one", ("j3", "E3"), -cell_local(s["j3"], s["E3"], qdeg=QDEG)

    # -- residual ------------------------------------------------------------

    def residual(self, vec, constrain=True):
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        r = self._linear_residual(vec)
        S = {n: st.field_slice(n) for n in self.fields}
        sp_ = self.spaces

        utq, gutq = field_at_quadrature(F["ut"], QDEG, grad=True)
        u3q, gu3q = field_at_quadrature(F["u3"], QDEG, grad=True)
        Btq = field_at_quadrature(F["Bt"], QDEG)
        B3q = field_at_quadrature(F["B3"], QDEG)[..., 0]
        jtq = field_at_quadrature(F["jt"], QDEG)
        j3q = field_at_quadrature(F["j3"], QDEG)[..., 0]
        pBt = perp(Btq)
        pjt = perp(jtq)
        put = perp(utq)

        # momentum, in-plane
        self._add_advection(r[S["ut"]], F["ut"], utq, gutq, 1.0 / pr.Re)
        lor_t = -pr.S * (B3q[..., None] * pjt - j3q[..., None] * pBt)
        r[S["ut"]] += cell_vector(sp_["ut"], "val", lor_t, qdeg=QDEG)

        # momentum, out-of-plane
        adv3 = np.einsum("cqd,cqd->cq", utq, gu3q[..., 0, :])
        r[S["u3"]] += cell_vector(sp_["u3"], "val", adv3[..., None],
                                  qdeg=QDEG)
        jxB = np.einsum("cqk,cqk->cq", jtq, pBt)  # jt x Bt (scalar)
        r[S["u3"]] += cell_vector(sp_["u3"], "val",
                                  (-pr.S * jxB)[..., None], qdeg=QDEG)

        # Ohm's law, nonlinear part
        ohm_t = -(B3q[..., None] * put - u3q * pBt
                  - pr.R_H * (B3q[..., None] * pjt - j3q[..., None] * pBt))
        r[S["jt"]] += cell_vector(sp_["jt"], "val", ohm_t, qdeg=QDEG)
        uxB = np.einsum("cqk,cqk->cq", utq, pBt)
        ohm_3 = -(uxB - pr.R_H * jxB)
        r[S["j3"]] += cell_vector(sp_["j3"], "val", ohm_3[..., None],
                                  qdeg=QDEG)

        return self._finish_residual(r, constrain)

    # -- jacobian ---------------------------------------------------------------

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0):
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
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

        def term(test, trial, weight, test_op="val", trial_op="val"):
            return cell_local(s[test], s[trial], test_op, trial_op,
                              weight=weight, qdeg=QDEG)

        terms = {}
        # -- ut and u3 rows: advection; the facet terms first, as they
        # share the cell term's slots
        terms.update(self._upwind_terms(F["ut"]))
        terms[("ut", "ut")] = term("ut", "ut", advection_weight(utq),
                                   trial_op="grad")
        if delta:
            terms[("ut", "ut")] += term("ut", "ut", gutq)
        Wadv = np.zeros(shp + (1, 2))
        Wadv[..., 0, :] = utq
        terms[("u3", "u3")] = term("u3", "u3", Wadv, trial_op="grad")
        if delta:
            terms[("u3", "ut")] = term("u3", "ut",
                                       gu3q[..., 0, :][:, :, None, :])
        # Lorentz: -S (B3 perp(djt) - j3 perp(dBt)
        #              + [dB3 perp(jt) - dj3 perp(Bt)])
        terms[("ut", "jt")] = term("ut", "jt",
                                   -pr.S * B3q[..., None, None] * ROT)
        terms[("ut", "j3")] = term("ut", "j3", pr.S * pBt[..., None])
        # -S (djt x Bt + jt x dBt)
        terms[("u3", "jt")] = term("u3", "jt", -pr.S * pBt[:, :, None, :])
        if delta:
            terms[("ut", "B3")] = term("ut", "B3", -pr.S * pjt[..., None])
            terms[("ut", "Bt")] = term("ut", "Bt",
                                       pr.S * j3q[..., None, None] * ROT)
            # jt x dBt = -dBt . perp(jt) => derivative + S perp(jt)
            terms[("u3", "Bt")] = term("u3", "Bt", pr.S * pjt[:, :, None, :])

        # -- Ohm rows (jt tests)
        terms[("jt", "jt")] = term("jt", "jt",
                                   pr.R_H * B3q[..., None, None] * ROT)
        terms[("jt", "ut")] = term("jt", "ut", -B3q[..., None, None] * ROT)
        terms[("jt", "u3")] = term("jt", "u3", pBt[..., None])
        terms[("jt", "j3")] = term("jt", "j3", -pr.R_H * pBt[..., None])
        if delta:
            terms[("jt", "B3")] = term("jt", "B3", -put[..., None]
                                       + pr.R_H * pjt[..., None])
            terms[("jt", "Bt")] = term(
                "jt", "Bt",
                (u3q[..., 0] - pr.R_H * j3q)[..., None, None] * ROT)

        # -- Ohm rows (j3 tests)
        terms[("j3", "ut")] = term("j3", "ut", -pBt[:, :, None, :])
        terms[("j3", "jt")] = term("j3", "jt", pr.R_H * pBt[:, :, None, :])
        if delta:
            # d/dBt of -(ut x Bt) + R_H jt x Bt: x dB = -perp(w).dB pattern
            terms[("j3", "Bt")] = term("j3", "Bt",
                                       (put - pr.R_H * pjt)[:, :, None, :])

        return self._finish_jacobian(terms, mass_coeff, steady_coeff)


def compatible_hall_bcs(params, lid_velocity=1.0, ytop=0.5):
    """Boundary data for (Et, E3, jt, j3) compatible with the generalised
    Ohm's law on a lid-driven cavity whose lid is the edge y = ytop: E x n = 0
    everywhere, j x n = 0 away from the lid, and on the lid the closed form
    j x n = (Rem R_H, 0, 1)^T x n / (Rem^-1 + Rem R_H^2)."""
    Rem, RH = params.Rem, params.R_H
    denom = 1.0 / Rem + Rem * RH ** 2

    def jt_data(x, y, tol=1e-9):
        lid = np.abs(y - ytop) < tol
        j1 = np.where(lid, lid_velocity * Rem * RH / denom, 0.0)
        return np.stack([j1, np.zeros_like(x)], axis=-1)

    def j3_data(x, y, tol=1e-9):
        lid = np.abs(y - ytop) < tol
        return np.where(lid, lid_velocity / denom, 0.0)

    return {
        "Et": ("all", None),
        "E3": ("all", None),
        "jt": ("all", jt_data),
        "j3": ("all", j3_data),
    }
