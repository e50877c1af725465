"""Anisothermal (Boussinesq) MHD in 2D: (u, p, theta, E, B) with either the
H(div) x L2 velocity pair (BDM2 x DG1, DG viscous/advection forms, grad-div
augmentation) or Taylor-Hood (vector CG2 x CG1) for the bifurcation studies.

Stationary weak form: 2 Pr viscous + advection + grad p + S B x (E + u x B)
- Ra Pr theta e2 in the momentum row; heat equation with unit diffusivity;
Ohm and augmented Faraday rows carry the Pr/Pm coefficient."""

import numpy as np
import scipy.sparse as sp

from ..elements import FunctionSpace
from ..assembly import (cell_local, cell_matrix, cell_vector,
                        field_at_quadrature, sipg_local,
                        upwind_advection_local, upwind_advection_residual,
                        EPS_CONTRACTION)
from .base import QDEG, MixedModel, perp, velocity_pair


class BoussinesqMHD(MixedModel):
    fields = ("u", "p", "theta", "E", "B")
    mass_fields = ("u", "theta", "B")
    FORCING = {"f": "u", "q_theta": "theta"}
    QDEG_RHS = 8
    COUPLINGS = (("u", "u"), ("u", "p"), ("u", "theta"), ("u", "E"),
                 ("u", "B"), ("p", "u"), ("theta", "theta"), ("theta", "u"),
                 ("E", "u"), ("E", "E"), ("E", "B"), ("B", "E"), ("B", "B"))

    # the buoyancy direction
    E3 = np.array([0.0, 1.0])

    def __init__(self, mesh, params, bcs=None, forcing=None,
                 velocity_variant="hdiv"):
        self.variant = velocity_variant
        u, p = velocity_pair(mesh, velocity_variant)
        cg2 = FunctionSpace(mesh, "CG", 2)  # theta and E share it
        super().__init__(mesh, params, {
            "u": u,
            "p": p,
            "theta": cg2,
            "E": cg2,
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    def _weights(self, drop_buoyancy=False, drop_graddiv=False):
        pr = self.params
        return {"one": 1.0, "Pr": pr.Pr,
                "gamma": 0.0 if drop_graddiv else pr.gamma,
                "stab_mu": pr.stab_mu, "Pr_Pm": pr.Pr / pr.Pm,
                "buoyancy": 0.0 if drop_buoyancy else -pr.Ra * pr.Pr}

    def _constant_terms(self):
        u, p, th, E, B = (self.spaces[k] for k in self.fields)
        yield "Pr", ("u", "u"), 2.0 * cell_local(
            u, u, "grad", "grad", weight=EPS_CONTRACTION, qdeg=QDEG)
        self.r_sipg_unit = 0.0
        if self.variant == "hdiv":
            sipg, self.r_sipg_unit = sipg_local(
                u, nu=1.0, sym=True, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
            for key, loc in self._facet_terms(sipg).items():
                yield "Pr", key, loc
            yield "gamma", ("u", "u"), cell_local(u, u, "div", "div",
                                                  qdeg=QDEG)
        D_up = cell_local(p, u, "val", "div", qdeg=QDEG)
        yield "one", ("u", "p"), -D_up.transpose(0, 2, 1)
        yield "one", ("p", "u"), -D_up
        yield "buoyancy", ("u", "theta"), cell_local(
            u, th, weight=self.E3[:, None], qdeg=QDEG)
        yield "one", ("theta", "theta"), cell_local(th, th, "grad", "grad",
                                                    qdeg=QDEG)
        yield "one", ("E", "E"), cell_local(E, E, qdeg=QDEG)
        A_curl = cell_local(E, B, "vcurl", "val", qdeg=QDEG)
        yield "Pr_Pm", ("E", "B"), -A_curl
        yield "one", ("B", "E"), A_curl.transpose(0, 2, 1)
        yield "Pr_Pm", ("B", "B"), cell_local(B, B, "div", "div", qdeg=QDEG)

    def residual(self, vec, constrain=True):
        pr = self.params
        st = self.state_template
        F = self._state_fields(vec)
        u, th, E, B = F["u"], F["theta"], F["E"], F["B"]
        r = self._linear_residual(vec)
        su, sth, sE = (st.field_slice(k) for k in ("u", "theta", "E"))

        uq, guq = field_at_quadrature(u, QDEG, grad=True)
        thq, gthq = field_at_quadrature(th, QDEG, grad=True)
        Bq = field_at_quadrature(B, QDEG)
        Eq = field_at_quadrature(E, QDEG)
        perpB = perp(Bq)
        uxB = np.einsum("cqk,cqk->cq", uq, perpB)

        if self.variant == "hdiv":
            r[su] -= pr.Pr * self.r_sipg_unit
            r[su] += upwind_advection_residual(
                self.spaces["u"], u, qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())
        adv = np.einsum("cqd,cqkd->cqk", uq, guq)
        r[su] += cell_vector(self.spaces["u"], "val", adv, qdeg=QDEG)
        lor = pr.S * (Eq[..., 0] + uxB)[..., None] * perpB
        r[su] += cell_vector(self.spaces["u"], "val", lor, qdeg=QDEG)

        advt = np.einsum("cqd,cqkd->cqk", uq, gthq)
        r[sth] += cell_vector(self.spaces["theta"], "val", advt, qdeg=QDEG)

        r[sE] += cell_vector(self.spaces["E"], "val", uxB[..., None],
                             qdeg=QDEG)
        return self._finish_residual(r, constrain)

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0, drop_buoyancy=False, drop_lorentz=False,
                 drop_graddiv=False):
        pr = self.params
        delta = 1.0 if linearisation == "newton" else 0.0
        F = self._state_fields(vec)
        u, th, E, B = (self.spaces[k] for k in ("u", "theta", "E", "B"))

        uq, guq = field_at_quadrature(F["u"], QDEG, grad=True)
        thq, gthq = field_at_quadrature(F["theta"], QDEG, grad=True)
        Bq = field_at_quadrature(F["B"], QDEG)
        Eq = field_at_quadrature(F["E"], QDEG)
        perpB = perp(Bq)
        perpU = perp(uq)

        W1 = np.zeros(uq.shape[:2] + (2, 4))
        for kk in range(2):
            for d in range(2):
                W1[..., kk, 2 * kk + d] = uq[..., d]
        Sfac = 0.0 if drop_lorentz else pr.S
        # the velocity-velocity weights: (du . grad u^n) and the Lorentz D
        Wuu = guq + Sfac * np.einsum("cqi,cqj->cqij", perpB, perpB)
        # temperature rows: (u^n . grad dth, tau) + (du . grad th^n, tau)
        Wadv = np.zeros(uq.shape[:2] + (1, 2))
        Wadv[..., 0, :] = uq
        terms = {
            ("u", "u"): cell_local(u, u, "val", "grad", weight=W1, qdeg=QDEG)
            + cell_local(u, u, weight=Wuu, qdeg=QDEG),
            ("u", "E"): cell_local(u, E, weight=Sfac * perpB[..., None],
                                   qdeg=QDEG),
            ("theta", "theta"): cell_local(th, th, "val", "grad",
                                           weight=Wadv, qdeg=QDEG),
            ("theta", "u"): cell_local(th, u,
                                       weight=gthq[..., 0, :][:, :, None, :],
                                       qdeg=QDEG),
            ("E", "u"): cell_local(E, u, weight=perpB[:, :, None, :],
                                   qdeg=QDEG),
        }
        if self.variant == "hdiv":
            terms.update(self._facet_terms(upwind_advection_local(
                u, F["u"], qdeg=QDEG,
                dirichlet_markers=self._vel_marker_list(),
                g_d=self._velocity_bc_data())))
        if delta and not drop_lorentz:
            uxB = np.einsum("cqk,cqk->cq", uq, perpB)
            Wt = np.zeros(uq.shape[:2] + (2, 2))
            scal = pr.S * (Eq[..., 0] + uxB)
            Wt[..., 0, 1] = scal
            Wt[..., 1, 0] = -scal
            Wt -= pr.S * np.einsum("cqi,cqj->cqij", perpB, perpU)
            terms[("u", "B")] = cell_local(u, B, weight=Wt, qdeg=QDEG)
        if delta:
            terms[("E", "B")] = cell_local(E, B, weight=-perpU[:, :, None, :],
                                           qdeg=QDEG)
        return self._finish_jacobian(
            terms, delta, mass_coeff, steady_coeff,
            weights=self._weights(drop_buoyancy, drop_graddiv))

    # -- eigen/deflation support -----------------------------------------------------

    def deflation_gram(self):
        """|u-u1|^2 + |grad(u-u1)|^2 + |theta-theta1|^2 + |B-B1|^2."""
        K = cell_matrix(self.spaces["u"], self.spaces["u"], "grad", "grad",
                        qdeg=QDEG)
        # u leads the state: K is the top-left block
        n = self.state_template.total - K.shape[0]
        return (self.mass_matrix()
                + sp.block_diag([K, sp.csr_matrix((n, n))])).tocsr()

    def functionals(self, vec):
        st = self.state_template
        Mv = self.mass_matrix() @ vec
        out = {}
        for name, key in (("u", "u_norm2"), ("theta", "theta_norm2"),
                          ("B", "B_norm2")):
            s = st.field_slice(name)
            out[key] = float(vec[s] @ Mv[s])
        return out

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
