"""Anisothermal (Boussinesq) MHD in 2D: (u, p, theta, E, B) with the
H(div) x L2 velocity pair (BDM2 x DG1, DG viscous/advection forms, grad-div
augmentation).

The (u, p, E, B) rows are `StandardMHD`'s form with its roles set to the
Prandtl scaling: viscosity Pr, magnetic diffusivity Pr/Pm and Lorentz
factor S.  This model adds the buoyancy - Ra Pr theta e2 in the momentum
row, the heat equation with unit diffusivity, and the drop flags of the
stability operators."""

import numpy as np
import scipy.sparse as sp

from ..elements import FunctionSpace
from ..assembly import (cell_local, cell_matrix, cell_vector,
                        field_at_quadrature)
from .base import QDEG, MixedModel, velocity_pair
from .standard import StandardMHD


class BoussinesqMHD(StandardMHD):
    fields = ("u", "p", "theta", "E", "B")
    mass_fields = ("u", "theta", "B")
    FORCING = {"f": "u", "q_theta": "theta"}
    QDEG_RHS = 8
    COUPLINGS = (("u", "u"), ("u", "p"), ("u", "theta"), ("u", "E"),
                 ("u", "B"), ("p", "u"), ("theta", "theta"), ("theta", "u"),
                 ("E", "u"), ("E", "E"), ("E", "B"), ("B", "E"), ("B", "B"))

    # the buoyancy direction
    E3 = np.array([0.0, 1.0])

    def __init__(self, mesh, params, bcs=None, forcing=None):
        u, p = velocity_pair(mesh)
        cg2 = FunctionSpace(mesh, "CG", 2)  # theta and E share it
        # StandardMHD.__init__ fixes its own spaces
        MixedModel.__init__(self, mesh, params, {
            "u": u,
            "p": p,
            "theta": cg2,
            "E": cg2,
            "B": FunctionSpace(mesh, "RT", 2),
        }, bcs, forcing)

    def _weights(self, drop_buoyancy=False, drop_graddiv=False):
        pr = self.params
        return {"one": 1.0, "nu": pr.Pr,
                "gamma": 0.0 if drop_graddiv else pr.gamma,
                "stab_mu": pr.stab_mu, "inv_Rem": pr.Pr / pr.Pm,
                "buoyancy": 0.0 if drop_buoyancy else -pr.Ra * pr.Pr}

    def _constant_terms(self):
        yield from super()._constant_terms()
        u, th = self.spaces["u"], self.spaces["theta"]
        yield "buoyancy", ("u", "theta"), cell_local(
            u, th, weight=self.E3[:, None], qdeg=QDEG)
        yield "one", ("theta", "theta"), cell_local(th, th, "grad", "grad",
                                                    qdeg=QDEG)

    def residual(self, vec, constrain=True):
        F = self._state_fields(vec)
        r = self._linear_residual(vec)
        uq = self._mhd_residual(r, F)
        _, gthq = field_at_quadrature(F["theta"], QDEG, grad=True)
        advt = np.einsum("cqd,cqkd->cqk", uq, gthq)
        r[self.state_template.field_slice("theta")] += cell_vector(
            self.spaces["theta"], "val", advt, qdeg=QDEG)
        return self._finish_residual(r, constrain)

    def jacobian(self, vec, linearisation="newton", mass_coeff=0.0,
                 steady_coeff=1.0, drop_buoyancy=False, drop_lorentz=False,
                 drop_graddiv=False):
        delta = 1.0 if linearisation == "newton" else 0.0
        F = self._state_fields(vec)
        terms, uq = self._mhd_terms(
            F, delta, 0.0 if drop_lorentz else self.params.S)
        # temperature rows: (u^n . grad dth, tau) + (du . grad th^n, tau)
        th = self.spaces["theta"]
        _, gthq = field_at_quadrature(F["theta"], QDEG, grad=True)
        Wadv = np.zeros(uq.shape[:2] + (1, 2))
        Wadv[..., 0, :] = uq
        terms[("theta", "theta")] = cell_local(th, th, "val", "grad",
                                               weight=Wadv, qdeg=QDEG)
        terms[("theta", "u")] = cell_local(
            th, self.spaces["u"], weight=gthq[..., 0, :][:, :, None, :],
            qdeg=QDEG)
        return self._finish_jacobian(
            terms, mass_coeff, steady_coeff,
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
