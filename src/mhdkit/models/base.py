"""Shared model plumbing: physical/algorithmic parameters, mixed states over
ordered field tuples, and the MixedModel base that owns the constraint, state,
forcing, mass and diagnostic plumbing of all three MHD models."""

import numpy as np

from ..assembly import (DirichletBC, cell_matrix, cell_vector,
                        constrain_matrix, field_at_quadrature)
from ..elements import Field, FunctionSpace
from ..linalg import BlockMatrix

QDEG = 6


class ModelParams:
    """Dimensionless physical and algorithmic parameters.

    All physical parameters are positive; eta/delta in {0, 1} switch the
    transient mass terms and the Picard/Newton coupling terms.
    """

    def __init__(self, Re=1.0, Rem=1.0, S=1.0, R_H=0.0, Ra=1.0, Pr=1.0,
                 Pm=1.0, gamma=1e4, dt=None, stab_mu=0.0, quad_degree_bc=None):
        for name, val in [("Re", Re), ("Rem", Rem), ("S", S), ("Ra", Ra),
                          ("Pr", Pr), ("Pm", Pm)]:
            if val is not None and val <= 0 and name not in ("Ra",):
                raise ValueError(f"{name} must be positive")
        self.Re = Re
        self.Rem = Rem
        self.S = S
        self.R_H = R_H
        self.Ra = Ra
        self.Pr = Pr
        self.Pm = Pm
        self.gamma = gamma
        self.dt = dt
        self.stab_mu = stab_mu
        self.quad_degree_bc = quad_degree_bc
        self.gravity = np.array([0.0, 1.0])

    def replace(self, **kw):
        import copy
        out = copy.copy(self)
        for k, v in kw.items():
            setattr(out, k, v)
        return out

    def as_dict(self):
        return {k: getattr(self, k) for k in
                ("Re", "Rem", "S", "R_H", "Ra", "Pr", "Pm", "gamma", "dt")}


class MixedState:
    """Ordered tuple of fields with offsets into one monolithic vector."""

    def __init__(self, spaces):
        # spaces: list of (name, FunctionSpace)
        self.names = [n for n, _ in spaces]
        self.spaces = {n: s for n, s in spaces}
        self.offsets = {}
        off = 0
        for n, s in spaces:
            self.offsets[n] = off
            off += s.total_dofs
        self.total = off
        self.vector = np.zeros(off)

    def field_slice(self, name):
        o = self.offsets[name]
        return slice(o, o + self.spaces[name].total_dofs)

    def view(self, name):
        return self.vector[self.field_slice(name)]

    def field(self, name):
        return Field(self.spaces[name], self.view(name))

    def set_field(self, name, values):
        if isinstance(values, Field):
            values = values.coefficients
        self.vector[self.field_slice(name)] = values

    def copy(self):
        out = MixedState([(n, self.spaces[n]) for n in self.names])
        out.vector = self.vector.copy()
        return out

    def with_vector(self, vec):
        out = MixedState([(n, self.spaces[n]) for n in self.names])
        out.vector = np.asarray(vec, dtype=float).copy()
        return out

    def sizes(self):
        return {n: self.spaces[n].total_dofs for n in self.names}


def merge_bc_values(pairs):
    """Merge (index, value) pairs from several DirichletBC objects; raise on
    conflicting prescriptions for one dof."""
    seen = {}
    for idx, vals in pairs:
        for i, v in zip(idx, vals):
            if i in seen and abs(seen[i] - v) > 1e-12 * (1 + abs(v)):
                raise ValueError(f"conflicting boundary values at dof {i}")
            seen[i] = v
    if not seen:
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    idx = np.fromiter(seen.keys(), dtype=np.int64)
    order = np.argsort(idx)
    vals = np.fromiter(seen.values(), dtype=float)
    return idx[order], vals[order]


def perp(v):
    """(v2, -v1) componentwise; (u x B)_2d = u . perp(B)."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def velocity_pair(mesh, variant):
    """(velocity, pressure) spaces: BDM2 x DG1 for "hdiv", vector CG2 x CG1
    for "taylor_hood"."""
    if variant == "hdiv":
        return FunctionSpace(mesh, "BDM", 2), FunctionSpace(mesh, "DG", 1)
    if variant == "taylor_hood":
        return FunctionSpace(mesh, "VCG", 2), FunctionSpace(mesh, "CG", 1)
    raise ValueError(variant)


class MixedModel:
    """Constraint, state, forcing, mass and diagnostic plumbing shared by the
    mixed MHD models.

    A subclass declares `fields` (the state order, with a pressure "p"),
    `mass_fields` (the fields under a time derivative), `FORCING` (forcing
    key -> field) and `QDEG_RHS`; `velocity` and `magnetic` name the fields
    whose divergence `div_norms` reports ("u" and "B" unless overridden).
    It passes its spaces to `__init__`, assembles its operators in
    `_assemble_constant`, and ends `residual`/`jacobian` with
    `_finish_residual`/`_finish_jacobian`.

    `bcs` maps a field to (markers, value): markers "all" or a list of facet
    marker names, value a callable or None (homogeneous).  One pressure dof
    is pinned to fix the constant mode.
    """

    velocity = "u"
    magnetic = "B"

    def __init__(self, mesh, params, spaces, bcs=None, forcing=None):
        self.mesh = mesh
        self.params = params
        self.spaces = spaces
        self.state_template = MixedState([(n, spaces[n])
                                          for n in self.fields])
        self.bcs = bcs or {}
        self.forcing = forcing or {}
        self._setup_constraints()
        self.mass = {n: cell_matrix(spaces[n], spaces[n], qdeg=QDEG)
                     for n in self.mass_fields}
        self._mass_csr = None
        self._assemble_constant()
        self._rhs_const = self._assemble_forcing()

    # -- constraints ----------------------------------------------------------

    @property
    def bc_markers(self):
        """Per field: the markers of its Dirichlet BC, None without one."""
        return {n: self.bcs[n][0] if n in self.bcs else None
                for n in self.fields}

    def _setup_constraints(self):
        pairs = []
        qbc = self.params.quad_degree_bc
        st = self.state_template
        for name in self.fields:
            spec = self.bcs.get(name)
            if spec is None:
                continue
            markers, value = spec
            space = self.spaces[name]
            qd = qbc if qbc is not None else space.element.degree + 6
            bc = DirichletBC(space, None if markers == "all" else markers,
                             value, quad_degree=qd)
            idx, vals = bc.values()
            pairs.append((idx + st.offsets[name], vals))
        pairs.append((np.array([st.offsets["p"]]), np.array([0.0])))
        self.constrained_idx, self.constrained_vals = merge_bc_values(pairs)

    def apply_state_bcs(self, state):
        state.vector[self.constrained_idx] = self.constrained_vals
        return state

    def initial_state(self):
        st = self.state_template.copy()
        st.vector[:] = 0.0
        return self.apply_state_bcs(st)

    def _vel_marker_list(self):
        """Facet markers of the velocity BC in the DG velocity forms; every
        marker when the BC is "all" or absent."""
        mk = self.bc_markers[self.velocity]
        if mk is None or mk == "all":
            return list(self.mesh.marker_names.keys())
        return mk

    def _velocity_bc_data(self):
        spec = self.bcs.get(self.velocity)
        return spec[1] if spec else None

    # -- forcing and state ----------------------------------------------------

    def _assemble_forcing(self):
        st = self.state_template
        rhs = np.zeros(st.total)
        for key, name in self.FORCING.items():
            fn = self.forcing.get(key)
            if fn is not None:
                rhs[st.field_slice(name)] += cell_vector(
                    self.spaces[name], "val", fn, qdeg=self.QDEG_RHS)
        return rhs

    def _state_fields(self, vec):
        st = self.state_template
        return {n: Field(self.spaces[n], vec[st.field_slice(n)])
                for n in self.fields}

    # -- residual and Jacobian tails ------------------------------------------

    def _finish_residual(self, r, constrain):
        """Subtract the forcing; zero the rows of constrained dofs."""
        r -= self._rhs_const
        if constrain:
            r[self.constrained_idx] = 0.0
        return r

    def _finish_jacobian(self, bm, delta, mass_coeff, steady_coeff, **parts):
        """steady_coeff * J + mass_coeff * M, constrained, and the parts dict
        the block preconditioners read (with the model's own `parts`)."""
        total = bm.tocsr()
        if steady_coeff != 1.0:
            total = steady_coeff * total
        if mass_coeff:
            total = total + mass_coeff * self.mass_matrix()
        A = constrain_matrix(total, self.constrained_idx)
        st = self.state_template
        parts.update(block_matrix=bm, offsets=st.offsets, sizes=st.sizes(),
                     mass_coeff=mass_coeff, delta=delta)
        return A, parts

    # -- mass -----------------------------------------------------------------

    def mass_matrix(self):
        """Global mass before constraining: the `mass_fields` mass blocks on
        the diagonal, zero rows elsewhere.  Built once."""
        if self._mass_csr is None:
            bm = BlockMatrix(list(self.fields), self.state_template.sizes())
            for n, M in self.mass.items():
                bm.add(n, n, M)
            self._mass_csr = bm.tocsr()
        return self._mass_csr

    def apply_mass(self, vec):
        st = self.state_template
        out = np.zeros(st.total)
        for n, M in self.mass.items():
            s = st.field_slice(n)
            out[s] = M @ vec[s]
        return out

    # -- diagnostics ----------------------------------------------------------

    def div_norms(self, vec):
        """L2 norms of the divergence of the velocity and magnetic fields."""
        F = self._state_fields(vec)
        out = {}
        for n in (self.velocity, self.magnetic):
            _, g = field_at_quadrature(F[n], QDEG, grad=True)
            _, w, _, _ = self.spaces[n].basis_at_quadrature(QDEG)
            div = g[..., 0, 0] + g[..., 1, 1]
            out[n] = float(np.sqrt(np.sum(div ** 2 * w)))
        return out

    def l2_error(self, vec, exact, fields=None, qdeg=10, zero_mean=()):
        """Relative L2 errors against pointwise exact fields."""
        F = self._state_fields(vec)
        out = {}
        for n in (fields or self.fields):
            pts, w = self.spaces[n].cell_quadrature(qdeg)
            vals = F[n].eval_cells(np.arange(self.mesh.num_cells), pts)
            ev = np.asarray(exact[n](pts[..., 0], pts[..., 1]), dtype=float)
            if ev.ndim == 2:
                ev = ev[..., None]
            if n in zero_mean:
                area = w.sum()
                vals = vals - np.sum(vals[..., 0] * w) / area
                ev = ev - np.sum(ev[..., 0] * w) / area
            err = np.sqrt(np.sum((vals - ev) ** 2 * w[..., None]))
            ref = np.sqrt(np.sum(ev ** 2 * w[..., None]))
            out[n] = err / max(ref, 1e-30)
        return out
