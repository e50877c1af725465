"""Shared model plumbing: physical/algorithmic parameters, mixed states over
ordered field tuples, and the MixedModel base that owns the constraint, state,
forcing, mass and diagnostic plumbing of all three MHD models."""

import numpy as np
import scipy.sparse as sp

from ..assembly import (SparsityPattern, burman_local, cell_local,
                        cell_vector, facet_pairings, field_op_at_quadrature,
                        interpolation_matrix, sipg_local,
                        upwind_advection_local, upwind_advection_residual)
from ..elements import Field, FunctionSpace, dirichlet_values

QDEG = 6


class ModelParams:
    """Dimensionless physical and algorithmic parameters.

    All physical parameters are positive; eta/delta in {0, 1} switch the
    transient mass terms and the Picard/Newton coupling terms.
    """

    def __init__(self, Re=1.0, Rem=1.0, S=1.0, R_H=0.0, Ra=1.0, Pr=1.0,
                 Pm=1.0, gamma=1e4, stab_mu=0.0):
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
        self.stab_mu = stab_mu


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


def _drop_zeros(A):
    """A copy of a pattern matrix without its zero entries."""
    A = A.copy()
    A.eliminate_zeros()
    return A


def perp(v):
    """(v2, -v1) componentwise; (u x B)_2d = u . perp(B)."""
    return np.stack([v[..., 1], -v[..., 0]], axis=-1)


def advection_weight(wq):
    """The weight of (w . grad du, v) for a vector trial du under
    cell_local's "val"/"grad" pairing: row k, column 2k + d holds w_d (the
    trial gradient is flattened as 2k + d)."""
    W = np.zeros(wq.shape[:2] + (2, 2, 2))
    for k in range(2):
        W[..., k, k, :] = wq
    return W.reshape(wq.shape[:2] + (2, 4))


def velocity_pair(mesh):
    """The (velocity, pressure) spaces BDM2 x DG1: div of the velocity space
    lies in the pressure space, so a discrete solution is divergence-free."""
    return FunctionSpace(mesh, "BDM", 2), FunctionSpace(mesh, "DG", 1)


class MixedModel:
    """Constraint, state, forcing, mass, operator and diagnostic plumbing
    shared by the mixed MHD models.

    A subclass declares `fields` (the state order, with a pressure "p"),
    `mass_fields` (the fields under a time derivative), `FORCING` (forcing
    key -> field), `QDEG_RHS` and `COUPLINGS`, the (test, trial) field pairs
    of the Jacobian's cell terms; `velocity` and `magnetic` name the fields
    whose divergence `div_norms` reports ("u" and "B" unless overridden),
    and `electric` the field whose vcurl is the magnetic field's rate in
    Faraday's law ("E" unless overridden; see `faraday_map`);
    the velocity's facet pairings join the pattern too.  A subclass passes
    its spaces to `__init__`, yields its constant terms from
    `_constant_terms` as (weight name, pairing key, local array) and maps
    the weight names to values in `_weights`
    ("stab_mu", when present, weighs the velocity's gradient-jump penalty),
    and ends `residual`/`jacobian` with `_finish_residual`/
    `_finish_jacobian`.

    The H(div) velocity block (`velocity_pair`) is written here once for
    all models: `_velocity_constants` yields the SIPG facet terms and the
    grad-div term and sets `r_sipg_unit`, the SIPG boundary data at unit
    viscosity, with the symmetric gradient unless `symmetric_viscosity` is
    False;
    `_add_advection` adds the boundary data, the upwind facets and the cell
    advection to a residual; `_upwind_terms` gives the upwind facets'
    derivative, and `advection_weight` the cell advection's weight.

    Every Jacobian lives on one CSR pattern, built here with int32 slot
    maps per pairing key: (test, trial) for cell terms and (velocity,
    velocity, facet key) for the velocity's facet terms (see
    `assembly.facet_pairings`).  The constants are held once, in pattern
    order, grouped by weight name: each constant term is scattered into its
    group's pattern data as it is generated.  No basis table is held: the
    forms contract the elements' shared reference tables (`assembly`).

    `bcs` maps a field to (markers, value): markers "all" or a list of facet
    marker names, value a callable or None (homogeneous).  One pressure dof
    is pinned to fix the constant mode.  `set_data` replaces the boundary
    values and the forcing.
    """

    velocity = "u"
    magnetic = "B"
    electric = "E"
    symmetric_viscosity = True

    def __init__(self, mesh, params, spaces, bcs=None, forcing=None):
        self.mesh = mesh
        self.params = params
        self.spaces = spaces
        self.state_template = MixedState([(n, spaces[n])
                                          for n in self.fields])
        self.bcs = bcs or {}
        self.forcing = forcing or {}
        self._setup_constraints()
        self.pattern = self._build_pattern()
        pat = self.pattern
        data = {}
        for name, key, local in self._constant_terms():
            if name not in data:
                data[name] = np.zeros(pat.nnz)
            pat.scatter({key: local}, data[name])
        self._constants = {name: pat.compact(data.pop(name))
                           for name in list(data)}
        self._mass = pat.compact(pat.scatter({
            (n, n): cell_local(spaces[n], spaces[n], qdeg=QDEG)
            for n in self.mass_fields}))
        self._mass_csr = self._faraday = self._stream = None
        self._const_key = self._const_data = None
        self._rhs_const = self._assemble_forcing()

    # -- pattern and constants ------------------------------------------------

    def _build_pattern(self):
        st = self.state_template
        dofs = {n: st.offsets[n] + self.spaces[n].dofmap for n in self.fields}
        pairs = dict.fromkeys(list(self.COUPLINGS)
                              + [(n, n) for n in self.mass_fields])
        pairings = {(t, r): (dofs[t], dofs[r]) for t, r in pairs}
        # facets pairing a cell with itself reuse the cell pairing's slots
        v = self.velocity
        for key, (ct, cr) in facet_pairings(
                self.spaces[v], QDEG, self._vel_marker_list()).items():
            pairings[(v, v, key)] = (
                ((v, v), ct) if np.array_equal(ct, cr)
                else (dofs[v][ct], dofs[v][cr]))
        return SparsityPattern(st.total, pairings, self.constrained_idx)

    def _facet_terms(self, locals_):
        """Facet local arrays of the velocity keyed for the pattern."""
        v = self.velocity
        return {(v, v, key): loc for key, loc in locals_.items()}

    def _constant_data(self, weights):
        """Pattern data of the weighted constants (unconstrained, shared:
        copy before changing it); rebuilt when a weight changes."""
        key = tuple(weights.items())
        if key != self._const_key:
            if weights.get("stab_mu") and "stab_mu" not in self._constants:
                self._constants["stab_mu"] = self._stabilisation()
            data = np.zeros(self.pattern.nnz)
            for name, compact in self._constants.items():
                if weights[name]:
                    self.pattern.expand(compact, weights[name], out=data)
            self._const_key, self._const_data = key, data
        return self._const_data

    def _stabilisation(self):
        """The velocity's gradient-jump penalty at unit weight (weight name
        "stab_mu"), built on first use: most runs have none."""
        local = burman_local(self.spaces[self.velocity], mu=1.0, qdeg=QDEG)
        return self.pattern.compact(self.pattern.scatter(
            self._facet_terms(local)))

    # -- the H(div) velocity block --------------------------------------------

    def _sipg(self):
        """The velocity's SIPG facet terms at unit viscosity, keyed for the
        pattern, and the residual of their boundary data."""
        sipg, r_unit = sipg_local(
            self.spaces[self.velocity], nu=1.0,
            sym=self.symmetric_viscosity, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        return self._facet_terms(sipg), r_unit

    def _velocity_constants(self):
        """The constant terms of the velocity besides its cell viscous term:
        the SIPG facet terms (weight name "nu") and the grad-div term (weight
        name "gamma").  Sets `r_sipg_unit`."""
        v = self.velocity
        sipg, self.r_sipg_unit = self._sipg()
        for key, loc in sipg.items():
            yield "nu", key, loc
        yield "gamma", (v, v), cell_local(self.spaces[v], self.spaces[v],
                                          "div", "div", qdeg=QDEG)

    def _add_advection(self, ru, u, uq, guq, nu):
        """Add to the velocity rows `ru` of a residual: the SIPG boundary
        data under viscosity `nu`, the upwind facet advection and the cell
        advection (u . grad u, v); `uq`, `guq` are u and grad u at the
        quadrature points."""
        ru -= nu * self.r_sipg_unit
        ru += upwind_advection_residual(
            self.spaces[self.velocity], u, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        ru += cell_vector(self.spaces[self.velocity], "val",
                          np.einsum("cqd,cqkd->cqk", uq, guq), qdeg=QDEG)

    def _upwind_terms(self, u):
        """The facet terms of the upwind advection's derivative at u."""
        return self._facet_terms(upwind_advection_local(
            self.spaces[self.velocity], u, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data()))

    def _linear_residual(self, vec):
        """The constant terms of the residual: the weighted constants
        applied to `vec`."""
        return self.pattern.matrix(
            self._constant_data(self._weights())) @ vec

    def constant_matrix(self, name):
        """The constant terms of one weight name at unit weight, as a CSR
        matrix that stores no zeros."""
        A = self.pattern.matrix(self.pattern.expand(self._constants[name]))
        return _drop_zeros(A)

    # -- constraints ----------------------------------------------------------

    @property
    def bc_markers(self):
        """Per field: the markers of its Dirichlet BC, None without one."""
        return {n: self.bcs[n][0] if n in self.bcs else None
                for n in self.fields}

    def _setup_constraints(self):
        # the fields own disjoint dof ranges and the DG pressure has no
        # boundary dofs, so no dof is prescribed twice
        st = self.state_template
        idx = [np.array([st.offsets["p"]])]
        vals = [np.zeros(1)]
        for name in self.fields:
            if name not in self.bcs:
                continue
            markers, value = self.bcs[name]
            dofs, v = dirichlet_values(self.spaces[name], value,
                                       None if markers == "all" else markers)
            idx.append(dofs + st.offsets[name])
            vals.append(v)
        idx = np.concatenate(idx)
        order = np.argsort(idx)
        self.constrained_idx = idx[order]
        self.constrained_vals = np.concatenate(vals)[order]

    def set_data(self, bcs, forcing=None):
        """Replace the boundary data and the forcing, and rebuild what is
        derived from them: the constrained values, the SIPG boundary term
        and the assembled forcing.  The new boundary data must constrain
        the same dofs, on which the Jacobian pattern is built."""
        idx = self.constrained_idx
        self.bcs, self.forcing = bcs, forcing or {}
        self._setup_constraints()
        if not np.array_equal(idx, self.constrained_idx):
            raise ValueError("set_data: the boundary data constrain other "
                             "dofs than the model was built with")
        _, self.r_sipg_unit = self._sipg()
        self._rhs_const = self._assemble_forcing()

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

    def _finish_jacobian(self, terms, mass_coeff, steady_coeff,
                         weights=None):
        """steady_coeff * J + mass_coeff * M, constrained, on the model's
        pattern: the weighted constants plus the state-dependent local
        arrays `terms` (pairing key -> local), scattered into them."""
        pat = self.pattern
        data = pat.scatter(
            terms, self._constant_data(weights or self._weights()).copy())
        if steady_coeff != 1.0:
            data *= steady_coeff
        if mass_coeff:
            pat.expand(self._mass, mass_coeff, out=data)
        return pat.constrain(data)

    # -- mass -----------------------------------------------------------------

    def mass_matrix(self):
        """Global mass before constraining: the `mass_fields` mass blocks on
        the diagonal, zero rows elsewhere.  Built once."""
        if self._mass_csr is None:
            self._mass_csr = _drop_zeros(
                self.pattern.matrix(self.pattern.expand(self._mass)))
        return self._mass_csr

    def apply_mass(self, vec):
        return self.mass_matrix() @ vec

    # -- Faraday's law --------------------------------------------------------

    def faraday_map(self, mass_coeff, steady_coeff):
        """T = I - (theta / a) P_B V P_E^T for the transient Jacobian a M +
        theta J (a = `mass_coeff`, theta = `steady_coeff`), or None when a
        is 0.  V is the coefficient matrix of vcurl from the `electric`
        space into the `magnetic` one, exact because the two spaces are
        drawn from one discrete complex (`elements.complex_maps`), and P_B,
        P_E drop its rows at constrained magnetic dofs and its columns at
        constrained electric dofs.  The magnetic rows hold only the mass a
        M_B, the Faraday term theta (vcurl E, C) = theta M_B V and a
        div-div term that vanishes on V's image, so the Jacobian's (B, E)
        block is (theta / a) J_BB P_B V P_E^T and that of the Jacobian times
        T is zero: B drops out of the factorisation of J T, and J^-1 = T
        (J T)^-1.  V is built on first use."""
        if not mass_coeff:
            return None
        if self._faraday is None:
            st = self.state_template
            n, b, e = st.total, self.magnetic, self.electric
            V = interpolation_matrix(self.spaces[e], self.spaces[b],
                                     op="vcurl")
            # V in the state's numbering: rows at b's offset, columns at e's
            rows = np.r_[np.zeros(st.offsets[b], dtype=V.indptr.dtype),
                         V.indptr, np.full(n - st.offsets[b] - V.shape[0],
                                           V.nnz, dtype=V.indptr.dtype)]
            V = sp.csr_matrix((V.data, V.indices + st.offsets[e], rows),
                              shape=(n, n))
            free = np.ones(n)
            free[self.constrained_idx] = 0.0
            free = sp.diags(free)
            V = free @ V @ free
            V.eliminate_zeros()
            self._faraday = V
        return (sp.identity(self.state_template.total, format="csr")
                - (steady_coeff / mass_coeff) * self._faraday)

    # -- interior dofs --------------------------------------------------------

    def interior_groups(self):
        """One row per cell: the state indices of the cell's interior dofs
        (`FunctionSpace.entity_dofs(2, cells)`) of every field but the
        velocity and the pressure, field by field in state order.  Only
        the velocity has facet terms, so only cell integrals couple these
        dofs, and the Jacobian's block on them is block diagonal by cell:
        `LuSolver` condenses them out.  The pressure's block is zero."""
        st = self.state_template
        cells = np.arange(self.mesh.num_cells)
        return np.hstack([st.offsets[n] + self.spaces[n].entity_dofs(2, cells)
                          for n in self.fields
                          if n not in (self.velocity, "p")])

    # -- the stream function --------------------------------------------------

    def stream_lift(self):
        """L, which lifts the free dofs of (psi, the fields other than the
        velocity and the pressure) to the model's free dofs: u = V psi, p =
        0, the other fields as they are.  psi lies in CG3, vanishes on the
        boundary and comes first; the other fields follow in state order.
        V is the coefficient matrix of vcurl from CG3 into the velocity's
        BDM2.  CG3 -vcurl-> BDM2 -div-> DG1 is an exact complex (Arnold,
        Falk & Winther, Acta Numerica 15, 2006): with the velocity's normal
        trace constrained on the whole boundary of a non-periodic mesh, V
        maps the free psi dofs one to one onto the free velocities without
        divergence, so n_psi = n_u - n_p over the free dofs.  Raises
        ValueError when that count fails.  Built on first use."""
        if self._stream is None:
            st = self.state_template
            free = np.setdiff1d(np.arange(st.total), self.constrained_idx)
            u, p = st.field_slice(self.velocity), st.field_slice("p")
            in_u, in_p = ((free >= s.start) & (free < s.stop) for s in (u, p))
            cg = FunctionSpace(self.mesh, "CG", 3)
            psi = np.ones(cg.total_dofs, dtype=bool)
            psi[cg.boundary_dofs()] = False
            n_u, n_p = in_u.sum(), in_p.sum()
            if psi.sum() != n_u - n_p:
                raise ValueError(
                    f"{type(self).__name__}: the stream-function lift needs "
                    "the velocity's normal trace constrained on the whole "
                    "boundary of a non-periodic mesh (velocity markers "
                    f"{self.bc_markers[self.velocity]!r}); the free dofs "
                    f"count {psi.sum()} psi, {n_u} u and {n_p} p")
            V = interpolation_matrix(cg, self.spaces[self.velocity],
                                     op="vcurl")[free[in_u] - u.start][:, psi]
            I = sp.identity(len(free), format="csc")
            self._stream = sp.hstack([I[:, in_u] @ V, I[:, ~(in_u | in_p)]],
                                     format="csr")
        return self._stream

    # -- diagnostics ----------------------------------------------------------

    def div_norms(self, vec):
        """L2 norms of the divergence of the velocity and magnetic fields."""
        F = self._state_fields(vec)
        out = {}
        for n in (self.velocity, self.magnetic):
            div = field_op_at_quadrature(F[n], "div", QDEG)[..., 0]
            w = self.spaces[n].quadrature_weights(QDEG)
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
