"""Implicit time integrators for the MHD models: implicit Euler,
Crank-Nicolson and BDF2 (with a Crank-Nicolson first step), quasi-Newton
Jacobian reuse across steps, and the island-coalescence reconnection-rate
diagnostic via a weak curl solve."""

import logging

import numpy as np

from .elements import FunctionSpace
from .assembly import cell_matrix, constrain_matrix
from .linalg import LuSolver
from .nonlinear import NonlinearConfig, solve_nonlinear

log = logging.getLogger(__name__)

__all__ = [
    "TimeConfig", "step_multistep", "run_transient", "ReconnectionProbe",
    "FrozenJacobianFactory",
]


# The implicit step of each scheme as one table: mass weights w on
# [x, x_n, x_{n-1}] and the implicit weight theta of the step residual
#   M (w_0 x + w_1 x_n [+ w_2 x_{n-1}]) / dt + theta R(x) + (1 - theta) R(x_n),
# whose exact Jacobian is (w_0 / dt) M + theta J.  run_transient's
# "bdf2_cn_start" runs its first step with the Crank-Nicolson row.
SCHEMES = {
    "implicit_euler": ((1.0, -1.0), 1.0),
    "crank_nicolson": ((1.0, -1.0), 0.5),
    "bdf2_cn_start": ((1.5, -2.0, 0.5), 1.0),
}
# FrozenJacobianFactory's refactorisation periods, in time steps and in
# Newton steps of one solve
REFRESH_EVERY = 20
MAX_NEWTON = 6


class TimeConfig:
    """Step size dt and final time T of a run_transient run."""

    def __init__(self, dt, T):
        if dt <= 0 or T < dt:
            raise ValueError("need dt > 0 and T >= dt")
        self.dt = dt
        self.T = T


def _transient_forms(model, scheme, dt, history, linearisation="newton"):
    """residual_fn/jacobian_fn closures for one implicit step, both read
    from the scheme's row of SCHEMES.

    history: list of previous state vectors, newest last."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "bdf2_cn_start" and len(history) < 2:
        scheme = "crank_nicolson"
    weights, theta = SCHEMES[scheme]
    past = history[::-1][:len(weights) - 1]  # x_n, x_{n-1}
    con = model.constrained_idx
    explicit = None
    if theta != 1.0:
        explicit = (1.0 - theta) * model.residual(history[-1],
                                                  constrain=False)

    def residual(x):
        r = theta * model.residual(x, constrain=False)
        if explicit is not None:
            r += explicit
        dx = weights[0] * x
        for w, xk in zip(weights[1:], past):
            dx += w * xk
        r += model.apply_mass(dx) / dt
        r[con] = 0.0
        return r

    def jacobian(x):
        return model.jacobian(x, linearisation, mass_coeff=weights[0] / dt,
                              steady_coeff=theta)
    return residual, jacobian


def step_multistep(model, scheme, history, dt, nl_config=None,
                   solver_factory=None, linearisation="newton"):
    """One implicit step; `history` holds previous state vectors (1 for
    Euler/CN, 2 for BDF2).  Returns (state_vector, report)."""
    nl_config = nl_config or NonlinearConfig()
    residual, jacobian = _transient_forms(model, scheme, dt, history,
                                          linearisation)
    state = model.state_template.with_vector(history[-1])
    # extrapolated initial guess
    if len(history) >= 2:
        guess = 2.0 * history[-1] - history[-2]
        state.vector[:] = guess
        state.vector[model.constrained_idx] = model.constrained_vals
    out, rep = solve_nonlinear(
        model, state, nl_config, solver_factory,
        residual_fn=residual, jacobian_fn=jacobian)
    if not rep.converged:
        raise TimeStepFailure(rep)
    return out.vector, rep


class TimeStepFailure(Exception):
    """A time step whose nonlinear solve did not converge.  `report` is the
    solve's SolverReport; run_transient also names the step (`step`,
    counted from 1), the time `t` it advances to and its size `dt`."""

    def __init__(self, report, step=None, t=None, dt=None):
        where = ("a time step" if step is None
                 else f"time step {step} (t = {t:g}, dt = {dt:g})")
        super().__init__(f"nonlinear iteration failed in {where} after "
                         f"{report.steps} Newton steps")
        self.report = report
        self.step = step
        self.t = t
        self.dt = dt


class FrozenJacobianFactory:
    """Direct solver with quasi-Newton reuse: the factorisation is refreshed
    every REFRESH_EVERY time steps and at Newton steps MAX_NEWTON + 1,
    2 MAX_NEWTON + 1, ... of one solve (the residual stays exact, so reuse
    affects only the convergence rate).  run_transient invalidates it
    before its first step and again when it returns or raises, so a
    factorisation lives no longer than the run that made it."""

    def __init__(self):
        self._lu = None
        self._steps_since = 10 ** 9
        self._calls_this_solve = 0

    def new_step(self):
        self._steps_since += 1
        self._calls_this_solve = 0

    def invalidate(self):
        self._lu = None
        self._steps_since = 10 ** 9

    def _due(self, calls):
        slow = calls > MAX_NEWTON and (calls - 1) % MAX_NEWTON == 0
        return (self._lu is None or self._steps_since >= REFRESH_EVERY
                or slow)

    def needs_matrix(self):
        return self._due(self._calls_this_solve + 1)

    def __call__(self, A, parts):
        self._calls_this_solve += 1
        if A is not None and self._due(self._calls_this_solve):
            self._lu = LuSolver(A)
            self._steps_since = 0

        lu = self._lu

        def solve(rhs):
            return lu.solve(rhs), 1

        return solve


def run_transient(model, state0, tconfig, nl_config=None,
                  solver_factory=None, observers=None, linearisation="newton"):
    """Advance to T by BDF2; returns (final state vector, rows) with one
    observer row per accepted step.  The first step is Crank-Nicolson.  With
    a FrozenJacobianFactory, a failed step is retried once with a fresh
    factorisation; a step that still fails raises TimeStepFailure naming
    it."""
    nl_config = nl_config or NonlinearConfig()
    rows = []
    history = [state0.vector.copy()]
    t = 0.0
    nsteps = int(round(tconfig.T / tconfig.dt))
    observers = observers or {}
    frozen = (solver_factory
              if isinstance(solver_factory, FrozenJacobianFactory) else None)

    def observe(t, vec, rep):
        row = {"t": t}
        for name, fn in observers.items():
            row[name] = fn(vec)
        if rep is not None:
            row["newton_its"] = rep.steps
            row["lin_its"] = rep.avg_linear
        rows.append(row)

    def advance(step, t_next):
        for attempt in range(2 if frozen is not None else 1):
            if attempt:
                log.warning("time step %d (t = %g) failed with a frozen "
                            "factorisation; refactorising and retrying",
                            step, t_next)
                frozen.invalidate()
            try:
                return step_multistep(model, "bdf2_cn_start", history,
                                      tconfig.dt, nl_config, solver_factory,
                                      linearisation)
            except TimeStepFailure as exc:
                report = exc.report
        raise TimeStepFailure(report, step, t_next, tconfig.dt)

    if frozen is not None:
        # a factorisation left by an earlier run is of another operator
        frozen.invalidate()
    observe(0.0, history[0], None)
    try:
        for n in range(nsteps):
            if frozen is not None:
                frozen.new_step()
                if n == 1:
                    frozen.invalidate()  # CN -> BDF2 operator switch
            vec, rep = advance(n + 1, t + tconfig.dt)
            t += tconfig.dt
            history.append(vec)
            if len(history) > 2:
                history.pop(0)
            observe(t, vec, rep)
            log.info("t=%.3f newton=%d lin=%.1f", t, rep.steps,
                     rep.avg_linear)
    finally:
        if frozen is not None:
            # free the factorisation with the run that made it
            frozen.invalidate()
    return history[-1], rows


class ReconnectionProbe:
    """(curl B)(0,0,t) - (curl B)(0,0,0), divided by sqrt(Rem): weak curl
    into the scalar H0(curl) space, projected to CG1 for the point value."""

    def __init__(self, model, field="B"):
        mesh = model.mesh
        self.model = model
        self.field = field
        # the model's CG2 space when it has one
        self.cg2 = next((s for s in model.spaces.values()
                         if (s.element.family, s.element.degree)
                         == ("CG", 2)), None) or FunctionSpace(mesh, "CG", 2)
        self.cg1 = FunctionSpace(mesh, "CG", 1)
        con = self.cg2.boundary_dofs()
        B_space = model.spaces[field]
        M = cell_matrix(self.cg2, self.cg2, qdeg=6)
        self.C = cell_matrix(self.cg2, B_space, "vcurl", "val", qdeg=6)
        M1 = cell_matrix(self.cg1, self.cg1, qdeg=4)
        self.M12 = cell_matrix(self.cg1, self.cg2, qdeg=6)
        self.Mlu = LuSolver(constrain_matrix(M, con))
        self.con = con
        self.M1lu = LuSolver(M1.tocsc())
        # origin must be a mesh vertex
        d = np.linalg.norm(mesh.vertices, axis=1)
        i = int(np.argmin(d))
        if d[i] > 1e-10:
            raise ValueError("origin is not a mesh vertex; choose an even "
                             "mesh so (0, 0) is a grid point")
        self.origin_vertex = i
        self.j00_initial = None

    def weak_curl_at_origin(self, vec):
        st = self.model.state_template
        B = vec[st.field_slice(self.field)]
        rhs = self.C @ B
        rhs[self.con] = 0.0
        j0 = self.Mlu.solve(rhs)
        j1 = self.M1lu.solve(self.M12 @ j0)
        return float(j1[self.origin_vertex])

    def __call__(self, vec):
        val = self.weak_curl_at_origin(vec)
        if self.j00_initial is None:
            self.j00_initial = val
            return 0.0
        return (val - self.j00_initial) / np.sqrt(self.model.params.Rem)


def write_series_csv(path, rows, columns=None):
    if columns is None:
        columns = list(rows[0].keys()) if rows else ["t"]
    with open(path, "w") as f:
        f.write(",".join(columns) + "\n")
        for row in rows:
            f.write(",".join(f"{row.get(c, '')}" for c in columns) + "\n")
