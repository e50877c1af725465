"""The benchmark workloads, each driven through mhdkit's public API.

A workload runs in four steps; rep.py times the first and third:

  setup(seed, observe) -> ctx   problem, spaces, constant operators and
                                solvers (`setup_s`)
  prepare(ctx)                  untimed diagnostics of the initial state
  solve(ctx, out, counts)       the solve (`solve_s`)
  check(ctx, out)               untimed correctness checks

`out` is an Outcome: operations attempted, failures (a failed solver call
or a failed check) and the iteration counts, which add up over the parts of
a composite workload.  `counts` is the live call counter of
layers.install_counters; a solve keeps the calls it made in ctx["counts"].
`observe(fn)` wraps an observer callable; the traced run passes one that
records a span.  A composite workload instead has `parts`, workloads that
rep.py runs one after another, each set up and then solved.
"""

import numpy as np

from mhdkit import problems
from mhdkit.bifurcation import critical_parameter
from mhdkit.conservative import (ConservativeScheme, FixedPointFailure,
                                 UdotnStepper, UxnStepper,
                                 initial_udotn_state, initial_uxn_state)
from mhdkit.elements import interpolate, l2_project
from mhdkit.linalg import SingularMatrixError
from mhdkit.mesh import build_rect_mesh
from mhdkit.nonlinear import NonlinearConfig, StageFailure, solve_nonlinear
from mhdkit.precond import BlockPrecondConfig, KrylovSolverFactory
from mhdkit.timestepping import (FrozenJacobianFactory, ReconnectionProbe,
                                 TimeConfig, TimeStepFailure, run_transient)

SOLVER_FAILURES = (FixedPointFailure, TimeStepFailure, StageFailure,
                   SingularMatrixError)


class Outcome:
    """Operations attempted and failed in one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.solver_its = 0
        self.linear_its = 0
        self.newton_its = 0
        self.krylov_its_per_newton = 0.0
        self.fixed_point_its = 0
        self.time_steps = 0
        self.record = {}

    def fail(self, message):
        self.failures.append(message)

    @property
    def failed(self):
        return min(len(self.failures), self.attempted)

    def iterations(self):
        """The counts a speed-up must leave unchanged."""
        return {"solver_its": self.solver_its,
                "linear_its": self.linear_its,
                "newton_its": self.newton_its,
                "krylov_its_per_newton": self.krylov_its_per_newton,
                "fixed_point_its": self.fixed_point_its}


class Workload:
    """Defaults: the seed is not used, and nothing runs between set-up and
    solve."""

    seeded = False

    def prepare(self, ctx):
        pass

    def solve(self, ctx, out, counts):
        before = counts.copy()
        self._solve(ctx, out)
        ctx["counts"] = counts - before


def _within(out, what, value, limit):
    if not value <= limit:  # also fails on NaN
        out.fail(f"{what} = {value:.3e} exceeds {limit:.1e}")


class HartmannMG(Workload):
    """Stationary Hartmann flow: Newton with FGMRES and the augmented-
    Lagrangian block preconditioner over star-patch multigrid on a
    three-level hierarchy (the `run --linear-solver fgmres` path without
    the CSV and VTK writes)."""

    name = "hartmann_mg"
    # relative L2 errors at this mesh are discretisation errors; the limits
    # are 2-3 times the values measured when the benchmark was defined.  E is
    # reproduced exactly, so its limit is a round-off one.
    L2_LIMITS = {"u": 1e-5, "p": 5e-2, "E": 1e-10, "B": 1e-3}
    DIV_B_LIMIT = 1e-10

    def setup(self, seed, observe):
        spec = problems.make_problem("hartmann", levels=2, mesh_base=(4, 4))
        precond = spec.make_precond(BlockPrecondConfig())
        factory = KrylovSolverFactory(precond, rtol=1e-7, atol=1e-7,
                                      maxiter=100)
        return {"spec": spec, "factory": factory,
                "state": spec.model.initial_state(), "report": None,
                "dofs": spec.model.state_template.total}

    def _solve(self, ctx, out):
        out.attempted += 1
        spec = ctx["spec"]
        try:
            ctx["state"], ctx["report"] = solve_nonlinear(
                spec.model, ctx["state"], NonlinearConfig(), ctx["factory"])
        except SOLVER_FAILURES as exc:
            out.fail(f"Newton solve raised {exc!r}")

    def check(self, ctx, out):
        rep = ctx["report"]
        if rep is None:
            return
        model = ctx["spec"].model
        if not rep.converged:
            out.fail(f"Newton did not converge: {rep.cell()}")
        out.newton_its += rep.steps
        out.solver_its += rep.steps
        out.linear_its += rep.total_linear
        out.krylov_its_per_newton = rep.avg_linear
        vec = ctx["state"].vector
        errors = model.l2_error(vec, ctx["spec"].exact.fields,
                                zero_mean=("p",))
        for field, limit in self.L2_LIMITS.items():
            _within(out, f"relative L2 error of {field}", float(errors[field]),
                    limit)
        div_b = float(model.div_norms(vec)["B"])
        _within(out, "div B", div_b, self.DIV_B_LIMIT)
        out.record[self.name] = {
            "cell": rep.cell(), "linear_iters": rep.linear_iters,
            "l2_error": {k: float(v) for k, v in errors.items()},
            "div_B": div_b}


class HallIslandLU(Workload):
    """2.5D Hall island coalescence stepped in time (BDF2 with a Crank-
    Nicolson start) with the frozen-Jacobian sparse-LU solver and the
    CLI's observers."""

    name = "hall_island_lu"
    DT, T = 0.05, 0.15

    def setup(self, seed, observe):
        spec = problems.make_problem("hall_island", levels=0,
                                     mesh_base=(8, 8))
        model = spec.model
        eq = spec.extras["equilibrium"]
        st = model.initial_state()
        # the CLI's initial state: perturbed equilibrium field
        st.set_field("Bt", interpolate(
            model.spaces["Bt"],
            lambda x, y: eq["Bt"](x, y) + eq["dB"](x, y), 12))
        for name in ("j3", "E3", "Et"):
            st.set_field(name, interpolate(model.spaces[name], eq[name], 12))
        pp = l2_project(model.spaces["p"], eq["p"]).coefficients
        st.set_field("p", pp - pp[0])
        model.apply_state_bcs(st)
        div_b = []

        def div_b_observer(vec):
            div_b.append(float(model.div_norms(vec)["Bt"]))
            return div_b[-1]

        observers = {
            "reconnection_rate": observe(ReconnectionProbe(model, "Bt")),
            "div_u": observe(lambda vec: model.div_norms(vec)["ut"]),
            "div_B": observe(div_b_observer),
        }
        return {"model": model, "state": st, "observers": observers,
                "div_B": div_b, "factory": FrozenJacobianFactory(),
                "rows": None, "dofs": model.state_template.total}

    def _solve(self, ctx, out):
        tconfig = TimeConfig(dt=self.DT, T=self.T)
        nsteps = int(round(tconfig.T / tconfig.dt))
        try:
            _, ctx["rows"] = run_transient(
                ctx["model"], ctx["state"], tconfig, NonlinearConfig(),
                ctx["factory"], observers=ctx["observers"])
            out.attempted += nsteps
        except SOLVER_FAILURES as exc:
            # div_B is observed once at t = 0 and once per accepted step
            out.attempted += len(ctx["div_B"])
            out.fail(f"time step {len(ctx['div_B'])} raised {exc!r}")

    def check(self, ctx, out):
        rows = ctx["rows"]
        if rows is None:
            return
        steps = rows[1:]
        newton = sum(r["newton_its"] for r in steps)
        out.time_steps += len(steps)
        out.newton_its += newton
        out.solver_its += newton
        out.linear_its += ctx["counts"]["lu_solve"]
        for r in rows:
            for key in ("reconnection_rate", "div_u", "div_B"):
                if not np.isfinite(r[key]):
                    out.fail(f"observer {key} is {r[key]} at t = {r['t']}")
        # div B grows on this forced problem (a known defect of how the
        # Faraday data is discretised): recorded, not gated
        out.record[self.name] = {
            "newton_its_per_step": [r["newton_its"] for r in steps],
            "div_B_per_step": ctx["div_B"],
            "reconnection_rate": [float(r["reconnection_rate"])
                                  for r in rows]}


def _divfree_fields(a_b, a_b3, a_u):
    """B = a_b vcurl(sin(pi x) sin(pi y)) + B3 and a divergence-free u whose
    trace vanishes, so both families' boundary conditions hold."""
    pi, s, c = np.pi, np.sin, np.cos

    def b0(x, y):
        return np.stack([a_b * pi * s(pi * x) * c(pi * y),
                         -a_b * pi * c(pi * x) * s(pi * y),
                         a_b3 * s(pi * x) * s(pi * y)], axis=-1)

    def u0(x, y):
        # vcurl(sin^2(pi x) sin^2(pi y)) and a bubble third component
        sx, cx, sy, cy = s(pi * x), c(pi * x), s(pi * y), c(pi * y)
        return np.stack([2 * a_u * pi * sx ** 2 * sy * cy,
                         -2 * a_u * pi * sx * cx * sy ** 2,
                         0.3 * a_u * sx * sy], axis=-1)

    return u0, b0


class HallMidpoint(Workload):
    """Energy- and helicity-conserving midpoint steps of ideal Hall MHD
    (S = 1, R_H = 1, 1/Re = 1/Rem = 0) in both the u x n = 0 and u . n = 0
    families, on the unit square."""

    name = "hall_midpoint"
    seeded = True
    FAMILIES = {"uxn": (initial_uxn_state, UxnStepper),
                "udotn": (initial_udotn_state, UdotnStepper)}
    # round-off limits for the conserved quantities; the helicity needs a
    # Krylov potential solve at rtol 1e-10, which bounds its accuracy
    ENERGY_LIMIT, HELICITY_LIMIT, DIV_B_LIMIT = 1e-11, 1e-8, 1e-11
    # amplitude range drawn from the seed: dt = 1e-4 converges throughout
    # and the sweep count stays at 148 (at +-1% some seeds give 152, at +-5%
    # it ranges over 140-170)
    AMPLITUDES = (0.999, 1.001)

    def __init__(self, n=24, dt=1e-4, steps=4, families=("uxn", "udotn")):
        self.n = n
        self.dt = dt
        self.steps = steps
        self.families = families

    def setup(self, seed, observe):
        a_b, a_b3, a_u = np.random.default_rng(seed).uniform(
            *self.AMPLITUDES, size=3)
        u0, b0 = _divfree_fields(a_b, 0.5 * a_b3, a_u)
        mesh = build_rect_mesh((0.0, 1.0, 0.0, 1.0), self.n, self.n, "right")
        scheme = ConservativeScheme(mesh, S=1.0, R_H=1.0, inv_Re=0.0,
                                    inv_Rem=0.0)
        runs = {}
        for fam in self.families:
            initial, stepper_cls = self.FAMILIES[fam]
            runs[fam] = {"state": initial(scheme, u0, b0),
                         "stepper": stepper_cls(scheme, self.dt)}
        return {"scheme": scheme, "runs": runs,
                "amplitudes": [float(a_b), float(a_b3), float(a_u)],
                "dofs": scheme.curlsp.n + scheme.divsp.n}

    def _invariants(self, sc, fam, state):
        u_space = sc.curlsp if fam == "uxn" else sc.divsp
        return (sc.energy(state.u, state.B, u_space),
                sc.magnetic_helicity(state.B))

    def prepare(self, ctx):
        for fam, run in ctx["runs"].items():
            run["initial"] = self._invariants(ctx["scheme"], fam,
                                              run["state"])

    def _solve(self, ctx, out):
        for run in ctx["runs"].values():
            run["sweeps"] = []
            for _ in range(self.steps):
                out.attempted += 1
                try:
                    run["state"] = run["stepper"].step(run["state"])
                except SOLVER_FAILURES as exc:
                    out.fail(f"midpoint step raised {exc!r}")
                    break
                run["sweeps"].append(run["state"].fp_iters)

    def check(self, ctx, out):
        sc = ctx["scheme"]
        sweeps = ctx["counts"]["sweep"]
        out.fixed_point_its += sweeps
        out.solver_its += sweeps
        out.linear_its += ctx["counts"]["lu_solve"]
        record = out.record[self.name] = {"amplitudes": ctx["amplitudes"]}
        for fam, run in ctx["runs"].items():
            e0, h0 = run["initial"]
            e1, h1 = self._invariants(sc, fam, run["state"])
            drift_e = abs(e1 - e0) / abs(e0)
            drift_h = abs(h1 - h0) / abs(h0)
            div_b = sc.div_norm_d(run["state"].B)
            _within(out, f"{fam} energy drift", drift_e, self.ENERGY_LIMIT)
            _within(out, f"{fam} helicity drift", drift_h,
                    self.HELICITY_LIMIT)
            _within(out, f"{fam} div B", div_b, self.DIV_B_LIMIT)
            record[fam] = {"sweeps_per_step": run["sweeps"],
                           "energy_drift": drift_e,
                           "helicity_drift": drift_h, "div_B": div_b}


class RBCritical(Workload):
    """Critical Rayleigh numbers of the Boussinesq MHD conduction state by
    shift-invert Arnoldi on the linearised operator."""

    name = "rb_critical"
    # the two smallest critical Ra on this 12x12 crossed mesh; the Arnoldi
    # start vector is fixed, so the values repeat to round-off
    RA_C = (2609.033808965, 6759.398795926)
    RTOL = 1e-6

    def setup(self, seed, observe):
        spec = problems.make_problem("rayleigh_benard", mesh_base=(12, 12))
        return {"model": spec.model, "values": None,
                "dofs": spec.model.state_template.total}

    def _solve(self, ctx, out):
        out.attempted += 1
        try:
            ctx["values"], _, _ = critical_parameter(ctx["model"], "Ra_c",
                                                     count=2)
        except SingularMatrixError as exc:
            out.fail(f"eigen-solve raised {exc!r}")

    def check(self, ctx, out):
        vals = ctx["values"]
        if vals is None:
            return
        out.solver_its += ctx["counts"]["arnoldi_step"]
        out.linear_its += ctx["counts"]["lu_solve"]
        out.record[self.name] = {"Ra_c": [float(v) for v in vals]}
        if len(vals) != len(self.RA_C) or not np.allclose(
                vals, self.RA_C, rtol=self.RTOL, atol=0.0):
            out.fail(f"critical Ra {list(vals)} != {list(self.RA_C)}")


class DirectLU:
    """The direct sparse-LU paths, run one after another in each
    repetition: the Hall island in time, the midpoint steps and the critical
    Rayleigh numbers.  No multigrid runs.  Times and counts add up over the
    three parts; the per-layer metrics keep their layers apart."""

    name = "direct_lu"
    seeded = True

    def __init__(self):
        self.parts = [HallIslandLU(), HallMidpoint(), RBCritical()]


WORKLOADS = {w.name: w for w in (HartmannMG, DirectLU)}
