"""Newton and Picard drivers with full (undamped) updates, fixed-step
parameter continuation, and deflation of previously found roots via the
shifted inverse-distance multiplier (applied to the Newton step through the
scalar Sherman-Morrison factor).  A continuation stage whose undamped
iteration fails, for any reason the report names, is solved again from the
same seed with a backtracking line search on the residual norm."""

import logging

import numpy as np

from .linalg import LinearSolveFailure, LuSolver

log = logging.getLogger(__name__)

# an undeflated Newton/Picard solve gives up after this many steps that fail
# to halve the residual norm since it last set a new minimum
STALL_STEPS = 5
# halvings of a step that does not lower the residual norm, in the retry of
# a failed continuation stage
BACKTRACKS = 5


class NonlinearConfig:
    def __init__(self, rtol=1e-10, atol=1e-6, max_steps=50,
                 linearisation="newton"):
        for t in (rtol, atol):
            if t <= 0:
                raise ValueError("tolerances must be positive")
        self.rtol = rtol
        self.atol = atol
        self.max_steps = max_steps
        self.linearisation = linearisation


class SolverReport:
    """Per-step residual/linear-iteration ledger in the "(nonlinear)
    avg-linear" convention; `reason` says why an unconverged solve
    stopped."""

    def __init__(self):
        self.residuals = []
        self.linear_iters = []
        self.converged = False
        self.reason = None

    @property
    def steps(self):
        return len(self.linear_iters)

    @property
    def avg_linear(self):
        if not self.linear_iters:
            return 0.0
        return float(np.mean(self.linear_iters))

    @property
    def total_linear(self):
        return int(np.sum(self.linear_iters)) if self.linear_iters else 0

    def cell(self):
        if not self.converged:
            return "NF"
        return "(%2d) %.1f" % (self.steps, self.avg_linear)


def direct_solver_factory(A, parts=None):
    lu = LuSolver(A)

    def solve(rhs):
        return lu.solve(rhs), 1

    return solve


def solve_nonlinear(model, state, config=None, solver_factory=None,
                    residual_fn=None, jacobian_fn=None, deflation=None,
                    backtracks=0):
    """Drive R(U) = 0 from `state` (which must satisfy the BCs).

    solver_factory(A, None) returns solve(rhs) -> (delta, linear_iters);
    default is a sparse direct solve.  The second argument is unread; it
    stays because the benchmark's span wrapper of
    KrylovSolverFactory.__call__ (perfbench/layers.py) takes
    (self, A, parts).  residual_fn/jacobian_fn override the
    model's steady forms (used by the time steppers).  With `deflation`, the
    driver finds a root of the deflated residual, which keeps the update
    direction and rescales its length.  It stops unconverged, with the
    report's `reason`, at a LinearSolveFailure (its iterations are recorded
    and the step is not taken), a non-finite residual, the step budget, or,
    without deflation, once STALL_STEPS steps since the residual norm last
    set a new minimum have failed to halve it.  With `backtracks` > 0, a
    step that does not lower the residual norm is halved, up to
    `backtracks` times, and the last halving is taken; a deflated search
    takes its steps whole.
    """
    if backtracks and deflation is not None:
        raise ValueError("a deflated search does not backtrack")
    config = config or NonlinearConfig()
    solver_factory = solver_factory or direct_solver_factory
    residual = residual_fn or model.residual
    jacobian = jacobian_fn or (
        lambda v: model.jacobian(v, config.linearisation))
    report = SolverReport()
    x = state.vector.copy()
    if hasattr(model, "constrained_idx"):
        # seed states from continuation may carry stale boundary values
        x[model.constrained_idx] = model.constrained_vals
    r = residual(x)
    rnorm0 = np.linalg.norm(r)
    report.residuals.append(rnorm0)
    if rnorm0 < config.atol:
        report.converged = True
        out = state.with_vector(x)
        return out, report
    rbest = rprev = rnorm0
    stalled = 0
    for step in range(1, config.max_steps + 1):
        needs = getattr(solver_factory, "needs_matrix", None)
        A = jacobian(x) if needs is None or needs() else None
        solve = solver_factory(A, None)
        try:
            delta, nit = solve(-r)
        except LinearSolveFailure as exc:
            report.linear_iters.append(exc.iterations)
            report.reason = f"Newton step {step}: {exc}"
            break
        # free this step's solver (a block preconditioner holds multigrid
        # levels and factorisations) before the next one is built
        del A, solve
        if deflation is not None:
            tau = deflation.step_scale(x, delta)
            delta = tau * delta
        x_new = x + delta
        r = residual(x_new)
        rnorm = np.linalg.norm(r)
        for _ in range(backtracks):
            if rnorm < rprev:
                break
            delta = 0.5 * delta
            x_new = x + delta
            r = residual(x_new)
            rnorm = np.linalg.norm(r)
        x = x_new
        report.residuals.append(rnorm)
        report.linear_iters.append(nit)
        if not np.isfinite(rnorm):
            report.reason = f"Newton step {step}: non-finite residual"
            break
        if rnorm < config.atol or rnorm < config.rtol * rnorm0:
            report.converged = True
            break
        # a step that at least halves the residual, as on the way back from
        # an overshoot, is progress too; round-off noise on a plateau is
        # not.  A deflated search climbs out of a deflated root's basin on
        # purpose, so it is never stopped here.
        if rnorm < rbest:
            rbest, stalled = rnorm, 0
        elif rnorm > 0.5 * rprev:
            stalled += 1
        rprev = rnorm
        if stalled >= STALL_STEPS and deflation is None:
            report.reason = (f"Newton step {step}: stalled, {STALL_STEPS} "
                             "steps without halving the residual")
            break
    else:
        report.reason = f"step budget of {config.max_steps} Newton steps spent"
    out = state.with_vector(x)
    return out, report


class ContinuationSchedule:
    """Ordered parameter stages; the first (column) parameter is traversed
    first, each solution seeding the next stage."""

    # continuation steps used for the stationary problems
    DEFAULT_STEPS = {
        "S": [1.0, 100.0, 1000.0, 5000.0, 10000.0],
        "Re": [1.0, 500.0, 1000.0, 3000.0, 5000.0, 7000.0, 10000.0],
        "Rem": [1.0, 500.0, 1000.0, 3000.0, 5000.0, 7000.0, 10000.0],
        "Ra": [1.0, 10.0, 100.0, 1000.0, 10000.0, 30000.0, 100000.0],
        "Pr": [1.0, 0.1, 0.03, 0.01, 0.003, 0.001],
    }

    def __init__(self, stages):
        if not stages:
            raise ValueError("empty continuation schedule")
        for name, values in stages:
            arr = np.asarray(values, dtype=float)
            if len(arr) == 0:
                raise ValueError(f"no values for parameter {name}")
            d = np.diff(arr)
            if len(d) and not (np.all(d >= 0) or np.all(d <= 0)):
                raise ValueError(f"values for {name} must be monotone")
        self.stages = [(n, list(map(float, v))) for n, v in stages]

    @classmethod
    def toward(cls, targets, order=None):
        """Build a schedule walking each parameter through its DEFAULT_STEPS
        list truncated at its target (the target is always included)."""
        order = order or list(targets.keys())
        stages = []
        for name in order:
            tgt = float(targets[name])
            base = cls.DEFAULT_STEPS.get(name, [tgt])
            increasing = base == sorted(base)
            if increasing:
                vals = [v for v in base if v < tgt] + [tgt]
            else:
                vals = [v for v in base if v > tgt] + [tgt]
            stages.append((name, vals))
        return cls(stages)


class StageFailure(Exception):
    def __init__(self, parameter, value, report):
        super().__init__(f"continuation stage {parameter}={value} "
                         f"failed to converge (NF): {report.reason}")
        self.parameter = parameter
        self.value = value
        self.report = report


def continue_parameters(problem, schedule, state=None, config=None,
                        solver_factory=None):
    """Traverse the schedule on `problem` (a `problems.ProblemSpec`, whose
    `set_params` re-derives its data at each stage), seeding every solve of
    its model with the previous solution; returns (final state, final-stage
    report).  A stage whose undamped solve fails is solved again from the
    same seed with BACKTRACKS halvings per step; its report is that of the
    second solve, and it fails (StageFailure) only if that solve fails
    too."""
    model = problem.model
    state = state or model.initial_state()
    report = None
    for name, values in schedule.stages:
        for v in values:
            if report is not None and report.converged and \
                    getattr(model.params, name) == v:
                continue  # parameter unchanged: previous solution stands
            problem.set_params(**{name: v})
            seed = state
            state, report = solve_nonlinear(model, seed, config,
                                            solver_factory)
            if not report.converged:
                log.warning("continuation stage %s=%g failed undamped; "
                            "retrying with a line search", name, v)
                state, report = solve_nonlinear(model, seed, config,
                                                solver_factory,
                                                backtracks=BACKTRACKS)
            if not report.converged:
                raise StageFailure(name, v, report)
    return state, report


class DeflationOperator:
    """Product of shifted inverse-square-distance factors over found roots.

    M(x) = prod_i (1 / d_i(x)^2 + 1) with d_i^2 = (x - x_i)^T W (x - x_i)
    and W the combined velocity mass + broken-gradient, temperature and
    magnetic Gram matrix provided by the model.
    """

    def __init__(self, gram):
        self.W = gram
        self.solutions = []

    def add(self, vec):
        self.solutions.append(np.array(vec, dtype=float))

    def distance2(self, x, xi):
        d = x - xi
        return float(d @ (self.W @ d))

    def factors(self, x):
        return [1.0 / self.distance2(x, xi) + 1.0 for xi in self.solutions]

    def value(self, x):
        return float(np.prod(self.factors(x)))

    def grad(self, x):
        g = np.zeros_like(x)
        fs = self.factors(x)
        prod = np.prod(fs)
        for xi, f in zip(self.solutions, fs):
            d2 = self.distance2(x, xi)
            # d/dx (1/d^2) = -2 W (x - xi) / d^4
            g += (prod / f) * (-2.0 / d2 ** 2) * (self.W @ (x - xi))
        return g

    def step_scale(self, x, delta0):
        """Scalar tau with tau*delta0 the Newton step of the deflated
        residual (Sherman-Morrison on the rank-one Jacobian correction)."""
        if not self.solutions:
            return 1.0
        m = self.value(x)
        g = self.grad(x)
        denom = 1.0 - (g @ delta0) / m
        if abs(denom) < 1e-14:
            return 1.0
        return 1.0 / denom

    def min_distance(self, x):
        if not self.solutions:
            return np.inf
        return np.sqrt(min(self.distance2(x, xi) for xi in self.solutions))


def deflated_solve(model, state, deflation, config=None, solver_factory=None,
                   distinctness=1e-6):
    """Search for a root distinct from every deflated snapshot; returns
    (state, report) with report.converged False when no further solution is
    found within the step budget."""
    if not deflation.solutions:
        raise ValueError("deflation requires at least one snapshot")
    out, report = solve_nonlinear(model, state, config, solver_factory,
                                  deflation=deflation)
    if report.converged and deflation.min_distance(out.vector) <= distinctness:
        report.converged = False
        report.reason = "converged to a deflated root"
    return out, report
