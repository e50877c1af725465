import types

import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.linalg import LinearSolveFailure
from mhdkit.mesh import build_rect_mesh
from mhdkit.models.base import ModelParams
from mhdkit.models.standard import StandardMHD
from mhdkit.models import analytic
from mhdkit.problems import make_problem
from mhdkit.nonlinear import (NonlinearConfig, SolverReport, solve_nonlinear,
                              ContinuationSchedule, continue_parameters,
                              StageFailure, DeflationOperator, deflated_solve,
                              STALL_STEPS, direct_solver_factory)


class _ScalarProblem:
    """x^3 - x = 0 on a 1-dof 'model' for the deflation oracle."""

    class _State:
        total = 1

        def with_vector(self, v):
            out = _ScalarProblem._State()
            out.vector = np.asarray(v, dtype=float).copy()
            return out

    _Template = _State

    def __init__(self):
        self.state_template = self._Template()

    def residual(self, x):
        return x ** 3 - x

    def jacobian(self, x, lin="newton"):
        return sp.csr_matrix(np.array([[3 * x[0] ** 2 - 1.0]]))

    def initial_state(self, x0=0.6):
        st = self._Template().with_vector(np.array([x0]))
        return st


def test_linear_problem_one_step():
    # Stokes-AL is linear: Newton converges in one step
    mesh = build_rect_mesh((0, 1, 0, 1), 3, 3)
    lid = lambda x, y: np.stack([np.where(np.abs(y - 1) < 1e-12, 1.0, 0.0),
                                 np.zeros_like(x)], axis=-1)
    model = StandardMHD(mesh, ModelParams(Re=1.0, Rem=1.0, S=1.0, gamma=10.0),
                        bcs={"u": ("all", lid), "E": ("all", None),
                             "B": ("all", None)})
    # suppress the nonlinear terms by solving from zero with the linear part:
    # a single Newton step of the full problem still lands within tolerance
    st, rep = solve_nonlinear(model, model.initial_state(),
                              NonlinearConfig(atol=1e-8))
    assert rep.converged and rep.steps <= 3


def _scripted_solve(norms, max_steps=50):
    """solve_nonlinear on residual norms given in advance; returns the report
    and the number of residual evaluations."""
    prob = _ScalarProblem()
    norms = iter(norms)
    evaluations = []

    def residual(x):
        evaluations.append(x)
        return np.array([next(norms)])

    _, rep = solve_nonlinear(
        prob, prob.initial_state(), NonlinearConfig(max_steps=max_steps),
        residual_fn=residual,
        jacobian_fn=lambda x: sp.identity(1, format="csr"))
    return rep, len(evaluations)


@pytest.mark.parametrize("plateau", [[0.6], [0.6, 0.55, 0.58]])
def test_stalled_residual_stops_unconverged(plateau):
    # the residual halves once, then plateaus far above atol, flat or noisy:
    # the loop stops after STALL_STEPS steps, not at max_steps
    rep, evaluations = _scripted_solve([1.0, 0.5] + plateau * 100)
    assert not rep.converged
    assert rep.steps == 1 + STALL_STEPS <= 6
    assert evaluations == rep.steps + 1
    assert rep.reason == (f"Newton step {rep.steps}: stalled, {STALL_STEPS} "
                          "steps without halving the residual")


def test_return_from_overshoot_is_not_a_stall():
    # a first step that overshoots is followed by steps that each cut the
    # residual to 0.3 of the last, but stay above the starting norm for
    # more than STALL_STEPS steps
    rep, _ = _scripted_solve([1.0] + [1e4 * 0.3 ** k for k in range(40)])
    assert rep.converged and rep.steps == 21  # 1e4 * 0.3**20 < atol


def test_backtracking_halves_a_step_that_raises_the_residual():
    # the full step and its first halving raise the norm; the second halving
    # lowers it and is taken
    prob = _ScalarProblem()
    norms = iter([1.0, 4.0, 2.0, 0.5, 1e-12])
    points = []

    def residual(x):
        points.append(x[0])
        return np.array([next(norms)])

    _, rep = solve_nonlinear(
        prob, prob.initial_state(), NonlinearConfig(), residual_fn=residual,
        jacobian_fn=lambda x: sp.identity(1, format="csr"),
        backtracks=5)
    x0 = points[0]
    assert points[1:] == [x0 - 1.0, x0 - 0.5, x0 - 0.25, x0 - 0.75]
    assert rep.converged and rep.residuals == [1.0, 0.5, 1e-12]
    with pytest.raises(ValueError):
        solve_nonlinear(prob, prob.initial_state(),
                        deflation=DeflationOperator(sp.identity(1)),
                        backtracks=5)


class _Arctan(_ScalarProblem):
    """arctan(x - p) = 0: undamped Newton diverges from |x - p| > 1.4.  It
    is its own continuation problem: its `model` is itself."""

    def __init__(self):
        super().__init__()
        self.params = types.SimpleNamespace(p=0.0)
        self.model = self

    def set_params(self, **values):
        vars(self.params).update(values)

    def residual(self, x):
        return np.arctan(x - self.params.p)

    def jacobian(self, x, lin="newton"):
        return sp.csr_matrix([[1.0 / (1.0 + (x[0] - self.params.p) ** 2)]])


def test_failed_stage_is_retried_with_a_line_search(caplog):
    prob = _Arctan()
    prob.params.p = 3.0
    _, undamped = solve_nonlinear(prob, prob.initial_state(0.0))
    assert not undamped.converged
    prob.params.p = 0.0
    with caplog.at_level("WARNING", logger="mhdkit.nonlinear"):
        st, rep = continue_parameters(
            prob, ContinuationSchedule([("p", [0.0, 3.0])]),
            prob.initial_state(0.0))
    assert rep.converged and st.vector[0] == pytest.approx(3.0)
    assert [r.getMessage() for r in caplog.records] == [
        "continuation stage p=3 failed undamped; retrying with a line search"]


class _FailingAt:
    """A direct-LU solver factory that reports 7 iterations per solve; the
    solve built by its `fail_at`-th call, counted over every Newton solve it
    serves, raises LinearSolveFailure after 100 iterations."""

    def __init__(self, fail_at):
        self.fail_at = fail_at
        self.calls = 0

    def __call__(self, A, parts):
        self.calls += 1
        failing = self.calls == self.fail_at
        lu = direct_solver_factory(A)

        def solve(rhs):
            if failing:
                raise LinearSolveFailure(100, 0.25)
            return lu(rhs)[0], 7

        return solve


def test_linear_solve_failure_ends_the_attempt():
    prob = _ScalarProblem()
    jacobians = []

    def jacobian(x):
        jacobians.append(x[0])
        return prob.jacobian(x)

    _, rep = solve_nonlinear(prob, prob.initial_state(3.0),
                             NonlinearConfig(atol=1e-13, rtol=1e-14),
                             _FailingAt(2), jacobian_fn=jacobian)
    assert not rep.converged
    assert rep.linear_iters == [7, 100]
    assert rep.reason == ("Newton step 2: FGMRES did not converge in 100 "
                          "iterations (residual 2.500e-01)")
    # the failed step is not taken and no Jacobian follows it
    assert len(jacobians) == 2 and len(rep.residuals) == 2


def test_stage_with_a_failed_linear_solve_is_retried(caplog):
    prob = _Arctan()
    factory = _FailingAt(2)
    with caplog.at_level("WARNING", logger="mhdkit.nonlinear"):
        st, rep = continue_parameters(
            prob, ContinuationSchedule([("p", [0.0, 3.0])]),
            prob.initial_state(0.0), solver_factory=factory)
    # the undamped attempt at p = 3 stops at its second solve; the
    # line-search retry converges
    assert rep.converged and st.vector[0] == pytest.approx(3.0)
    assert factory.calls == 2 + rep.steps
    assert [r.getMessage() for r in caplog.records] == [
        "continuation stage p=3 failed undamped; retrying with a line search"]


@pytest.mark.parametrize("norms, max_steps, reason", [
    ([1.0, np.inf], 50, "Newton step 1: non-finite residual"),
    ([1.0, 0.5, 0.25], 2, "step budget of 2 Newton steps spent")])
def test_unconverged_stops_name_their_reason(norms, max_steps, reason):
    rep, _ = _scripted_solve(norms, max_steps)
    assert not rep.converged and rep.reason == reason


def test_report_totals_and_cell_format():
    rep = SolverReport()
    rep.linear_iters = [4, 6]
    rep.residuals = [1.0, 0.1, 1e-8]
    rep.converged = True
    assert rep.total_linear == 10
    assert rep.avg_linear == 5.0
    assert rep.cell() == "( 2) 5.0"
    rep.converged = False
    assert rep.cell() == "NF"


def test_newton_superlinear_tail_hartmann():
    sol = analytic.hartmann_solution(1.0, 1.0, 1.0)
    mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 8, 8)
    model = StandardMHD(mesh, ModelParams(Re=1.0, Rem=1.0, S=1.0, gamma=1e2),
                        bcs={"u": ("all", sol.fields["u"]),
                             "E": ("all", sol.fields["E"]),
                             "B": ("all", sol.fields["B"])},
                        forcing=sol.forcing)
    st, rep = solve_nonlinear(model, model.initial_state(),
                              NonlinearConfig(atol=1e-12, rtol=1e-14,
                                              max_steps=12))
    r = rep.residuals
    tail = [(r[i], r[i + 1]) for i in range(len(r) - 1) if r[i] <= 1e-4
            and r[i] > 1e-13]
    assert tail, "no residuals in the superlinear window"
    for rk, rk1 in tail:
        assert rk1 <= 100.0 * rk ** 1.5


def test_continuation_schedule_validation():
    with pytest.raises(ValueError):
        ContinuationSchedule([])
    with pytest.raises(ValueError):
        ContinuationSchedule([("S", [])])
    with pytest.raises(ValueError):
        ContinuationSchedule([("S", [1.0, 3.0, 2.0])])
    sched = ContinuationSchedule.toward({"S": 700.0})
    assert sched.stages == [("S", [1.0, 100.0, 700.0])]
    sched2 = ContinuationSchedule.toward({"Re": 1000.0})
    assert sched2.stages[0][1][-1] == 1000.0


def test_single_stage_schedule_is_plain_solve():
    spec = make_problem("hartmann", levels=0, mesh_base=(4, 4),
                        params={"gamma": 1.0})
    model = spec.model
    st1, rep1 = continue_parameters(spec,
                                    ContinuationSchedule([("S", [1.0])]))
    st2, rep2 = solve_nonlinear(model, model.initial_state())
    assert rep1.steps == rep2.steps
    assert np.allclose(st1.vector, st2.vector)


def test_deflation_scalar_cubic():
    prob = _ScalarProblem()
    cfg = NonlinearConfig(atol=1e-13, rtol=1e-14, max_steps=60)
    st, rep = solve_nonlinear(prob, prob.initial_state(0.6), cfg)
    assert rep.converged and st.vector[0] == pytest.approx(1.0)
    defl = DeflationOperator(sp.identity(1, format="csr"))
    defl.add(st.vector)
    st2, rep2 = deflated_solve(prob, prob.initial_state(0.6), defl, cfg)
    assert rep2.converged
    assert st2.vector[0] == pytest.approx(0.0, abs=1e-8) or \
        st2.vector[0] == pytest.approx(-1.0, abs=1e-8)
    defl.add(st2.vector)
    st3, rep3 = deflated_solve(prob, prob.initial_state(0.6), defl, cfg)
    assert rep3.converged
    roots = sorted([st.vector[0], st2.vector[0], st3.vector[0]])
    assert np.allclose(roots, [-1.0, 0.0, 1.0], atol=1e-7)
    # a root within `distinctness` of a deflated one is not new
    _, rep4 = deflated_solve(prob, prob.initial_state(0.6), defl, cfg,
                             distinctness=10.0)
    assert not rep4.converged
    assert rep4.reason == "converged to a deflated root"


def test_deflating_unique_root_gives_nf():
    class _Linear(_ScalarProblem):
        def residual(self, x):
            return 2.0 * x - 1.0

        def jacobian(self, x, lin="newton"):
            return sp.csr_matrix(np.array([[2.0]]))

    prob = _Linear()
    cfg = NonlinearConfig(atol=1e-13, rtol=1e-14, max_steps=25)
    st, rep = solve_nonlinear(prob, prob.initial_state(0.0), cfg)
    assert rep.converged
    defl = DeflationOperator(sp.identity(1, format="csr"))
    defl.add(st.vector)
    st2, rep2 = deflated_solve(prob, prob.initial_state(0.3), defl, cfg)
    assert not rep2.converged
    assert rep2.reason == "step budget of 25 Newton steps spent"


def test_deflation_operator_far_field():
    defl = DeflationOperator(sp.identity(1, format="csr"))
    defl.add(np.array([0.0]))
    x = np.array([20.0])
    m = defl.value(x)
    assert 1.0 < m <= 1.1
    assert defl.min_distance(x) == pytest.approx(20.0)


def test_deflation_distinctness_guard():
    defl = DeflationOperator(sp.identity(2, format="csr"))
    defl.add(np.array([1.0, 0.0]))
    assert defl.min_distance(np.array([1.0, 1e-8])) < 1e-6


def test_previous_preconditioner_freed_before_next_build():
    # a block preconditioner holds multigrid levels and factorisations; the
    # Newton loop must drop step k's before step k + 1 builds its own
    import gc
    import weakref
    from mhdkit.precond import KrylovSolverFactory
    from mhdkit.problems import make_problem

    spec = make_problem("hartmann", levels=1, mesh_base=(2, 2))
    precond = spec.make_precond()
    built, alive = [], []

    class Recording:
        def build(self, A):
            gc.collect()
            alive.append([ref() is not None for ref in built])
            M = precond.build(A)
            built.append(weakref.ref(M))
            return M

    factory = KrylovSolverFactory(Recording())
    _, rep = solve_nonlinear(spec.model, spec.model.initial_state(),
                             NonlinearConfig(), factory)
    assert rep.converged and rep.steps >= 2
    assert alive == [[False] * k for k in range(rep.steps)]
