import types

import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.mesh import build_rect_mesh
from mhdkit.models.base import ModelParams
from mhdkit.models.standard import StandardMHD
from mhdkit.models import analytic
from mhdkit.nonlinear import (NonlinearConfig, SolverReport, solve_nonlinear,
                              ContinuationSchedule, continue_parameters,
                              StageFailure, DeflationOperator, deflated_solve,
                              STALL_STEPS)


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
        return sp.csr_matrix(np.array([[3 * x[0] ** 2 - 1.0]])), {}

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


def _scripted_solve(norms):
    """solve_nonlinear on residual norms given in advance; returns the report
    and the number of residual evaluations."""
    prob = _ScalarProblem()
    norms = iter(norms)
    evaluations = []

    def residual(x):
        evaluations.append(x)
        return np.array([next(norms)])

    _, rep = solve_nonlinear(
        prob, prob.initial_state(), NonlinearConfig(max_steps=50),
        residual_fn=residual,
        jacobian_fn=lambda x: (sp.identity(1, format="csr"), {}))
    return rep, len(evaluations)


@pytest.mark.parametrize("plateau", [[0.6], [0.6, 0.55, 0.58]])
def test_stalled_residual_stops_unconverged(plateau):
    # the residual halves once, then plateaus far above atol, flat or noisy:
    # the loop stops after STALL_STEPS steps, not at max_steps
    rep, evaluations = _scripted_solve([1.0, 0.5] + plateau * 100)
    assert not rep.converged
    assert rep.steps == 1 + STALL_STEPS <= 6
    assert evaluations == rep.steps + 1


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
        jacobian_fn=lambda x: (sp.identity(1, format="csr"), {}),
        backtracks=5)
    x0 = points[0]
    assert points[1:] == [x0 - 1.0, x0 - 0.5, x0 - 0.25, x0 - 0.75]
    assert rep.converged and rep.residuals == [1.0, 0.5, 1e-12]
    with pytest.raises(ValueError):
        solve_nonlinear(prob, prob.initial_state(),
                        deflation=DeflationOperator(sp.identity(1)),
                        backtracks=5)


class _Arctan(_ScalarProblem):
    """arctan(x - p) = 0: undamped Newton diverges from |x - p| > 1.4."""

    def __init__(self):
        super().__init__()
        self.params = types.SimpleNamespace(p=0.0)

    def residual(self, x):
        return np.arctan(x - self.params.p)

    def jacobian(self, x, lin="newton"):
        return sp.csr_matrix([[1.0 / (1.0 + (x[0] - self.params.p) ** 2)]]), {}


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
    sol = analytic.hartmann_solution(1.0, 1.0, 1.0)
    mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 4, 4)
    model = StandardMHD(mesh, ModelParams(Re=1.0, Rem=1.0, S=1.0, gamma=1.0),
                        bcs={"u": ("all", sol.fields["u"]),
                             "E": ("all", sol.fields["E"]),
                             "B": ("all", sol.fields["B"])},
                        forcing=sol.forcing)
    st1, rep1 = continue_parameters(model,
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


def test_deflating_unique_root_gives_nf():
    class _Linear(_ScalarProblem):
        def residual(self, x):
            return 2.0 * x - 1.0

        def jacobian(self, x, lin="newton"):
            return sp.csr_matrix(np.array([[2.0]])), {}

    prob = _Linear()
    cfg = NonlinearConfig(atol=1e-13, rtol=1e-14, max_steps=25)
    st, rep = solve_nonlinear(prob, prob.initial_state(0.0), cfg)
    assert rep.converged
    defl = DeflationOperator(sp.identity(1, format="csr"))
    defl.add(st.vector)
    st2, rep2 = deflated_solve(prob, prob.initial_state(0.3), defl, cfg)
    assert not rep2.converged


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
        def build(self, A, parts):
            gc.collect()
            alive.append([ref() is not None for ref in built])
            M = precond.build(A, parts)
            built.append(weakref.ref(M))
            return M

    factory = KrylovSolverFactory(Recording(), rtol=1e-7, atol=1e-7,
                                  maxiter=100)
    _, rep = solve_nonlinear(spec.model, spec.model.initial_state(),
                             NonlinearConfig(), factory)
    assert rep.converged and rep.steps >= 2
    assert alive == [[False] * k for k in range(rep.steps)]
