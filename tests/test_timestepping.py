import numpy as np
import pytest

from mhdkit import timestepping
from mhdkit.mesh import build_rect_mesh
from mhdkit.models.base import ModelParams
from mhdkit.models.hall import HallMHD
from mhdkit.models.standard import StandardMHD
from mhdkit.nonlinear import NonlinearConfig, direct_solver_factory
from mhdkit.problems import island_initial_state, make_problem
from mhdkit.timestepping import (FrozenJacobianFactory, TimeConfig,
                                 _transient_forms, run_transient,
                                 step_multistep)


def _unit_B(x, y):
    return np.stack([0 * x, np.ones_like(y)], axis=-1)


def _standard(mesh):
    return StandardMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, gamma=7.0),
        bcs={"u": ("all", None), "E": ("all", None), "B": ("all", _unit_B)})


def _hall(mesh):
    return HallMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, R_H=0.7, gamma=4.0),
        bcs={n: ("all", None) for n in
             ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")})


def _random_state(model, rng):
    v = model.initial_state().vector.copy()
    v += 0.3 * rng.standard_normal(len(v))
    v[model.constrained_idx] = model.constrained_vals
    return v


@pytest.mark.parametrize("scheme, nhist", [
    ("implicit_euler", 1), ("crank_nicolson", 1), ("bdf2_cn_start", 1),
    ("bdf2_cn_start", 2)], ids=["euler", "cn", "bdf2-cn-start", "bdf2"])
@pytest.mark.parametrize("make", [_standard, _hall],
                         ids=["standard", "hall"])
def test_step_jacobian_is_derivative_of_step_residual(make, scheme, nhist):
    # the Jacobian handed to Newton against central differences of the same
    # step's residual, constrained rows zeroed
    model = make(build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 2, 2))
    rng = np.random.default_rng(11)
    history = [_random_state(model, rng) for _ in range(nhist)]
    x = _random_state(model, rng)
    residual, jacobian = _transient_forms(model, scheme, 0.1, history)
    A = jacobian(x)
    free = np.setdiff1d(np.arange(len(x)), model.constrained_idx)
    h = 1e-6
    worst = 0.0
    for c in rng.choice(free, size=40, replace=False):
        e = np.zeros_like(x)
        e[c] = h
        fd = (residual(x + e) - residual(x - e)) / (2 * h)
        col = np.asarray(A[:, c].todense()).ravel()
        worst = max(worst, np.abs(col - fd).max() / max(np.abs(fd).max(), 1))
    assert worst < 1e-5, worst


def test_hall_island_newton_counts_and_factorisations(monkeypatch):
    # BDF2 with a Crank-Nicolson start and frozen-Jacobian LU: an exact
    # Jacobian gives quadratic convergence in every step, so one
    # factorisation serves the CN step and one the two BDF2 steps.  A
    # second run with the same factory starts from a fresh factorisation,
    # not from the first run's BDF2 one, and repeats the first run.
    spec = make_problem("hall_island", levels=0, mesh_base=(8, 8))
    model = spec.model
    n = model.state_template.total
    factorised = []

    class CountingLu(timestepping.LuSolver):
        def __init__(self, A):
            factorised.append(A.shape[0])
            super().__init__(A)

    monkeypatch.setattr(timestepping, "LuSolver", CountingLu)
    factory = FrozenJacobianFactory()
    rates = []
    for _ in range(2):
        factorised.clear()
        _, rows = run_transient(
            model, island_initial_state(spec), TimeConfig(dt=0.05, T=0.15),
            NonlinearConfig(), factory,
            observers={"rate": timestepping.ReconnectionProbe(model, "Bt")})
        assert [r["newton_its"] for r in rows[1:]] == [4, 4, 4]
        assert factorised.count(n) == 2
        # the run's factorisation is freed when it returns
        assert factory.needs_matrix()
        rates.append([r["rate"] for r in rows])
    assert rates[0] == rates[1]


def test_failed_step_names_its_step_and_time(caplog):
    # one Newton step cannot converge: the frozen factory refactorises and
    # retries once (one WARNING), then the run raises naming the step, and
    # the factorisation is freed
    spec = make_problem("hall_island", levels=0, mesh_base=(4, 4))
    factory = FrozenJacobianFactory()
    with caplog.at_level("WARNING", logger="mhdkit.timestepping"):
        with pytest.raises(timestepping.TimeStepFailure) as failure:
            run_transient(spec.model, island_initial_state(spec),
                          TimeConfig(dt=0.05, T=0.1),
                          NonlinearConfig(max_steps=1), factory)
    exc = failure.value
    assert (exc.step, exc.t, exc.dt) == (1, 0.05, 0.05)
    assert "time step 1 (t = 0.05, dt = 0.05)" in str(exc)
    assert exc.report.steps == 1 and not exc.report.converged
    warnings = [r.getMessage() for r in caplog.records
                if r.name == "mhdkit.timestepping"]
    assert warnings == ["time step 1 (t = 0.05) failed with a frozen "
                        "factorisation; refactorising and retrying"]
    assert factory.needs_matrix()


def test_run_transient_logs_one_record_per_accepted_step(caplog):
    spec = make_problem("hall_island", levels=0, mesh_base=(4, 4))
    with caplog.at_level("INFO", logger="mhdkit.timestepping"):
        _, rows = run_transient(spec.model, island_initial_state(spec),
                                TimeConfig(dt=0.05, T=0.1), NonlinearConfig(),
                                FrozenJacobianFactory())
    messages = [r.getMessage() for r in caplog.records
                if r.name == "mhdkit.timestepping"]
    assert len(messages) == len(rows) - 1 == 2
    assert messages[0].startswith("t=0.050 newton=")
    assert messages[1].startswith("t=0.100 newton=")


def test_crank_nicolson_step_converges_quadratically():
    spec = make_problem("hall_island", levels=0, mesh_base=(4, 4))
    model = spec.model
    x0 = island_initial_state(spec).vector
    _, rep = step_multistep(model, "crank_nicolson", [x0], 0.05,
                            NonlinearConfig(), direct_solver_factory)
    assert rep.converged
    assert rep.steps <= 3

