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
    residual, jacobian = _transient_forms(model, scheme, 0.1, history,
                                          "newton")
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
    # not from the first run's BDF2 one, and repeats the first run.  Each
    # factorisation is of A T: its first block holds the free Bt dofs,
    # ordered by symmetric minimum degree, and the constrained dofs' unit
    # rows; the other free dofs fill less than A whole.
    spec = make_problem("hall_island", levels=0, mesh_base=(8, 8))
    model = spec.model
    n = model.state_template.total
    con = np.zeros(n, dtype=bool)
    con[model.constrained_idx] = True
    Bt = np.zeros(n, dtype=bool)
    Bt[model.state_template.field_slice("Bt")] = True
    factorised, jacobians = [], []

    class CountingLu(timestepping.LuSolver):
        def __init__(self, A):
            super().__init__(A)
            factorised.append(self)

    def product(model, A, T):
        jacobians.append(A)
        return faraday_product(model, A, T)

    faraday_product = timestepping._faraday_product
    monkeypatch.setattr(timestepping, "LuSolver", CountingLu)
    monkeypatch.setattr(timestepping, "_faraday_product", product)
    factory = FrozenJacobianFactory()
    rates = []
    for _ in range(2):
        factorised.clear()
        _, rows = run_transient(
            model, island_initial_state(spec), TimeConfig(dt=0.05, T=0.15),
            NonlinearConfig(), factory,
            observers={"rate": timestepping.ReconnectionProbe(model, "Bt")})
        assert [r["newton_its"] for r in rows[1:]] == [4, 4, 4]
        steps = [lu for lu in factorised if lu.shape[0] == n]
        assert len(steps) == 2
        for lu in steps:
            assert lu.orderings == ["MMD_AT_PLUS_A", "COLAMD"]
            (_, stop, _, _), _ = lu._blocks
            first = lu._perm[:stop]
            assert sorted(first) == sorted(np.flatnonzero(Bt | con))
        # the run's factorisation is freed when it returns
        assert factory.needs_matrix()
        rates.append([r["rate"] for r in rows])
    assert rates[0] == rates[1]
    assert len(jacobians) == 4
    for A, lu in zip(jacobians[2:], steps):
        assert lu.nnz < timestepping.LuSolver(A).nnz


def _island_run(spec, factory):
    model = spec.model
    return run_transient(
        model, island_initial_state(spec), TimeConfig(dt=0.05, T=0.15),
        NonlinearConfig(), factory,
        observers={"rate": timestepping.ReconnectionProbe(model),
                   "div_B": lambda v: model.div_norms(v)["B"]})[1]


def test_island_coalescence_run_matches_the_whole_matrix_lu(monkeypatch):
    # the Standard model on the frozen path: the B block is factorised
    # apart, and the run is the one that factorises each Jacobian whole
    spec = make_problem("island_coalescence", levels=0, mesh_base=(4, 4))
    model = spec.model
    n = model.state_template.total
    blocks = []

    class CountingLu(timestepping.LuSolver):
        def __init__(self, A):
            super().__init__(A)
            if A.shape[0] == n:
                blocks.append(len(self.orderings))

    monkeypatch.setattr(timestepping, "LuSolver", CountingLu)
    split = _island_run(spec, FrozenJacobianFactory())
    assert blocks == [2, 2]
    blocks.clear()
    monkeypatch.setattr(model, "faraday_map", lambda a, theta: None)
    whole = _island_run(spec, FrozenJacobianFactory())
    assert blocks == [1, 1]
    assert ([r.get("newton_its") for r in split]
            == [r.get("newton_its") for r in whole])
    for key in ("rate", "div_B"):
        a, b = (np.array([r[key] for r in rows]) for rows in (split, whole))
        assert np.abs(a - b).max() <= 1e-9 * np.abs(b).max()


def test_a_jacobian_off_the_faraday_map_is_not_factorised():
    # a (B, E) block that the map does not cancel raises, naming the model
    model = _standard(build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 2, 2))
    x = _random_state(model, np.random.default_rng(2))
    factory = FrozenJacobianFactory()
    factory.set_faraday_map(model, model.faraday_map(20.0, 1.0))
    with pytest.raises(ValueError, match=r"^StandardMHD: .* \(B, E\) block"):
        factory(model.jacobian(x, mass_coeff=20.0, steady_coeff=0.5), None)


def _factorisations(monkeypatch, steps, calls):
    """The (step, call) pairs, both from 1, at which one frozen factory
    factorises over `steps` time steps of `calls` Newton calls each."""
    import scipy.sparse as sp
    lus = []
    monkeypatch.setattr(timestepping, "LuSolver", lus.append)
    A = sp.csr_matrix(np.diag([2.0, 3.0, 4.0]))
    factory = FrozenJacobianFactory()
    made = []
    for step in range(1, steps + 1):
        factory.new_step()
        for call in range(1, calls + 1):
            before = len(lus)
            factory(A, None)
            if len(lus) > before:
                made.append((step, call))
    return made


def test_frozen_factory_refreshes_every_twenty_steps(monkeypatch):
    made = _factorisations(monkeypatch, steps=43, calls=1)
    assert made == [(1, 1), (21, 1), (41, 1)]


def test_frozen_factory_refreshes_every_six_newton_calls(monkeypatch):
    made = _factorisations(monkeypatch, steps=1, calls=19)
    assert made == [(1, 1), (1, 7), (1, 13), (1, 19)]


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



def test_picard_step_assembles_the_picard_jacobian():
    # the linearisation of the NonlinearConfig reaches the step Jacobian
    model = _hall(build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 2, 2))
    x0 = _random_state(model, np.random.default_rng(5))
    seen = []

    def record(A, parts):
        seen.append(A)
        raise _Stop

    with pytest.raises(_Stop):
        step_multistep(model, "crank_nicolson", [x0], 0.1,
                       NonlinearConfig(linearisation="picard"), record)
    picard, newton = (model.jacobian(x0, lin, mass_coeff=10.0,
                                     steady_coeff=0.5)
                      for lin in ("picard", "newton"))
    [A] = seen
    assert abs(A - picard).max() == 0.0
    assert abs(A - newton).max() > 0.0


class _Stop(Exception):
    pass
