import importlib.util
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg as sla

from mhdkit import bifurcation, linalg
from mhdkit.bifurcation import (SweepConfig, conduction_state_vector,
                                critical_parameter, deflated_continuation,
                                stability_eigs)
from mhdkit.problems import make_problem


@pytest.fixture(scope="module")
def rb():
    """The 4x4 Rayleigh-Benard model (1,191 free dofs) and its conduction
    state."""
    model = make_problem("rayleigh_benard", mesh_base=(4, 4)).model
    return model, conduction_state_vector(model).vector


def _dense_shift_invert(A, M):
    """Every finite eigenvalue of A x = lambda M x as 1/theta, theta the
    nonzero eigenvalues of A^{-1} M (QZ on the pencil is inaccurate with the
    singular M)."""
    theta = sla.eigvals(np.linalg.solve(A.toarray(), M.toarray()))
    theta = theta[np.abs(theta) > 1e-12 * np.abs(theta).max()]
    return 1.0 / theta


def _dense_critical(A, M, free, count=2):
    """The `count` smallest positive real critical values of the free-dof
    pencil (A, M), densely."""
    lam = _dense_shift_invert(A[free][:, free], M[free][:, free])
    real = lam[np.abs(lam.imag) <= 1e-6 * np.maximum(np.abs(lam.real), 1.0)]
    return np.sort(real.real[real.real > 0])[:count]


# The eigen-solves run on the Jacobian without the grad-div term, which
# leaves every eigenpair in place (see `stability_eigs`); the dense
# references are built on the same operators, so ARPACK's values are held
# to 1e-10, which the ill-conditioned gamma = 1e4 operators do not meet.
def test_stability_eigs_keeps_a_double_eigenvalue(rb):
    model, state = rb
    lam, vecs, free = stability_eigs(model, state, k=4)
    assert lam.shape == (4,) and vecs.shape == (len(free), 4)
    assert np.all(np.diff(lam.real) <= 0)
    A = model.jacobian(state, "newton", drop_graddiv=True)
    Af = -A[free][:, free]
    Mf = model.mass_matrix()[free][:, free]
    ref = _dense_shift_invert(Af, Mf)
    ref = ref[np.argsort(np.abs(ref))][:4]
    ref = ref[np.argsort(-ref.real)]
    # the leading eigenvalue of the conduction state is double
    assert abs(ref[0] - ref[1]) <= 1e-9 * abs(ref[0])
    assert np.allclose(lam, ref, rtol=1e-10, atol=0.0)


def test_critical_rayleigh_matches_dense_shift_invert(rb):
    model, state = rb
    vals, modes, free = critical_parameter(model, "Ra_c", count=2)
    assert free.size == 1191 and len(modes) == 2
    A0 = model.jacobian(state, "newton", drop_buoyancy=True,
                        drop_graddiv=True)
    M = model.params.Pr * model.constant_matrix("buoyancy")
    ref = _dense_critical(A0, M, free)
    assert np.allclose(vals, ref, rtol=1e-10, atol=0.0)


def test_dense_critical_rayleigh_does_not_depend_on_gamma(rb):
    # the grad-div term vanishes on the eigenvectors, so dropping it from
    # the eigen-solves moves no critical value
    model, state = rb
    free = bifurcation._free_indices(model)
    M = model.params.Pr * model.constant_matrix("buoyancy")
    refs = [_dense_critical(model.jacobian(state, "newton", drop_buoyancy=True,
                                           drop_graddiv=drop), M, free)
            for drop in (False, True)]
    assert np.allclose(refs[0], refs[1], rtol=1e-9, atol=0.0)


def test_critical_coupling_matches_dense_shift_invert(rb, monkeypatch):
    # above Ra_c the conduction state regains stability at a positive S; at
    # the default Ra = 1000 every critical S is negative
    model = rb[0]
    monkeypatch.setattr(model.params, "Ra", 1e4)
    state = conduction_state_vector(model).vector
    vals, modes, free = critical_parameter(model, "S_c", count=2)
    assert len(vals) == len(modes) == 2
    A0 = model.jacobian(state, "newton", drop_lorentz=True,
                        drop_graddiv=True)
    A1 = model.jacobian(state.copy(), "newton", drop_graddiv=True)
    M = -(A1 - A0) / model.params.S
    assert np.allclose(vals, _dense_critical(A0, M, free), rtol=1e-10,
                       atol=0.0)


def _eigen_calls(model, state):
    return [lambda: stability_eigs(model, state, k=4),
            lambda: critical_parameter(model, "Ra_c", count=1),
            lambda: critical_parameter(model, "S_c", count=1)]


def test_eigen_calls_keep_gamma(rb, monkeypatch):
    # the Newton solves and the preconditioners keep the grad-div term, also
    # after an eigen-solve that raises
    model, state = rb
    A = model.jacobian(state, "newton")
    for call in _eigen_calls(model, state):
        call()
        assert model.params.gamma == 1e4
    assert abs(model.jacobian(state, "newton") - A).max() == 0.0

    def fail(*args, **kwargs):
        raise RuntimeError("eigen-solve failed")

    monkeypatch.setattr(bifurcation, "shift_invert_arnoldi", fail)
    for call in _eigen_calls(model, state):
        with pytest.raises(RuntimeError, match="eigen-solve failed"):
            call()
        assert model.params.gamma == 1e4
    assert abs(model.jacobian(state, "newton") - A).max() == 0.0


class _Captured(Exception):
    pass


def test_arnoldi_count_does_not_depend_on_round_off(monkeypatch):
    # on the 12x12 mesh the grad-div operator took 33 or 34 steps as
    # round-off fell; three draws of 1e-15 relative noise on the operator
    # must take as many LU solves as the operator itself
    model = make_problem("rayleigh_benard", mesh_base=(12, 12)).model
    runs = []

    def capture(A, M, **kwargs):
        runs.append((A, M, kwargs))
        raise _Captured

    monkeypatch.setattr(bifurcation, "shift_invert_arnoldi", capture)
    with pytest.raises(_Captured):
        critical_parameter(model, "Ra_c", count=2)
    (A, M, kwargs), = runs
    arnoldi = linalg.shift_invert_arnoldi
    solves = []
    solve = linalg.LuSolver.solve

    def counted(self, b):
        solves[-1] += 1
        return solve(self, b)

    monkeypatch.setattr(linalg.LuSolver, "solve", counted)
    rng = np.random.default_rng(3)
    for draw in range(4):
        Ad = A.copy()
        if draw:
            Ad.data *= 1.0 + 1e-15 * rng.standard_normal(Ad.nnz)
        solves.append(0)
        arnoldi(Ad, M, **kwargs)
    assert solves == [solves[0]] * 4, solves


def test_eigen_accuracy_tool_on_4x4(capsys):
    path = pathlib.Path(__file__).parents[1] / "tools" / "eigen_accuracy.py"
    spec = importlib.util.spec_from_file_location("eigen_accuracy", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--base", "4", "4", "--draws", "1"]) == 0
    lines = dict(line.split(": ", 1)
                 for line in capsys.readouterr().out.splitlines())
    assert float(lines["relative error"]) <= 1e-10
    # one count for the operator and each perturbed draw
    counts = re.findall(r"\d+", lines["Arnoldi LU solves"])
    assert len(counts) == 2 and len(set(counts)) == 1
    assert int(lines["L + U nnz"]) > 0
    assert float(lines["1-norm condition (onenormest)"]) > 1.0


@pytest.mark.parametrize("count", [0, -1])
def test_critical_parameter_rejects_count_below_one(rb, count):
    with pytest.raises(ValueError, match="count"):
        critical_parameter(rb[0], "Ra_c", count=count)


def test_deflated_continuation_logs_one_record_per_branch_and_value(caplog):
    model = make_problem("rayleigh_benard", mesh_base=(4, 4)).model
    model.params.Ra = 1000.0
    sweep = SweepConfig("Ra", 1000.0, 1100.0, 100.0, max_deflated=0)
    seeds = [conduction_state_vector(model).vector]
    with caplog.at_level("INFO", logger="mhdkit.bifurcation"):
        records = deflated_continuation(model, sweep, seeds)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "mhdkit.bifurcation"]
    assert len(messages) == len(records) == 2
    assert messages[0].startswith("Ra=1000 branch 0: |u|^2=")
    assert messages[1].startswith("Ra=1100 branch 0: |u|^2=")
