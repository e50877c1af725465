import numpy as np
import pytest
import scipy.linalg as sla

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


def test_stability_eigs_keeps_a_double_eigenvalue(rb):
    model, state = rb
    lam, vecs, free = stability_eigs(model, state, k=4)
    assert lam.shape == (4,) and vecs.shape == (len(free), 4)
    assert np.all(np.diff(lam.real) <= 0)
    A, _ = model.jacobian(state, "newton")
    Af = -A[free][:, free]
    Mf = model.mass_matrix()[free][:, free]
    ref = _dense_shift_invert(Af, Mf)
    ref = ref[np.argsort(np.abs(ref))][:4]
    ref = ref[np.argsort(-ref.real)]
    # the leading eigenvalue of the conduction state is double
    assert abs(ref[0] - ref[1]) <= 1e-9 * abs(ref[0])
    assert np.allclose(lam, ref, rtol=1e-7, atol=0.0)


def test_critical_rayleigh_matches_dense_shift_invert(rb):
    model, state = rb
    vals, modes, free = critical_parameter(model, "Ra_c", count=2)
    assert free.size == 1191 and len(modes) == 2
    A0, _ = model.jacobian(state, "newton", drop_buoyancy=True)
    M = model.params.Pr * model.constant_matrix("buoyancy")
    lam = _dense_shift_invert(A0[free][:, free], M[free][:, free])
    real = lam[np.abs(lam.imag) <= 1e-6 * np.maximum(np.abs(lam.real), 1.0)]
    ref = np.sort(real.real[real.real > 0])[:2]
    assert np.allclose(vals, ref, rtol=1e-7, atol=0.0)


def test_critical_coupling_matches_dense_shift_invert(rb, monkeypatch):
    # above Ra_c the conduction state regains stability at a positive S; at
    # the default Ra = 1000 every critical S is negative
    model = rb[0]
    monkeypatch.setattr(model.params, "Ra", 1e4)
    state = conduction_state_vector(model).vector
    vals, modes, free = critical_parameter(model, "S_c", count=2)
    assert len(vals) == len(modes) == 2
    A0, _ = model.jacobian(state, "newton", drop_lorentz=True)
    A1, _ = model.jacobian(state.copy(), "newton")
    M = -(A1 - A0) / model.params.S
    lam = _dense_shift_invert(A0[free][:, free], M[free][:, free])
    real = lam[np.abs(lam.imag) <= 1e-6 * np.maximum(np.abs(lam.real), 1.0)]
    ref = np.sort(real.real[real.real > 0])[:2]
    assert np.allclose(vals, ref, rtol=1e-7, atol=0.0)


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
