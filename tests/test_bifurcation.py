import importlib.util
import pathlib
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from mhdkit import bifurcation, linalg
from mhdkit.bifurcation import (SweepConfig, conduction_state_vector,
                                critical_parameter, deflated_continuation,
                                stability_eigs)
from mhdkit.models.boussinesq import BoussinesqMHD
from mhdkit.problems import make_problem


@pytest.fixture(scope="module")
def rb():
    """The 4x4 Rayleigh-Benard model (1,191 free dofs) and its conduction
    state."""
    model = make_problem("rayleigh_benard", mesh_base=(4, 4)).model
    return model, conduction_state_vector(model).vector


@pytest.fixture(scope="module")
def rb12():
    """The 12x12 Rayleigh-Benard model (11,063 free dofs), the benchmark's
    eigen-solve size."""
    return make_problem("rayleigh_benard", mesh_base=(12, 12)).model


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


def _captured_arnoldi(monkeypatch, operator=None):
    """Route `critical_parameter`'s eigen-solve through a recorder: it
    notes each operator and the LU solves of the run, and solves with
    `operator` in place of the given one when that is set."""
    arnoldi, solve = linalg.shift_invert_arnoldi, linalg.LuSolver.solve
    runs = []

    def recorded(A, M, **kwargs):
        runs.append({"A": A, "solves": 0})
        return arnoldi(A if operator is None else operator, M, **kwargs)

    def counted(self, b):
        runs[-1]["solves"] += 1
        return solve(self, b)

    monkeypatch.setattr(bifurcation, "shift_invert_arnoldi", recorded)
    monkeypatch.setattr(linalg.LuSolver, "solve", counted)
    return runs


def test_rayleigh_operator_drops_the_lorentz_block_of_a_zero_field(
        rb, monkeypatch):
    # the (u, E) block multiplies E, which every solve sets to zero: the
    # operator handed to the eigen-solve has no entry there, and the modes
    # carry no E
    model, state = rb
    runs = _captured_arnoldi(monkeypatch)
    vals, modes, free = critical_parameter(model, "Ra_c", count=2)
    (run,) = runs
    u = bifurcation._field_mask(model, free, "u")
    E = bifurcation._field_mask(model, free, "E")
    assert run["A"][u][:, E].count_nonzero() == 0
    coupled = bifurcation._free_operator(model, state, free,
                                         drop_buoyancy=True)
    assert coupled[u][:, E].count_nonzero() > 0
    assert len(modes) == 2
    for mode in modes:
        assert np.linalg.norm(mode[E]) <= 1e-12 * np.linalg.norm(mode)


def test_split_rayleigh_operator_matches_the_coupled_one(rb12, monkeypatch):
    # at the benchmark's size the split operator solves the coupled one's
    # systems: the same values in as many Arnoldi steps
    model = rb12
    free = bifurcation._free_indices(model)
    coupled = bifurcation._free_operator(
        model, conduction_state_vector(model).vector, free,
        drop_buoyancy=True)
    results = []
    for operator in (None, coupled):
        with monkeypatch.context() as mp:
            runs = _captured_arnoldi(mp, operator)
            vals, _, _ = critical_parameter(model, "Ra_c", count=2)
        results.append((vals, runs[0]["solves"]))
    (split, split_solves), (ref, ref_solves) = results
    assert len(split) == len(ref) == 2
    assert np.allclose(split, ref, rtol=1e-9, atol=0.0)
    assert split_solves == ref_solves


# the two Ra_c of the 12x12 model with every block ordered by COLAMD
RA_C_COLAMD_12 = (2609.0337672692567, 6759.398797596882)


def test_rayleigh_blocks_with_a_zero_free_diagonal_halve_their_fill(
        rb12, monkeypatch):
    # theta and (E, B) have a zero-free diagonal and near-symmetric values
    # and are factorised in symmetric mode; the saddle (u, p) block keeps
    # COLAMD and its fill
    runs = _captured_arnoldi(monkeypatch)
    vals, _, _ = critical_parameter(rb12, "Ra_c", count=2)
    assert np.allclose(vals, RA_C_COLAMD_12, rtol=1e-9, atol=0.0)
    A = sp.csc_matrix(runs[0]["A"])
    A.eliminate_zeros()
    lu = linalg.LuSolver(A)
    assert lu.orderings == ["COLAMD", "MMD_AT_PLUS_A", "MMD_AT_PLUS_A"]
    nnz = [block_lu.nnz for _, _, block_lu, _ in lu._blocks]
    assert nnz[0] == 2133435
    _, blocks = linalg._diagonal_blocks(A)
    colamd = [spla.splu(D).nnz for _, _, D, _ in blocks[1:]]
    assert all(2 * n <= c for n, c in zip(nnz[1:], colamd))


def _rb_variant(model, **bcs):
    return BoussinesqMHD(model.mesh, model.params, bcs={**model.bcs, **bcs})


def test_critical_rayleigh_rejects_a_partial_electric_constraint(rb):
    # with E free on some facets vcurl E is no B test function, so E = 0
    # does not follow
    model = _rb_variant(rb[0], E=(["top", "bottom"], None))
    with pytest.raises(ValueError, match="E constrained on the whole "
                                         "boundary"):
        critical_parameter(model, "Ra_c", count=1)


def test_critical_rayleigh_rejects_a_moving_conduction_state(rb):
    def sliding(x, y):
        return np.stack([np.ones_like(x), np.zeros_like(y)], axis=-1)

    model = _rb_variant(rb[0], u=("all", sliding))
    with pytest.raises(ValueError, match="u = E = 0"):
        critical_parameter(model, "Ra_c", count=1)


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


def test_arnoldi_count_does_not_depend_on_round_off(rb12, monkeypatch):
    # on the 12x12 mesh the grad-div operator took 33 or 34 steps as
    # round-off fell; three draws of 1e-15 relative noise on the operator
    # must take as many LU solves as the operator itself
    model = rb12
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
    # the dense reference is the coupled operator's
    assert float(lines["relative error"]) <= 1e-10
    # one count for the operator and each perturbed draw
    counts = re.findall(r"\d+", lines["Arnoldi LU solves"])
    assert len(counts) == 2 and len(set(counts)) == 1
    blocks = [re.fullmatch(r"(\d+) dofs, (\w+), L \+ U nnz (\d+), 1-norm "
                           r"condition \(onenormest\) (\S+)",
                           lines[f"block {k}"]) for k in range(3)]
    assert [int(b[1]) for b in blocks] == [647, 127, 417]
    # the saddle (u, p) block keeps COLAMD; theta and (E, B) have a
    # zero-free diagonal and near-symmetric values
    assert [b[2] for b in blocks] == ["COLAMD", "MMD_AT_PLUS_A",
                                      "MMD_AT_PLUS_A"]
    assert all(int(b[3]) > 0 and float(b[4]) > 1.0 for b in blocks)
    assert "block 3" not in lines


@pytest.mark.parametrize("count", [0, -1])
def test_critical_parameter_rejects_count_below_one(rb, count):
    with pytest.raises(ValueError, match="count"):
        critical_parameter(rb[0], "Ra_c", count=count)


def test_deflated_continuation_logs_one_record_per_branch_and_value(caplog):
    spec = make_problem("rayleigh_benard", mesh_base=(4, 4))
    spec.set_params(Ra=1000.0)
    sweep = SweepConfig("Ra", 1000.0, 1100.0, 100.0, max_deflated=0)
    seeds = [conduction_state_vector(spec.model).vector]
    with caplog.at_level("INFO", logger="mhdkit.bifurcation"):
        records = deflated_continuation(spec, sweep, seeds)
    messages = [r.getMessage() for r in caplog.records
                if r.name == "mhdkit.bifurcation"]
    assert len(messages) == len(records) == 2
    assert messages[0].startswith("Ra=1000 branch 0: |u|^2=")
    assert messages[1].startswith("Ra=1100 branch 0: |u|^2=")
