import importlib.util
import pathlib

import numpy as np
import pytest

from mhdkit import precond
from mhdkit.nonlinear import (ContinuationSchedule, NonlinearConfig,
                              continue_parameters, solve_nonlinear)
from mhdkit.precond import BlockPrecondConfig, KrylovSolverFactory
from mhdkit.problems import make_problem


def test_hartmann_block_preconditioned_newton():
    # augmented-Lagrangian block preconditioner over three-level star-patch
    # multigrid (4x4, 8x8, 16x16): the Krylov counts are pinned
    spec = make_problem("hartmann", levels=2, mesh_base=(4, 4))
    factory = KrylovSolverFactory(spec.make_precond(),
                                  rtol=1e-7, atol=1e-7, maxiter=100)
    model = spec.model
    state, report = solve_nonlinear(model, model.initial_state(),
                                    NonlinearConfig(), factory)
    assert report.converged
    assert report.linear_iters == [1, 3, 3]
    assert report.cell() == "( 3) 2.3"
    assert model.div_norms(state.vector)["B"] <= 1e-10


def _krylov_factory(spec):
    return KrylovSolverFactory(spec.make_precond(),
                               rtol=1e-7, atol=1e-7, maxiter=100)


@pytest.mark.parametrize("levels, S, Re, cell", [
    (1, 1.0, 1.0, "( 3) 3.0"), (1, 1.0, 1e3, "( 5) 16.8"),
    (1, 1e3, 1.0, "( 7) 5.3"), (2, 1.0, 1e3, "( 5) 10.2")])
def test_hartmann_counts_across_the_parameters(levels, S, Re, cell):
    # ROADMAP item 1's set-up: continued toward (S, Re = Rem) from 4x4.
    # With 2 inner iterations on the fluid block these read (3) 5.3,
    # (4) 38.2, (6) 11.0 and (4) 14.2.  In the last, the undamped Newton
    # iteration of the Rem = 500 stage diverges and its line-search retry
    # converges
    spec = make_problem("hartmann", levels=levels, mesh_base=(4, 4),
                        params={"stab_mu": 1e-2})
    schedule = ContinuationSchedule.toward({"S": S, "Re": Re, "Rem": Re})
    _, report = continue_parameters(spec.model, schedule,
                                    solver_factory=_krylov_factory(spec))
    assert report.cell() == cell


@pytest.mark.parametrize("name, iters", [
    ("hall_ldc", [2, 3, 2]), ("rayleigh_benard", [2, 6, 1])])
def test_augmented_lagrangian_block_on_the_other_models(name, iters):
    # the Hall and Boussinesq preconditioners share the fluid block's
    # al_inverse; with 2 inner iterations these read [3, 4, 3] and
    # [5, 7, 1]
    spec = make_problem(name, levels=1, mesh_base=(4, 4))
    _, report = solve_nonlinear(spec.model, spec.model.initial_state(),
                                NonlinearConfig(), _krylov_factory(spec))
    assert report.converged
    assert report.linear_iters == iters


@pytest.mark.parametrize("name, markers", [
    ("hartmann", "all"), ("island_coalescence", ["top", "bottom"])])
def test_preconditioner_markers_follow_model_bcs(monkeypatch, name, markers):
    # the multigrid hierarchies constrain the dofs the model constrains
    seen = []
    monkeypatch.setattr(precond, "MgHierarchy",
                        lambda hierarchy, specs, bc_markers:
                        seen.append(bc_markers))
    make_problem(name, levels=0, mesh_base=(4, 4)).make_precond()
    assert seen == [[markers], [markers, markers]]


def test_unknown_elimination_rejected():
    # the config has no options: an elimination given to it is an error,
    # not a setting that is ignored
    with pytest.raises(TypeError):
        BlockPrecondConfig("eliminate_up")


def test_pressure_mass_inverse_inverts_the_mass():
    from mhdkit.assembly import cell_matrix
    from mhdkit.elements import FunctionSpace
    from mhdkit.mesh import build_rect_mesh

    p = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 4, 4, "crossed"), "DG", 1)
    prod = precond.pressure_mass_inverse(p) @ cell_matrix(p, p, qdeg=6)
    assert np.abs(prod - np.eye(p.total_dofs)).max() <= 1e-12


def test_stationary_counts_tool_on_2x2(monkeypatch, capsys):
    path = pathlib.Path(__file__).parents[1] / "tools" / "stationary_counts.py"
    spec = importlib.util.spec_from_file_location("stationary_counts", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # two of the four cells keep the run short; hartmann at S = 1000 does
    # not converge on this mesh, and its cell names the stage that failed
    monkeypatch.setattr(tool, "CELLS", ((1.0, 1.0), (1e3, 1.0)))
    assert tool.main(["--base", "2", "--levels", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "problem | levels | (1, 1) | (1000, 1) | wall"
    rows = [line.split(" | ") for line in out[2:]]
    assert [row[:4] for row in rows] == [
        ["hartmann", "1", "( 3) 2.7", "NF at S = 1000"],
        ["ldc2d", "1", "( 3) 1.7", "( 3) 2.3"]]
