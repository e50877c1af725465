import pytest

from mhdkit import precond
from mhdkit.nonlinear import NonlinearConfig, solve_nonlinear
from mhdkit.precond import BlockPrecondConfig, KrylovSolverFactory
from mhdkit.problems import make_problem


def test_hartmann_block_preconditioned_newton():
    # augmented-Lagrangian block preconditioner over three-level star-patch
    # multigrid (4x4, 8x8, 16x16): the Krylov counts are pinned
    spec = make_problem("hartmann", levels=2, mesh_base=(4, 4))
    factory = KrylovSolverFactory(spec.make_precond(BlockPrecondConfig()),
                                  rtol=1e-7, atol=1e-7, maxiter=100)
    model = spec.model
    state, report = solve_nonlinear(model, model.initial_state(),
                                    NonlinearConfig(), factory)
    assert report.converged
    assert report.linear_iters == [3, 5, 6]
    assert report.cell() == "( 3) 4.7"
    assert model.div_norms(state.vector)["B"] <= 1e-10


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
