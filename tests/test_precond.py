import numpy as np
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


@pytest.mark.parametrize("name, model", [
    ("hall_ldc", "HallMHD"), ("rayleigh_benard", "BoussinesqMHD")])
def test_fixed_grouping_rejects_other_elimination(name, model):
    spec = make_problem(name, levels=0, mesh_base=(4, 4))
    spec.make_precond(BlockPrecondConfig("eliminate_up"))
    with pytest.raises(ValueError, match=model):
        spec.make_precond(BlockPrecondConfig("eliminate_eb"))


def test_unknown_elimination_rejected():
    with pytest.raises(ValueError, match="eliminate_pu"):
        BlockPrecondConfig("eliminate_pu")


def test_lorentz_alpha_uses_the_effective_step():
    # a Crank-Nicolson Jacobian M / dt + J / 2 scales like the implicit
    # Euler one at dt / 2: alpha must see dt / 2
    spec = make_problem("hartmann", levels=0, mesh_base=(4, 4))
    pc = spec.make_precond(BlockPrecondConfig("eliminate_eb"))
    model = spec.model
    rng = np.random.default_rng(3)
    x = model.initial_state().vector + rng.standard_normal(
        model.state_template.total)
    x[model.constrained_idx] = model.constrained_vals
    dt = 0.05
    _, cn = model.jacobian(x, mass_coeff=1.0 / dt, steady_coeff=0.5)
    _, half = model.jacobian(x, mass_coeff=2.0 / dt)
    _, full = model.jacobian(x, mass_coeff=1.0 / dt)
    assert cn["steady_coeff"] == 0.5
    assert pc.lorentz_alpha(cn) == pytest.approx(pc.lorentz_alpha(half),
                                                 rel=1e-14)
    assert pc.lorentz_alpha(cn) < pc.lorentz_alpha(full) < 1.0


def test_pressure_mass_inverse_inverts_the_mass():
    from mhdkit.assembly import cell_matrix
    from mhdkit.elements import FunctionSpace
    from mhdkit.mesh import build_rect_mesh

    p = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 4, 4, "crossed"), "DG", 1)
    prod = precond.pressure_mass_inverse(p) @ cell_matrix(p, p, qdeg=6)
    assert np.abs(prod - np.eye(p.total_dofs)).max() <= 1e-12
