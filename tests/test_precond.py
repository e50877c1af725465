import importlib.util
import pathlib

import numpy as np
import pytest

from mhdkit import precond
from mhdkit.nonlinear import (ContinuationSchedule, NonlinearConfig,
                              continue_parameters, solve_nonlinear)
from mhdkit.precond import (BlockPrecondConfig, KrylovSolverFactory,
                            field_indices)
from mhdkit.problems import make_problem


def test_hartmann_block_preconditioned_newton():
    # augmented-Lagrangian block preconditioner over three-level star-patch
    # multigrid (4x4, 8x8, 16x16): the Krylov counts are pinned
    spec = make_problem("hartmann", levels=2, mesh_base=(4, 4))
    factory = KrylovSolverFactory(spec.make_precond())
    model = spec.model
    state, report = solve_nonlinear(model, model.initial_state(),
                                    NonlinearConfig(), factory)
    assert report.converged
    assert report.linear_iters == [1, 3, 3]
    assert report.cell() == "( 3) 2.3"
    assert model.div_norms(state.vector)["B"] <= 1e-10


def _krylov_factory(spec):
    return KrylovSolverFactory(spec.make_precond())


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
    _, report = continue_parameters(spec, schedule,
                                    solver_factory=_krylov_factory(spec))
    assert report.cell() == cell


def test_unconverged_fgmres_ends_the_newton_attempt():
    # island_coalescence at its defaults (Re = Rem = S = 1e3) from 4x4:
    # eight of step 1's FGMRES cycles end on an Arnoldi estimate that meets
    # the tolerance 1e-7 while the true residual is 3-50x above it, and the
    # ninth spends the rest of the 100 iterations, which ends the attempt
    spec = make_problem("island_coalescence", levels=1, mesh_base=(4, 4))
    _, report = solve_nonlinear(spec.model, spec.model.initial_state(),
                                NonlinearConfig(), _krylov_factory(spec))
    assert not report.converged
    assert report.linear_iters == [100]
    assert report.reason.startswith(
        "Newton step 1: FGMRES did not converge in 100 iterations")


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


# the (flow | electromagnetic) field groups of each model
GROUPS = {"hartmann": (("u",), ("E", "B")),
          "island_coalescence": (("u",), ("E", "B")),
          "rayleigh_benard": (("u", "theta"), ("E", "B")),
          "hall_ldc": (("ut", "u3"), ("Et", "E3", "Bt", "B3", "jt", "j3"))}


@pytest.mark.parametrize("name, markers", [
    ("hartmann", "all"), ("island_coalescence", ["top", "bottom"]),
    ("hall_ldc", "all"), ("rayleigh_benard", "all")])
def test_preconditioner_markers_follow_model_bcs(monkeypatch, name, markers):
    # the multigrid hierarchies constrain the dofs the model constrains:
    # one over the flow fields, then one over the electromagnetic fields,
    # which Hall factorises instead.  Rayleigh-Benard holds theta on its
    # heated and cooled walls only
    seen = []
    monkeypatch.setattr(precond, "MgHierarchy",
                        lambda hierarchy, specs, bc_markers:
                        seen.append((specs, bc_markers)))
    spec = make_problem(name, levels=0, mesh_base=(4, 4))
    spec.make_precond()
    flow, em = GROUPS[name]
    groups = [flow] if name == "hall_ldc" else [flow, em]
    s = spec.model.spaces
    assert seen == [([s[f] for f in g],
                     [["top", "bottom"] if f == "theta" else markers
                      for f in g]) for g in groups]


@pytest.mark.parametrize("name", ["hartmann", "rayleigh_benard", "hall_ldc"])
def test_field_split_partitions_the_state(name):
    # the flow group is FLOW and p, the electromagnetic group the model's
    # other fields in state order; together they cover every dof once
    spec = make_problem(name, levels=0, mesh_base=(4, 4))
    pc = spec.make_precond()
    st = spec.model.state_template
    flow, em = GROUPS[name]
    assert pc.FLOW == flow
    assert em == tuple(f for f in spec.model.fields if f not in flow + ("p",))
    assert np.array_equal(pc.top_idx, field_indices(st, flow + ("p",)))
    assert np.array_equal(pc.eb_idx, field_indices(st, em))
    assert np.array_equal(np.sort(np.concatenate([pc.top_idx, pc.eb_idx])),
                          np.arange(st.total))
    assert (pc.em_ctx is None) == (name == "hall_ldc")


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
    # and why its line-search retry stopped
    monkeypatch.setattr(tool, "CELLS", ((1.0, 1.0), (1e3, 1.0)))
    assert tool.main(["--base", "2", "--levels", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "problem | levels | (1, 1) | (1000, 1) | wall"
    rows = [line.split(" | ") for line in out[2:]]
    assert [row[:4] for row in rows] == [
        ["hartmann", "1", "( 3) 2.7", "NF at S = 1000 (Newton step 5: "
         "stalled, 5 steps without halving the residual)"],
        ["ldc2d", "1", "( 3) 1.7", "( 3) 2.3"]]
