"""The basis tables: one shared, read-only reference table per element and
rule, and no table with a cell-by-point axis held by any FunctionSpace,
after set-up or after a solve."""

import numpy as np
import pytest

from mhdkit import problems
from mhdkit.elements import FunctionSpace, reference_table
from mhdkit.mesh import build_rect_mesh
from mhdkit.nonlinear import NonlinearConfig, solve_nonlinear
from mhdkit.precond import KrylovSolverFactory
from mhdkit.timestepping import ReconnectionProbe


@pytest.fixture
def tabulations(monkeypatch):
    """Counts FunctionSpace.tabulate_cells calls."""
    calls = []
    tabulate = FunctionSpace.tabulate_cells

    def counted(self, *args, **kwargs):
        calls.append(self)
        return tabulate(self, *args, **kwargs)

    monkeypatch.setattr(FunctionSpace, "tabulate_cells", counted)
    return calls


def _distinct(spaces):
    out = []
    for s in spaces:
        if not any(s is t for t in out):
            out.append(s)
    return out


def _held(space):
    """The arrays a space holds, each by the buffer that owns its memory
    (views and broadcasts count once, at their base's size)."""
    bases = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            bases[id(x)] = x
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    for v in vars(space).values():
        walk(v)
    return list(bases.values())


def _byte_bound(space):
    """8 * nc * (nloc * (nloc + 1) + 40) bytes: the dof map, the per-cell
    coefficients and 40 floats of cell geometry per cell.  A table of the
    basis at one cell quadrature (16 points at degree 6) would exceed it."""
    nloc = space.element.nloc
    return 8 * space.mesh.num_cells * (nloc * (nloc + 1) + 40)


def _check_no_point_tables(spaces):
    for s in spaces:
        nc, nloc = s.mesh.num_cells, s.element.nloc
        for a in _held(s):
            # per-cell arrays run over coordinates (2), local edges (3) or
            # local dofs, never over quadrature points
            if a.ndim >= 2 and a.shape[0] == nc:
                assert a.shape[1] in (2, 3, nloc), a.shape
        assert sum(a.nbytes for a in _held(s)) <= _byte_bound(s)


def _hartmann():
    spec = problems.make_problem("hartmann", levels=1, mesh_base=(4, 4))
    return spec, spec.make_precond()


def _all_spaces(spec, pc):
    return _distinct(list(spec.model.spaces.values())
                     + [s for ctx in (pc.flow_ctx, pc.em_ctx)
                        for level in ctx.spaces for s in level])


def test_held_tables_are_read_only():
    # the reference tables are shared by every space of an element, and
    # so are the coefficients of a nodal space
    for facet in (False, True):
        for a in reference_table("RT", 2, 4, facet):
            with pytest.raises(ValueError):
                a[...] = 0.0
    cg = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 2, 2), "CG", 2)
    with pytest.raises(ValueError):
        cg.coeff[0, 0, 0] = 1.0


def test_one_table_per_degree():
    # one table per (element, rule), whatever the mesh
    spaces = [FunctionSpace(build_rect_mesh((0, 1, 0, 1), n, n), "BDM", 2)
              for n in (2, 3)]
    first, second = (s.reference_table(6) for s in spaces)
    assert all(a is b for a, b in zip(first, second))
    assert spaces[0].reference_table(6, facet=True)[0].shape[0] == 6
    assert spaces[0].reference_table(4)[0] is not first[0]


def test_hartmann_setup_keeps_only_the_solve_tables():
    # the solve reads the shared reference tables: after set-up and after
    # a Newton solve no space holds a table over quadrature points
    spec, pc = _hartmann()
    spaces = _all_spaces(spec, pc)
    _check_no_point_tables(spaces)
    # 492,936 bytes on the 8x8 mesh, where per-cell solve tables held
    # 2,506,752
    assert sum(a.nbytes for s in spaces for a in _held(s)) <= 0.6e6
    model = spec.model
    factory = KrylovSolverFactory(pc)
    state, report = solve_nonlinear(model, model.initial_state(),
                                    NonlinearConfig(), factory)
    assert report.converged
    model.div_norms(state.vector)
    _check_no_point_tables(spaces)


@pytest.mark.parametrize("name", [
    "hartmann", "island_coalescence", "hall_island", "hall_ldc",
    "rayleigh_benard"], ids=lambda name: f"{name}-hdiv")
def test_solve_phase_builds_no_table(tabulations, name):
    # the residual, both Jacobians, a transient Jacobian and the
    # diagnostics read the shared tables: no basis is tabulated
    spec = problems.make_problem(name, levels=0, mesh_base=(4, 4))
    model = spec.model
    spaces = _distinct(model.spaces.values())
    held = [len(_held(s)) for s in spaces]
    rng = np.random.default_rng(5)
    x = model.initial_state().vector + 0.1 * rng.standard_normal(
        model.state_template.total)
    del tabulations[:]
    model.residual(x)
    for lin in ("newton", "picard"):
        model.jacobian(x, lin)
    model.jacobian(x, mass_coeff=2.0, steady_coeff=0.5)
    model.div_norms(x)
    assert tabulations == []
    assert [len(_held(s)) for s in spaces] == held
    _check_no_point_tables(spaces)


def test_hartmann_solve_and_preconditioner_build_no_table(tabulations):
    spec, pc = _hartmann()
    model = spec.model
    x = model.initial_state().vector
    del tabulations[:]
    pc.build(model.jacobian(x)).apply(model.residual(x))
    model.div_norms(x)
    assert tabulations == []


def test_continuation_keeps_the_solve_tables(tabulations):
    # continuation re-assembles the forcing and the boundary terms from
    # the shared tables, and leaves the spaces as set-up left them
    spec, _ = _hartmann()
    model = spec.model
    spaces = _distinct(model.spaces.values())
    held = [sorted(a.nbytes for a in _held(s)) for s in spaces]
    del tabulations[:]
    model.params.Re = 2.0
    model.params_changed()
    assert tabulations == []
    assert [sorted(a.nbytes for a in _held(s)) for s in spaces] == held
    _check_no_point_tables(spaces)


def test_identical_spaces_are_built_once():
    spec = problems.make_problem("hall_island", levels=1, mesh_base=(4, 4))
    model = spec.model
    s = model.spaces
    assert s["u3"] is s["E3"] is s["B3"] is s["j3"]
    assert s["Et"] is s["jt"]
    probe = ReconnectionProbe(model, "Bt")
    assert probe.cg2 is s["u3"]
    pc = spec.make_precond()
    assert pc.flow_ctx.fine_spaces == (s["ut"], s["u3"])
    spec, pc = _hartmann()
    s = spec.model.spaces
    assert pc.flow_ctx.fine_spaces == (s["u"],)
    assert pc.em_ctx.fine_spaces == (s["E"], s["B"])


def test_stabilisation_built_on_first_use_keeps_no_table():
    spec = problems.make_problem("hartmann", levels=0, mesh_base=(4, 4))
    model = spec.model
    spaces = _distinct(model.spaces.values())
    held = [len(_held(s)) for s in spaces]
    model.params.stab_mu = 1e-3
    model.jacobian(model.initial_state().vector)
    assert "stab_mu" in model._constants
    assert [len(_held(s)) for s in spaces] == held


def test_setup_memory_tool_reports_every_space(capsys):
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parents[1] / "tools" / "setup_memory.py"
    spec = importlib.util.spec_from_file_location("setup_memory", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["hartmann", "--base", "2", "2", "--levels", "1"]) == 0
    out = capsys.readouterr().out
    assert "after model set-up" in out and "after preconditioner set-up" in out
    # the model's four spaces and the coarse level's three
    assert out.count(" holds ") == 7
