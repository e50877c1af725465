"""The basis tables a FunctionSpace holds: one per quadrature degree or facet
trace, read-only, and after a model's set-up only those its residual,
Jacobian and diagnostics read."""

import inspect
import tracemalloc

import numpy as np
import pytest

from mhdkit import problems
from mhdkit.elements import FunctionSpace, transient_tables
from mhdkit.mesh import build_rect_mesh
from mhdkit.precond import BlockPrecondConfig
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


def _layouts(spaces):
    return [s.table_layout() for s in spaces]


def _held_bytes(space):
    return sum(a.nbytes for entry in space._tables.values() for a in entry
               if a is not None)


def test_held_tables_are_read_only():
    rt = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 2, 2), "RT", 2)
    for a in rt.basis_at_quadrature(4, grad=True):
        with pytest.raises(ValueError):
            a[...] = 0.0
    vals, _ = rt.trace_table("key", np.arange(2), np.zeros((2, 3, 2)))
    with pytest.raises(ValueError):
        vals[0] = 1.0


def test_one_table_per_degree(tabulations):
    # gradients join the values already held: one entry per degree, and
    # values asked for after gradients cost nothing
    cg = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 2, 2), "CG", 2)
    _, _, vals, none = cg.basis_at_quadrature(6)
    assert none is None and cg.table_layout() == {6: False}
    _, _, vals_g, grads = cg.basis_at_quadrature(6, grad=True)
    assert vals_g is vals and grads is not None
    assert cg.table_layout() == {6: True}
    cg.basis_at_quadrature(6)
    cg.basis_at_quadrature(6, grad=True)
    assert len(tabulations) == 2


def test_transient_tables_drop_what_the_body_adds():
    cg = FunctionSpace(build_rect_mesh((0, 1, 0, 1), 2, 2), "CG", 2)
    cg.basis_at_quadrature(6)
    with transient_tables(cg):
        cg.basis_at_quadrature(6, grad=True)
        cg.basis_at_quadrature(4)
        cg.trace_table("key", np.arange(2), np.zeros((2, 3, 2)))
    assert cg.table_layout() == {6: False}


def _hartmann():
    spec = problems.make_problem("hartmann", levels=1, mesh_base=(4, 4))
    return spec, spec.make_precond(BlockPrecondConfig())


def _tabulation_lines():
    """(first, last) source line of the two functions whose arrays a held
    table keeps: tabulate_cells (values, gradients) and cell_quadrature
    (points, weights)."""
    out = []
    for fn in (FunctionSpace.tabulate_cells, FunctionSpace.cell_quadrature):
        lines, first = inspect.getsourcelines(fn)
        out.append((first, first + len(lines) - 1))
    return out


def test_hartmann_setup_keeps_only_the_solve_tables():
    tracemalloc.start()
    try:
        spec, pc = _hartmann()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    model = spec.model
    spaces = _distinct(list(model.spaces.values())
                       + [s for ctx in (pc.vel_ctx, pc.em_ctx)
                          for level in ctx.spaces for s in level])
    assert [model.spaces[n].table_layout() for n in model.fields] == [
        {6: True, (6, "int", 0): False, (6, "int", 1): False,
         (6, "bdy", ("bottom", "left", "right", "top")): False},
        {}, {6: False}, {6: True}]
    held = sum(_held_bytes(s) for s in spaces)
    # 2,506,752 bytes on the 8x8 mesh; the tables of set-up (forcing at
    # degree 10, the constants' gradients, the pressure's values and the
    # facet gradients) would more than double it
    assert held <= 2.6e6
    # the memory that tabulation keeps alive is the held tables: no table
    # outlives set-up elsewhere
    filename = inspect.getsourcefile(FunctionSpace)
    # numpy traces array data in its own domain
    data = snapshot.filter_traces([tracemalloc.DomainFilter(True, 389047)])
    kept = sum(stat.size for stat in data.statistics("lineno")
               if stat.traceback[0].filename == filename
               and any(a <= stat.traceback[0].lineno <= b
                       for a, b in _tabulation_lines()))
    assert kept == held


@pytest.mark.parametrize("name, variant", [
    ("hartmann", "hdiv"), ("island_coalescence", "hdiv"),
    ("hall_island", "hdiv"), ("hall_ldc", "taylor_hood"),
    ("rayleigh_benard", "hdiv"), ("rayleigh_benard", "taylor_hood")])
def test_solve_phase_builds_no_table(tabulations, name, variant):
    # the residual, both Jacobians, a transient Jacobian and the
    # diagnostics read only the tables set-up kept
    spec = problems.make_problem(name, levels=0, mesh_base=(4, 4),
                                 velocity_variant=variant)
    model = spec.model
    spaces = _distinct(model.spaces.values())
    layouts = _layouts(spaces)
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
    assert _layouts(spaces) == layouts


def test_hartmann_solve_and_preconditioner_build_no_table(tabulations):
    spec, pc = _hartmann()
    model = spec.model
    x = model.initial_state().vector
    del tabulations[:]
    A, parts = model.jacobian(x)
    pc.build(A, parts).apply(model.residual(x))
    model.div_norms(x)
    assert tabulations == []


def test_continuation_keeps_the_solve_tables():
    spec, _ = _hartmann()
    model = spec.model
    layouts = _layouts(model.spaces.values())
    model.params.Re = 2.0
    model.params_changed()
    assert _layouts(model.spaces.values()) == layouts


def test_identical_spaces_are_built_once():
    spec = problems.make_problem("hall_island", levels=1, mesh_base=(4, 4))
    model = spec.model
    s = model.spaces
    assert s["u3"] is s["E3"] is s["B3"] is s["j3"]
    assert s["Et"] is s["jt"]
    layouts = _layouts(_distinct(s.values()))
    probe = ReconnectionProbe(model, "Bt")
    assert probe.cg2 is s["u3"]
    pc = spec.make_precond()
    assert pc.flow_ctx.fine_spaces == (s["ut"], s["u3"])
    # the probe's and the preconditioner's set-up keep no table
    assert _layouts(_distinct(s.values())) == layouts
    spec, pc = _hartmann()
    s = spec.model.spaces
    assert pc.vel_ctx.fine_spaces == (s["u"],)
    assert pc.em_ctx.fine_spaces == (s["E"], s["B"])


def test_stabilisation_built_on_first_use_keeps_no_table():
    spec = problems.make_problem("hartmann", levels=0, mesh_base=(4, 4))
    model = spec.model
    layouts = _layouts(model.spaces.values())
    model.params.stab_mu = 1e-3
    model.jacobian(model.initial_state().vector)
    assert "stab_mu" in model._constants
    assert _layouts(model.spaces.values()) == layouts
