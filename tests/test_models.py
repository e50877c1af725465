import numpy as np
import pytest
import scipy.sparse as sp

from mhdkit.mesh import build_rect_mesh
from mhdkit.elements import interpolate, l2_project
from mhdkit.assembly import cell_matrix, cell_vector, facet_data
from mhdkit.models.base import QDEG, ModelParams
from mhdkit.models.standard import StandardMHD
from mhdkit.models.boussinesq import BoussinesqMHD
from mhdkit.models.hall import HallMHD, compatible_hall_bcs
from mhdkit import problems
from mhdkit.models import analytic
from mhdkit.nonlinear import NonlinearConfig, solve_nonlinear
from mhdkit.quadrature import gauss_interval

from facet_matrices import sipg_viscous


def _fd_check(model, state, lin="newton", n_cols=30, seed=0, tol=1e-5,
              mass_coeff=0.0, steady_coeff=1.0):
    """Columns of jacobian(v, mass_coeff=c, steady_coeff=s) against central
    differences of s residual(v) + c apply_mass(v), constrained rows zeroed
    (the transient forms of the time steppers)."""
    rng = np.random.default_rng(seed)
    free = np.setdiff1d(np.arange(state.total), model.constrained_idx)
    state.vector[free] += 0.3 * rng.standard_normal(len(free))
    A = model.jacobian(state.vector, lin, mass_coeff=mass_coeff,
                       steady_coeff=steady_coeff)

    def form(v):
        r = (steady_coeff * model.residual(v, constrain=False)
             + mass_coeff * model.apply_mass(v))
        r[model.constrained_idx] = 0.0
        return r

    h = 1e-6
    worst = 0.0
    for c in rng.choice(free, size=min(n_cols, len(free)), replace=False):
        vp = state.vector.copy()
        vm = state.vector.copy()
        vp[c] += h
        vm[c] -= h
        fd = (form(vp) - form(vm)) / (2 * h)
        col = np.asarray(A[:, c].todense()).ravel()
        worst = max(worst, np.abs(col - fd).max()
                    / max(np.abs(fd).max(), 1.0))
    assert worst < tol, worst


def _mesh22():
    return build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 2, 2)


def test_standard_fd_jacobian():
    lid = lambda x, y: np.stack([np.where(np.abs(y - 0.5) < 1e-12, 1.0, 0.0),
                                 np.zeros_like(x)], axis=-1)
    model = StandardMHD(
        _mesh22(), ModelParams(Re=2.0, Rem=3.0, S=1.5, gamma=7.0,
                               stab_mu=5e-3),
        bcs={"u": ("all", lid), "E": ("all", None),
             "B": ("all", lambda x, y: np.stack([0 * x, np.ones_like(y)],
                                                axis=-1))})
    _fd_check(model, model.initial_state())


def test_standard_picard_newton_differ_by_tilde_blocks():
    model = StandardMHD(_mesh22(), ModelParams(Re=2.0, Rem=3.0, S=1.5,
                                               gamma=2.0),
                        bcs={n: ("all", None) for n in ("u", "E", "B")})
    st = model.initial_state()
    rng = np.random.default_rng(1)
    free = np.setdiff1d(np.arange(st.total), model.constrained_idx)
    st.vector[free] += rng.standard_normal(len(free))
    An = model.jacobian(st.vector, "newton")
    Ap = model.jacobian(st.vector, "picard")
    # difference lives exactly in the (u,B) and (E,B) blocks
    diff = An - Ap
    st_t = model.state_template
    sB = st_t.field_slice("B")
    col = diff.tocoo().col
    assert np.all((col >= sB.start) & (col < sB.stop))
    tu = diff[st_t.field_slice("u"), sB]
    tE = diff[st_t.field_slice("E"), sB]
    assert tu.nnz > 0 and tE.nnz > 0


def test_standard_coupling_vanishes_at_zero_fields():
    model = StandardMHD(_mesh22(), ModelParams(Re=1.0, Rem=1.0, S=4.0),
                        bcs={n: ("all", None) for n in ("u", "E", "B")})
    st = model.initial_state()
    rng = np.random.default_rng(2)
    su = model.state_template.field_slice("u")
    st.vector[su] = rng.standard_normal(su.stop - su.start)
    st.vector[model.constrained_idx] = model.constrained_vals
    A = model.jacobian(st.vector, "newton")
    model.params.S = 0.0
    A0 = model.jacobian(st.vector, "newton")
    sE = model.state_template.field_slice("E")
    # with B = 0, E = 0: the Lorentz block D (in the u-u block), J (u,E)
    # and G (E,u) all vanish
    assert abs(A[su, su] - A0[su, su]).max() == 0.0
    assert np.abs(A[su, sE]).max() < 1e-14
    assert np.abs(A[sE, su]).max() < 1e-14


def test_zero_state_zero_residual():
    model = StandardMHD(_mesh22(), ModelParams(),
                        bcs={n: ("all", None) for n in ("u", "E", "B")})
    st = model.initial_state()
    assert np.abs(model.residual(st.vector)).max() == 0.0


def test_hartmann_solution_values():
    sol = analytic.hartmann_solution(1.0, 1.0, 1.0)
    G = sol.params["G"]
    assert sol.params["Ha"] == pytest.approx(1.0)
    assert G == pytest.approx(2 * np.sinh(0.5) / (np.cosh(0.5) - 1.0))
    y = np.linspace(-0.5, 0.5, 11)
    u = sol.fields["u"](0 * y, y)
    assert np.allclose(u[:, 0], u[::-1, 0], atol=1e-12)   # even
    B = sol.fields["B"](0 * y, y)
    assert np.allclose(B[:, 0], -B[::-1, 0], atol=1e-12)  # odd


def test_hartmann_large_ha_branch():
    sol = analytic.hartmann_solution(1.0, 1.0, 100.0 ** 2)
    assert sol.params["Ha"] == pytest.approx(100.0)
    assert sol.guard == "large-Ha branch"
    u = sol.fields["u"](np.array([0.0, 0.0]), np.array([-0.5, 0.5]))
    assert np.abs(u[:, 0]).max() < 1e-10


# Ha = sqrt(S Re Rem) = 15811, 1449 and 1e6: past Ha = 1420, exp(Ha/2)
# overflows, so no branch may form it
@pytest.mark.parametrize("Re, Rem, S", [(500.0, 500.0, 1000.0),
                                        (1.0, 1.0, 2.1e6),
                                        (1e4, 1e4, 1e4)])
def test_hartmann_is_finite_at_large_ha(Re, Rem, S):
    sol = analytic.hartmann_solution(Re, Rem, S)
    x, y = np.meshgrid(np.linspace(-0.5, 0.5, 9), np.linspace(-0.5, 0.5, 41))
    for fn in (*sol.fields.values(), *sol.forcing.values()):
        assert np.all(np.isfinite(fn(x, y)))
    ends = (np.zeros(2), np.array([-0.5, 0.5]))
    assert np.abs(sol.fields["u"](*ends)).max() < 1e-12
    assert np.abs(sol.fields["B"](*ends)[:, 0]).max() < 1e-12
    spec = problems.make_problem("hartmann", levels=0, mesh_base=(4, 4),
                                 params={"Re": Re, "Rem": Rem, "S": S})
    model = spec.model
    assert np.all(np.isfinite(model.constrained_vals))
    assert np.all(np.isfinite(model.residual(model.initial_state().vector)))


def test_hartmann_forcing_consistency():
    # the forcing makes the profile an exact strong solution at any params:
    # check the interpolated profile is near-residual-free under refinement
    sol = analytic.hartmann_solution(2.0, 3.0, 5.0)
    errs = []
    for n in (4, 8):
        mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), n, n)
        model = StandardMHD(mesh, ModelParams(Re=2.0, Rem=3.0, S=5.0,
                                              gamma=1.0),
                            bcs={"u": ("all", sol.fields["u"]),
                                 "E": ("all", sol.fields["E"]),
                                 "B": ("all", sol.fields["B"])},
                            forcing=sol.forcing)
        st, rep = solve_nonlinear(model, model.initial_state(),
                                  NonlinearConfig(atol=1e-11, rtol=1e-12))
        assert rep.converged
        errs.append(model.l2_error(st.vector, sol.fields,
                                   fields=("u",))["u"])
    assert errs[1] < errs[0] / 4.0


def test_island_equilibrium_properties():
    eq = analytic.island_equilibrium(Rem=100.0, S=100.0, k=0.2)
    x = np.linspace(-1, 1, 25)
    y = np.linspace(-1, 1, 23)
    X, Y = np.meshgrid(x, y)
    # div B = 0 pointwise (finite differences)
    h = 1e-5
    B = eq.fields["B"]
    div = ((B(X + h, Y)[..., 0] - B(X - h, Y)[..., 0])
           + (B(X, Y + h)[..., 1] - B(X, Y - h)[..., 1])) / (2 * h)
    assert np.abs(div).max() < 1e-8
    dB = eq.fields["dB"]
    divp = ((dB(X + h, Y)[..., 0] - dB(X - h, Y)[..., 0])
            + (dB(X, Y + h)[..., 1] - dB(X, Y - h)[..., 1])) / (2 * h)
    assert np.abs(divp).max() < 1e-8
    # p at origin for k = 0.2
    k = 0.2
    expect = (1 - k ** 2) / 2 * (1 + 1 / (1 + k) ** 2)
    assert eq.fields["p"](np.array([0.0]), np.array([0.0]))[0] == \
        pytest.approx(expect, rel=1e-12)
    # momentum balance: the forcing f vanishes when S = Rem
    f = eq.forcing["f"](X, Y)
    assert np.abs(f).max() < 1e-8


def test_interpolated_island_divfree():
    eq = analytic.island_equilibrium(Rem=10.0, S=10.0)
    mesh = build_rect_mesh((-1, 1, -1, 1), 16, 16, periodic_x=True)
    from mhdkit.elements import FunctionSpace
    rt = FunctionSpace(mesh, "RT", 2)
    fld = interpolate(rt, eq.fields["B"], quad_degree=14)
    from mhdkit.assembly import field_at_quadrature
    _, g = field_at_quadrature(fld, 8, grad=True)
    w = rt.quadrature_weights(8)
    div = g[..., 0, 0] + g[..., 1, 1]
    assert np.sqrt(np.sum(div ** 2 * w)) < 1e-10


def test_boussinesq_fd_jacobian():
    def theta_bc(x, y):
        return np.where(np.abs(y) < 1e-12, 1.0, 0.0)
    mesh = build_rect_mesh((0, 1, 0, 1), 2, 2, "crossed")
    model = BoussinesqMHD(
        mesh, ModelParams(Ra=50.0, Pr=0.7, Pm=1.3, S=2.0, gamma=3.0),
        bcs={"u": ("all", None), "theta": (["top", "bottom"], theta_bc),
             "E": ("all", None),
             "B": ("all", lambda x, y: np.stack(
                 [0 * x, np.ones_like(y)], axis=-1))})
    _fd_check(model, model.initial_state(), seed=3)


def test_conduction_state_exact_root():
    from mhdkit.bifurcation import conduction_state_vector
    mesh = build_rect_mesh((0, 1, 0, 1), 8, 8, "crossed")
    for Ra, S in [(1.0, 1.0), (1e3, 1.0), (1e4, 1e3)]:
        cs = analytic.conduction_state(Ra, 1.0)
        model = BoussinesqMHD(
            mesh, ModelParams(Ra=Ra, Pr=1.0, Pm=1.0, S=S, gamma=1e4),
            bcs={"u": ("all", None),
                 "theta": (["top", "bottom"], cs.fields["theta"]),
                 "E": ("all", None), "B": ("all", cs.fields["B"])})
        st = conduction_state_vector(model)
        r = np.linalg.norm(model.residual(st.vector))
        assert r <= 1e-10 * max(1.0, Ra * model.params.Pr)


def test_hall_fd_jacobian():
    model = HallMHD(
        _mesh22(), ModelParams(Re=2.0, Rem=3.0, S=1.5, R_H=0.7, gamma=4.0),
        bcs={n: ("all", None) for n in
             ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")})
    _fd_check(model, model.initial_state(), n_cols=40, seed=4)


def _interior_facet_traces(field, qdeg):
    """Both traces of `field` on the interior facets, their unit normals and
    their quadrature weights.  The plus and minus sides and the normals,
    which point from plus to minus, are those of the facet forms
    (`assembly.facet_data`)."""
    mesh = field.space.mesh
    fd = facet_data(mesh, qdeg)
    rule = gauss_interval(qdeg)
    p = mesh.cell_edge_points[mesh.edge_cells[fd.int_edges, 0],
                              mesh.edge_local[fd.int_edges, 0]]
    pts = p[:, None, 0] + rule.points[None, :, None] * (p[:, None, 1]
                                                       - p[:, None, 0])
    plus, minus = (field.eval_cells(fd.int_cells[:, s], pts)
                   for s in range(2))
    return plus, minus, fd.int_normal, rule.weights * fd.int_len[:, None]


def test_hall_energy_identity_forced():
    # The discrete energy identity of the H(div) pair with homogeneous
    # boundary data:
    #   Re^-1 (a_h(ut, ut) + ||grad u3||^2) + c_F(ut) + S Rem^-1 ||j||^2
    #     = <f, u>,
    # a_h the SIPG form.  ut is divergence-free with ut.n = 0 on the
    # boundary, so its cell advection (ut . grad ut, ut) is
    # sum_F (ut.n) {ut} . [[ut]], (ut . grad u3, u3) vanishes, and the upwind
    # facet term adds sum_F (ut.n)^+ |[[ut]]|^2.  Their sum c_F is the upwind
    # dissipation 1/2 sum_F |ut.n| |[[ut]]|^2 (Cockburn, Kanschat & Schoetzau,
    # J. Sci. Comput. 31, 2007) plus sum_F (ut.n) ut^+ . [[ut]], the part of
    # the facet form that depends on which side of a facet is the plus side.
    mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 8, 8)
    f_t = lambda x, y: np.stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                                 np.cos(2 * np.pi * x) * np.sin(np.pi * y)],
                                axis=-1)
    f_3 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    for RH in (0.0, 0.1, 1.0):
        pr = ModelParams(Re=10.0, Rem=5.0, S=2.0, R_H=RH, gamma=0.0)
        model = HallMHD(
            mesh, pr, bcs={n: ("all", None) for n in
                           ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")},
            forcing={"f_t": f_t, "f_3": f_3})
        st, rep = solve_nonlinear(model, model.initial_state(),
                                  NonlinearConfig(atol=1e-12, rtol=1e-13))
        assert rep.converged
        s = model.spaces
        x = {n: st.view(n) for n in model.fields}

        def form(name, op, extra=0.0):
            A = cell_matrix(s[name], s[name], op, op, qdeg=QDEG) + extra
            return x[name] @ (A @ x[name])
        sipg, _ = sipg_viscous(s["ut"], nu=1.0, sym=False, qdeg=QDEG,
                               dirichlet_markers=list(mesh.marker_names))
        viscous = form("ut", "grad", sipg) + form("u3", "grad")
        joule = form("jt", "val") + form("j3", "val")
        up, um, n, w = _interior_facet_traces(st.field("ut"), QDEG)
        un = np.einsum("eqk,ek->eq", up, n)
        jump = up - um
        upwind = 0.5 * np.sum(w * np.abs(un) * np.sum(jump ** 2, axis=-1))
        sided = np.sum(w * un * np.sum(up * jump, axis=-1))
        work = sum(cell_vector(s[name], "val", f, qdeg=HallMHD.QDEG_RHS)
                   @ x[name] for name, f in (("ut", f_t), ("u3", f_3)))
        lhs = viscous / pr.Re + upwind + sided + pr.S * joule / pr.Rem
        assert abs(lhs - work) <= 1e-9 * abs(work)
        # the flow is strong enough that the identity sees the dissipation
        assert upwind >= 100 * 1e-9 * abs(work)


def test_make_problem_takes_a_bc_field_for_ldc2d_only():
    trig = problems.make_problem("ldc2d", levels=0, mesh_base=(2, 2),
                                 bc_field="trig").model
    uniform = problems.make_problem("ldc2d", levels=0, mesh_base=(2, 2),
                                    bc_field="uniform").model
    default = problems.make_problem("ldc2d", levels=0, mesh_base=(2, 2)).model
    assert np.array_equal(default.constrained_vals, uniform.constrained_vals)
    assert not np.array_equal(trig.constrained_vals, uniform.constrained_vals)
    with pytest.raises(ValueError, match="bc_field"):
        problems.make_problem("ldc2d", levels=0, mesh_base=(2, 2),
                              bc_field="nonsense")
    with pytest.raises(ValueError, match="bc_field"):
        problems.make_problem("hartmann", levels=0, mesh_base=(2, 2),
                              bc_field="trig")


@pytest.mark.parametrize("name, param", [
    ("hartmann", "Ra"), ("hall_ldc", "stab_mu"), ("rayleigh_benard", "Re"),
    ("island_coalescence", "S"), ("hall_island", "S")])
def test_make_problem_rejects_a_parameter_it_does_not_read(name, param):
    # the island problems derive their S, and the Hall model has no
    # gradient-jump penalty: a value for either would be ignored
    with pytest.raises(ValueError, match=f"does not read {param};"):
        problems.make_problem(name, levels=0, mesh_base=(2, 2),
                              params={param: 2.0})


def test_compatible_hall_bcs():
    pr = ModelParams(Re=1.0, Rem=2.0, S=1.0, R_H=0.5)
    bcs = compatible_hall_bcs(pr)
    denom = 1.0 / pr.Rem + pr.Rem * pr.R_H ** 2
    x = np.array([0.0])
    ylid = np.array([0.5])
    jt = bcs["jt"][1](x, ylid)
    j3 = bcs["j3"][1](x, ylid)
    assert jt[0, 0] == pytest.approx(pr.Rem * pr.R_H / denom)
    assert j3[0] == pytest.approx(1.0 / denom)
    # compatibility residual of the generalised Ohm trace identity at the lid
    # with E x n = 0 and u x B = (0, 0, 1):
    j = np.array([jt[0, 0], 0.0, j3[0]])
    n = np.array([0.0, 1.0, 0.0])
    B = np.array([0.0, 1.0, 0.0])
    uxB = np.array([0.0, 0.0, 1.0])
    lhs = np.cross(j, n) / pr.Rem
    rhs = np.cross(uxB, n) - pr.R_H * np.cross(np.cross(j, B), n)
    assert np.abs(lhs - rhs).max() < 1e-12
    # R_H = 0 reduces to the Ohm value Rem * (u x B) trace
    bcs0 = compatible_hall_bcs(ModelParams(Re=1.0, Rem=2.0, R_H=0.0))
    assert bcs0["jt"][1](x, ylid)[0, 0] == 0.0
    assert bcs0["j3"][1](x, ylid)[0] == pytest.approx(2.0)
    # zero lid velocity: everything homogeneous
    bcsz = compatible_hall_bcs(pr, lid_velocity=0.0)
    assert np.abs(bcsz["j3"][1](x, ylid)).max() == 0.0


def test_compatible_hall_bcs_follow_the_lid():
    pr = ModelParams(Re=1.0, Rem=2.0, S=1.0, R_H=0.5)
    x = np.zeros(3)
    y = np.array([0.5, 1.0, -0.5])
    for ytop, on in ((0.5, 0), (1.0, 1)):
        bcs = compatible_hall_bcs(pr, ytop=ytop)
        jt, j3 = bcs["jt"][1](x, y), bcs["j3"][1](x, y)
        assert np.flatnonzero(jt[:, 0]).tolist() == [on]
        assert np.flatnonzero(j3).tolist() == [on]
    with pytest.raises(TypeError):
        compatible_hall_bcs(pr, lid_marker="top")


def test_boussinesq_symmetry_reflection():
    # applying the x-reflection to a converged nontrivial state gives equal
    # functionals (discovered solutions come in symmetry orbits)
    mesh = build_rect_mesh((0, 1, 0, 1), 8, 8, "crossed")
    cs = analytic.conduction_state(5000.0, 1.0)
    model = BoussinesqMHD(
        mesh, ModelParams(Ra=5000.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4),
        bcs={"u": ("all", None),
             "theta": (["top", "bottom"], cs.fields["theta"]),
             "E": ("all", None), "B": ("all", cs.fields["B"])})
    from mhdkit.bifurcation import conduction_state_vector
    st = conduction_state_vector(model)
    refl = model.symmetry_reflect(st.vector)
    f1 = model.functionals(st.vector)
    f2 = model.functionals(refl)
    for k in f1:
        assert f1[k] == pytest.approx(f2[k], abs=1e-8, rel=1e-6)


def _unit_B(x, y):
    return np.stack([0 * x, np.ones_like(y)], axis=-1)


@pytest.mark.parametrize("make", [
    lambda mesh: StandardMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, gamma=7.0),
        bcs={"u": ("all", None), "E": ("all", None), "B": ("all", _unit_B)}),
    lambda mesh: HallMHD(
        mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, R_H=0.7, gamma=4.0),
        bcs={n: ("all", None) for n in
             ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")}),
    lambda mesh: BoussinesqMHD(
        mesh, ModelParams(Ra=50.0, Pr=0.7, Pm=1.3, S=2.0, gamma=3.0),
        bcs={"u": ("all", None), "theta": (["top", "bottom"], None),
             "E": ("all", None), "B": ("all", _unit_B)}),
], ids=["standard", "hall", "boussinesq"])
def test_transient_fd_jacobian(make):
    # the mass and steady scalings of the implicit time steppers
    model = make(_mesh22())
    _fd_check(model, model.initial_state(), n_cols=40, seed=5,
              mass_coeff=2.5, steady_coeff=0.5)


def _full_gradient_div_norms(model, vec):
    """The div norms from each field's whole gradient at the QDEG points,
    tabulated at the physical points: the formula div_norms replaced."""
    from mhdkit.models.base import QDEG
    F = model._state_fields(vec)
    out = {}
    for n in (model.velocity, model.magnetic):
        pts, w = model.spaces[n].cell_quadrature(QDEG)
        _, g = F[n].eval_cells(np.arange(model.mesh.num_cells), pts,
                               grad=True)
        div = g[..., 0, 0] + g[..., 1, 1]
        out[n] = float(np.sqrt(np.sum(div ** 2 * w)))
    return out


def test_div_norms_match_the_full_gradient_formula():
    from mhdkit.precond import KrylovSolverFactory
    spec = problems.make_problem("hartmann", levels=1, mesh_base=(4, 4))
    model = spec.model
    factory = KrylovSolverFactory(spec.make_precond())
    st, rep = solve_nonlinear(model, model.initial_state(),
                              NonlinearConfig(), factory)
    assert rep.converged
    hall = problems.make_problem("hall_island", levels=0, mesh_base=(8, 8))
    for m, vec in ((model, st.vector), (hall.model, problems.
                                        island_initial_state(hall).vector)):
        new, old = m.div_norms(vec), _full_gradient_div_norms(m, vec)
        assert new.keys() == old.keys()
        for n in new:
            assert abs(new[n] - old[n]) <= 1e-13


@pytest.mark.parametrize("lin", ["newton", "picard"])
@pytest.mark.parametrize("mass_coeff", [0.0, 1.5])
def test_standard_is_the_boussinesq_form_at_zero_rayleigh(lin, mass_coeff):
    # with Ra = 0, Pr = 1/Re and Pm = Pr Rem the Boussinesq (u, p, E, B)
    # rows are StandardMHD's; powers of two make Pr/Pm equal 1/Rem exactly
    Re, Rem = 2.0, 4.0
    mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 4, 4, "crossed")
    lid = lambda x, y: np.stack([np.where(np.abs(y - 0.5) < 1e-12, 1.0, 0.0),
                                 np.zeros_like(x)], axis=-1)
    bcs = {"u": ("all", lid), "E": ("all", None), "B": ("all", _unit_B)}
    std = StandardMHD(mesh, ModelParams(Re=Re, Rem=Rem, S=1.5, gamma=7.0,
                                        stab_mu=5e-3), bcs=bcs)
    bou = BoussinesqMHD(mesh, ModelParams(Ra=0.0, Pr=1.0 / Re,
                                          Pm=Rem / Re, S=1.5, gamma=7.0,
                                          stab_mu=5e-3),
                        bcs=dict(bcs, theta=(["top", "bottom"], None)))
    rng = np.random.default_rng(11)
    xb = bou.initial_state()
    xb.vector[:] = rng.standard_normal(xb.total)
    xb = bou.apply_state_bcs(xb).vector
    block = np.concatenate([
        np.arange(bou.state_template.total)[bou.state_template.field_slice(n)]
        for n in std.fields])
    xs = xb[block]
    assert np.array_equal(std.apply_state_bcs(std.state_template.with_vector(
        xs)).vector, xs)
    As = std.jacobian(xs, lin, mass_coeff=mass_coeff)
    Ab = bou.jacobian(xb, lin, mass_coeff=mass_coeff)
    assert np.array_equal(Ab[block][:, block].toarray(), As.toarray())
    rs, rb = std.residual(xs), bou.residual(xb)[block]
    assert np.abs(rb - rs).max() <= 1e-14 * np.abs(rs).max()


@pytest.mark.parametrize("lin", ["newton", "picard"])
@pytest.mark.parametrize("mass_coeff, steady_coeff", [(20.0, 0.5),
                                                      (30.0, 1.0)],
                         ids=["cn", "bdf2"])
@pytest.mark.parametrize("name", problems.PROBLEM_NAMES)
def test_faraday_map_cancels_the_magnetic_rows_electric_block(
        name, mass_coeff, steady_coeff, lin):
    # the Crank-Nicolson and BDF2 step coefficients at dt 0.05: the B rows
    # of the step Jacobian satisfy J_BE = (theta / a) J_BB V exactly, so J T
    # has a zero (B, E) block up to round-off, and T changes nothing else
    model = problems.make_problem(name, levels=0, mesh_base=(4, 4)).model
    st = model.initial_state()
    st.vector[:] = np.random.default_rng(3).standard_normal(st.total)
    x = model.apply_state_bcs(st).vector
    J = model.jacobian(x, lin, mass_coeff=mass_coeff,
                       steady_coeff=steady_coeff)
    T = model.faraday_map(mass_coeff, steady_coeff)
    B = model.state_template.field_slice(model.magnetic)
    E = model.state_template.field_slice(model.electric)
    block = np.linalg.norm(J[B][:, E].toarray())
    assert block > 0.0
    assert np.linalg.norm((J @ T)[B][:, E].toarray()) <= 1e-12 * block
    D = (T - sp.identity(st.total)).tocoo()
    inside = ((B.start <= D.row) & (D.row < B.stop)
              & (E.start <= D.col) & (D.col < E.stop))
    assert D.data[inside].any() and not D.data[~inside].any()
    assert model.faraday_map(0.0, steady_coeff) is None
