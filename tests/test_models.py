import numpy as np
import pytest

from mhdkit.mesh import build_rect_mesh
from mhdkit.elements import interpolate, l2_project
from mhdkit.models.base import ModelParams
from mhdkit.models.standard import StandardMHD
from mhdkit.models.boussinesq import BoussinesqMHD
from mhdkit.models.hall import HallMHD, compatible_hall_bcs
from mhdkit.models import analytic
from mhdkit.nonlinear import NonlinearConfig, solve_nonlinear


def _fd_check(model, state, lin="newton", n_cols=30, seed=0, tol=1e-5,
              mass_coeff=0.0, steady_coeff=1.0):
    """Columns of jacobian(v, mass_coeff=c, steady_coeff=s) against central
    differences of s residual(v) + c apply_mass(v), constrained rows zeroed
    (the transient forms of the time steppers)."""
    rng = np.random.default_rng(seed)
    free = np.setdiff1d(np.arange(state.total), model.constrained_idx)
    state.vector[free] += 0.3 * rng.standard_normal(len(free))
    A, _ = model.jacobian(state.vector, lin, mass_coeff=mass_coeff,
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
    An, pn = model.jacobian(st.vector, "newton")
    Ap, pp_ = model.jacobian(st.vector, "picard")
    bn, bp = pn["block_matrix"], pp_["block_matrix"]
    # difference lives exactly in the (u,B) and (E,B) blocks
    diff = (An - Ap).tocoo()
    st_t = model.state_template
    sB = st_t.field_slice("B")
    assert np.all((diff.col >= sB.start) & (diff.col < sB.stop))
    tu = (bn.blocks[("u", "B")] - bp.blocks[("u", "B")])
    tE = (bn.blocks[("E", "B")] - bp.blocks[("E", "B")])
    assert tu.nnz > 0 and tE.nnz > 0


def test_standard_coupling_vanishes_at_zero_fields():
    model = StandardMHD(_mesh22(), ModelParams(Re=1.0, Rem=1.0, S=4.0),
                        bcs={n: ("all", None) for n in ("u", "E", "B")})
    st = model.initial_state()
    rng = np.random.default_rng(2)
    su = model.state_template.field_slice("u")
    st.vector[su] = rng.standard_normal(su.stop - su.start)
    st.vector[model.constrained_idx] = model.constrained_vals
    _, parts = model.jacobian(st.vector, "newton")
    bm = parts["block_matrix"]
    # with B = 0, E = 0: D, J (u,E), G (E,u) all vanish
    assert np.abs(parts["D"]).max() < 1e-14
    assert np.abs(bm.blocks[("u", "E")]).max() < 1e-14
    assert np.abs(bm.blocks[("E", "u")]).max() < 1e-14


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
    _, w, _, _ = rt.basis_at_quadrature(8)
    div = g[..., 0, 0] + g[..., 1, 1]
    assert np.sqrt(np.sum(div ** 2 * w)) < 1e-10


def test_boussinesq_fd_jacobian_both_variants():
    def theta_bc(x, y):
        return np.where(np.abs(y) < 1e-12, 1.0, 0.0)
    for variant in ("hdiv", "taylor_hood"):
        mesh = build_rect_mesh((0, 1, 0, 1), 2, 2, "crossed")
        model = BoussinesqMHD(
            mesh, ModelParams(Ra=50.0, Pr=0.7, Pm=1.3, S=2.0, gamma=3.0),
            bcs={"u": ("all", None), "theta": (["top", "bottom"], theta_bc),
                 "E": ("all", None),
                 "B": ("all", lambda x, y: np.stack(
                     [0 * x, np.ones_like(y)], axis=-1))},
            velocity_variant=variant)
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


def test_hall_fd_jacobian_both_variants():
    for variant in ("hdiv", "taylor_hood"):
        mesh = _mesh22()
        model = HallMHD(
            mesh, ModelParams(Re=2.0, Rem=3.0, S=1.5, R_H=0.7, gamma=4.0),
            bcs={n: ("all", None) for n in
                 ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")},
            velocity_variant=variant)
        _fd_check(model, model.initial_state(), n_cols=40, seed=4)


def test_hall_energy_identity_forced():
    mesh = build_rect_mesh((-0.5, 0.5, -0.5, 0.5), 8, 8)
    f_t = lambda x, y: np.stack([np.sin(np.pi * x) * np.cos(np.pi * y),
                                 np.cos(2 * np.pi * x) * np.sin(np.pi * y)],
                                axis=-1)
    f_3 = lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y)
    for RH in (0.0, 0.1, 1.0):
        model = HallMHD(
            mesh, ModelParams(Re=10.0, Rem=5.0, S=2.0, R_H=RH, gamma=0.0),
            bcs={n: ("all", None) for n in
                 ("ut", "u3", "Et", "E3", "Bt", "B3", "jt", "j3")},
            forcing={"f_t": f_t, "f_3": f_3}, velocity_variant="taylor_hood")
        st, rep = solve_nonlinear(model, model.initial_state(),
                                  NonlinearConfig(atol=1e-12, rtol=1e-13))
        assert rep.converged
        assert model.energy_identity_error(st.vector) <= 1e-9


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
