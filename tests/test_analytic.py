import numpy as np
import pytest
import sympy as sym

from mhdkit import problems
from mhdkit.bifurcation import conduction_state_vector
from mhdkit.models import analytic
from mhdkit.models.analytic import X, hartmann_solution, standard_mhd_forcing
from mhdkit.models.base import ModelParams


def test_forcing_rejects_velocity_that_is_not_divergence_free():
    zero, one = sym.Integer(0), sym.Integer(1)
    with pytest.raises(ValueError, match="velocity must be divergence-free"):
        standard_mhd_forcing((X, zero), zero, zero, (zero, one),
                             Re=1, Rem=1, S=1)


def test_hartmann_matches_simplified_expressions(monkeypatch):
    # the references are lambdified without sym.simplify; the simplified
    # expressions, built here only, take the same values at 64 points
    x, y = np.meshgrid(np.linspace(-0.49, 0.49, 8),
                       np.linspace(-0.47, 0.47, 8))
    plain = hartmann_solution(1, 1, 1)
    lamb = analytic._lamb
    monkeypatch.setattr(analytic, "_lamb",
                        lambda expr: lamb(sym.simplify(expr)))
    simplified = hartmann_solution(1, 1, 1)
    for kind in ("fields", "forcing"):
        ref_fns = getattr(simplified, kind)
        for name, fn in getattr(plain, kind).items():
            ref = ref_fns[name](x, y)
            # g_E vanishes for the exact Hartmann profile
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(fn(x, y) - ref).max() <= 1e-12 * scale, name


def test_lamb_without_docstring_is_bitwise_the_default(monkeypatch):
    # _lamb skips the docstring render of each expression; the values stay
    # those of a default lambdify build
    x, y = analytic._SAMPLES
    lean = hartmann_solution(2.0, 3.0, 5.0)

    def default_lamb(expr):
        fn = sym.lambdify((X, analytic.Y), expr, modules="numpy")
        return lambda x, y: np.broadcast_to(
            np.asarray(fn(x, y), dtype=float), np.shape(x))

    monkeypatch.setattr(analytic, "_lamb", default_lamb)
    default = hartmann_solution(2.0, 3.0, 5.0)
    for kind in ("fields", "forcing"):
        ref_fns = getattr(default, kind)
        for name, fn in getattr(lean, kind).items():
            assert np.array_equal(fn(x, y), ref_fns[name](x, y)), name


# -- closed-form references against their symbolic derivations ---------------

# 9 x 8 points inside the island domain (-1, 1)^2
_ISLAND_POINTS = tuple(np.meshgrid(np.linspace(-0.97, 0.97, 9),
                                   np.linspace(-0.95, 0.95, 8)))


def _sym_cats_eye(k=0.2, eps=0.01):
    """The cat's-eye equilibrium and its perturbation as sympy expressions,
    as they were derived at run time before the closed forms."""
    Y = analytic.Y
    D = sym.cosh(2 * sym.pi * Y) + k * sym.cos(2 * sym.pi * X)
    B = (sym.sinh(2 * sym.pi * Y) / D, k * sym.sin(2 * sym.pi * X) / D)
    p = (1 - k ** 2) / 2 * (1 + 1 / D ** 2)
    dB = (-(eps / sym.pi) * sym.cos(sym.pi * X) * sym.sin(sym.pi * Y / 2),
          (2 * eps / sym.pi) * sym.cos(sym.pi * Y / 2) * sym.sin(sym.pi * X))
    return B, p, dB


def _lambdified(exprs):
    fns = [sym.lambdify((X, analytic.Y), e, modules="numpy") for e in exprs]

    def at(x, y):
        vals = [np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
                for f in fns]
        return vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
    return at


def _assert_matches(closed, ref, scale_of):
    """Each closed form equals its symbolic reference to 1e-12 relative to
    the reference's size, or, for a quantity that vanishes in exact
    arithmetic, to the size of the field it is derived from."""
    x, y = _ISLAND_POINTS
    assert closed.keys() == ref.keys()
    values = {name: _lambdified(ref[name])(x, y) for name in ref}
    for name, fn in closed.items():
        got, want = fn(x, y), values[name]
        assert got.shape == want.shape, name
        scale = np.abs(values[scale_of.get(name, name)]).max()
        assert scale > 0.0, name
        assert np.abs(got - want).max() <= 1e-12 * scale, name


@pytest.mark.parametrize("Rem, S", [(1000.0, 1000.0), (100.0, 10.0)])
def test_island_closed_forms_match_sympy(Rem, S):
    B, p, dB = _sym_cats_eye()
    zero = sym.Integer(0)
    E = analytic._curl2(B) / Rem
    f, g_E, g_B = standard_mhd_forcing((zero, zero), p, E, B, Re=1, Rem=Rem,
                                       S=S)
    ref = {"u": (zero, zero), "p": (p,), "E": (E,), "B": B, "dB": dB,
           "f": f, "g_E": (g_E,), "g_B": g_B}
    eq = analytic.island_equilibrium(Rem, S)
    # f vanishes at S = Rem and g_E always: both balance grad p and E
    _assert_matches({**eq.fields, **eq.forcing}, ref,
                    {"u": "B", "f": "p", "g_E": "E"})


@pytest.mark.parametrize("Rem, R_H", [(500.0, 0.1), (10.0, 1.0)])
def test_hall_island_closed_forms_match_sympy(Rem, R_H):
    B, p, dB = _sym_cats_eye()
    j3 = analytic._curl2(B)
    E3 = j3 / Rem
    Et = (-R_H * j3 * B[1], R_H * j3 * B[0])
    gB_3 = sym.diff(Et[1], X) - sym.diff(Et[0], analytic.Y)
    ref = {"Bt": B, "p": (p,), "j3": (j3,), "E3": (E3,), "Et": Et,
           "gB_t": analytic._vcurl(E3), "gB_3": (gB_3,), "dB": dB}
    eq = problems._hall_island_equilibrium(
        ModelParams(Re=Rem, Rem=Rem, S=1.0, R_H=R_H))
    # gB_3 = curl Et vanishes: Bt is tangent to the level lines of j3
    _assert_matches(eq, ref, {"gB_3": "Et"})


def test_conduction_state_matches_sympy():
    Y = analytic.Y
    zero = sym.Integer(0)
    x, y = _ISLAND_POINTS
    x, y = (x + 1) / 2, (y + 1) / 2  # the unit square
    cs = analytic.conduction_state(2609.03, 0.7)
    ref = {"u": (zero, zero),
           "p": (2609.03 * 0.7 * (Y - Y ** 2 / 2 - sym.Rational(1, 3)),),
           "theta": (1 - Y,), "E": (zero,), "B": (zero, sym.Integer(1))}
    for name, fn in cs.fields.items():
        want = _lambdified(ref[name])(x, y)
        assert fn(x, y).shape == want.shape, name
        assert np.abs(fn(x, y) - want).max() <= 1e-12 * max(
            np.abs(want).max(), 1.0), name


def test_closed_form_references_need_no_lambdify(monkeypatch):
    def refuse(expr):
        raise AssertionError("lambdify called")

    monkeypatch.setattr(analytic, "_lamb", refuse)
    small = dict(levels=0, mesh_base=(4, 4))
    problems.make_problem("hall_island", **small)
    problems.make_problem("island_coalescence", **small)
    spec = problems.make_problem("rayleigh_benard", **small)
    conduction_state_vector(spec.model)
    with pytest.raises(AssertionError, match="lambdify called"):
        problems.make_problem("hartmann", **small)
