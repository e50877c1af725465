import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import sympy as sym

import mhdkit
from mhdkit import problems
from mhdkit.models import analytic
from mhdkit.models.base import ModelParams
from mhdkit.nonlinear import NonlinearConfig

# -- the symbolic derivations: the references the closed forms are checked
# against, in the strong form of the augmented B-E system ---------------------

X, Y = sym.symbols("x y", real=True)


def _grad(e):
    return (sym.diff(e, X), sym.diff(e, Y))


def _div(v):
    return sym.diff(v[0], X) + sym.diff(v[1], Y)


def _curl2(v):
    return sym.diff(v[1], X) - sym.diff(v[0], Y)


def _vcurl(e):
    return (sym.diff(e, Y), -sym.diff(e, X))


def _cross_uv(u, b):
    # scalar u x B in 2D
    return u[0] * b[1] - u[1] * b[0]


def _cross_bs(b, s):
    # vector B x s for scalar s
    return (b[1] * s, -b[0] * s)


def _sym_forcing(u, p, E, B, Re, Rem, S):
    """Momentum, Ohm and Faraday right-hand sides for smooth fields given as
    sympy expressions, with the full viscous term -2/Re div eps(u) and the
    grad div B term; the augmentation term drops out only for div u = 0."""
    assert _div(u) == 0
    gu = [[sym.diff(u[i], c) for c in (X, Y)] for i in range(2)]
    eps = [[sym.Rational(1, 2) * (gu[i][j] + gu[j][i]) for j in range(2)]
           for i in range(2)]
    div_eps = (sym.diff(eps[0][0], X) + sym.diff(eps[0][1], Y),
               sym.diff(eps[1][0], X) + sym.diff(eps[1][1], Y))
    adv = (u[0] * gu[0][0] + u[1] * gu[0][1],
           u[0] * gu[1][0] + u[1] * gu[1][1])
    gp = _grad(p)
    w = E + _cross_uv(u, B)
    lorentz = _cross_bs(B, w)
    f = tuple(-2 / Re * div_eps[i] + adv[i] + gp[i] + S * lorentz[i]
              for i in range(2))
    g_E = E + _cross_uv(u, B) - _curl2(B) / Rem
    gd = _grad(_div(B))
    vc = _vcurl(E)
    g_B = tuple(-gd[i] / Rem + vc[i] for i in range(2))
    return f, g_E, g_B


def _sym_standard(u, p, E, B, Re, Rem, S):
    f, g_E, g_B = _sym_forcing(u, p, E, B, Re, Rem, S)
    return {"u": u, "p": (p,), "E": (E,), "B": B, "f": f, "g_E": (g_E,),
            "g_B": g_B}


def _sym_hartmann(Re, Rem, S):
    """The Hartmann profile as the sympy expressions the library derived at
    run time before the closed forms."""
    Ha = float(np.sqrt(S * Re * Rem))
    if Ha < 100.0:
        G = 2 * Ha * np.sinh(Ha / 2) / (Re * (np.cosh(Ha / 2) - 1.0))
        u1 = (G * Re / (2 * Ha * sym.tanh(sym.Float(Ha) / 2))
              * (1 - sym.cosh(Y * Ha) / sym.cosh(sym.Float(Ha) / 2)))
        B1 = (G / 2) * (sym.sinh(Y * Ha) / sym.sinh(sym.Float(Ha) / 2)
                        - 2 * Y)
    else:
        G = 2 * Ha / Re
        half = sym.Rational(1, 2)
        u1 = (G * Re / (2 * Ha)) * (1 - sym.exp(Ha * (-Y - half))
                                    - sym.exp(Ha * (Y - half)))
        B1 = (G / 2) * (sym.exp(Ha * (Y - half)) - sym.exp(Ha * (-Y - half))
                        - 2 * Y)
    u = (u1, sym.Integer(0))
    B = (B1, sym.Integer(1))
    E = _curl2(B) / Rem - _cross_uv(u, B)
    return _sym_standard(u, -G * X - B1 ** 2 / 2, E, B, Re, Rem, S)


def _sym_mms(Re, Rem, S):
    psi = sym.sin(sym.pi * X) * sym.sin(sym.pi * Y) / sym.pi
    phi = sym.cos(sym.pi * X) * sym.cos(sym.pi * Y) / sym.pi
    B = tuple(b + c for b, c in zip(_vcurl(phi), (0, 1)))
    return _sym_standard(_vcurl(psi), sym.sin(sym.pi * X)
                         * sym.cos(2 * sym.pi * Y),
                         sym.sin(2 * sym.pi * X) * sym.sin(sym.pi * Y), B,
                         Re, Rem, S)


# 9 x 8 points inside the island domain (-1, 1)^2, and their halves inside
# the Hartmann and MMS domain (-1/2, 1/2)^2
_ISLAND_POINTS = tuple(np.meshgrid(np.linspace(-0.97, 0.97, 9),
                                   np.linspace(-0.95, 0.95, 8)))
_HALF_POINTS = tuple(c / 2 for c in _ISLAND_POINTS)


def _sym_cats_eye(k=0.2, eps=0.01):
    """The cat's-eye equilibrium and its perturbation as sympy expressions,
    as they were derived at run time before the closed forms."""
    D = sym.cosh(2 * sym.pi * Y) + k * sym.cos(2 * sym.pi * X)
    B = (sym.sinh(2 * sym.pi * Y) / D, k * sym.sin(2 * sym.pi * X) / D)
    p = (1 - k ** 2) / 2 * (1 + 1 / D ** 2)
    dB = (-(eps / sym.pi) * sym.cos(sym.pi * X) * sym.sin(sym.pi * Y / 2),
          (2 * eps / sym.pi) * sym.cos(sym.pi * Y / 2) * sym.sin(sym.pi * X))
    return B, p, dB


def _lambdified(exprs):
    fns = [sym.lambdify((X, Y), e, modules="numpy") for e in exprs]

    def at(x, y):
        vals = [np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
                for f in fns]
        return vals[0] if len(vals) == 1 else np.stack(vals, axis=-1)
    return at


def _assert_matches(closed, ref, scale_of, points=_ISLAND_POINTS):
    """Each closed form equals its symbolic reference to 1e-12 relative to
    the reference's size, or, for a quantity that vanishes in exact
    arithmetic, to the size of the field it is derived from."""
    x, y = points
    assert closed.keys() == ref.keys()
    values = {name: _lambdified(ref[name])(x, y) for name in ref}
    for name, fn in closed.items():
        got, want = fn(x, y), values[name]
        assert got.shape == want.shape, name
        scale = np.abs(values[scale_of.get(name, name)]).max()
        assert scale > 0.0, name
        assert np.abs(got - want).max() <= 1e-12 * scale, name


# Ha = 1 and 50 take the cosh/sinh branch, Ha = 150 and 1000 the large-Ha one
@pytest.mark.parametrize("Re, Rem, S", [(1.0, 0.5, 2.0), (2.0, 5.0, 250.0),
                                        (3.0, 7.5, 1000.0),
                                        (10.0, 100.0, 1000.0)])
def test_hartmann_closed_forms_match_sympy(Re, Rem, S):
    sol = analytic.hartmann_solution(Re, Rem, S)
    ref = _sym_hartmann(Re, Rem, S)
    # g_E vanishes: E balances curl B / Rem - u x B
    _assert_matches({**sol.fields, **sol.forcing}, ref, {"g_E": "E"},
                    _HALF_POINTS)


def test_mms_closed_forms_match_sympy():
    sol = analytic.mms_solution(2.0, 3.0, 5.0)
    _assert_matches({**sol.fields, **sol.forcing}, _sym_mms(2.0, 3.0, 5.0),
                    {}, _HALF_POINTS)


@pytest.mark.parametrize("Rem, S", [(1000.0, 1000.0), (100.0, 10.0)])
def test_island_closed_forms_match_sympy(Rem, S):
    B, p, dB = _sym_cats_eye()
    zero = sym.Integer(0)
    ref = _sym_standard((zero, zero), p, _curl2(B) / Rem, B, Re=1, Rem=Rem,
                        S=S)
    ref["dB"] = dB
    eq = analytic.island_equilibrium(Rem, S)
    # f vanishes at S = Rem and g_E always: both balance grad p and E
    _assert_matches({**eq.fields, **eq.forcing}, ref,
                    {"u": "B", "f": "p", "g_E": "E"})


@pytest.mark.parametrize("Rem, R_H", [(500.0, 0.1), (10.0, 1.0)])
def test_hall_island_closed_forms_match_sympy(Rem, R_H):
    B, p, dB = _sym_cats_eye()
    j3 = _curl2(B)
    E3 = j3 / Rem
    Et = (-R_H * j3 * B[1], R_H * j3 * B[0])
    ref = {"Bt": B, "p": (p,), "j3": (j3,), "E3": (E3,), "Et": Et,
           "gB_t": _vcurl(E3), "gB_3": (_curl2(Et),), "dB": dB}
    eq = problems._hall_island_equilibrium(
        ModelParams(Re=Rem, Rem=Rem, S=1.0, R_H=R_H))
    # gB_3 = curl Et vanishes: Bt is tangent to the level lines of j3
    _assert_matches(eq, ref, {"gB_3": "Et"})


def test_conduction_state_matches_sympy():
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


def test_importing_the_cli_loads_no_sympy():
    src = str(Path(mhdkit.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import mhdkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('sympy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("call", [
    lambda: NonlinearConfig(lin_rtol=1e-7),
    lambda: NonlinearConfig(lin_atol=1e-7),
    lambda: analytic.mms_solution(1.0, 1.0, 1.0, gamma=1.0),
], ids=["lin_rtol", "lin_atol", "mms_gamma"])
def test_inputs_nothing_reads_are_gone(call):
    with pytest.raises(TypeError):
        call()
