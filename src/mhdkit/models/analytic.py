"""Reference solutions and the forcing terms that make each one an exact
solution of the discretised system's strong form.

The Hartmann channel flow and the manufactured smooth fields are derived
symbolically (sympy) at run time, from `standard_mhd_forcing`, because there
the derivation is the check.  The island-coalescence equilibrium (the
Fadeev cat's eye, `CatsEye`, shared with the Hall island of
`problems._hall_island_equilibrium`) and the Boussinesq conduction state are
closed forms evaluated with numpy; they need no sympy."""

import numpy as np
import sympy as sym

X, Y = sym.symbols("x y", real=True)


class AnalyticSolution:
    """Pointwise component functions plus the matching forcing terms.

    fields:  name -> callable(x, y) -> (..., ncomp)
    forcing: name -> callable or None ('f' momentum, 'g_E' Ohm, 'g_B' Faraday)
    """

    def __init__(self, fields, forcing, params=None, guard=None):
        self.fields = fields
        self.forcing = forcing
        self.params = params
        self.guard = guard


def _lamb(expr):
    # docstring_limit=0 skips printing expr into the generated docstring
    fn = sym.lambdify((X, Y), expr, modules="numpy", docstring_limit=0)

    def wrapped(x, y):
        out = fn(x, y)
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x))
    return wrapped


def _lamb_vec(e1, e2):
    f1, f2 = _lamb(e1), _lamb(e2)

    def wrapped(x, y):
        return np.stack([f1(x, y), f2(x, y)], axis=-1)
    return wrapped


# fixed sample points inside (-1/2, 1/2)^2, which every reference's domain
# contains; none lies on a symmetry line where a divergence could vanish by
# accident
_SAMPLES = tuple(np.meshgrid(np.linspace(-0.45, 0.45, 8),
                             np.linspace(-0.4, 0.4, 8)))


def _check_divfree(v, what):
    """Raise ValueError unless the vector field v (sympy expressions) is
    divergence-free to round-off at the sample points."""
    dx = _lamb(sym.diff(v[0], X))(*_SAMPLES)
    dy = _lamb(sym.diff(v[1], Y))(*_SAMPLES)
    scale = np.abs(dx).max() + np.abs(dy).max()
    if not np.all(np.abs(dx + dy) <= 1e-10 * scale):
        raise ValueError(f"{what} must be divergence-free")


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


def standard_mhd_forcing(u, p, E, B, Re, Rem, S):
    """Momentum, Ohm and Faraday right-hand sides of the augmented B-E system
    for given smooth fields (sympy expressions); u must be divergence-free."""
    _check_divfree(u, "manufactured velocity")
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


def hartmann_solution(Re, Rem, S):
    """Hartmann channel profile on (-1/2, 1/2)^2 with transverse field
    (0, 1); the exponential large-Ha branch is selected for Ha >= 100 to
    avoid overflow of cosh/sinh; forcing terms make the profile an exact
    solution at every parameter value."""
    Ha = float(np.sqrt(S * Re * Rem))
    if Ha < 100.0:
        G = 2 * Ha * np.sinh(Ha / 2) / (Re * (np.cosh(Ha / 2) - 1.0))
        u1 = (G * Re / (2 * Ha * sym.tanh(sym.Float(Ha) / 2))
              * (1 - sym.cosh(Y * Ha) / sym.cosh(sym.Float(Ha) / 2)))
        B1 = (G / 2) * (sym.sinh(Y * Ha) / sym.sinh(sym.Float(Ha) / 2)
                        - 2 * Y)
    else:
        # large-Ha asymptotics of the cosh/sinh profile (signs fixed so the
        # no-slip values u(+-1/2) = 0 and B(+-1/2) = 0 survive the limit)
        G = 2 * Ha / Re
        u1 = (G * Re / (2 * Ha)) * (1 - sym.exp(Ha * (-Y - sym.Rational(1, 2)))
                                    - sym.exp(Ha * (Y - sym.Rational(1, 2))))
        B1 = (G / 2) * (sym.exp(Ha * (Y - sym.Rational(1, 2)))
                        - sym.exp(Ha * (-Y - sym.Rational(1, 2))) - 2 * Y)
    u = (u1, sym.Integer(0))
    B = (B1, sym.Integer(1))
    p = -G * X - B1 ** 2 / 2
    E = _curl2(B) / Rem - _cross_uv(u, B)
    f, g_E, g_B = standard_mhd_forcing(u, p, E, B, Re, Rem, S)
    fields = {
        "u": _lamb_vec(*u),
        "p": _lamb(p),
        "E": _lamb(E),
        "B": _lamb_vec(*B),
    }
    forcing = {
        "f": _lamb_vec(*f),
        "g_E": _lamb(g_E),
        "g_B": _lamb_vec(*g_B),
    }
    sol = AnalyticSolution(fields, forcing,
                           params={"Re": Re, "Rem": Rem, "S": S, "Ha": Ha,
                                   "G": float(G)},
                           guard="large-Ha branch" if Ha >= 100 else None)
    return sol


class CatsEye:
    """The Fadeev cat's-eye equilibrium (Fadeev, Kvabtskhava & Komarov,
    Nucl. Fusion 5, 1965) at points (x, y), with D = cosh 2 pi y
    + k cos 2 pi x:

    D, grad_D       D and its gradient (..., 2)
    B               (D_y, -D_x) / (2 pi D), the field of the flux log(D)/2pi
    p               (1 - k^2) / 2 (1 + 1/D^2), which balances j B
    j               curl B = -2 pi (1 - k^2) / D^2
    vcurl_j         (j_y, -j_x) = 4 pi (1 - k^2) (D_y, -D_x) / D^3
    dB              the divergence-free perturbation of amplitude eps
    """

    def __init__(self, x, y, k=0.2, eps=0.01):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        tx, ty = 2 * np.pi * x, 2 * np.pi * y
        sinh_y, sin_x = np.sinh(ty), np.sin(tx)
        D = np.cosh(ty) + k * np.cos(tx)
        Dx, Dy = -2 * np.pi * k * sin_x, 2 * np.pi * sinh_y
        self.D = D
        self.grad_D = np.stack([Dx, Dy], axis=-1)
        self.B = np.stack([sinh_y / D, k * sin_x / D], axis=-1)
        self.p = (1 - k ** 2) / 2 * (1 + 1 / D ** 2)
        self.j = -2 * np.pi * (1 - k ** 2) / D ** 2
        self.vcurl_j = (4 * np.pi * (1 - k ** 2) / D[..., None] ** 3
                        * np.stack([Dy, -Dx], axis=-1))
        self.dB = np.stack(
            [-(eps / np.pi) * np.cos(np.pi * x) * np.sin(np.pi * y / 2),
             (2 * eps / np.pi) * np.cos(np.pi * y / 2) * np.sin(np.pi * x)],
            axis=-1)


def _zero(x, y):
    return np.zeros(np.shape(x))


def _zero_vec(x, y):
    return np.zeros(np.shape(x) + (2,))


def island_equilibrium(Rem, S, k=0.2, eps=0.01):
    """Island-coalescence equilibrium on (-1, 1)^2 (periodic in x), the
    forcing that balances it at u = 0 and the divergence-free perturbation.

    With E = j / Rem the Ohm forcing vanishes; the Faraday forcing is
    vcurl E (div B = 0); the momentum forcing grad p + S E (B_y, -B_x)
    = (S/Rem - 1)(1 - k^2) grad D / D^3 vanishes for S = Rem."""
    def eye(x, y):
        return CatsEye(x, y, k, eps)

    def f(x, y):
        c = eye(x, y)
        return ((S / Rem - 1) * (1 - k ** 2) * c.grad_D
                / c.D[..., None] ** 3)

    fields = {
        "u": _zero_vec,
        "p": lambda x, y: eye(x, y).p,
        "E": lambda x, y: eye(x, y).j / Rem,
        "B": lambda x, y: eye(x, y).B,
        "dB": lambda x, y: eye(x, y).dB,
    }
    forcing = {
        "f": f,
        "g_E": _zero,
        "g_B": lambda x, y: eye(x, y).vcurl_j / Rem,
    }
    return AnalyticSolution(fields, forcing,
                            params={"Rem": Rem, "S": S, "k": k, "eps": eps})


def mms_solution(Re, Rem, S, gamma=0.0):
    """Smooth manufactured solution on (-1/2, 1/2)^2 for convergence tests."""
    psi = sym.sin(sym.pi * X) * sym.sin(sym.pi * Y) / sym.pi
    u = _vcurl(psi)
    p = sym.sin(sym.pi * X) * sym.cos(2 * sym.pi * Y)
    phi = sym.cos(sym.pi * X) * sym.cos(sym.pi * Y) / sym.pi
    B = tuple(b + c for b, c in zip(_vcurl(phi), (sym.Integer(0),
                                                  sym.Integer(1))))
    E = sym.sin(2 * sym.pi * X) * sym.sin(sym.pi * Y)
    f, g_E, g_B = standard_mhd_forcing(u, p, E, B, Re, Rem, S)
    fields = {"u": _lamb_vec(*u), "p": _lamb(p), "E": _lamb(E),
              "B": _lamb_vec(*B)}
    forcing = {"f": _lamb_vec(*f), "g_E": _lamb(g_E), "g_B": _lamb_vec(*g_B)}
    return AnalyticSolution(fields, forcing,
                            params={"Re": Re, "Rem": Rem, "S": S})


def conduction_state(Ra, Pr):
    """Trivial steady solution of the Boussinesq system on the unit square
    with hot bottom plate: zero flow, linear temperature, vertical field."""
    fields = {
        "u": _zero_vec,
        "p": lambda x, y: Ra * Pr * (y - y ** 2 / 2 - 1 / 3),
        "theta": lambda x, y: 1 - y,
        "E": _zero,
        "B": lambda x, y: np.stack([np.zeros(np.shape(x)),
                                    np.ones(np.shape(x))], axis=-1),
    }
    return AnalyticSolution(fields, {}, params={"Ra": Ra, "Pr": Pr})
