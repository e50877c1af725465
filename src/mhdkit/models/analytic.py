"""Reference solutions and the forcing terms that make each one an exact
solution of the discretised system's strong form.

Every reference is a closed form evaluated with numpy: the Hartmann channel
flow and the manufactured smooth fields, whose forcing
`standard_mhd_forcing` builds from pointwise values and derivatives; the
island-coalescence equilibrium (the Fadeev cat's eye, `CatsEye`, shared with
the Hall island of `problems._hall_island_equilibrium`); and the Boussinesq
conduction state.  `tests/test_analytic.py` derives each one symbolically and
checks the closed forms against those derivations."""

import numpy as np


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


def standard_mhd_forcing(v, Re, Rem, S):
    """Momentum, Ohm and Faraday right-hand sides (f, g_E, g_B) of the
    augmented B-E system for smooth fields with div u = div B = 0, from the
    pointwise values and derivatives in the mapping v:

    u, B            (..., 2)
    E, curl_B       (...), curl_B = d_x B_2 - d_y B_1
    grad_u          (..., 2, 2), grad_u[..., i, j] = d_j u_i
    lap_u, grad_p   (..., 2)
    vcurl_E         (..., 2), (d_y E, -d_x E)

    With div u = 0 the viscous term -2/Re div eps(u) is -lap_u / Re and the
    augmentation vanishes; with div B = 0 so does g_B's grad div B term."""
    u, B = v["u"], v["B"]
    w = v["E"] + u[..., 0] * B[..., 1] - u[..., 1] * B[..., 0]  # E + u x B
    lorentz = np.stack([B[..., 1] * w, -B[..., 0] * w], axis=-1)  # B x w
    adv = np.einsum("...ij,...j->...i", v["grad_u"], u)
    f = -v["lap_u"] / Re + adv + v["grad_p"] + S * lorentz
    return f, w - v["curl_B"] / Rem, v["vcurl_E"]


def _standard_solution(at, Re, Rem, S, **kw):
    """AnalyticSolution read from at(x, y): the mapping that
    `standard_mhd_forcing` takes, plus the pressure p."""
    def field(name):
        return lambda x, y: at(x, y)[name]

    def force(i):
        return lambda x, y: standard_mhd_forcing(at(x, y), Re, Rem, S)[i]

    return AnalyticSolution({n: field(n) for n in ("u", "p", "E", "B")},
                            {n: force(i) for i, n in
                             enumerate(("f", "g_E", "g_B"))}, **kw)


def _points(x, y):
    return np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))


def hartmann_solution(Re, Rem, S):
    """Hartmann channel profile u = (u1(y), 0), B = (B1(y), 1) on
    (-1/2, 1/2)^2, Ha = sqrt(S Re Rem); forcing terms make the profile an
    exact solution at every parameter value.

    u1 = a (1 - c(y)) and B1 = G/2 (s(y) - 2y), where c'' = Ha^2 c and
    s'' = Ha^2 s.  Below Ha = 100, c = cosh(Ha y) / cosh(Ha/2) and
    s = sinh(Ha y) / sinh(Ha/2).  From Ha = 100 on, where cosh/sinh would
    overflow, the large-Ha branch takes c, s = e_+ +- e_- with
    e_+- = exp(Ha (+-y - 1/2)), whose exponents are never positive on the
    domain; u(+-1/2) = 0 and B1(+-1/2) = 0 hold to exp(-Ha)."""
    Ha = float(np.sqrt(S * Re * Rem))
    large = Ha >= 100.0
    if large:
        G = 2 * Ha / Re
        a = G * Re / (2 * Ha)
    else:
        G = 2 * Ha * np.sinh(Ha / 2) / (Re * (np.cosh(Ha / 2) - 1.0))
        a = G * Re / (2 * Ha * np.tanh(Ha / 2))
    b = G / 2

    def at(x, y):
        x, y = _points(x, y)
        if large:
            ep, em = np.exp(Ha * (y - 0.5)), np.exp(Ha * (-y - 0.5))
            c, s = ep + em, ep - em
            dc, ds = Ha * s, Ha * c
        else:
            ch, sh = np.cosh(Ha * y), np.sinh(Ha * y)
            c, s = ch / np.cosh(Ha / 2), sh / np.sinh(Ha / 2)
            dc, ds = Ha * sh / np.cosh(Ha / 2), Ha * ch / np.sinh(Ha / 2)
        u1, du1 = a * (1 - c), -a * dc
        B1, dB1 = b * (s - 2 * y), b * (ds - 2)
        zero, one = np.zeros_like(y), np.ones_like(y)
        return {
            "u": np.stack([u1, zero], axis=-1),
            "p": -G * x - B1 ** 2 / 2,
            "E": -dB1 / Rem - u1,  # curl B / Rem - u x B
            "B": np.stack([B1, one], axis=-1),
            "grad_u": np.stack([np.stack([zero, du1], axis=-1),
                                np.stack([zero, zero], axis=-1)], axis=-2),
            "lap_u": np.stack([-a * Ha ** 2 * c, zero], axis=-1),
            "grad_p": np.stack([-G * one, -B1 * dB1], axis=-1),
            "vcurl_E": np.stack([-b * Ha ** 2 * s / Rem - du1, zero],
                                axis=-1),
            "curl_B": -dB1,
        }

    return _standard_solution(at, Re, Rem, S,
                              params={"Re": Re, "Rem": Rem, "S": S, "Ha": Ha,
                                      "G": float(G)},
                              guard="large-Ha branch" if large else None)


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


def mms_solution(Re, Rem, S):
    """Smooth manufactured solution on (-1/2, 1/2)^2 for convergence tests:
    u = vcurl(sin(pi x) sin(pi y) / pi), p = sin(pi x) cos(2 pi y),
    E = sin(2 pi x) sin(pi y), B = vcurl(cos(pi x) cos(pi y) / pi) + (0, 1)."""
    pi = np.pi

    def at(x, y):
        x, y = _points(x, y)
        sx, cx = np.sin(pi * x), np.cos(pi * x)
        sy, cy = np.sin(pi * y), np.cos(pi * y)
        s2x, s2y = np.sin(2 * pi * x), np.sin(2 * pi * y)
        c2x, c2y = np.cos(2 * pi * x), np.cos(2 * pi * y)
        u = np.stack([sx * cy, -cx * sy], axis=-1)
        return {
            "u": u,
            "p": sx * c2y,
            "E": s2x * sy,
            "B": np.stack([-cx * sy, sx * cy + 1], axis=-1),
            "grad_u": pi * np.stack([np.stack([cx * cy, -sx * sy], axis=-1),
                                     np.stack([sx * sy, -cx * cy], axis=-1)],
                                    axis=-2),
            "lap_u": -2 * pi ** 2 * u,
            "grad_p": pi * np.stack([cx * c2y, -2 * sx * s2y], axis=-1),
            "vcurl_E": pi * np.stack([s2x * cy, -2 * c2x * sy], axis=-1),
            "curl_B": 2 * pi * cx * cy,
        }

    return _standard_solution(at, Re, Rem, S,
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
