"""Named benchmark problems: meshes, boundary data, forcing, model and
preconditioner wiring, plus the sectioned key=value run-configuration
format."""

import numpy as np

from .mesh import build_rect_mesh, refine_uniform
from .models.base import ModelParams
from .models.standard import StandardMHD
from .models.boussinesq import BoussinesqMHD
from .models.hall import HallMHD, compatible_hall_bcs
from .models import analytic
from .assembly import sipg_viscous
from .precond import (StandardMHDPrecond, AnisothermalPrecond, HallPrecond,
                      BlockPrecondConfig)

PROBLEM_NAMES = ("hartmann", "ldc2d", "island_coalescence", "hall_ldc",
                 "hall_island", "double_glazing", "cooling_channel",
                 "rayleigh_benard", "mms")


class ProblemSpec:
    """A named problem resolved to meshes, model, preconditioner factory and
    (when known) the exact reference solution."""

    def __init__(self, name, hierarchy, model, precond_cls, exact=None,
                 extras=None):
        self.name = name
        self.hierarchy = hierarchy
        self.mesh = hierarchy.finest
        self.model = model
        self.precond_cls = precond_cls
        self.exact = exact
        self.extras = extras or {}

    def make_precond(self, config=None):
        return self.precond_cls(self.model, self.hierarchy,
                                config or BlockPrecondConfig())


DEFAULT_MESH = {
    "hartmann": dict(base=(16, 16), levels=1, pattern="right",
                     domain=(-0.5, 0.5, -0.5, 0.5)),
    "ldc2d": dict(base=(16, 16), levels=1, pattern="right",
                  domain=(-0.5, 0.5, -0.5, 0.5)),
    "mms": dict(base=(8, 8), levels=0, pattern="right",
                domain=(-0.5, 0.5, -0.5, 0.5)),
    "island_coalescence": dict(base=(16, 16), levels=1, pattern="right",
                               domain=(-1.0, 1.0, -1.0, 1.0)),
    "hall_ldc": dict(base=(8, 8), levels=1, pattern="right",
                     domain=(-0.5, 0.5, -0.5, 0.5)),
    "hall_island": dict(base=(16, 16), levels=1, pattern="right",
                        domain=(-1.0, 1.0, -1.0, 1.0)),
    "double_glazing": dict(base=(16, 16), levels=1, pattern="right",
                           domain=(-0.5, 0.5, -0.5, 0.5)),
    "cooling_channel": dict(base=(40, 8), levels=1, pattern="right",
                            domain=(0.0, 10.0, -1.0, 1.0)),
    "rayleigh_benard": dict(base=(32, 32), levels=0, pattern="crossed",
                            domain=(0.0, 1.0, 0.0, 1.0)),
}

DEFAULT_PARAMS = {
    "hartmann": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1e4),
    "ldc2d": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1e4),
    "mms": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1.0),
    "island_coalescence": dict(Re=1000.0, Rem=1000.0, S=1000.0, gamma=1e4),
    "hall_ldc": dict(Re=1.0, Rem=1.0, S=1.0, R_H=0.1, gamma=1e4),
    "hall_island": dict(Re=500.0, Rem=500.0, S=1.0, R_H=0.1, gamma=1e4),
    "double_glazing": dict(Ra=1.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4),
    "cooling_channel": dict(Ra=1.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4),
    "rayleigh_benard": dict(Ra=1000.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4),
}


def _hierarchy(name, levels=None, base=None, pattern=None, periodic_x=False):
    cfg = DEFAULT_MESH[name]
    base = base or cfg["base"]
    pattern = pattern or cfg["pattern"]
    levels = cfg["levels"] if levels is None else levels
    mesh = build_rect_mesh(cfg["domain"], base[0], base[1], pattern,
                           periodic_x=periodic_x)
    return refine_uniform(mesh, levels)


def _params(name, overrides):
    kw = dict(DEFAULT_PARAMS[name])
    for k, v in (overrides or {}).items():
        if v is not None:
            kw[k] = v
    return ModelParams(**kw)


class HartmannModel(StandardMHD):
    """Hartmann problem whose boundary data and forcing track the analytic
    profile when continuation changes the parameters."""

    def params_changed(self):
        from .models.base import QDEG
        sol = analytic.hartmann_solution(self.params.Re, self.params.Rem,
                                         self.params.S)
        self.exact = sol
        self.bcs = {"u": ("all", sol.fields["u"]),
                    "E": ("all", sol.fields["E"]),
                    "B": ("all", sol.fields["B"])}
        self.forcing = {"f": sol.forcing["f"], "g_E": sol.forcing["g_E"],
                        "g_B": sol.forcing["g_B"]}
        self._setup_constraints()
        self.K_sipg_unit, self.r_sipg_unit = sipg_viscous(
            self.spaces["u"], nu=1.0, sym=True, qdeg=QDEG,
            dirichlet_markers=self._vel_marker_list(),
            g_d=self._velocity_bc_data())
        self._rhs_const = self._assemble_forcing()


def make_problem(name, levels=None, params=None, mesh_base=None,
                 pattern=None, **extras):
    """Instantiate a named problem at the requested refinement level."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from "
                         f"{PROBLEM_NAMES}")
    pr = _params(name, params)

    if name == "hartmann":
        hier = _hierarchy(name, levels, mesh_base, pattern)
        sol = analytic.hartmann_solution(pr.Re, pr.Rem, pr.S)
        model = HartmannModel(
            hier.finest, pr,
            bcs={"u": ("all", sol.fields["u"]),
                 "E": ("all", sol.fields["E"]),
                 "B": ("all", sol.fields["B"])},
            forcing=sol.forcing)
        model.exact = sol
        return ProblemSpec(name, hier, model, StandardMHDPrecond, sol)

    if name == "mms":
        hier = _hierarchy(name, levels, mesh_base, pattern)
        sol = analytic.mms_solution(pr.Re, pr.Rem, pr.S)
        model = StandardMHD(
            hier.finest, pr,
            bcs={"u": ("all", sol.fields["u"]),
                 "E": ("all", sol.fields["E"]),
                 "B": ("all", sol.fields["B"])},
            forcing=sol.forcing)
        return ProblemSpec(name, hier, model, StandardMHDPrecond, sol)

    if name == "ldc2d":
        hier = _hierarchy(name, levels, mesh_base, pattern)
        bc_field = extras.get("bc_field", "uniform")
        lid = _lid_velocity(0.5)
        if bc_field == "trig":
            Bbc = _trig_divfree_field()
        else:
            Bbc = lambda x, y: np.stack([np.zeros_like(x),
                                         np.ones_like(y)], axis=-1)
        model = StandardMHD(
            hier.finest, pr,
            bcs={"u": ("all", lid), "E": ("all", None), "B": ("all", Bbc)})
        return ProblemSpec(name, hier, model, StandardMHDPrecond)

    if name == "island_coalescence":
        hier = _hierarchy(name, levels, mesh_base, pattern, periodic_x=True)
        # Alfvenic units: the coupling number equals Rem for this problem
        pr.S = pr.Rem
        eq = analytic.island_equilibrium(pr.Rem, pr.S)
        markers = ["top", "bottom"]
        model = StandardMHD(
            hier.finest, pr,
            bcs={"u": (markers, None), "E": (markers, eq.fields["E"]),
                 "B": (markers, eq.fields["B"])},
            forcing={"g_B": eq.forcing["g_B"]})
        return ProblemSpec(name, hier, model, StandardMHDPrecond, eq,
                           extras={"equilibrium": eq})

    if name == "hall_ldc":
        hier = _hierarchy(name, levels, mesh_base, pattern)
        lid = _lid_velocity(0.5)
        hall_bcs = compatible_hall_bcs(pr)
        Bbc = lambda x, y: np.stack([np.zeros_like(x), np.ones_like(y)],
                                    axis=-1)
        bcs = {"ut": ("all", lid), "u3": ("all", None),
               "Bt": ("all", Bbc), "B3": ("all", None)}
        bcs.update(hall_bcs)
        variant = extras.get("velocity_variant", "hdiv")
        model = HallMHD(hier.finest, pr, bcs=bcs, velocity_variant=variant)
        return ProblemSpec(name, hier, model, HallPrecond)

    if name == "hall_island":
        hier = _hierarchy(name, levels, mesh_base, pattern, periodic_x=True)
        pr.S = 1.0
        eq = _hall_island_equilibrium(pr)
        markers = ["top", "bottom"]
        bcs = {"ut": (markers, None), "u3": (markers, None),
               "Bt": (markers, eq["Bt"]), "B3": (markers, None),
               "Et": (markers, eq["Et"]), "E3": (markers, eq["E3"]),
               "jt": (markers, None), "j3": (markers, eq["j3"])}
        model = HallMHD(hier.finest, pr, bcs=bcs,
                        forcing={"gB_t": eq["gB_t"], "gB_3": eq["gB_3"]},
                        velocity_variant="hdiv")
        return ProblemSpec(name, hier, model, HallPrecond,
                           extras={"equilibrium": eq})

    if name in ("double_glazing", "cooling_channel", "rayleigh_benard"):
        hier = _hierarchy(name, levels, mesh_base, pattern)
        Bbc = lambda x, y: np.stack([np.zeros_like(x), np.ones_like(y)],
                                    axis=-1)
        if name == "double_glazing":
            th_markers = ["left", "right"]

            def th_bc(x, y):
                return np.where(np.abs(x + 0.5) < 1e-9, 1.0, 0.0)
            u_markers = "all"
            u_bc = None
        elif name == "rayleigh_benard":
            th_markers = ["top", "bottom"]

            def th_bc(x, y):
                return np.where(np.abs(y) < 1e-9, 1.0, 0.0)
            u_markers = "all"
            u_bc = None
        else:  # cooling channel
            th_markers = ["left", "top", "bottom"]

            def th_bc(x, y):
                ramp = np.clip(2.0 - x, 0.0, 1.0)
                return np.where(x < 1.0, 1.0, ramp)
            u_markers = ["left", "top", "bottom"]

            def u_bc(x, y):
                inflow = np.abs(x) < 1e-9
                return np.stack([np.where(inflow, 1.0, 0.0),
                                 np.zeros_like(y)], axis=-1)
        variant = extras.get("velocity_variant", "hdiv")
        bcs = {"u": (u_markers, u_bc), "theta": (th_markers, th_bc),
               "E": ("all", None), "B": ("all", Bbc)}
        model = BoussinesqMHD(hier.finest, pr, bcs=bcs,
                              velocity_variant=variant)
        return ProblemSpec(name, hier, model, AnisothermalPrecond)

    raise AssertionError


def _lid_velocity(ytop, speed=1.0):
    def lid(x, y):
        on = np.abs(y - ytop) < 1e-9
        return np.stack([np.where(on, speed, 0.0), np.zeros_like(y)],
                        axis=-1)
    return lid


def _trig_divfree_field():
    def B(x, y):
        return np.stack([-np.pi * np.sin(2 * np.pi * x)
                         * np.sin(2 * np.pi * y),
                         -np.pi * np.cos(2 * np.pi * x)
                         * np.cos(2 * np.pi * y)], axis=-1)
    return B


def _hall_island_equilibrium(pr):
    """Hall island equilibrium fields and Faraday forcings (S = 1)."""
    import sympy as sym
    from .models.analytic import X, Y, _lamb, _lamb_vec, _curl2, _vcurl
    k = 0.2
    D = sym.cosh(2 * sym.pi * Y) + k * sym.cos(2 * sym.pi * X)
    Bt = (sym.sinh(2 * sym.pi * Y) / D, k * sym.sin(2 * sym.pi * X) / D)
    p = (1 - k ** 2) / 2 * (1 + 1 / D ** 2)
    j3 = sym.simplify(_curl2(Bt))
    E3 = j3 / pr.Rem
    # Et = -R_H (Bt x j3) = -R_H j3 perp(Bt)
    Et = (-pr.R_H * j3 * Bt[1], pr.R_H * j3 * Bt[0])
    gBt = _vcurl(E3)
    gB3 = sym.diff(Et[1], X) - sym.diff(Et[0], Y)
    eps = 0.01
    dB = (-(eps / sym.pi) * sym.cos(sym.pi * X) * sym.sin(sym.pi * Y / 2),
          (2 * eps / sym.pi) * sym.cos(sym.pi * Y / 2)
          * sym.sin(sym.pi * X))
    return {
        "Bt": _lamb_vec(*Bt), "p": _lamb(p), "j3": _lamb(j3),
        "E3": _lamb(E3), "Et": _lamb_vec(*Et),
        "gB_t": _lamb_vec(*gBt), "gB_3": _lamb(gB3),
        "dB": _lamb_vec(*dB),
    }


# -- run configuration files ------------------------------------------------------

KNOWN_KEYS = {
    "problem": {"name", "levels", "nx", "ny", "pattern", "bc_field",
                "velocity_variant"},
    "params": {"Re", "Rem", "S", "RH", "Ra", "Pr", "Pm", "gamma",
               "stabilisation", "quad_degree_bc"},
    "solver": {"linearisation", "elimination", "linear_solver", "rtol",
               "atol", "max_steps", "threads", "continuation"},
    "time": {"dt", "T", "scheme"},
    "output": {"out_dir", "vtk", "series"},
}


class ConfigError(Exception):
    pass


def parse_config(text):
    """Sectioned key=value text; unknown sections or keys are rejected."""
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in KNOWN_KEYS:
                raise ConfigError(f"unknown section [{section}] "
                                  f"(line {lineno})")
            out.setdefault(section, {})
            continue
        if section is None or "=" not in line:
            raise ConfigError(f"malformed line {lineno}: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in KNOWN_KEYS[section]:
            raise ConfigError(f"unknown key {key!r} in section "
                              f"[{section}] (line {lineno})")
        out[section][key] = val
    return out


def emit_config(cfg):
    lines = []
    for section in KNOWN_KEYS:
        if section not in cfg:
            continue
        lines.append(f"[{section}]")
        for k, v in cfg[section].items():
            lines.append(f"{k} = {v}")
        lines.append("")
    return "\n".join(lines)
