"""Named benchmark problems: meshes, boundary data, forcing, model and
preconditioner wiring."""

import numpy as np

from .mesh import build_rect_mesh, refine_uniform
from .elements import interpolate, l2_project
from .models.base import ModelParams
from .models.standard import StandardMHD
from .models.boussinesq import BoussinesqMHD
from .models.hall import HallMHD, compatible_hall_bcs
from .models import analytic
from .precond import StandardMHDPrecond, AnisothermalPrecond, HallPrecond

PROBLEM_NAMES = ("hartmann", "ldc2d", "island_coalescence", "hall_ldc",
                 "hall_island", "double_glazing", "cooling_channel",
                 "rayleigh_benard", "mms")
# ldc2d's boundary magnetic fields, the first the default
BC_FIELDS = ("uniform", "trig")


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
        """The problem's block preconditioner; `config`, an optionless
        `BlockPrecondConfig`, is accepted and has nothing to set."""
        return self.precond_cls(self.model, self.hierarchy)


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

# each problem's defaults of exactly the ModelParams parameters it reads:
# the island problems derive their S, and the Hall model has no
# gradient-jump penalty stab_mu
DEFAULT_PARAMS = {
    "hartmann": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1e4, stab_mu=0.0),
    "ldc2d": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1e4, stab_mu=0.0),
    "mms": dict(Re=1.0, Rem=1.0, S=1.0, gamma=1.0, stab_mu=0.0),
    "island_coalescence": dict(Re=1000.0, Rem=1000.0, gamma=1e4,
                               stab_mu=0.0),
    "hall_ldc": dict(Re=1.0, Rem=1.0, S=1.0, R_H=0.1, gamma=1e4),
    "hall_island": dict(Re=500.0, Rem=500.0, R_H=0.1, gamma=1e4),
    "double_glazing": dict(Ra=1.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4,
                           stab_mu=0.0),
    "cooling_channel": dict(Ra=1.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4,
                            stab_mu=0.0),
    "rayleigh_benard": dict(Ra=1000.0, Pr=1.0, Pm=1.0, S=1.0, gamma=1e4,
                            stab_mu=0.0),
}


def _hierarchy(name, levels=None, base=None, periodic_x=False):
    cfg = DEFAULT_MESH[name]
    base = base or cfg["base"]
    levels = cfg["levels"] if levels is None else levels
    mesh = build_rect_mesh(cfg["domain"], base[0], base[1], cfg["pattern"],
                           periodic_x=periodic_x)
    return refine_uniform(mesh, levels)


def _params(name, overrides):
    """The ModelParams of problem `name` with `overrides`; a parameter the
    problem does not read is a ValueError."""
    kw = dict(DEFAULT_PARAMS[name])
    unread = set(overrides or ()) - set(kw)
    if unread:
        raise ValueError(f"problem {name!r} does not read "
                         f"{', '.join(sorted(unread))}; it reads "
                         f"{', '.join(kw)}")
    for k, v in (overrides or {}).items():
        if v is not None:
            kw[k] = v
    return ModelParams(**kw)


class HartmannModel(StandardMHD):
    """Hartmann problem whose boundary data and forcing track the analytic
    profile when continuation changes the parameters."""

    def params_changed(self):
        sol = analytic.hartmann_solution(self.params.Re, self.params.Rem,
                                         self.params.S)
        self.exact = sol
        self.bcs = {"u": ("all", sol.fields["u"]),
                    "E": ("all", sol.fields["E"]),
                    "B": ("all", sol.fields["B"])}
        self.forcing = {"f": sol.forcing["f"], "g_E": sol.forcing["g_E"],
                        "g_B": sol.forcing["g_B"]}
        self._setup_constraints()
        _, self.r_sipg_unit = self._sipg(sym=True)
        self._rhs_const = self._assemble_forcing()


def make_problem(name, levels=None, params=None, mesh_base=None,
                 bc_field=None):
    """Instantiate a named problem at the requested refinement level.
    `params` overrides the problem's DEFAULT_PARAMS, and may name no other
    parameter.  `bc_field`, one of BC_FIELDS, picks the boundary magnetic
    field of ldc2d; no other problem takes one."""
    if name not in PROBLEM_NAMES:
        raise ValueError(f"unknown problem {name!r}; choose from "
                         f"{PROBLEM_NAMES}")
    if bc_field is not None and name != "ldc2d":
        raise ValueError(f"problem {name!r} takes no bc_field")
    if bc_field not in (None, *BC_FIELDS):
        raise ValueError(f"unknown bc_field {bc_field!r}; choose from "
                         f"{BC_FIELDS}")
    pr = _params(name, params)

    if name == "hartmann":
        hier = _hierarchy(name, levels, mesh_base)
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
        hier = _hierarchy(name, levels, mesh_base)
        sol = analytic.mms_solution(pr.Re, pr.Rem, pr.S)
        model = StandardMHD(
            hier.finest, pr,
            bcs={"u": ("all", sol.fields["u"]),
                 "E": ("all", sol.fields["E"]),
                 "B": ("all", sol.fields["B"])},
            forcing=sol.forcing)
        return ProblemSpec(name, hier, model, StandardMHDPrecond, sol)

    if name == "ldc2d":
        hier = _hierarchy(name, levels, mesh_base)
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
        hier = _hierarchy(name, levels, mesh_base, periodic_x=True)
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
        hier = _hierarchy(name, levels, mesh_base)
        ytop = DEFAULT_MESH[name]["domain"][3]
        lid = _lid_velocity(ytop)
        hall_bcs = compatible_hall_bcs(pr, ytop=ytop)
        Bbc = lambda x, y: np.stack([np.zeros_like(x), np.ones_like(y)],
                                    axis=-1)
        bcs = {"ut": ("all", lid), "u3": ("all", None),
               "Bt": ("all", Bbc), "B3": ("all", None)}
        bcs.update(hall_bcs)
        model = HallMHD(hier.finest, pr, bcs=bcs)
        return ProblemSpec(name, hier, model, HallPrecond)

    if name == "hall_island":
        hier = _hierarchy(name, levels, mesh_base, periodic_x=True)
        pr.S = 1.0
        eq = _hall_island_equilibrium(pr)
        markers = ["top", "bottom"]
        bcs = {"ut": (markers, None), "u3": (markers, None),
               "Bt": (markers, eq["Bt"]), "B3": (markers, None),
               "Et": (markers, eq["Et"]), "E3": (markers, eq["E3"]),
               "jt": (markers, None), "j3": (markers, eq["j3"])}
        model = HallMHD(hier.finest, pr, bcs=bcs,
                        forcing={"gB_t": eq["gB_t"], "gB_3": eq["gB_3"]})
        return ProblemSpec(name, hier, model, HallPrecond,
                           extras={"equilibrium": eq})

    if name in ("double_glazing", "cooling_channel", "rayleigh_benard"):
        hier = _hierarchy(name, levels, mesh_base)
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
        bcs = {"u": (u_markers, u_bc), "theta": (th_markers, th_bc),
               "E": ("all", None), "B": ("all", Bbc)}
        model = BoussinesqMHD(hier.finest, pr, bcs=bcs)
        return ProblemSpec(name, hier, model, AnisothermalPrecond)

    raise AssertionError


# the island problems' equilibrium fields interpolated into the initial
# state, besides the perturbed magnetic field and the pressure
ISLAND_FIELDS = {"island_coalescence": ("E",),
                 "hall_island": ("j3", "E3", "Et")}


def island_initial_state(spec):
    """Initial state of an island problem: the equilibrium with the
    perturbation dB added to the magnetic field, interpolated, and the
    pressure L2-projected and shifted to vanish at its pinned first dof."""
    model = spec.model
    eq = spec.extras["equilibrium"]
    fields = getattr(eq, "fields", eq)  # AnalyticSolution, or Hall's dict
    st = model.initial_state()
    mag = model.magnetic
    st.set_field(mag, interpolate(
        model.spaces[mag],
        lambda x, y: fields[mag](x, y) + fields["dB"](x, y), 12))
    for name in ISLAND_FIELDS[spec.name]:
        st.set_field(name, interpolate(model.spaces[name], fields[name], 12))
    pp = l2_project(model.spaces["p"], fields["p"]).coefficients
    st.set_field("p", pp - pp[0])
    return model.apply_state_bcs(st)


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
    """Hall island equilibrium fields and Faraday forcings (S = 1): the
    cat's eye with E3 = j3 / Rem and Et = -R_H (Bt x j3) = R_H j3 (-B_y, B_x).
    The out-of-plane forcing curl Et = R_H (Bt . grad j3 + j3 div Bt)
    vanishes, because j3 is a function of D and Bt is tangent to its level
    lines."""
    eye = analytic.CatsEye

    def Et(x, y):
        c = eye(x, y)
        return pr.R_H * c.j[..., None] * np.stack([-c.B[..., 1], c.B[..., 0]],
                                                  axis=-1)

    return {
        "Bt": lambda x, y: eye(x, y).B, "p": lambda x, y: eye(x, y).p,
        "j3": lambda x, y: eye(x, y).j,
        "E3": lambda x, y: eye(x, y).j / pr.Rem, "Et": Et,
        "gB_t": lambda x, y: eye(x, y).vcurl_j / pr.Rem,
        "gB_3": analytic._zero,
        "dB": lambda x, y: eye(x, y).dB,
    }
