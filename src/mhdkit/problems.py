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
    (when known) the exact reference solution, its data derived from the
    ModelParams `params` by `problem_data`; `set_params` changes the
    parameters and derives the data again."""

    def __init__(self, name, hierarchy, params, bc_field=None):
        self.name = name
        self.hierarchy = hierarchy
        self.mesh = hierarchy.finest
        self.bc_field = bc_field
        model_cls, self.precond_cls = CLASSES[name]
        bcs, forcing, self.exact, self.extras = problem_data(name, params,
                                                             bc_field)
        self.model = model_cls(self.mesh, params, bcs=bcs, forcing=forcing)

    def make_precond(self, config=None):
        """The problem's block preconditioner; `config`, an optionless
        `BlockPrecondConfig`, is accepted and has nothing to set."""
        return self.precond_cls(self.model, self.hierarchy)

    def set_params(self, **values):
        """Set the given parameters, as `make_problem`'s `params` do (a
        parameter the problem does not read is a ValueError), and re-derive
        the derived parameters, the boundary data, the forcing, `exact` and
        `extras` from them."""
        pr = self.model.params
        for k, v in _overrides(self.name, values).items():
            setattr(pr, k, v)
        bcs, forcing, self.exact, self.extras = problem_data(
            self.name, pr, self.bc_field)
        self.model.set_data(bcs, forcing)


DEFAULT_MESH = {
    "hartmann": dict(base=(16, 16), levels=1, pattern="right",
                     domain=(-0.5, 0.5, -0.5, 0.5)),
    "ldc2d": dict(base=(16, 16), levels=1, pattern="right",
                  domain=(-0.5, 0.5, -0.5, 0.5)),
    "mms": dict(base=(8, 8), levels=0, pattern="right",
                domain=(-0.5, 0.5, -0.5, 0.5)),
    "island_coalescence": dict(base=(16, 16), levels=1, pattern="right",
                               domain=(-1.0, 1.0, -1.0, 1.0),
                               periodic_x=True),
    "hall_ldc": dict(base=(8, 8), levels=1, pattern="right",
                     domain=(-0.5, 0.5, -0.5, 0.5)),
    "hall_island": dict(base=(16, 16), levels=1, pattern="right",
                        domain=(-1.0, 1.0, -1.0, 1.0), periodic_x=True),
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

# each problem's model and block preconditioner
CLASSES = {
    **dict.fromkeys(("hartmann", "ldc2d", "island_coalescence", "mms"),
                    (StandardMHD, StandardMHDPrecond)),
    **dict.fromkeys(("hall_ldc", "hall_island"), (HallMHD, HallPrecond)),
    **dict.fromkeys(("double_glazing", "cooling_channel", "rayleigh_benard"),
                    (BoussinesqMHD, AnisothermalPrecond)),
}


def _hierarchy(name, levels=None, base=None):
    cfg = DEFAULT_MESH[name]
    base = base or cfg["base"]
    levels = cfg["levels"] if levels is None else levels
    mesh = build_rect_mesh(cfg["domain"], base[0], base[1], cfg["pattern"],
                           periodic_x=cfg.get("periodic_x", False))
    return refine_uniform(mesh, levels)


def _overrides(name, overrides):
    """The given parameters of problem `name` that are not None; a
    parameter the problem does not read is a ValueError."""
    unread = set(overrides or ()) - set(DEFAULT_PARAMS[name])
    if unread:
        raise ValueError(f"problem {name!r} does not read "
                         f"{', '.join(sorted(unread))}; it reads "
                         f"{', '.join(DEFAULT_PARAMS[name])}")
    return {k: v for k, v in (overrides or {}).items() if v is not None}


def _params(name, overrides):
    """The ModelParams of problem `name` with `overrides`; a parameter the
    problem does not read is a ValueError."""
    return ModelParams(**{**DEFAULT_PARAMS[name],
                          **_overrides(name, overrides)})


def problem_data(name, pr, bc_field=None):
    """The data of problem `name` at the parameters `pr`, the only code
    that derives them: sets the parameters the problem derives on `pr` (the
    island problems' S) and returns (bcs, forcing, exact, extras), the
    model's boundary data and forcing and the problem's exact solution
    (None when unknown) and extras."""
    if name in ("hartmann", "mms"):
        solution = (analytic.hartmann_solution if name == "hartmann"
                    else analytic.mms_solution)
        sol = solution(pr.Re, pr.Rem, pr.S)
        return ({f: ("all", sol.fields[f]) for f in ("u", "E", "B")},
                sol.forcing, sol, {})

    ytop = DEFAULT_MESH[name]["domain"][3]
    if name == "ldc2d":
        Bbc = _trig_divfree_field() if bc_field == "trig" else _unit_y
        return ({"u": ("all", _lid_velocity(ytop)), "E": ("all", None),
                 "B": ("all", Bbc)}, {}, None, {})

    if name == "hall_ldc":
        bcs = {"ut": ("all", _lid_velocity(ytop)), "u3": ("all", None),
               "Bt": ("all", _unit_y), "B3": ("all", None),
               **compatible_hall_bcs(pr, ytop=ytop)}
        return bcs, {}, None, {}

    markers = ["top", "bottom"]
    if name == "island_coalescence":
        # Alfvenic units: the coupling number equals Rem for this problem
        pr.S = pr.Rem
        eq = analytic.island_equilibrium(pr.Rem, pr.S)
        return ({"u": (markers, None), "E": (markers, eq.fields["E"]),
                 "B": (markers, eq.fields["B"])},
                {"g_B": eq.forcing["g_B"]}, eq, {"equilibrium": eq})

    if name == "hall_island":
        pr.S = 1.0
        eq = _hall_island_equilibrium(pr)
        bcs = {"ut": (markers, None), "u3": (markers, None),
               "Bt": (markers, eq["Bt"]), "B3": (markers, None),
               "Et": (markers, eq["Et"]), "E3": (markers, eq["E3"]),
               "jt": (markers, None), "j3": (markers, eq["j3"])}
        return (bcs, {"gB_t": eq["gB_t"], "gB_3": eq["gB_3"]}, None,
                {"equilibrium": eq})

    # the anisothermal problems, whose data read no parameter
    u_markers, u_bc = "all", None
    if name == "double_glazing":
        th_markers = ["left", "right"]

        def th_bc(x, y):
            return np.where(np.abs(x + 0.5) < 1e-9, 1.0, 0.0)
    elif name == "rayleigh_benard":
        th_markers = ["top", "bottom"]

        def th_bc(x, y):
            return np.where(np.abs(y) < 1e-9, 1.0, 0.0)
    else:  # cooling channel
        th_markers = u_markers = ["left", "top", "bottom"]

        def th_bc(x, y):
            return np.where(x < 1.0, 1.0, np.clip(2.0 - x, 0.0, 1.0))

        def u_bc(x, y):
            return np.stack([np.where(np.abs(x) < 1e-9, 1.0, 0.0),
                             np.zeros_like(y)], axis=-1)
    return ({"u": (u_markers, u_bc), "theta": (th_markers, th_bc),
             "E": ("all", None), "B": ("all", _unit_y)}, {}, None, {})


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
    return ProblemSpec(name, _hierarchy(name, levels, mesh_base), pr,
                       bc_field)


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


def _lid_velocity(ytop):
    def lid(x, y):
        on = np.abs(y - ytop) < 1e-9
        return np.stack([np.where(on, 1.0, 0.0), np.zeros_like(y)], axis=-1)
    return lid


def _unit_y(x, y):
    return np.stack([np.zeros_like(x), np.ones_like(y)], axis=-1)


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
