"""Where the benchmark records spans and counts calls in mhdkit.

Each span name is `<module>.<what>`, after the mhdkit module that does the
work; the per-layer metrics of BENCHMARK.json are built from SPANS.  A
target is written "module:function" or "module:Class.method" and is only
imported when instrument() or install_counters() runs, so the span names can
be read without importing mhdkit.
"""

import collections
import functools
import importlib

PRECONDS = tuple(f"mhdkit.precond:{c}" for c in (
    "StandardMHDPrecond", "AnisothermalPrecond", "HallPrecond"))
MODELS = ("mhdkit.models.standard:StandardMHD", "mhdkit.models.hall:HallMHD",
          "mhdkit.models.boussinesq:BoussinesqMHD")
STEPPERS = ("mhdkit.conservative:UxnStepper",
            "mhdkit.conservative:UdotnStepper")
LU = "mhdkit.linalg:LuSolver"
ARNOLDI = "mhdkit.linalg:shift_invert_arnoldi"
KRYLOV_FACTORY = "mhdkit.precond:KrylovSolverFactory"

# span name -> functions, each replaced in every mhdkit module that binds it
FUNCTIONS = {
    "problems.make_problem": ["mhdkit.problems:make_problem"],
    "models.analytic": ["mhdkit.models.analytic:hartmann_solution",
                        "mhdkit.problems:_hall_island_equilibrium",
                        "mhdkit.models.analytic:conduction_state"],
    "mesh.build": ["mhdkit.mesh:build_rect_mesh",
                   "mhdkit.mesh:refine_uniform"],
    "multigrid.build_transfer": ["mhdkit.multigrid:build_transfer"],
    "multigrid.star_patches": ["mhdkit.multigrid:star_patches"],
    "assembly.cell_matrix": ["mhdkit.assembly:cell_matrix"],
    "timestepping.step": ["mhdkit.timestepping:step_multistep"],
    "bifurcation.arnoldi": [ARNOLDI],
}

# span name -> methods, each replaced on the class that defines it
METHODS = {
    "precond.init": [f"{c}.__init__" for c in PRECONDS],
    "precond.build": [f"{c}.build" for c in PRECONDS],
    "precond.apply": ["mhdkit.precond:BlockUpperPrecond.apply"],
    "multigrid.setup": ["mhdkit.multigrid:GeometricMultigrid.setup"],
    "multigrid.apply": ["mhdkit.multigrid:GeometricMultigrid.apply"],
    "multigrid.patch_setup": ["mhdkit.multigrid:PatchSmoother.setup"],
    "multigrid.patch_apply": ["mhdkit.multigrid:PatchSmoother.apply"],
    "models.residual": [f"{m}.residual" for m in MODELS],
    "models.jacobian": [f"{m}.jacobian" for m in MODELS],
    "elements.tabulate_cells": ["mhdkit.elements:FunctionSpace"
                                ".tabulate_cells"],
    "linalg.lu_factor": [f"{LU}.__init__"],
    "linalg.lu_solve": [f"{LU}.solve", f"{LU}.__call__"],
    "conservative.scheme_init": ["mhdkit.conservative:ConservativeScheme"
                                 ".__init__"]
    + [f"{s}.__init__" for s in STEPPERS],
    "conservative.step": [f"{s}.step" for s in STEPPERS],
    "conservative.sweep": [f"{s}._sweep" for s in STEPPERS],
    "conservative.cross_rhs": ["mhdkit.conservative:ConservativeScheme"
                               ".cross_rhs"],
    "conservative.project": ["mhdkit.conservative:ConservativeScheme"
                             ".project_curl"],
}

# the outer FGMRES solve is the closure KrylovSolverFactory returns
KRYLOV_SPAN = "linalg.krylov"
OBSERVE_SPAN = "timestepping.observe"

# every layer span a traced repetition records
SPANS = (*FUNCTIONS, *METHODS, KRYLOV_SPAN, OBSERVE_SPAN)


def _resolve(target):
    """(owner, attribute name) of a "module:name" or "module:Class.method"
    target."""
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    return owner, attr


def _load():
    """Import every module that binds a wrapped function before any is
    replaced, so that Patcher.wrap_function finds all of its bindings."""
    for pairs in (*FUNCTIONS.values(), *METHODS.values()):
        for target in pairs:
            _resolve(target)
    importlib.import_module("mhdkit.bifurcation")


def _wrap_function(patcher, target, wrapper):
    patcher.wrap_function(getattr(*_resolve(target)), wrapper)


def _wrap_method(patcher, target, wrapper):
    patcher.wrap_method(*_resolve(target), wrapper)


def instrument(tracer, patcher):
    """Record spans at every layer boundary listed above."""
    _load()
    for name, targets in FUNCTIONS.items():
        for target in targets:
            _wrap_function(patcher, target, tracer.wrapper(name))
    for name, targets in METHODS.items():
        for target in targets:
            _wrap_method(patcher, target, tracer.wrapper(name))

    def krylov_call(call):
        @functools.wraps(call)
        def traced_call(self, A, parts):
            return tracer.wrap(call(self, A, parts), KRYLOV_SPAN)
        return traced_call

    _wrap_method(patcher, f"{KRYLOV_FACTORY}.__call__", krylov_call)


def install_counters(patcher):
    """Call counters, with no clock reads, that untraced repetitions carry
    too: sparse-LU solves, midpoint sweeps and the LU solves made inside
    the shift-invert Arnoldi iteration (one per Arnoldi step)."""
    _load()
    counts = collections.Counter()

    def counting(key):
        def wrapper(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return wrapper

    def arnoldi(fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = counts["lu_solve"]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["arnoldi_step"] += counts["lu_solve"] - before
        return counted

    for attr in ("solve", "__call__"):
        _wrap_method(patcher, f"{LU}.{attr}", counting("lu_solve"))
    for stepper in STEPPERS:
        _wrap_method(patcher, f"{stepper}._sweep", counting("sweep"))
    _wrap_function(patcher, ARNOLDI, arnoldi)
    return counts
