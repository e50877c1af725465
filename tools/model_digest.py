"""SHA-256 digests of the models' residuals, Jacobians and block
preconditioners.

  PYTHONPATH=src python tools/model_digest.py > digests.txt

Builds each case on a 4 x 4 base mesh (no refinement) with a small
gradient-jump penalty where the model has one, sets a seeded random state
that satisfies the boundary conditions, and prints one line per evaluation:
the digest of the residual, then of every Jacobian's CSR arrays (data,
indices, indptr) for newton/picard x mass_coeff {0, 1.5} x steady_coeff
{1, 0.5}, and for the Boussinesq models also each of the three drop
flags, then of the CSR arrays of the Faraday map at mass_coeff 1.5 and
steady_coeff 0.5, which the frozen-Jacobian transient solve factorises
with.  The last line of a case is the digest of its block preconditioner,
built on the Newton Jacobian and applied to the residual at the seeded
state, with one level of refinement so that the multigrid's patch smoother
runs.

After the cases comes one line per element of `elements.SUPPORTED` on each
of two meshes: the x-periodic 4 x 4 mesh of (-1, 1)^2 refined once and the
4 x 4 crossed unit square.  It digests the space's dofmap, its basis
coefficients, both arrays of its dual functionals, its boundary dofs (all,
and those on top and bottom), its star patches without the boundary dofs
and the mesh's edge markers.

Running it on two versions of the code and diffing the output shows which
evaluations changed by even one bit.
"""

import argparse
import hashlib
import itertools
import sys

import numpy as np

from mhdkit.elements import SUPPORTED, FunctionSpace
from mhdkit.mesh import build_rect_mesh, refine_uniform
from mhdkit.multigrid import star_patches
from mhdkit.problems import DEFAULT_PARAMS, make_problem

CASES = ("hartmann", "ldc2d", "rayleigh_benard", "hall_ldc", "hall_island")
DROPS = ("drop_buoyancy", "drop_lorentz", "drop_graddiv")


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def seeded_state(model, seed):
    """A random state whose constrained dofs hold the boundary values."""
    rng = np.random.default_rng(seed)
    st = model.initial_state()
    st.vector[:] = rng.standard_normal(st.total)
    return model.apply_state_bcs(st).vector


def _problem(problem, levels):
    stab = "stab_mu" in DEFAULT_PARAMS[problem]
    return make_problem(problem, levels=levels, mesh_base=(4, 4),
                        params={"stab_mu": 1e-3} if stab else None)


def case_lines(problem, seed):
    model = _problem(problem, 0).model
    x = seeded_state(model, seed)
    yield f"{problem} residual {digest(model.residual(x))}"
    for lin, mass, steady in itertools.product(("newton", "picard"),
                                               (0.0, 1.5), (1.0, 0.5)):
        A = model.jacobian(x, lin, mass_coeff=mass, steady_coeff=steady)
        yield (f"{problem} jacobian {lin} mass={mass} steady={steady} "
               f"{digest(A.data, A.indices, A.indptr)}")
    if problem == "rayleigh_benard":
        for flag in DROPS:
            A = model.jacobian(x, "newton", **{flag: True})
            yield (f"{problem} jacobian newton {flag} "
                   f"{digest(A.data, A.indices, A.indptr)}")
    T = model.faraday_map(1.5, 0.5)
    yield (f"{problem} faraday_map mass=1.5 steady=0.5 "
           f"{digest(T.data, T.indices, T.indptr)}")
    spec = _problem(problem, 1)
    x = seeded_state(spec.model, seed)
    M = spec.make_precond().build(spec.model.jacobian(x))
    yield f"{problem} precond {digest(M.apply(spec.model.residual(x)))}"


def element_lines():
    meshes = {
        "periodic": refine_uniform(build_rect_mesh(
            (-1, 1, -1, 1), 4, 4, periodic_x=True), 1).finest,
        "crossed": build_rect_mesh((0, 1, 0, 1), 4, 4, "crossed"),
    }
    for (mesh_name, mesh), (family, degree) in itertools.product(
            meshes.items(), sorted(SUPPORTED)):
        space = FunctionSpace(mesh, family, degree)
        patches = star_patches((space,), space.boundary_dofs())
        h = digest(space.dofmap, space.coeff, *space.dual_points_weights(),
                   space.boundary_dofs(),
                   space.boundary_dofs(["top", "bottom"]),
                   [len(p) for p in patches], *patches, mesh.edge_markers)
        yield f"{family}{degree} {mesh_name} {h}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    for problem in CASES:
        for line in case_lines(problem, args.seed):
            print(line, flush=True)
    for line in element_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
