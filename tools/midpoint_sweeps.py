"""Fixed-point sweeps per step of the energy-conserving midpoint schemes.

  PYTHONPATH=src python tools/midpoint_sweeps.py --steps 3

Steps ideal Hall MHD (S = 1, 1/Re = 1/Rem = 0) on the n x n unit square
from B = vcurl(sin pi x sin pi y) + 0.5 sin pi x sin pi y e_z and
u = vcurl(sin^2 pi x sin^2 pi y) + 0.3 sin pi x sin pi y e_z, and prints one
table per family: a row per (mesh, R_H), a column per dt.  Each cell is the
range of sweeps per step over `--steps` steps, or `fail` when a step raises
`FixedPointFailure`.
"""

import argparse
import sys

import numpy as np

from mhdkit.conservative import (ConservativeScheme, FixedPointFailure,
                                 UdotnStepper, UxnStepper,
                                 initial_udotn_state, initial_uxn_state)
from mhdkit.mesh import build_rect_mesh

FAMILIES = {"uxn": (initial_uxn_state, UxnStepper),
            "udotn": (initial_udotn_state, UdotnStepper)}


def b0(x, y):
    pi, s, c = np.pi, np.sin, np.cos
    return np.stack([pi * s(pi * x) * c(pi * y),
                     -pi * c(pi * x) * s(pi * y),
                     0.5 * s(pi * x) * s(pi * y)], axis=-1)


def u0(x, y):
    pi, s, c = np.pi, np.sin, np.cos
    sx, cx, sy, cy = s(pi * x), c(pi * x), s(pi * y), c(pi * y)
    return np.stack([2 * pi * sx ** 2 * sy * cy,
                     -2 * pi * sx * cx * sy ** 2,
                     0.3 * sx * sy], axis=-1)


def sweeps_per_step(family, n, R_H, dt, steps):
    """The sweeps of each of `steps` steps, or None if one fails."""
    mesh = build_rect_mesh((0.0, 1.0, 0.0, 1.0), n, n, "right")
    scheme = ConservativeScheme(mesh, S=1.0, R_H=R_H)
    initial, stepper_class = FAMILIES[family]
    stepper = stepper_class(scheme, dt)
    state = initial(scheme, u0, b0)
    counts = []
    for _ in range(steps):
        try:
            state = stepper.step(state)
        except FixedPointFailure:
            return None
        counts.append(state.fp_iters)
    return counts


def cell(counts):
    if counts is None:
        return "fail"
    lo, hi = min(counts), max(counts)
    return str(lo) if lo == hi else f"{lo}-{hi}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", nargs="+", choices=FAMILIES,
                    default=list(FAMILIES))
    ap.add_argument("--meshes", type=int, nargs="+", default=(8, 16))
    ap.add_argument("--rh", type=float, nargs="+", default=(0.0, 0.1, 1.0))
    ap.add_argument("--dt", type=float, nargs="+", default=(1e-3, 1e-2))
    ap.add_argument("--steps", type=int, default=3)
    args = ap.parse_args(argv)
    for family in args.families:
        print(f"{family}: sweeps per step over {args.steps} steps")
        print("mesh | R_H | " + " | ".join(f"dt {dt:g}" for dt in args.dt))
        for n in args.meshes:
            for R_H in args.rh:
                cells = [cell(sweeps_per_step(family, n, R_H, dt,
                                              args.steps))
                         for dt in args.dt]
                print(f"{n}x{n} | {R_H:g} | " + " | ".join(cells),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
