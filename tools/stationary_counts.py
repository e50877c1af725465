"""Krylov iterations per Newton step of the stationary block-preconditioned
solves across (S, Re = Rem).

  PYTHONPATH=src python tools/stationary_counts.py

For each problem and level count it builds `make_problem(problem,
levels=L, mesh_base=(n, n), params={"stab_mu": 1e-2})`, the problem's block
preconditioner and FGMRES at rtol = atol = 1e-7 with `maxiter` 100, and
continues with `ContinuationSchedule.toward` the targets S, then Re, then
Rem.  It prints one row per (problem, levels) and
a column per cell (S, Re = Rem).  Each cell is the final stage's
`(Newton) avg-linear`, or `NF at <parameter> = <value> (<reason>)` for the
first continuation stage that converges neither undamped nor in its
line-search retry, with the reason its retry stopped.  The last column is
the wall time of the row.
"""

import argparse
import sys
import time

from mhdkit.nonlinear import (ContinuationSchedule, StageFailure,
                              continue_parameters)
from mhdkit.precond import KrylovSolverFactory
from mhdkit.problems import make_problem

CELLS = ((1.0, 1.0), (1.0, 1e3), (1e3, 1.0), (1e3, 1e3))


def stationary_cell(problem, levels, base, S, Re):
    """The `(Newton) avg-linear` cell of one continued solve."""
    spec = make_problem(problem, levels=levels, mesh_base=(base, base),
                        params={"stab_mu": 1e-2})
    factory = KrylovSolverFactory(spec.make_precond())
    schedule = ContinuationSchedule.toward({"S": S, "Re": Re, "Rem": Re})
    try:
        _, report = continue_parameters(spec, schedule,
                                        solver_factory=factory)
    except StageFailure as exc:
        return (f"NF at {exc.parameter} = {exc.value:g} "
                f"({exc.report.reason})")
    return report.cell()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problems", nargs="+", choices=("hartmann", "ldc2d"),
                    default=("hartmann", "ldc2d"))
    ap.add_argument("--levels", type=int, nargs="+", default=(1, 2))
    ap.add_argument("--base", type=int, default=4,
                    help="cells per side of the coarsest mesh")
    args = ap.parse_args(argv)
    print(f"(Newton) avg-linear, {args.base}x{args.base} base mesh")
    print("problem | levels | "
          + " | ".join(f"({S:g}, {Re:g})" for S, Re in CELLS) + " | wall")
    for problem in args.problems:
        for levels in args.levels:
            start = time.perf_counter()
            cells = [stationary_cell(problem, levels, args.base, S, Re)
                     for S, Re in CELLS]
            wall = time.perf_counter() - start
            print(f"{problem} | {levels} | " + " | ".join(cells)
                  + f" | {wall:.0f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
