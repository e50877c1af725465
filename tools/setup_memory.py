"""Resident memory of a problem's set-up, and what its spaces hold.

  PYTHONPATH=src python tools/setup_memory.py hartmann --base 16 16 --levels 2

Builds the named problem on a base mesh refined `--levels` times, then its
block preconditioner, and prints the resident set size (from
/proc/self/statm, so Linux only) after each of the two set-up phases,
followed by the bytes each distinct FunctionSpace holds (the model's and
the preconditioner's multigrid levels).  Views and broadcasts are counted
once, at the size of the buffer they share.
"""

import argparse
import os
import sys

import numpy as np

from mhdkit import problems
from mhdkit.elements import FunctionSpace

PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_mb():
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * PAGE / 2 ** 20


def held_bytes(space):
    bases = {}

    def walk(x):
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            bases[id(x)] = x
        elif isinstance(x, dict):
            for v in x.values():
                walk(v)
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    for v in vars(space).values():
        walk(v)
    return sum(a.nbytes for a in bases.values())


def spaces_of(spec, pc):
    """Distinct FunctionSpaces of the model and of every multigrid level,
    named by where they first appear."""
    out = [(f"model {n}", s) for n, s in spec.model.spaces.items()]
    for attr, ctx in sorted(vars(pc).items()):
        for lvl, level in enumerate(getattr(ctx, "spaces", ()) or ()):
            out += [(f"{attr} level {lvl}", s) for s in level
                    if isinstance(s, FunctionSpace)]
    seen, distinct = set(), []
    for name, s in out:
        if id(s) not in seen:
            seen.add(id(s))
            distinct.append((name, s))
    return distinct


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("problem", choices=problems.PROBLEM_NAMES)
    ap.add_argument("--base", type=int, nargs=2, metavar=("NX", "NY"))
    ap.add_argument("--levels", type=int)
    args = ap.parse_args(argv)
    print(f"start: {rss_mb():.1f} MB")
    spec = problems.make_problem(args.problem, levels=args.levels,
                                 mesh_base=args.base and tuple(args.base))
    print(f"dofs: {spec.model.state_template.total}")
    print(f"after model set-up: {rss_mb():.1f} MB")
    pc = spec.make_precond()
    print(f"after preconditioner set-up: {rss_mb():.1f} MB")
    total = 0
    for name, s in spaces_of(spec, pc):
        b = held_bytes(s)
        total += b
        el = s.element
        print(f"  {name}: {el.family}{el.degree} on {s.mesh.num_cells} "
              f"cells holds {b / 2 ** 20:.2f} MB")
    print(f"spaces hold {total / 2 ** 20:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
