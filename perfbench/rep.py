"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N [--spans PATH]

Times the set-up and solve phases, each also scaled to a reference host
speed by the probe times around it (probe.py), runs the workload's checks
and prints one JSON object as the last line of standard output.  With --spans the
repetition is traced: spans are recorded in memory, written to PATH at the
end, and their per-layer self times are added to the printed object.

run.py starts one such process per repetition, so that peak memory, the
sympy caches and mhdkit's id()-keyed caches belong to one repetition.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback

# one thread of work: BLAS and OpenMP pools are pinned before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# the timed phases; per-layer figures count only spans inside them, not the
# untimed prepare() and check() between and after them
PHASES = ("bench.setup", "bench.solve")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _run(name, seed, spans_path):
    import numpy
    import scipy
    import sympy

    import layers
    from probe import REFERENCE_S, probe, scaled
    from spans import Patcher, Tracer, count_within, self_times
    from workloads import WORKLOADS, Outcome

    patcher = Patcher()
    tracer = Tracer() if spans_path else None
    if tracer is not None:
        layers.instrument(tracer, patcher)
        observe = tracer.wrapper(layers.OBSERVE_SPAN)
    else:
        observe = lambda fn: fn  # noqa: E731
    counts = layers.install_counters(patcher)
    workload = WORKLOADS[name]()
    out = Outcome()
    if tracer is not None:
        phase = tracer.span
    else:
        phase = lambda name: contextlib.nullcontext()  # noqa: E731
    # a composite workload runs its parts one after another, each set up
    # and then solved; the phase times add up over the parts
    parts = getattr(workload, "parts", [workload])
    ctxs = []
    # [part name, "setup" or "solve", wall seconds, scaled seconds] per
    # timed phase
    segments = []
    probe(1)  # warm-up
    # probe times before the first phase and after every phase
    probes = [probe()]

    def timed(part, kind, fn):
        """Run fn as the `kind` phase of `part`; record its time, and its
        time scaled by the probes before and after it."""
        t0 = time.perf_counter()
        with phase(f"bench.{kind}"):
            value = fn()
        dt = time.perf_counter() - t0
        probes.append(probe())
        segments.append([part.name, kind, dt,
                         scaled(dt, probes[-2], probes[-1])])
        return value

    peak_rss_mb = None
    try:
        for part in parts:
            ctx = timed(part, "setup", lambda: part.setup(seed, observe))
            ctxs.append(ctx)
            part.prepare(ctx)
            timed(part, "solve", lambda: part.solve(ctx, out, counts))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for part, ctx in zip(parts, ctxs):
            part.check(ctx, out)
    except Exception:  # any other error is a failed operation, not a crash
        traceback.print_exc()
        out.attempted = max(out.attempted, 1)
        out.fail("repetition raised:\n" + traceback.format_exc(limit=4))
    finally:
        patcher.restore()

    result = {
        "workload": name, "seed": seed, "seeded": workload.seeded,
        "traced": tracer is not None, "probe_s": probes,
        "attempted": out.attempted, "failed": out.failed,
        "failures": out.failures, "iterations": out.iterations(),
        "time_steps": out.time_steps, "record": out.record,
        "dofs": {p.name: c["dofs"] for p, c in zip(parts, ctxs)},
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__,
                     "sympy": sympy.__version__},
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }
    if peak_rss_mb is not None:
        result.update(segments=segments, peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        spans = tracer.spans
        scale = len(probes) * REFERENCE_S / sum(probes)
        result["layers"] = {k: [t * scale, n] for k, (t, n)
                            in self_times(spans, PHASES).items()}
        result["lu_factor_in_steps"] = count_within(
            spans, "linalg.lu_factor", "timestepping.step")
        with open(spans_path, "w") as f:
            json.dump({"workload": name, "seed": seed,
                       "spans": tracer.dump()}, f)
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spans", help="trace, and write the spans here")
    args = ap.parse_args(argv)
    result = _run(args.workload, args.seed, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
