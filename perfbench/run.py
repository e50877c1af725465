"""mhdkit benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh process (rep.py), until
at least S seconds have passed and at least MIN_REPS repetitions are done.
With --trace 0 it reports the end-to-end metrics of the untraced
repetitions.  With --trace 1 it alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones and the tracing
overhead.  Every repetition runs the workload's correctness checks.

Every metric is a median over the repetitions of the run; a time is the
sum, over the timed phases of the workload's parts, of each phase's median
time.  The times are scaled to a reference host speed: each repetition
times a fixed reference computation (probe.py) before and after each timed
phase and divides the phase time by the probe's slowdown.  On the shared
2-core host where the benchmark was defined, the host's speed drifted by up
to 1.9x over seconds to minutes, and unscaled medians followed it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is the
run record (environment, dof counts, iteration counts, per-repetition
figures), which is also written under perfbench/out/.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("hartmann_mg", "direct_lu")
MIN_REPS = 3           # untraced repetitions per run
MIN_PAIRS = 2          # (untraced, traced) pairs per traced run
RUN_BUDGET_S = 150.0   # no repetition starts that would end after this
PR_SET_PDEATHSIG = 1

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "solve_s": ("s", "lower"),
    "total_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "solver_its": ("count", "lower"),
    "linear_its": ("count", "lower"),
    "ok_rate": ("fraction", "higher"),
}

# per-layer self times: metric -> span name; the outer FGMRES span holds
# the preconditioner spans, so its metric says that it is self time only
SELF_TIMES = {(f"{span}_self_s" if span == layers.KRYLOV_SPAN
               else f"{span}_s"): span for span in layers.SPANS}
CALLS = {f"{span}_calls": span for span in (
    "models.jacobian", "assembly.cell_matrix", "models.residual",
    "elements.tabulate_cells", "precond.apply", "multigrid.patch_apply",
    "linalg.lu_factor", "linalg.lu_solve")}

PER_LAYER = {name: ("s", "lower") for name in SELF_TIMES}
PER_LAYER.update({name: ("count", "lower") for name in CALLS})
PER_LAYER.update({
    # LU factorisations inside time steps per accepted step (wasted work)
    "linalg.lu_factor_per_step": ("1/step", "lower"),
    "nonlinear.newton_its": ("count", "lower"),
    "linalg.krylov_its_per_newton": ("its/newton", "lower"),
    "conservative.fixed_point_its": ("count", "lower"),
    # time inside the benchmark's set-up and solve phases that no span of
    # a layer covers
    "bench.unattributed_s": ("s", "lower"),
    "traced_total_s": ("s", "lower"),
    "tracing_overhead_s": ("s", "lower"),
})


def _die_with_parent():
    """In the child before exec: get SIGKILL when run.py dies (Linux)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_PDEATHSIG,
                                                signal.SIGKILL)
    except (AttributeError, OSError):
        pass


def _rep(workload, seed, spans_path, timeout):
    """Run one repetition in a fresh process; None if it produced no
    result.  The process is killed and reaped however this returns."""
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", workload, "--seed", str(seed)]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            preexec_fn=_die_with_parent)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def _median(reps, key):
    return statistics.median(r[key] for r in reps)


def _timed(reps):
    return [r for r in reps if "segments" in r]


def _phase_times(reps):
    """(set-up, solve) seconds: for each phase of each part of the
    workload, the median of its scaled times over the repetitions, summed
    over the parts."""
    times = {}
    for r in reps:
        for part, kind, _, t in r["segments"]:
            times.setdefault((part, kind), []).append(t)
    sums = {"setup": 0.0, "solve": 0.0}
    for (_, kind), ts in times.items():
        sums[kind] += statistics.median(ts)
    return sums["setup"], sums["solve"]


def end_to_end(reps):
    """End-to-end metrics from untraced repetitions."""
    timed = _timed(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    setup, solve = _phase_times(timed)
    values = {
        "setup_s": setup,
        "solve_s": solve,
        "total_s": setup + solve,
        "peak_rss_mb": _median(timed, "peak_rss_mb"),
        "solver_its": statistics.median(r["iterations"]["solver_its"]
                                        for r in timed),
        "linear_its": statistics.median(r["iterations"]["linear_its"]
                                        for r in timed),
        "ok_rate": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]}
            for k, v in values.items()}


def per_layer(untraced, traced):
    """Per-layer metrics: medians over the traced repetitions."""
    timed = _timed(traced)

    def med(fn):
        return statistics.median(fn(r) for r in timed)

    def self_time(r, span):
        return r["layers"].get(span, [0.0, 0])[0]

    values = {}
    for name, span in SELF_TIMES.items():
        values[name] = med(lambda r: self_time(r, span))
    for name, span in CALLS.items():
        values[name] = med(lambda r: r["layers"].get(span, [0.0, 0])[1])
    values["linalg.lu_factor_per_step"] = med(
        lambda r: r["lu_factor_in_steps"] / r["time_steps"]
        if r["time_steps"] else 0.0)
    values["nonlinear.newton_its"] = med(
        lambda r: r["iterations"]["newton_its"])
    values["linalg.krylov_its_per_newton"] = med(
        lambda r: r["iterations"]["krylov_its_per_newton"])
    values["conservative.fixed_point_its"] = med(
        lambda r: r["iterations"]["fixed_point_its"])
    values["bench.unattributed_s"] = med(
        lambda r: self_time(r, "bench.setup") + self_time(r, "bench.solve"))
    # total_s of the traced repetitions, and its excess over the untraced
    values["traced_total_s"] = sum(_phase_times(timed))
    values["tracing_overhead_s"] = (values["traced_total_s"]
                                    - sum(_phase_times(_timed(untraced))))
    return {k: {"value": v, "unit": PER_LAYER[k][0]}
            for k, v in values.items()}


def consistency_failures(reps):
    """Iteration counts repeat exactly, traced or not; a repetition without
    timings crashed."""
    out = []
    timed = _timed(reps)
    if len(timed) < len(reps):
        out.append(f"{len(reps) - len(timed)} repetition(s) did not finish")
    counts = {json.dumps(r["iterations"], sort_keys=True) for r in timed}
    if len(counts) > 1:
        out.append(f"iteration counts differ between repetitions: {counts}")
    return out


def _git_commit():
    """HEAD of the checkout; None outside a git repository.  git does not
    search for a repository above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_lines():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as f:
                    total += sum(1 for _ in f)
    return total


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exit, so the running repetition is reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isdir(os.path.join(ROOT, "src", "mhdkit")):
        print("error: src/mhdkit not found next to perfbench/; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    start = time.monotonic()
    untraced, traced = [], []
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        done = (len(traced) >= MIN_PAIRS if args.trace
                else len(untraced) >= MIN_REPS)
        if done and elapsed >= args.seconds:
            break
        if untraced and elapsed + longest * (1 + args.trace) > RUN_BUDGET_S:
            break
        t0 = time.monotonic()
        timeout = max(RUN_BUDGET_S - elapsed, 10.0)
        rep = _rep(args.workload, args.seed, None, timeout)
        untraced.append(rep or {"attempted": 1, "failed": 1})
        if args.trace:
            spans = os.path.join(OUT_DIR, f"spans-{tag}-{len(traced)}.json")
            rep = _rep(args.workload, args.seed, spans, timeout)
            traced.append(rep or {"attempted": 1, "failed": 1})
        longest = max(longest, (time.monotonic() - t0) / (1 + args.trace))

    reps = untraced + traced
    if not _timed(untraced) or (args.trace and not _timed(traced)):
        print("error: no repetition finished", file=sys.stderr)
        return 1
    failures = consistency_failures(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = min(attempted, sum(r["failed"] for r in reps) + len(failures))
    metrics = (per_layer(untraced, traced) if args.trace
               else end_to_end(untraced))
    first = _timed(untraced)[0]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seeded": first["seeded"],
        "trace": args.trace, "seconds": args.seconds,
        "git_commit": _git_commit(), "nproc": os.cpu_count(),
        "versions": first["versions"], "threads": first["threads"],
        "dofs": first["dofs"], "src_lines": _src_lines(),
        "iterations": first["iterations"], "checks": first["record"],
        "failures": failures + [f for r in reps for f in r.get("failures",
                                                                ())],
        "repetitions": [{k: r.get(k) for k in
                         ("traced", "segments", "probe_s", "peak_rss_mb",
                          "attempted", "failed")} for r in reps],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, f"record-{tag}.json"), "w") as f:
        json.dump(record, f, indent=1)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
