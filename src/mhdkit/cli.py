"""Benchmark command line: single runs, parameter-grid sweeps and
bifurcation analyses, writing iteration tables, time series and field dumps.

Exit codes: 0 success, 1 bad configuration, 2 nonlinear non-convergence
(an NF row is still written, mirroring the iteration-table convention) or
fewer critical values than `--count` (those found are still written)."""

import argparse
import os
import sys

import numpy as np

from .models.base import ModelParams
from .nonlinear import (NonlinearConfig, solve_nonlinear,
                        ContinuationSchedule, continue_parameters,
                        StageFailure, direct_solver_factory)
from .precond import KrylovSolverFactory
from .problems import (PROBLEM_NAMES, BC_FIELDS, ISLAND_FIELDS,
                       make_problem, parse_config, island_initial_state,
                       ConfigError)
from .timestepping import (TimeConfig, run_transient, FrozenJacobianFactory,
                           ReconnectionProbe, write_series_csv)

PARAM_FLAGS = ("Re", "Rem", "S", "RH", "Ra", "Pr", "Pm", "gamma")
DEFAULTS = {"linearisation": "newton", "linear_solver": "direct",
            "out_dir": "."}


def _add_common(p):
    p.add_argument("--problem", choices=PROBLEM_NAMES, required=False)
    p.add_argument("--config", help="run configuration file")
    for f in PARAM_FLAGS:
        p.add_argument(f"--{f}", type=float)
    p.add_argument("--levels", type=int)
    # these three take DEFAULTS only after the config file is read
    p.add_argument("--linearisation", choices=["newton", "picard"])
    p.add_argument("--linear-solver", choices=["fgmres", "direct"])
    p.add_argument("--continuation", action="store_true", default=None,
                   help="apply the stationary continuation schedules")
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--out-dir")
    p.add_argument("--stabilisation", type=float)
    p.add_argument("--bc-field")
    # Newton tolerances: config keys only, NonlinearConfig defaults if unset
    p.set_defaults(rtol=None, atol=None, max_steps=None)


def _param_name(flag):
    """The ModelParams name of a parameter flag."""
    return "R_H" if flag == "RH" else flag


def _collect_params(args):
    out = {}
    for f in PARAM_FLAGS:
        v = getattr(args, f, None)
        if v is not None:
            out[_param_name(f)] = v
    if args.stabilisation:
        out["stab_mu"] = args.stabilisation
    return out


def _config_value(section, key, value, kind):
    """value converted by kind; a value that does not convert stops the run
    with exit code 1."""
    try:
        return kind(value)
    except ValueError:
        print(f"error: [{section}] {key} = {value!r} is not "
              f"{_KIND_NAMES[kind]}", file=sys.stderr)
        sys.exit(1)


def _boolean(value):
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ValueError(value)


_KIND_NAMES = {float: "a number", int: "an integer", _boolean: "a boolean"}


def _apply_config_file(args):
    """Config-file values for every setting the flags left unset."""
    if not args.config:
        return
    try:
        with open(args.config) as f:
            cfg = parse_config(f.read())
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    prob = cfg.get("problem", {})
    if "name" in prob and not args.problem:
        args.problem = prob["name"]
    if "levels" in prob and args.levels is None:
        args.levels = _config_value("problem", "levels", prob["levels"], int)
    if "bc_field" in prob and args.bc_field is None:
        args.bc_field = prob["bc_field"]
    for k, v in cfg.get("params", {}).items():
        if getattr(args, k, None) is None:
            setattr(args, k, _config_value("params", k, v, float))
    sol = cfg.get("solver", {})
    for key in ("linearisation", "linear_solver"):
        if key in sol and getattr(args, key) is None:
            setattr(args, key, sol[key])
    if "continuation" in sol and args.continuation is None:
        args.continuation = _config_value("solver", "continuation",
                                          sol["continuation"], _boolean)
    for key, kind in (("rtol", float), ("atol", float), ("max_steps", int)):
        if key in sol:
            setattr(args, key, _config_value("solver", key, sol[key], kind))
    tm = cfg.get("time", {})
    if "dt" in tm and args.dt is None:
        args.dt = _config_value("time", "dt", tm["dt"], float)
    if "T" in tm and args.T is None:
        args.T = _config_value("time", "T", tm["T"], float)
    out = cfg.get("output", {})
    if "out_dir" in out and args.out_dir is None:
        args.out_dir = out["out_dir"]


def _apply_defaults(args):
    """DEFAULTS for the settings neither the flags nor the file gave."""
    for key, value in DEFAULTS.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _nonlinear_config(args):
    """The Newton settings of the run: the linearisation and the [solver]
    tolerances that were given."""
    given = {k: getattr(args, k) for k in ("rtol", "atol", "max_steps")
             if getattr(args, k) is not None}
    return NonlinearConfig(linearisation=args.linearisation, **given)


def _unsupported(what, settings):
    """Whether one of the (name, given) settings was given; the first one
    given is reported as a setting `what` does not support."""
    for name, given in settings:
        if given:
            print(f"error: {what} does not support {name}", file=sys.stderr)
            return True
    return False


def _bad_bc_field(args):
    """Whether --bc-field ([problem] bc_field) is given for a problem other
    than ldc2d, or names no field of BC_FIELDS; the error is reported."""
    name = "--bc-field ([problem] bc_field)"
    if _unsupported(f"--problem {args.problem}", (
            (name, args.bc_field is not None and args.problem != "ldc2d"),)):
        return True
    if args.bc_field not in (None, *BC_FIELDS):
        print(f"error: {name} is {args.bc_field!r}; choose from "
              f"{', '.join(BC_FIELDS)}", file=sys.stderr)
        return True
    return False


def _solver_factory(args, spec):
    if args.linear_solver == "direct":
        return direct_solver_factory
    return KrylovSolverFactory(spec.make_precond())


def _report_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_report(args, rows):
    path = _report_path(args, "report.csv")
    with open(path, "w") as f:
        f.write("problem,params,nonlin_its,avg_lin_its,converged,cell\n")
        for row in rows:
            f.write(",".join(str(c) for c in row) + "\n")
    return path


def _write_iterations(args, rows):
    """The outer Krylov rows (nonlinear step, iteration, residual)."""
    with open(_report_path(args, "iterations.csv"), "w") as f:
        f.write("step,iter,resid\n")
        for s, i, r in rows:
            f.write(f"{s},{i},{r:.6e}\n")


def _dump_fields(args, spec, vec):
    from .mesh import write_vtk
    from .elements import l2_project, Field, FunctionSpace
    model = spec.model
    mesh = model.mesh
    # L2 projections onto vertex values, for visualisation only
    cg1 = FunctionSpace(mesh, "CG", 1)
    vcg1 = FunctionSpace(mesh, "VCG", 1)
    data = {}
    st = model.state_template
    for name in model.fields:
        fld = Field(model.spaces[name], vec[st.field_slice(name)])
        if fld.space.element.ncomp == 1:
            data[name] = l2_project(cg1, fld).coefficients
        else:
            data[name] = l2_project(vcg1, fld).coefficients.reshape(-1, 2)
    path = _report_path(args, "fields.vtk")
    write_vtk(path, mesh, data)
    return path


def cmd_run(args):
    _apply_config_file(args)
    _apply_defaults(args)
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return 1
    if _bad_bc_field(args):
        return 1
    if args.problem == "mms":
        # the convergence study neither time-steps nor continues: a setting
        # it would ignore is an error
        if _unsupported("--problem mms", (
                ("--dt ([time] dt)", args.dt is not None),
                ("--T ([time] T)", args.T is not None),
                ("--continuation ([solver] continuation)",
                 args.continuation))):
            return 1
        return _run_mms(args)
    transient = args.dt is not None and args.T is not None
    if transient and args.linear_solver != "direct":
        # time stepping solves with the frozen-Jacobian direct LU only
        print(f"error: --linear-solver {args.linear_solver} is not "
              "supported with --dt/--T; time steps use --linear-solver "
              "direct", file=sys.stderr)
        return 1
    params = _collect_params(args)
    spec = make_problem(args.problem, levels=args.levels, params=params,
                        bc_field=args.bc_field)
    model = spec.model

    if transient:
        return _run_transient(args, spec)

    fac = _solver_factory(args, spec)
    cfg = _nonlinear_config(args)
    state = model.initial_state()
    try:
        if args.continuation:
            state, rep = continue_parameters(
                model, _continuation(params, model), state, cfg, fac)
        else:
            state, rep = solve_nonlinear(model, state, cfg, fac)
    except StageFailure as exc:
        rep = exc.report
        _write_report(args, [[args.problem, _pstr(model), rep.steps,
                              f"{rep.avg_linear:.2f}", "false", "NF"]])
        print(f"NF at continuation stage {exc.parameter}={exc.value} "
              f"({rep.reason})")
        return 2
    row = [args.problem, _pstr(model), rep.steps, f"{rep.avg_linear:.2f}",
           str(rep.converged).lower(), rep.cell()]
    _write_report(args, [row])
    if args.linear_solver == "fgmres":
        _write_iterations(args, fac.rows)
    _dump_fields(args, spec, state.vector)
    why = "" if rep.converged else f" ({rep.reason})"
    print(f"{args.problem}: {rep.cell()}{why}")
    return 0 if rep.converged else 2


def _continuation(params, model, lead=()):
    """The stationary continuation toward the given parameters that have
    default steps, the `lead` ones traversed first; toward the model's Re
    when none is given."""
    targets = {k: params[k] for k in ContinuationSchedule.DEFAULT_STEPS
               if k in params} or {"Re": model.params.Re}
    order = [k for k in lead if k in targets]
    return ContinuationSchedule.toward(
        targets, order=order + [k for k in targets if k not in order])


def _pstr(model):
    d = model.params.as_dict()
    return ";".join(f"{k}={v}" for k, v in d.items() if v is not None)


def _run_mms(args):
    params = _collect_params(args)
    levels = args.levels if args.levels is not None else 3
    errs = []
    names = ("u", "p", "B", "E")
    hs = []
    for lev in range(levels + 1):
        sp = make_problem("mms", levels=lev, params=params)
        fac = _solver_factory(args, sp)
        st, rep = solve_nonlinear(sp.model, sp.model.initial_state(),
                                  _nonlinear_config(args), fac)
        e = sp.model.l2_error(st.vector, sp.exact.fields, zero_mean=("p",))
        errs.append(e)
        hs.append(sp.mesh.min_edge_length())
    path = _report_path(args, "report.csv")
    with open(path, "w") as f:
        f.write("level,h," + ",".join(f"err_{n},rate_{n}" for n in names)
                + "\n")
        for i, e in enumerate(errs):
            cols = [str(i), f"{hs[i]:.6e}"]
            for n in names:
                cols.append(f"{e[n]:.6e}")
                if i == 0:
                    cols.append("")
                else:
                    cols.append(f"{np.log2(errs[i-1][n] / e[n]):.2f}")
            f.write(",".join(cols) + "\n")
    print(open(path).read())
    return 0


def _run_transient(args, spec):
    model = spec.model
    observers = {}
    if args.problem in ISLAND_FIELDS:
        st = island_initial_state(spec)
        observers["reconnection_rate"] = ReconnectionProbe(model,
                                                           model.magnetic)
    else:
        st = model.initial_state()
    observers["div_u"] = lambda v: model.div_norms(v)[model.velocity]
    observers["div_B"] = lambda v: model.div_norms(v)[model.magnetic]
    fac = FrozenJacobianFactory()
    tcfg = TimeConfig(dt=args.dt, T=args.T)
    vec, rows = run_transient(model, st, tcfg, _nonlinear_config(args),
                              fac, observers=observers)
    write_series_csv(_report_path(args, "series.csv"), rows)
    _dump_fields(args, spec, vec)
    print(f"{args.problem}: {len(rows) - 1} steps to T={args.T}")
    return 0


def cmd_sweep(args):
    _apply_config_file(args)
    _apply_defaults(args)
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return 1
    if _bad_bc_field(args):
        return 1
    grid = _parse_grid(args.grid)
    if grid is None:
        return 1
    if len(grid) == 1:
        grid.append(("_", [None]))
    (rname, rvals), (cname, cvals) = grid
    rkey, ckey = _param_name(rname), _param_name(cname)
    table = []
    any_nf = False
    for rv in rvals:
        row = []
        for cv in cvals:
            params = _collect_params(args)
            if rv is not None:
                params[rkey] = rv
            if cv is not None:
                params[ckey] = cv
            spec = make_problem(args.problem, levels=args.levels,
                                params=params, bc_field=args.bc_field)
            fac = _solver_factory(args, spec)
            cfg = _nonlinear_config(args)
            try:
                if args.continuation:
                    state, rep = continue_parameters(
                        spec.model,
                        _continuation(params, spec.model, (ckey, rkey)),
                        None, cfg, fac)
                else:
                    state, rep = solve_nonlinear(
                        spec.model, spec.model.initial_state(), cfg, fac)
                cell = rep.cell()
                if not rep.converged:
                    any_nf = True
            except StageFailure:
                cell = "NF"
                any_nf = True
            row.append(cell)
            print(f"  {rname}={rv} {cname}={cv}: {cell}", flush=True)
        table.append(row)
    path = _report_path(args, "report.csv")
    with open(path, "w") as f:
        f.write(f"{rname}\\{cname}," + ",".join(str(c) for c in cvals)
                + "\n")
        for rv, row in zip(rvals, table):
            f.write(f"{rv}," + ",".join(row) + "\n")
    print(open(path).read())
    return 2 if any_nf else 0


def _parse_grid(text):
    """[(flag name, values)] of a --grid "A=a1,a2;B=b1" spec, one or two
    parameter flags; None, with a message, when it is malformed."""
    grid = []
    for item in (text or "").split(";"):
        if not item:
            continue
        name, _, vals = item.partition("=")
        if name not in PARAM_FLAGS:
            print(f"error: --grid names {name!r}; choose from "
                  f"{', '.join(PARAM_FLAGS)}", file=sys.stderr)
            return None
        try:
            grid.append((name, [float(v) for v in vals.split(",")]))
        except ValueError:
            print(f"error: --grid {item!r} is not NAME=v1,v2,...",
                  file=sys.stderr)
            return None
    if not grid or len(grid) > 2:
        print("error: sweep needs --grid with 1 or 2 parameters",
              file=sys.stderr)
        return None
    return grid


def cmd_bifurcate(args):
    _apply_config_file(args)
    # it builds rayleigh_benard, solves with direct LU and never time-steps
    # or continues: a setting it would ignore is an error
    if _unsupported("bifurcate", (
            ("--problem", args.problem not in (None, "rayleigh_benard")),
            ("--linear-solver", args.linear_solver not in (None, "direct")),
            ("--continuation", args.continuation),
            ("--dt", args.dt is not None), ("--T", args.T is not None),
            ("--bc-field", args.bc_field is not None),
            ("--stability", args.stability and args.critical),
            # the critical path solves no Newton problem
            ("--linearisation",
             args.critical and args.linearisation is not None),
            *((f"[solver] {key}", args.critical and getattr(args, key)
               is not None) for key in ("rtol", "atol", "max_steps")))):
        return 1
    _apply_defaults(args)
    if args.count < 1:
        print(f"error: --count must be at least 1, got {args.count}",
              file=sys.stderr)
        return 1
    from .bifurcation import (SweepConfig, conduction_state_vector,
                              critical_parameter, deflated_continuation,
                              BranchRecord)
    nl_config = _nonlinear_config(args)
    params = _collect_params(args)
    spec = make_problem("rayleigh_benard", levels=args.levels, params=params)
    model = spec.model
    if args.critical:
        vals, modes, free = critical_parameter(model, which=args.critical
                                               + "_c", count=args.count)
        print(",".join(f"{v:.1f}" for v in vals))
        path = _report_path(args, "critical.csv")
        with open(path, "w") as f:
            f.write("index,value\n")
            for i, v in enumerate(vals):
                f.write(f"{i + 1},{v:.6e}\n")
        if len(vals) < args.count:
            print(f"found {len(vals)} of {args.count} positive critical "
                  f"{args.critical} values", file=sys.stderr)
            return 2
        return 0
    if args.to_ is None or args.from_ is None or args.step is None:
        print("error: bifurcate requires --from/--to/--step or --critical",
              file=sys.stderr)
        return 1
    try:
        sweep = SweepConfig(args.param, args.from_, args.to_, args.step)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setattr(model.params, args.param, sweep.start)
    seeds = [conduction_state_vector(model).vector]
    records = deflated_continuation(model, sweep, seeds, nl_config=nl_config,
                                    compute_stability=args.stability)
    path = _report_path(args, "diagram.csv")
    with open(path, "w") as f:
        f.write(BranchRecord.CSV_HEADER + "\n")
        for r in records:
            f.write(r.csv_row() + "\n")
    print(f"wrote {len(records)} branch records to {path}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="mhdkit",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    prun = sub.add_parser("run", help="solve one problem")
    _add_common(prun)
    psweep = sub.add_parser("sweep", help="parameter-grid iteration table")
    _add_common(psweep)
    psweep.add_argument("--grid",
                        help="e.g. 'S=1,1000;Re=1,1000' (rows;cols)")
    pbif = sub.add_parser("bifurcate", help="deflated continuation / "
                                            "critical parameters")
    _add_common(pbif)
    pbif.add_argument("--param", default="Ra", choices=["Ra", "S"])
    pbif.add_argument("--from", dest="from_", type=float)
    pbif.add_argument("--to", dest="to_", type=float)
    pbif.add_argument("--step", type=float)
    pbif.add_argument("--critical", choices=["Ra", "S"])
    pbif.add_argument("--count", type=int, default=2)
    pbif.add_argument("--stability", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "bifurcate":
        return cmd_bifurcate(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
