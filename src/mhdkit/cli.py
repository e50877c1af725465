"""Benchmark command line: single runs, parameter-grid sweeps and
bifurcation analyses, writing iteration tables, time series and field dumps.

Exit codes: 0 success, 1 bad configuration, 2 nonlinear non-convergence
(an NF row is still written, mirroring the iteration-table convention) or
fewer critical values than `--count` (those found are still written).

Every setting is one row of SETTINGS.  A problem reads the parameters of its
`problems.DEFAULT_PARAMS` row (and ldc2d its bc_field), and a command path
the settings of its PATH_READS row; any other setting that is given stops
the run with exit code 1 before a problem is built."""

import argparse
import os
import sys
from collections import namedtuple

import numpy as np

from .nonlinear import (NonlinearConfig, solve_nonlinear,
                        ContinuationSchedule, continue_parameters,
                        StageFailure, direct_solver_factory)
from .precond import KrylovSolverFactory
from .problems import (PROBLEM_NAMES, BC_FIELDS, DEFAULT_PARAMS,
                       ISLAND_FIELDS, make_problem, island_initial_state)
from .timestepping import (TimeConfig, run_transient, FrozenJacobianFactory,
                           ReconnectionProbe)

COMMANDS = ("run", "sweep", "bifurcate")


class Setting(namedtuple("Setting", "dest flag kind section key default "
                                    "param commands help",
                         defaults=(None,) * 5 + (COMMANDS, None))):
    """One run setting: its argparse dest, its flag, its kind (float, int,
    str, bool for a switch, or the tuple of its values), its config-file
    [section] key, its default, the ModelParams name of a model parameter
    and the commands that take it; None where it has none."""

    @property
    def label(self):
        """The flag and the config key, as errors name the setting."""
        key = self.key and f"[{self.section}] {self.key}"
        if self.flag and key:
            return f"{self.flag} ({key})"
        return self.flag or key


_BIF = ("bifurcate",)
SETTINGS = (
    Setting("problem", "--problem", PROBLEM_NAMES, "problem", "name"),
    Setting("levels", "--levels", int, "problem", "levels"),
    Setting("bc_field", "--bc-field", str, "problem", "bc_field"),
    *(Setting(flag, f"--{flag}", float, "params", flag, param=param)
      for flag, param in (("Re", "Re"), ("Rem", "Rem"), ("S", "S"),
                          ("RH", "R_H"), ("Ra", "Ra"), ("Pr", "Pr"),
                          ("Pm", "Pm"), ("gamma", "gamma"),
                          ("stabilisation", "stab_mu"))),
    Setting("linearisation", "--linearisation", ("newton", "picard"),
            "solver", "linearisation", "newton"),
    Setting("linear_solver", "--linear-solver", ("fgmres", "direct"),
            "solver", "linear_solver", "direct"),
    Setting("continuation", "--continuation", bool, "solver", "continuation",
            help="apply the stationary continuation schedules"),
    # Newton tolerances: NonlinearConfig's defaults where unset
    Setting("rtol", None, float, "solver", "rtol"),
    Setting("atol", None, float, "solver", "atol"),
    Setting("max_steps", None, int, "solver", "max_steps"),
    Setting("dt", "--dt", float, "time", "dt"),
    Setting("T", "--T", float, "time", "T"),
    Setting("out_dir", "--out-dir", str, "output", "out_dir", "."),
    Setting("grid", "--grid", str, commands=("sweep",),
            help="e.g. 'S=1,1000;Re=1,1000' (rows;cols)"),
    Setting("param", "--param", ("Ra", "S"), default="Ra", commands=_BIF),
    Setting("from_", "--from", float, commands=_BIF),
    Setting("to_", "--to", float, commands=_BIF),
    Setting("step", "--step", float, commands=_BIF),
    Setting("critical", "--critical", ("Ra", "S"), commands=_BIF),
    Setting("count", "--count", int, default=2, commands=_BIF),
    Setting("stability", "--stability", bool, commands=_BIF),
)
# the model-parameter settings by dest, which --grid also names
PARAMS = {s.dest: s for s in SETTINGS if s.param}

# the settings each command path reads besides the problem's parameters and
# bc_field; errors name a path as its key does
_EVERY = ("problem", "levels", "out_dir")
_NEWTON = ("linearisation", "rtol", "atol", "max_steps")
PATH_READS = {
    "a stationary run": (*_EVERY, "linear_solver", "continuation", *_NEWTON),
    "run --problem mms": (*_EVERY, "linear_solver", *_NEWTON),
    "a transient run": (*_EVERY, "dt", "T", "linear_solver", *_NEWTON),
    "sweep": (*_EVERY, "grid", "linear_solver", "continuation", *_NEWTON),
    "bifurcate": (*_EVERY, "param", "from_", "to_", "step", "stability",
                  *_NEWTON),
    "bifurcate --critical": (*_EVERY, "critical", "count"),
}
_BOOLEANS = {"true": True, "yes": True, "on": True, "1": True,
             "false": False, "no": False, "off": False, "0": False}


def _add_flags(parser, command):
    parser.add_argument("--config", help="run configuration file")
    for s in SETTINGS:
        if command not in s.commands:
            continue
        if s.flag is None:
            parser.set_defaults(**{s.dest: None})
            continue
        kw = (dict(action="store_true", default=None) if s.kind is bool
              else dict(choices=s.kind) if isinstance(s.kind, tuple)
              else dict(type=s.kind))
        parser.add_argument(s.flag, dest=s.dest, help=s.help, **kw)


def _collect_params(args):
    """The model parameters given, by their ModelParams names."""
    return {s.param: getattr(args, s.dest) for s in PARAMS.values()
            if getattr(args, s.dest) is not None}


class ConfigError(Exception):
    pass


def parse_config(text):
    """Sectioned key=value text; a section or key that no setting has is
    rejected."""
    known = {}
    for s in SETTINGS:
        if s.key:
            known.setdefault(s.section, set()).add(s.key)
    out = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in known:
                raise ConfigError(f"unknown section [{section}] "
                                  f"(line {lineno})")
            out.setdefault(section, {})
            continue
        if section is None or "=" not in line:
            raise ConfigError(f"malformed line {lineno}: {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in known[section]:
            raise ConfigError(f"unknown key {key!r} in section "
                              f"[{section}] (line {lineno})")
        out[section][key] = val
    return out


def _config_value(s, value):
    """A config-file value converted by the setting's kind; a value that
    does not convert stops the run with exit code 1."""
    try:
        if s.kind is bool:
            return _BOOLEANS[value.strip().lower()]
        if isinstance(s.kind, tuple):
            return s.kind[s.kind.index(value)]
        return s.kind(value)
    except (KeyError, ValueError):
        kind = ({float: "a number", int: "an integer", bool: "a boolean"}
                .get(s.kind) or f"one of {', '.join(s.kind)}")
        print(f"error: [{s.section}] {s.key} = {value!r} is not {kind}",
              file=sys.stderr)
        sys.exit(1)


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
    for s in SETTINGS:
        value = cfg.get(s.section, {}).get(s.key)
        if value is not None and getattr(args, s.dest) is None:
            setattr(args, s.dest, _config_value(s, value))


def _apply_defaults(args):
    """The defaults of the command's settings that neither the flags nor the
    file gave; returns the dests of those that were given (a switch left
    off is not given)."""
    given = set()
    for s in SETTINGS:
        if args.command not in s.commands:
            continue
        value = getattr(args, s.dest)
        if value is None:
            if s.default is not None:
                setattr(args, s.dest, s.default)
        elif value is not False:
            given.add(s.dest)
    return given


def _unread(args, given, path, sets=None, grid=()):
    """Whether a given setting goes unread, reporting the first: a
    parameter the problem does not read or the path sets itself (`sets`
    maps it to the setting that does), bc_field on a problem but ldc2d, a
    `grid` setting the problem does not read, or any other setting that is
    not in the PATH_READS of `path`."""
    problem = f"--problem {args.problem}"
    reads = DEFAULT_PARAMS[args.problem]
    sets = sets or {}
    unread = [(problem, f"--grid {s.dest}") for s in grid
              if s.param not in reads]
    for s in SETTINGS:
        if s.dest not in given:
            continue
        if s.param:
            what = problem if s.param not in reads else sets.get(s.param)
        elif s.dest == "bc_field":
            what = problem if args.problem != "ldc2d" else None
        else:
            what = path if s.dest not in PATH_READS[path] else None
        if what:
            unread.append((what, s.label))
    if unread:
        print("error: %s does not support %s" % unread[0], file=sys.stderr)
    return bool(unread)


def _nonlinear_config(args):
    """The Newton settings of the run: the linearisation and the [solver]
    tolerances that were given."""
    given = {k: getattr(args, k) for k in ("rtol", "atol", "max_steps")
             if getattr(args, k) is not None}
    return NonlinearConfig(linearisation=args.linearisation, **given)


def _bad_bc_field(args):
    """Whether --bc-field ([problem] bc_field) names no field of BC_FIELDS;
    the error is reported."""
    if args.bc_field in (None, *BC_FIELDS):
        return False
    print(f"error: --bc-field ([problem] bc_field) is {args.bc_field!r}; "
          f"choose from {', '.join(BC_FIELDS)}", file=sys.stderr)
    return True


def _solver_factory(args, spec):
    if args.linear_solver == "direct":
        return direct_solver_factory
    return KrylovSolverFactory(spec.make_precond())


def _report_path(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


def _write_csv(args, name, header, rows):
    """Write the file `name` in the output directory: the header line, then
    one line of comma-separated cells per row.  Returns the text written."""
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    text = "".join(line + "\n" for line in lines)
    with open(_report_path(args, name), "w") as f:
        f.write(text)
    return text


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
    # a run time-steps when it is given both --dt and --T
    transient = args.dt is not None and args.T is not None
    path = ("run --problem mms" if args.problem == "mms"
            else "a transient run" if transient else "a stationary run")
    if _unread(args, _apply_defaults(args), path) or _bad_bc_field(args):
        return 1
    if args.problem == "mms":
        return _run_mms(args)
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
    state, failure = model.initial_state(), None
    try:
        if args.continuation:
            state, rep = continue_parameters(
                spec, _continuation(args.problem, params, model), state, cfg,
                fac)
        else:
            state, rep = solve_nonlinear(model, state, cfg, fac)
    except StageFailure as exc:
        failure, rep = exc, exc.report
    # the params column holds the parameters the problem reads
    _write_csv(args, "report.csv",
               "problem,params,nonlin_its,avg_lin_its,converged,cell",
               [[args.problem, ";".join(f"{k}={getattr(model.params, k)}"
                                        for k in DEFAULT_PARAMS[args.problem]),
                 rep.steps, f"{rep.avg_linear:.2f}",
                 str(rep.converged).lower(), rep.cell()]])
    if failure:
        print(f"NF at continuation stage {failure.parameter}="
              f"{failure.value} ({rep.reason})")
        return 2
    if args.linear_solver == "fgmres":
        # the outer Krylov rows (nonlinear step, iteration, residual)
        _write_csv(args, "iterations.csv", "step,iter,resid",
                   [(s, i, f"{r:.6e}") for s, i, r in fac.rows])
    _dump_fields(args, spec, state.vector)
    why = "" if rep.converged else f" ({rep.reason})"
    print(f"{args.problem}: {rep.cell()}{why}")
    return 0 if rep.converged else 2


def _continuation(problem, params, model, lead=()):
    """The stationary continuation toward the given parameters that have
    default steps, the `lead` ones traversed first; when none is given,
    toward the model's value of the first such parameter the problem reads
    (Re, or Ra for the anisothermal problems)."""
    steps = ContinuationSchedule.DEFAULT_STEPS
    first = next(k for k in DEFAULT_PARAMS[problem] if k in steps)
    targets = ({k: params[k] for k in steps if k in params}
               or {first: getattr(model.params, first)})
    order = [k for k in lead if k in targets]
    return ContinuationSchedule.toward(
        targets, order=order + [k for k in targets if k not in order])


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
    rows = [[i, f"{h:.6e}"] for i, h in enumerate(hs)]
    for i, e in enumerate(errs):
        for n in names:
            rate = f"{np.log2(errs[i - 1][n] / e[n]):.2f}" if i else ""
            rows[i] += [f"{e[n]:.6e}", rate]
    text = _write_csv(args, "report.csv", "level,h," + ",".join(
        f"err_{n},rate_{n}" for n in names), rows)
    print(text)
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
    _write_series(args, rows)
    _dump_fields(args, spec, vec)
    print(f"{args.problem}: {len(rows) - 1} steps to T={args.T}")
    return 0


def _write_series(args, rows):
    """series.csv: one line per observer row, under every column any row
    has, in the order they first appear (the t = 0 row has no solver
    counts)."""
    columns = list(dict.fromkeys(k for row in rows for k in row))
    _write_csv(args, "series.csv", ",".join(columns),
               [[row.get(c, "") for c in columns] for row in rows])


def cmd_sweep(args):
    grid = _parse_grid(args.grid)
    if grid is None:
        return 1
    # a parameter on the grid takes the grid's values only
    sets = {s.param: f"--grid {s.dest}" for s, _ in grid}
    if (_unread(args, _apply_defaults(args), "sweep", sets,
                [s for s, _ in grid]) or _bad_bc_field(args)):
        return 1
    (rset, rvals), (cset, cvals) = grid + [(None, [None])] * (2 - len(grid))
    rname, rkey = rset.dest, rset.param
    cname, ckey = (cset.dest, cset.param) if cset else ("_", None)
    table = []
    for rv in rvals:
        row = []
        for cv in cvals:
            params = _collect_params(args)
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
                        spec, _continuation(args.problem, params, spec.model,
                                            (ckey, rkey)),
                        None, cfg, fac)
                else:
                    state, rep = solve_nonlinear(
                        spec.model, spec.model.initial_state(), cfg, fac)
                cell = rep.cell()
            except StageFailure:
                cell = "NF"
            row.append(cell)
            print(f"  {rname}={rv} {cname}={cv}: {cell}", flush=True)
        table.append(row)
    text = _write_csv(args, "report.csv", f"{rname}\\{cname}," + ",".join(
        str(c) for c in cvals), [[rv, *row] for rv, row in zip(rvals, table)])
    print(text)
    return 2 if any("NF" in row for row in table) else 0


def _parse_grid(text):
    """[(setting, values)] of a --grid "A=a1,a2;B=b1" spec, one or two
    parameters named as their flags; None, with a message, when it is
    malformed."""
    grid = []
    for item in (text or "").split(";"):
        if not item:
            continue
        name, _, vals = item.partition("=")
        if name not in PARAMS:
            print(f"error: --grid names {name!r}; choose from "
                  f"{', '.join(PARAMS)}", file=sys.stderr)
            return None
        try:
            grid.append((PARAMS[name], [float(v) for v in vals.split(",")]))
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
    if args.problem not in (None, "rayleigh_benard"):
        print("error: bifurcate builds rayleigh_benard and does not support "
              f"--problem ([problem] name) {args.problem}", file=sys.stderr)
        return 1
    args.problem = "rayleigh_benard"
    given = _apply_defaults(args)
    if args.critical:
        # the critical operators are taken at gamma = 0, and the critical
        # parameter is their eigenvalue.  Pm enters only the (E, B) block,
        # which the Ra_c operator decouples from its eigenvalues (it drops
        # the (u, E) block, which multiplies E = 0); the S_c operator
        # couples it
        which = f"--critical {args.critical}"
        sets = {args.critical: which, "gamma": which}
        if args.critical == "Ra":
            sets["Pm"] = which
        path = "bifurcate --critical"
    else:
        path, sets = "bifurcate", {args.param: f"--param {args.param}"}
    if _unread(args, given, path, sets):
        return 1
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
        _write_csv(args, "critical.csv", "index,value",
                   [(i + 1, f"{v:.11e}") for i, v in enumerate(vals)])
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
    spec.set_params(**{args.param: sweep.start})
    seeds = [conduction_state_vector(model).vector]
    records = deflated_continuation(spec, sweep, seeds, nl_config=nl_config,
                                    compute_stability=args.stability)
    _write_csv(args, "diagram.csv", BranchRecord.CSV_HEADER,
               [[r.csv_row()] for r in records])
    print(f"wrote {len(records)} branch records to "
          f"{_report_path(args, 'diagram.csv')}")
    return 0


def _parser():
    parser = argparse.ArgumentParser(prog="mhdkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (("run", "solve one problem"),
                          ("sweep", "parameter-grid iteration table"),
                          ("bifurcate", "deflated continuation / critical "
                                        "parameters")):
        _add_flags(sub.add_parser(command, help=text), command)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    _apply_config_file(args)
    if args.command != "bifurcate" and not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return 1
    return {"run": cmd_run, "sweep": cmd_sweep,
            "bifurcate": cmd_bifurcate}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
