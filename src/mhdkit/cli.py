"""Benchmark command line: single runs, parameter-grid sweeps and
bifurcation analyses, writing iteration tables, time series and field dumps.

Exit codes: 0 success, 1 bad configuration, 2 nonlinear non-convergence
(an NF row is still written, mirroring the iteration-table convention)."""

import argparse
import os
import sys

import numpy as np

from .models.base import ModelParams
from .nonlinear import (NonlinearConfig, solve_nonlinear,
                        ContinuationSchedule, continue_parameters,
                        StageFailure, direct_solver_factory)
from .precond import BlockPrecondConfig, KrylovSolverFactory, IterationLedger
from .problems import (PROBLEM_NAMES, make_problem, parse_config,
                       emit_config, ConfigError)
from .timestepping import (TimeConfig, run_transient, FrozenJacobianFactory,
                           ReconnectionProbe, write_series_csv)

PARAM_FLAGS = ("Re", "Rem", "S", "RH", "Ra", "Pr", "Pm", "gamma")


def _add_common(p):
    p.add_argument("--problem", choices=PROBLEM_NAMES, required=False)
    p.add_argument("--config", help="run configuration file")
    for f in PARAM_FLAGS:
        p.add_argument(f"--{f}", type=float)
    p.add_argument("--levels", type=int)
    p.add_argument("--linearisation", choices=["newton", "picard"],
                   default="newton")
    p.add_argument("--elimination", choices=["eliminate_up", "eliminate_eb"],
                   default="eliminate_up")
    p.add_argument("--linear-solver", choices=["fgmres", "direct"],
                   default="direct")
    p.add_argument("--continuation", action="store_true",
                   help="apply the stationary continuation schedules")
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--stabilisation", type=float, default=0.0)
    p.add_argument("--quad-degree-bc", type=int)
    p.add_argument("--threads", type=int,
                   default=int(os.environ.get("MHDKIT_THREADS", "1")))
    p.add_argument("--bc-field", default="uniform")


def _collect_params(args):
    out = {}
    for f in PARAM_FLAGS:
        v = getattr(args, f, None)
        if v is not None:
            out["R_H" if f == "RH" else f] = v
    if args.stabilisation:
        out["stab_mu"] = args.stabilisation
    if args.quad_degree_bc is not None:
        out["quad_degree_bc"] = args.quad_degree_bc
    return out


def _apply_config_file(args):
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
        args.levels = int(prob["levels"])
    for k, v in cfg.get("params", {}).items():
        flag = "RH" if k == "RH" else k
        if getattr(args, flag, None) is None:
            try:
                setattr(args, flag, float(v))
            except ValueError:
                pass
    sol = cfg.get("solver", {})
    if "linearisation" in sol:
        args.linearisation = sol["linearisation"]
    if "elimination" in sol:
        args.elimination = sol["elimination"]
    if "linear_solver" in sol:
        args.linear_solver = sol["linear_solver"]
    tm = cfg.get("time", {})
    if "dt" in tm and args.dt is None:
        args.dt = float(tm["dt"])
    if "T" in tm and args.T is None:
        args.T = float(tm["T"])
    out = cfg.get("output", {})
    if "out_dir" in out:
        args.out_dir = out["out_dir"]


def _solver_factory(args, spec, ledger=None):
    if args.linear_solver == "direct":
        return direct_solver_factory
    pc = spec.make_precond(BlockPrecondConfig(elimination=args.elimination))
    return KrylovSolverFactory(pc, rtol=1e-7, atol=1e-7, maxiter=100,
                               ledger=ledger)


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


def _dump_fields(args, spec, vec):
    from .mesh import write_vtk
    from .elements import l2_project, Field, FunctionSpace
    model = spec.model
    mesh = model.mesh
    cg1 = FunctionSpace(mesh, "CG", 1)
    data = {}
    st = model.state_template
    for name in model.fields:
        space = model.spaces[name]
        fld = Field(space, vec[st.field_slice(name)])
        if space.element.ncomp == 1:
            proj = l2_project(cg1, fld)
            data[name] = proj.coefficients
        else:
            # componentwise CG1 projection for visualisation only
            qp, w = space.cell_quadrature(4)
            vals = fld.eval_cells(np.arange(mesh.num_cells), qp)
            comps = []
            for k in range(2):
                class _F:
                    pass
                from .assembly import cell_vector
                rhs = cell_vector(cg1, "val", vals[..., k:k + 1], qdeg=4)
                from .linalg import LuSolver
                from .assembly import cell_matrix
                M = cell_matrix(cg1, cg1, qdeg=4)
                comps.append(LuSolver(M.tocsc()).solve(rhs))
            data[name] = np.stack([comps[0], comps[1],
                                   np.zeros_like(comps[0])], axis=-1)
    path = _report_path(args, "fields.vtk")
    write_vtk(path, mesh, data)
    return path


def cmd_run(args):
    _apply_config_file(args)
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return 1
    params = _collect_params(args)
    spec = make_problem(args.problem, levels=args.levels, params=params,
                        bc_field=args.bc_field)
    model = spec.model

    if args.problem == "mms":
        return _run_mms(args, spec)

    if args.dt is not None and args.T is not None:
        return _run_transient(args, spec)

    ledger = IterationLedger()
    fac = _solver_factory(args, spec, ledger)
    cfg = NonlinearConfig(linearisation=args.linearisation)
    state = model.initial_state()
    try:
        if args.continuation:
            targets = {}
            for name in ("S", "Re", "Rem", "Ra", "Pr"):
                if name in params and hasattr(model.params, name):
                    targets[name] = params[name]
            sched = ContinuationSchedule.toward(targets or
                                                {"Re": model.params.Re})
            state, rep = continue_parameters(model, sched, state, cfg, fac)
        else:
            state, rep = solve_nonlinear(model, state, cfg, fac)
    except StageFailure as exc:
        rep = exc.report
        _write_report(args, [[args.problem, _pstr(model), rep.steps,
                              f"{rep.avg_linear:.2f}", "false", "NF"]])
        print(f"NF at continuation stage {exc.parameter}={exc.value}")
        return 2
    row = [args.problem, _pstr(model), rep.steps, f"{rep.avg_linear:.2f}",
           str(rep.converged).lower(), rep.cell()]
    _write_report(args, [row])
    if args.linear_solver == "fgmres":
        ledger.write_csv(_report_path(args, "iterations.csv"))
    _dump_fields(args, spec, state.vector)
    print(f"{args.problem}: {rep.cell()}")
    return 0 if rep.converged else 2


def _pstr(model):
    d = model.params.as_dict()
    return ";".join(f"{k}={v}" for k, v in d.items() if v is not None)


def _run_mms(args, spec):
    from .problems import make_problem as mk
    params = _collect_params(args)
    levels = args.levels if args.levels is not None else 3
    errs = []
    names = ("u", "p", "B", "E")
    hs = []
    for lev in range(levels + 1):
        sp = mk("mms", levels=lev, params=params)
        st, rep = solve_nonlinear(sp.model, sp.model.initial_state(),
                                  NonlinearConfig(
                                      linearisation=args.linearisation))
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
    from .elements import interpolate, l2_project
    model = spec.model
    st = model.initial_state()
    observers = {}
    if args.problem in ("island_coalescence", "hall_island"):
        eq = spec.extras["equilibrium"]
        if args.problem == "island_coalescence":
            fields = eq.fields
            st.set_field("B", interpolate(
                model.spaces["B"],
                lambda x, y: fields["B"](x, y) + fields["dB"](x, y), 12))
            st.set_field("E", interpolate(model.spaces["E"], fields["E"], 12))
            pp = l2_project(model.spaces["p"], fields["p"]).coefficients
            st.set_field("p", pp - pp[0])
            probe = ReconnectionProbe(model, "B")
        else:
            st.set_field("Bt", interpolate(
                model.spaces["Bt"],
                lambda x, y: eq["Bt"](x, y) + eq["dB"](x, y), 12))
            st.set_field("j3", interpolate(model.spaces["j3"], eq["j3"], 12))
            st.set_field("E3", interpolate(model.spaces["E3"], eq["E3"], 12))
            st.set_field("Et", interpolate(model.spaces["Et"], eq["Et"], 12))
            pp = l2_project(model.spaces["p"], eq["p"]).coefficients
            st.set_field("p", pp - pp[0])
            probe = ReconnectionProbe(model, "Bt")
        model.apply_state_bcs(st)
        observers["reconnection_rate"] = probe
    observers["div_u"] = lambda v: model.div_norms(v)[model.velocity]
    observers["div_B"] = lambda v: model.div_norms(v)[model.magnetic]
    fac = FrozenJacobianFactory()
    tcfg = TimeConfig(dt=args.dt, T=args.T)
    vec, rows = run_transient(model, st, tcfg,
                              NonlinearConfig(
                                  linearisation=args.linearisation),
                              fac, observers=observers)
    write_series_csv(_report_path(args, "series.csv"), rows)
    _dump_fields(args, spec, vec)
    print(f"{args.problem}: {len(rows) - 1} steps to T={args.T}")
    return 0


def cmd_sweep(args):
    _apply_config_file(args)
    if not args.problem:
        print("error: --problem is required", file=sys.stderr)
        return 1
    grid = []
    for spec_str in (args.grid or "").split(";"):
        if not spec_str:
            continue
        name, vals = spec_str.split("=")
        grid.append((name, [float(v) for v in vals.split(",")]))
    if not grid or len(grid) > 2:
        print("error: sweep needs --grid with 1 or 2 parameters",
              file=sys.stderr)
        return 1
    if len(grid) == 1:
        grid.append(("_", [None]))
    (rname, rvals), (cname, cvals) = grid
    table = []
    any_nf = False
    for rv in rvals:
        row = []
        for cv in cvals:
            params = _collect_params(args)
            if rv is not None:
                params[rname] = rv
            if cv is not None:
                params[cname] = cv
            spec = make_problem(args.problem, levels=args.levels,
                                params=params)
            fac = _solver_factory(args, spec)
            cfg = NonlinearConfig(linearisation=args.linearisation)
            try:
                if args.continuation:
                    sched = ContinuationSchedule.toward(
                        {k: v for k, v in params.items()
                         if k in ("S", "Re", "Rem", "Ra", "Pr")},
                        order=[cname, rname] if cname in params else None)
                    state, rep = continue_parameters(
                        spec.model, sched, None, cfg, fac)
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


def cmd_bifurcate(args):
    _apply_config_file(args)
    from .bifurcation import (SweepConfig, conduction_state_vector,
                              critical_parameter, stability_eigs,
                              seeded_guesses, deflated_continuation,
                              BranchRecord)
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
    records = deflated_continuation(model, sweep, seeds,
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
    os.environ.setdefault("MHDKIT_THREADS", str(args.threads))
    if args.command == "run":
        return cmd_run(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "bifurcate":
        return cmd_bifurcate(args)
    return 1


if __name__ == "__main__":
    sys.exit(main())
