import pytest

from mhdkit import cli, problems
from mhdkit.precond import StandardMHDPrecond


def _no_problem(*args, **kwargs):
    raise AssertionError("the problem was built before the flags were "
                         "checked")


@pytest.mark.parametrize("how", ["flags", "config"])
def test_transient_run_rejects_krylov_solver(monkeypatch, tmp_path, capsys,
                                             how):
    # time steps solve with the frozen-Jacobian direct LU; a Krylov request
    # fails before any problem is built instead of being ignored
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    argv = ["run", "--problem", "island_coalescence",
            "--out-dir", str(tmp_path)]
    if how == "flags":
        argv += ["--dt", "0.05", "--T", "0.15", "--linear-solver", "fgmres"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[solver]\nlinear_solver = fgmres\n"
                       "[time]\ndt = 0.05\nT = 0.15\n")
        argv += ["--config", str(cfg)]
    assert cli.main(argv) == 1
    assert "--linear-solver" in capsys.readouterr().err


def test_fixed_grouping_rejects_elimination(monkeypatch, tmp_path, capsys):
    # every preconditioner has the one (flow | electromagnetic) grouping and
    # no flag selects another: --elimination is a usage error, even naming
    # the grouping that is used
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--linear-solver",
                  "fgmres", "--elimination", "eliminate_up",
                  "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert "--elimination" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["S", "stabilisation"])
def test_non_numeric_param_is_rejected(monkeypatch, tmp_path, capsys, key):
    # a [params] value that is not a number stops the run instead of being
    # dropped
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nname = hartmann\n[params]\n{key} = ten\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert exit_.value.code == 1
    assert f"[params] {key}" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, choices", [
    ("problem", "name", "hartman", ", ".join(problems.PROBLEM_NAMES)),
    ("solver", "linearisation", "quasi", "newton, picard"),
    ("solver", "linear_solver", "gmres", "fgmres, direct")])
def test_config_value_outside_its_choices_is_rejected(
        monkeypatch, tmp_path, capsys, section, key, value, choices):
    # the file's value is held to the flag's choices
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nname = hartmann\n[{section}]\n"
                   f"{key} = {value}\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert exit_.value.code == 1
    assert capsys.readouterr().err == (
        f"error: [{section}] {key} = {value!r} is not one of {choices}\n")


def test_config_stabilisation_reaches_the_model(monkeypatch, tmp_path):
    # the [params] stabilisation key sets the gradient-jump penalty unless
    # the flag gives one
    seen = []

    def record(name, levels=None, params=None, bc_field=None):
        seen.append(params)
        raise RuntimeError("stop after make_problem")

    monkeypatch.setattr(cli, "make_problem", record)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\nstabilisation = 0.5\n")
    for flags, mu in (([], 0.5), (["--stabilisation", "0.25"], 0.25)):
        with pytest.raises(RuntimeError):
            cli.main(["run", "--problem", "hartmann", "--config", str(cfg),
                      *flags])
        assert seen.pop()["stab_mu"] == mu


def test_threads_flag_and_key_are_rejected(monkeypatch, tmp_path, capsys):
    # nothing reads a thread count, so neither the flag nor the key exists
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--threads", "2"])
    assert exit_.value.code == 2
    assert "--threads" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\nthreads = 2\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--config", str(cfg)])
    assert exit_.value.code == 1
    assert "'threads'" in capsys.readouterr().err


class _Stop(Exception):
    pass


class _FakeModel:
    """Just enough of a model for the CLI to reach its Newton settings."""

    velocity, magnetic = "u", "B"

    def __init__(self):
        from mhdkit.models.base import ModelParams
        self.params = ModelParams()

    def initial_state(self):
        return None


def _fake_problem(name, levels=None, params=None, **extras):
    import types
    return types.SimpleNamespace(model=_FakeModel(), extras=extras)


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "hartmann"],
    ["run", "--problem", "mms", "--levels", "0"],
    ["run", "--problem", "hartmann", "--dt", "0.1", "--T", "0.2"],
    ["sweep", "--problem", "hartmann", "--grid", "S=1,2"],
    ["bifurcate", "--from", "1", "--to", "2", "--step", "1"],
], ids=["stationary", "mms", "transient", "sweep", "bifurcate"])
def test_solver_tolerances_reach_every_newton_config(monkeypatch, tmp_path,
                                                     argv):
    # [solver] rtol/atol/max_steps set the Newton stopping rule on every
    # path that builds one
    seen = []

    def record(**kwargs):
        seen.append(kwargs)
        raise _Stop

    monkeypatch.setattr(cli, "make_problem", _fake_problem)
    monkeypatch.setattr(cli, "NonlinearConfig", record)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\nrtol = 1e-9\natol = 2e-8\nmax_steps = 7\n")
    with pytest.raises(_Stop):
        cli.main(argv + ["--config", str(cfg), "--out-dir", str(tmp_path)])
    assert seen == [dict(linearisation="newton", rtol=1e-9, atol=2e-8,
                         max_steps=7)]


def test_config_bc_field_acts_like_the_flag(monkeypatch, tmp_path):
    seen = []

    def record(name, levels=None, params=None, **extras):
        seen.append(extras["bc_field"])
        raise _Stop

    monkeypatch.setattr(cli, "make_problem", record)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[problem]\nname = ldc2d\nbc_field = trig\n")
    for flags, field in (([], "trig"), (["--bc-field", "uniform"], "uniform")):
        for command in ("run", "sweep"):
            extra = ["--grid", "S=1"] if command == "sweep" else []
            with pytest.raises(_Stop):
                cli.main([command, "--config", str(cfg), *extra, *flags])
            assert seen.pop() == field


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("problem, field", [("hartmann", "trig"),
                                            ("ldc2d", "nonsense")])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_bc_field_is_rejected_where_it_would_be_ignored(
        monkeypatch, tmp_path, capsys, command, problem, field, how):
    # only ldc2d reads a boundary field, and only a field of BC_FIELDS: the
    # run stops before any problem is built
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[problem]\nbc_field = {field}\n" if how == "config"
                   else "")
    extra = ["--grid", "S=1"] if command == "sweep" else []
    flags = ["--bc-field", field] if how == "flag" else []
    assert cli.main([command, "--problem", problem, "--levels", "0", *extra,
                     *flags, "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "--bc-field" in err and "[problem] bc_field" in err
    assert not (tmp_path / "report.csv").exists()


def test_ldc2d_run_takes_the_trig_field(tmp_path):
    # the one problem with a choice of boundary field still runs with it
    assert cli.main(["run", "--problem", "ldc2d", "--levels", "0",
                     "--bc-field", "trig", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "report.csv").exists()


def test_fgmres_run_writes_the_krylov_rows(monkeypatch, tmp_path):
    # iterations.csv holds one row per outer FGMRES iteration, its steps
    # the Newton steps of the report
    reports = []

    def recording(*args, **kwargs):
        state, rep = solve_nonlinear(*args, **kwargs)
        reports.append(rep)
        return state, rep

    solve_nonlinear = cli.solve_nonlinear
    monkeypatch.setattr(cli, "solve_nonlinear", recording)
    assert cli.main(["run", "--problem", "hartmann", "--levels", "0",
                     "--linear-solver", "fgmres",
                     "--out-dir", str(tmp_path)]) == 0
    [rep] = reports
    header, *lines = (tmp_path / "iterations.csv").read_text().splitlines()
    assert header == "step,iter,resid"
    rows = [line.split(",") for line in lines]
    steps = [[int(i) for s, i, _ in rows if int(s) == k]
             for k in range(1, rep.steps + 1)]
    assert [len(its) for its in steps] == rep.linear_iters
    assert all(its == list(range(1, len(its) + 1)) for its in steps)
    assert len(rows) == sum(rep.linear_iters) > 0
    assert all(float(r) >= 0.0 for _, _, r in rows)


@pytest.mark.parametrize("value, continued", [("true", True),
                                              ("false", False)])
def test_config_continuation_acts_like_the_flag(monkeypatch, tmp_path,
                                                value, continued):
    calls = []

    def stop(name):
        def fn(*args, **kwargs):
            calls.append(name)
            raise _Stop
        return fn

    monkeypatch.setattr(cli, "make_problem", _fake_problem)
    monkeypatch.setattr(cli, "continue_parameters", stop("continue"))
    monkeypatch.setattr(cli, "solve_nonlinear", stop("solve"))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[solver]\ncontinuation = {value}\n")
    for command in ("run", "sweep"):
        extra = ["--grid", "S=1"] if command == "sweep" else []
        with pytest.raises(_Stop):
            cli.main([command, "--problem", "hartmann", "--config", str(cfg),
                      *extra])
        assert calls.pop() == ("continue" if continued else "solve")
    # the flag turns it on whatever the file says
    with pytest.raises(_Stop):
        cli.main(["run", "--problem", "hartmann", "--config", str(cfg),
                  "--continuation"])
    assert calls.pop() == "continue"


def test_non_boolean_continuation_is_rejected(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\ncontinuation = maybe\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--config", str(cfg)])
    assert exit_.value.code == 1
    assert "[solver] continuation" in capsys.readouterr().err


@pytest.mark.parametrize("section, key", [
    ("problem", "nx"), ("problem", "ny"), ("problem", "pattern"),
    ("problem", "velocity_variant"), ("time", "scheme"), ("output", "vtk"),
    ("output", "series")])
def test_keys_nothing_reads_are_rejected(section, key):
    from mhdkit.cli import ConfigError, parse_config
    with pytest.raises(ConfigError, match=repr(key)):
        parse_config(f"[{section}]\n{key} = 1\n")


@pytest.mark.parametrize("count", ["0", "-1"])
def test_critical_count_below_one_is_rejected(monkeypatch, tmp_path, capsys,
                                              count):
    # no empty critical.csv: the count is checked before the problem is built
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    assert cli.main(["bifurcate", "--critical", "Ra", "--count", count,
                     "--out-dir", str(tmp_path)]) == 1
    assert "--count" in capsys.readouterr().err
    assert not (tmp_path / "critical.csv").exists()


@pytest.mark.parametrize("found", [[], [220.09]], ids=["none", "one"])
def test_critical_shortfall_is_reported(monkeypatch, tmp_path, capsys,
                                        found):
    # fewer positive critical values than --count: the ones found are
    # written, one stderr line says how many, and the exit code is 2
    import mhdkit.bifurcation as bif

    def fake_critical(model, which, count):
        assert (which, count) == ("S_c", 2)
        return found, [], None

    monkeypatch.setattr(cli, "make_problem", _fake_problem)
    monkeypatch.setattr(bif, "critical_parameter", fake_critical)
    assert cli.main(["bifurcate", "--critical", "S", "--count", "2",
                     "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"found {len(found)} of 2 positive critical S values"]
    rows = (tmp_path / "critical.csv").read_text().splitlines()
    assert rows == ["index,value"] + [f"{i + 1},{v:.6e}"
                                      for i, v in enumerate(found)]


def test_critical_values_at_the_count_exit_zero(monkeypatch, tmp_path,
                                                capsys):
    import mhdkit.bifurcation as bif
    monkeypatch.setattr(cli, "make_problem", _fake_problem)
    monkeypatch.setattr(bif, "critical_parameter",
                        lambda model, which, count: ([2609.0, 6759.4], [],
                                                     None))
    assert cli.main(["bifurcate", "--critical", "Ra", "--count", "2",
                     "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.out.strip() == "2609.0,6759.4" and out.err == ""
    assert len((tmp_path / "critical.csv").read_text().splitlines()) == 3


def test_dumped_fields_are_exact_on_linear_fields(tmp_path, read_vtk):
    # the CG1 / VCG1 projections reproduce linear fields at the vertices
    from types import SimpleNamespace

    import numpy as np

    from mhdkit.elements import interpolate
    from mhdkit.problems import make_problem

    spec = make_problem("ldc2d", levels=0, mesh_base=(4, 4))
    model = spec.model
    exact = {
        "u": lambda x, y: np.stack([1 + x - y, 2 * x + 0.5 * y], axis=-1),
        "E": lambda x, y: 0.3 - x + 4 * y,
        "B": lambda x, y: np.stack([x + 2 * y, 3 * x - y], axis=-1)}
    st = model.state_template
    vec = np.zeros(st.total)
    for name, f in exact.items():
        vec[st.field_slice(name)] = interpolate(model.spaces[name],
                                                f).coefficients
    path = cli._dump_fields(SimpleNamespace(out_dir=str(tmp_path)), spec,
                            vec)
    mesh, data = read_vtk(path)
    x, y = np.moveaxis(mesh.cell_coords, -1, 0)
    assert data["E"].shape == (mesh.num_vertices,)
    for name, f in exact.items():
        got = data[name][:, :2] if data[name].ndim == 2 else data[name]
        assert np.abs(got[mesh.cells] - f(x, y)).max() <= 1e-10, name


def _precedence_cases():
    """(flag, section, key, flag value, file value) of every setting with
    both a flag and a config key.  The flag gives the default value where
    there is one, so only the flag itself can win over the file."""
    for s in cli.SETTINGS:
        if not (s.flag and s.key):
            continue
        if s.kind is bool:
            yield s.flag, s.section, s.key, None, "false"
        elif isinstance(s.kind, tuple):
            flag_value = s.default or s.kind[0]
            yield (s.flag, s.section, s.key, flag_value,
                   next(v for v in s.kind if v != flag_value))
        else:
            yield (s.flag, s.section, s.key, s.default or {
                float: "2.5", int: "2", str: "here"}[s.kind],
                {float: "3.5", int: "3", str: "elsewhere"}[s.kind])


@pytest.mark.parametrize("flag, section, key, flag_value, file_value",
                         list(_precedence_cases()))
def test_flag_beats_config_and_config_beats_default(tmp_path, flag, section,
                                                    key, flag_value,
                                                    file_value):
    [s] = [s for s in cli.SETTINGS if (s.section, s.key) == (section, key)]

    def typed(text):
        if s.kind is bool:
            return text is None or text == "true"
        return text if isinstance(s.kind, tuple) else s.kind(text)

    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"[{section}]\n{key} = {file_value}\n")
    flag_argv = [flag] if flag_value is None else [flag, flag_value]
    for argv, value in ((["--config", str(cfg), *flag_argv],
                         typed(flag_value)),
                        (["--config", str(cfg)], typed(file_value)),
                        ([], s.default)):
        args = cli._parser().parse_args(["run", *argv])
        cli._apply_config_file(args)
        cli._apply_defaults(args)
        assert getattr(args, s.dest) == value


@pytest.mark.parametrize("extra, flag", [
    (["--problem", "hartmann"], "--problem"),
    (["--linear-solver", "fgmres"], "--linear-solver"),
    (["--linearisation", "newton"], "--linearisation"),
    (["--continuation"], "--continuation"),
    (["--dt", "0.1"], "--dt"),
    (["--T", "1"], "--T"),
    (["--bc-field", "trig"], "--bc-field"),
    (["--stability"], "--stability"),
])
def test_bifurcate_rejects_flags_it_would_ignore(monkeypatch, tmp_path,
                                                 capsys, extra, flag):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    assert cli.main(["bifurcate", "--critical", "Ra", *extra,
                     "--out-dir", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "critical.csv").exists()


@pytest.mark.parametrize("text, flag", [
    ("[problem]\nname = hartmann\n", "--problem"),
    ("[solver]\nlinear_solver = fgmres\n", "--linear-solver"),
    ("[solver]\ncontinuation = true\n", "--continuation"),
    ("[time]\ndt = 0.1\n", "--dt"),
    ("[problem]\nbc_field = trig\n", "--bc-field"),
])
def test_bifurcate_rejects_config_keys_it_would_ignore(monkeypatch, tmp_path,
                                                       capsys, text, flag):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["bifurcate", "--from", "1", "--to", "2", "--step", "1",
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--problem", "rayleigh_benard"]],
                         ids=["default", "named"])
def test_bifurcate_builds_rayleigh_benard(monkeypatch, tmp_path, extra):
    import mhdkit.bifurcation as bif
    built = []

    def record(name, **kwargs):
        built.append(name)
        return _fake_problem(name, **kwargs)

    monkeypatch.setattr(cli, "make_problem", record)
    monkeypatch.setattr(bif, "critical_parameter",
                        lambda model, which, count: ([2609.0, 6759.4], [],
                                                     None))
    assert cli.main(["bifurcate", "--critical", "Ra", *extra,
                     "--out-dir", str(tmp_path)]) == 0
    assert built == ["rayleigh_benard"]


@pytest.mark.parametrize("extra, text, flag", [
    (["--linearisation", "picard"], "", "--linearisation"),
    ([], "[solver]\nlinearisation = picard\n", "--linearisation"),
    ([], "[solver]\nrtol = 1e-9\n", "[solver] rtol"),
    ([], "[solver]\natol = 1e-9\n", "[solver] atol"),
    ([], "[solver]\nmax_steps = 7\n", "[solver] max_steps"),
])
def test_critical_rejects_newton_settings(monkeypatch, tmp_path, capsys,
                                          extra, text, flag):
    # the critical path solves no Newton problem, so its settings are errors
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["bifurcate", "--critical", "Ra", *extra,
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "critical.csv").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--problem", "hartmann"],
    ["run", "--problem", "mms", "--levels", "0"],
    ["run", "--problem", "hartmann", "--dt", "0.1", "--T", "0.2"],
    ["sweep", "--problem", "hartmann", "--grid", "S=1,2"],
], ids=["stationary", "mms", "transient", "sweep"])
@pytest.mark.parametrize("how", ["flag", "config"])
def test_direct_solver_rejects_elimination(monkeypatch, tmp_path, capsys,
                                           argv, how):
    # there is no elimination setting to choose; giving one is an error, not
    # a setting that is ignored: the flag is a usage error (exit 2), the
    # config key an unknown one (exit 1)
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\nelimination = eliminate_up\n"
                   if how == "config" else "")
    extra = ["--elimination", "eliminate_up"] if how == "flag" else []
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv + extra + ["--config", str(cfg),
                                 "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    if how == "flag":
        assert exit_.value.code == 2
        assert "--elimination" in err
    else:
        assert exit_.value.code == 1
        assert "'elimination'" in err and "[solver]" in err


def test_boundary_quadrature_degree_is_not_settable(monkeypatch, tmp_path,
                                                   capsys):
    # boundary data is always integrated at the element degree + 6: the
    # flag is a usage error (exit 2), the config key an unknown one (exit 1)
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--quad-degree-bc", "8",
                  "--out-dir", str(tmp_path)])
    assert exit_.value.code == 2
    assert ("unrecognized arguments: --quad-degree-bc 8"
            in capsys.readouterr().err)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\nquad_degree_bc = 8\n")
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hartmann", "--config", str(cfg),
                  "--out-dir", str(tmp_path)])
    assert exit_.value.code == 1
    assert "'quad_degree_bc'" in capsys.readouterr().err


def test_unconverged_run_prints_the_reason(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\nmax_steps = 1\n")
    assert cli.main(["run", "--problem", "hartmann", "--levels", "0",
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().out == (
        "hartmann: NF (step budget of 1 Newton steps spent)\n")


def _fake_sweep(monkeypatch):
    """Fake the problems and solves of `run` and `sweep`; record the
    ModelParams each grid cell builds and the continuation stages it
    walks."""
    import types
    from mhdkit import problems
    seen = {"params": [], "stages": []}
    solved = types.SimpleNamespace(vector=None)
    report = types.SimpleNamespace(converged=True, steps=1, avg_linear=1.0,
                                   cell=lambda: "( 1)")

    def record_problem(name, levels=None, params=None, **extras):
        seen["params"].append(problems._params(name, params))
        return _fake_problem(name, levels, params, **extras)

    def record_continuation(problem, schedule, state, cfg, fac):
        seen["stages"].append(schedule.stages)
        return solved, report

    monkeypatch.setattr(cli, "make_problem", record_problem)
    monkeypatch.setattr(cli, "continue_parameters", record_continuation)
    monkeypatch.setattr(cli, "solve_nonlinear",
                        lambda *args: (solved, report))
    return seen


def test_sweep_grid_takes_the_flag_names(monkeypatch, tmp_path):
    # "RH" names the Hall number as the --RH flag does
    seen = _fake_sweep(monkeypatch)
    assert cli.main(["sweep", "--problem", "hall_ldc", "--grid", "RH=0,0.1",
                     "--out-dir", str(tmp_path)]) == 0
    assert [pr.R_H for pr in seen["params"]] == [0.0, 0.1]


@pytest.mark.parametrize("grid", ["S", "S=", "S=1,x", "stab_mu=1",
                                  "R_H=0.1", "S=1;Re=2;Rem=3"])
def test_malformed_sweep_grid_is_rejected(monkeypatch, tmp_path, capsys,
                                          grid):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    assert cli.main(["sweep", "--problem", "hartmann", "--grid", grid,
                     "--out-dir", str(tmp_path)]) == 1
    assert "--grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv, stages", [
    # no continued parameter: toward the model's Re, as `run` does
    (["sweep", "--grid", "gamma=1,10"], [[("Re", [1.0])]] * 2),
    # only the continued grid parameter has stages
    (["sweep", "--grid", "S=1,200;gamma=1e4"],
     [[("S", [1.0])], [("S", [1.0, 100.0, 200.0])]]),
    # the column, then the row, then the flags
    (["sweep", "--Re", "2", "--grid", "S=200;Rem=3"],
     [[("Rem", [1.0, 3.0]), ("S", [1.0, 100.0, 200.0]), ("Re", [1.0, 2.0])]]),
    (["run", "--gamma", "10"], [[("Re", [1.0])]]),
    (["run", "--Re", "2", "--S", "200"],
     [[("S", [1.0, 100.0, 200.0]), ("Re", [1.0, 2.0])]]),
], ids=["sweep-fallback", "sweep-grid", "sweep-order", "run-fallback",
        "run-flags"])
def test_run_and_sweep_share_the_continuation_targets(monkeypatch, tmp_path,
                                                      argv, stages):
    seen = _fake_sweep(monkeypatch)
    monkeypatch.setattr(cli, "_dump_fields", lambda *args: None)
    assert cli.main(argv + ["--problem", "hartmann", "--continuation",
                            "--out-dir", str(tmp_path)]) == 0
    assert seen["stages"] == stages


def test_anisothermal_continuation_falls_back_to_ra(monkeypatch, tmp_path):
    # the anisothermal problems read no Re: with no continued parameter
    # given, `run` continues toward the model's Ra
    seen = _fake_sweep(monkeypatch)
    monkeypatch.setattr(cli, "_dump_fields", lambda *args: None)
    assert cli.main(["run", "--problem", "rayleigh_benard", "--continuation",
                     "--out-dir", str(tmp_path)]) == 0
    assert seen["stages"] == [[("Ra", [1.0])]]


def test_mms_run_uses_the_krylov_solver(monkeypatch, tmp_path):
    # --linear-solver fgmres reaches every level's Newton solve
    seen = []

    def record(model, state, cfg, fac):
        seen.append(fac)
        raise _Stop

    monkeypatch.setattr(cli, "solve_nonlinear", record)
    with pytest.raises(_Stop):
        cli.main(["run", "--problem", "mms", "--levels", "0",
                  "--linear-solver", "fgmres", "--out-dir", str(tmp_path)])
    [fac] = seen
    assert isinstance(fac, cli.KrylovSolverFactory)
    assert isinstance(fac.precond, StandardMHDPrecond)


@pytest.mark.parametrize("extra, text, name", [
    (["--dt", "0.1"], "", "--dt"),
    (["--T", "0.2"], "", "--T"),
    (["--dt", "0.1", "--T", "0.2"], "", "--dt"),
    (["--continuation"], "", "--continuation"),
    (["--bc-field", "trig"], "", "--bc-field"),
    ([], "[time]\ndt = 0.1\n", "[time] dt"),
    ([], "[time]\nT = 0.2\n", "[time] T"),
    ([], "[solver]\ncontinuation = true\n", "[solver] continuation"),
    ([], "[problem]\nbc_field = trig\n", "[problem] bc_field"),
])
def test_mms_run_rejects_settings_it_would_ignore(monkeypatch, tmp_path,
                                                   capsys, extra, text, name):
    # the convergence study neither time-steps nor continues and sets its
    # own boundary data; each of these settings stops it before any
    # problem is built
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["run", "--problem", "mms", "--levels", "0", *extra,
                     "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert name in err and "mms" in err
    assert not (tmp_path / "report.csv").exists()


def test_mms_run_takes_a_config_without_those_settings(monkeypatch,
                                                       tmp_path):
    # `continuation = false` asks for nothing the study would ignore
    seen = []

    def record(model, state, cfg, fac):
        seen.append(fac)
        raise _Stop

    monkeypatch.setattr(cli, "solve_nonlinear", record)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[solver]\ncontinuation = false\n")
    with pytest.raises(_Stop):
        cli.main(["run", "--problem", "mms", "--levels", "0",
                  "--config", str(cfg), "--out-dir", str(tmp_path)])
    assert seen == [cli.direct_solver_factory]


def _params_read(problem):
    """The parameter settings the problem reads and those it does not."""
    reads = problems.DEFAULT_PARAMS[problem]
    return ([s for s in cli.PARAMS.values() if s.param in reads],
            [s for s in cli.PARAMS.values() if s.param not in reads])


def _argv(problem, settings, how, tmp_path):
    """`run` (or, for a grid, `sweep`) of the problem with each setting at
    2, given as `how` says."""
    if how == "grid":
        grid = ";".join(f"{s.dest}=2" for s in settings)
        return ["sweep", "--problem", problem, "--grid", grid]
    argv = ["run", "--problem", problem, "--levels", "0"]
    if how == "flag":
        return argv + [a for s in settings for a in (s.flag, "2")]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[params]\n" + "".join(f"{s.key} = 2\n"
                                          for s in settings))
    return argv + ["--config", str(cfg)]


@pytest.mark.parametrize("how", ["flag", "config", "grid"])
@pytest.mark.parametrize("problem", problems.PROBLEM_NAMES)
def test_a_parameter_the_problem_does_not_read_is_rejected(
        monkeypatch, tmp_path, capsys, problem, how):
    # each one stops the run before the problem is built, naming the
    # problem, the flag and the key
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    _, unread = _params_read(problem)
    assert unread
    for s in unread:
        assert cli.main(_argv(problem, [s], how, tmp_path)
                        + ["--out-dir", str(tmp_path)]) == 1
        label = f"--grid {s.dest}" if how == "grid" else s.label
        assert capsys.readouterr().err == (
            f"error: --problem {problem} does not support {label}\n")


@pytest.mark.parametrize("how", ["flag", "config", "grid"])
@pytest.mark.parametrize("problem", problems.PROBLEM_NAMES)
def test_the_parameters_the_problem_reads_reach_it(monkeypatch, tmp_path,
                                                   problem, how):
    seen = []

    def record(name, levels=None, params=None, **extras):
        seen.append(params)
        raise _Stop

    monkeypatch.setattr(cli, "make_problem", record)
    reads, _ = _params_read(problem)
    # a grid takes at most two parameters
    batches = ([reads[i:i + 2] for i in range(0, len(reads), 2)]
               if how == "grid" else [reads])
    for given in batches:
        with pytest.raises(_Stop):
            cli.main(_argv(problem, given, how, tmp_path)
                     + ["--out-dir", str(tmp_path)])
        assert seen.pop() == {s.param: 2.0 for s in given}


@pytest.mark.parametrize("argv, message", [
    (["--problem", "hartmann", "--Ra", "5", "--RH", "0.5", "--Pr", "3",
      "--Pm", "2"], "--problem hartmann does not support --RH ([params] RH)"),
    (["--problem", "hall_ldc", "--stabilisation", "0.5"],
     "--problem hall_ldc does not support "
     "--stabilisation ([params] stabilisation)"),
    (["--problem", "rayleigh_benard", "--Re", "50", "--Rem", "7"],
     "--problem rayleigh_benard does not support --Re ([params] Re)"),
    (["--problem", "hall_island", "--dt", "0.05", "--T", "0.05", "--S", "10"],
     "--problem hall_island does not support --S ([params] S)"),
], ids=["hartmann-boussinesq", "hall-stabilisation", "rayleigh-re",
        "hall-island-s"])
def test_parameters_that_used_to_be_ignored_are_rejected(
        monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    assert cli.main(["run", "--levels", "0", *argv,
                     "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["run", "--problem", "hartmann", "--dt", "0.1"],
     "a stationary run does not support --dt ([time] dt)"),
    (["run", "--problem", "hall_island", "--dt", "0.05", "--T", "0.05",
      "--continuation"],
     "a transient run does not support --continuation "
     "([solver] continuation)"),
    (["sweep", "--problem", "hartmann", "--grid", "S=1", "--T", "1"],
     "sweep does not support --T ([time] T)"),
    (["sweep", "--problem", "hartmann", "--grid", "S=1;Re=1,2", "--Re", "3"],
     "--grid Re does not support --Re ([params] Re)"),
    (["bifurcate", "--from", "1", "--to", "2", "--step", "1", "--Ra", "5"],
     "--param Ra does not support --Ra ([params] Ra)"),
    (["bifurcate", "--from", "1", "--to", "2", "--step", "1", "--count", "3"],
     "bifurcate does not support --count"),
    (["bifurcate", "--critical", "Ra", "--Ra", "5000"],
     "--critical Ra does not support --Ra ([params] Ra)"),
    (["bifurcate", "--critical", "S", "--gamma", "1"],
     "--critical S does not support --gamma ([params] gamma)"),
    (["bifurcate", "--critical", "Ra", "--Pm", "3"],
     "--critical Ra does not support --Pm ([params] Pm)"),
    (["bifurcate", "--critical", "Ra", "--from", "1"],
     "bifurcate --critical does not support --from"),
    (["bifurcate", "--critical", "Ra", "--param", "S"],
     "bifurcate --critical does not support --param"),
    (["bifurcate", "--critical", "Ra", "--linear-solver", "direct"],
     "bifurcate --critical does not support "
     "--linear-solver ([solver] linear_solver)"),
], ids=["stationary-dt", "transient-continuation", "sweep-T", "sweep-grid",
        "bifurcate-param", "bifurcate-count", "critical-Ra", "critical-gamma",
        "critical-Ra-Pm", "critical-from", "critical-param",
        "critical-solver"])
def test_a_setting_the_command_path_does_not_read_is_rejected(
        monkeypatch, tmp_path, capsys, argv, message):
    monkeypatch.setattr(cli, "make_problem", _no_problem)
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_series_takes_the_columns_of_every_row(tmp_path):
    # the t = 0 row has no solver counts; the later rows' columns still get
    # a header, in the order they first appear
    from types import SimpleNamespace
    cli._write_series(SimpleNamespace(out_dir=str(tmp_path)), [
        {"t": 0.0, "div_B": 1e-10},
        {"t": 0.05, "div_B": 2e-10, "newton_its": 4, "lin_its": 1.0}])
    assert (tmp_path / "series.csv").read_text().splitlines() == [
        "t,div_B,newton_its,lin_its", "0.0,1e-10,,", "0.05,2e-10,4,1.0"]


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("argv", [
    ["sweep", "--problem", "hartmann", "--levels", "0", "--grid", "S=1"],
    ["run", "--problem", "mms", "--levels", "0"],
], ids=["sweep", "mms"])
def test_the_echoed_report_leaves_no_file_open(tmp_path, capsys, argv):
    # the report is printed from the text written, not read back through a
    # file object that is never closed
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    report = (tmp_path / "report.csv").read_text()
    assert capsys.readouterr().out.endswith(report + "\n")
