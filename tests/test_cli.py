import pytest

from mhdkit import cli


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


def test_fixed_grouping_rejects_elimination(tmp_path, capsys):
    # the Hall preconditioner has one grouping; asking for the other one
    # is a configuration error
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--problem", "hall_ldc", "--levels", "0",
                  "--linear-solver", "fgmres", "--elimination",
                  "eliminate_eb", "--out-dir", str(tmp_path)])
    assert exit_.value.code == 1
    err = capsys.readouterr().err
    assert "HallMHD" in err and "eliminate_eb" in err


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
