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
