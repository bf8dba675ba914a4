import pytest

from twofluid import cli

SMALL = ["--set", "nx=2", "--set", "ny=4"]


def test_terminal_velocity_exits_0(capsys):
    assert cli.main(["terminal-velocity"]) == 0
    assert "Clift correlation" in capsys.readouterr().out


def test_short_run_exits_0(tmp_path, capsys):
    argv = ["run", *SMALL, "--t-end", "0.0001", "--out", str(tmp_path),
            "--quiet"]
    assert cli.main(argv) == 0
    assert "finished t = 0.0001 s" in capsys.readouterr().out
    assert (tmp_path / "series.csv").is_file()


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["analyze", "snap_000000.vtk", "--grid", "bad"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1


@pytest.mark.parametrize("argv", [
    ["run", "--set", "nx=0"],
    ["run", "--config", "no-such-file.cfg"],
])
def test_configuration_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err


def test_stagnating_run_exits_3(tmp_path, capsys):
    argv = ["run", *SMALL, "--set", "tol_step=1e-14", "--set", "dt_min=1e-5",
            "--t-end", "0.002", "--out", str(tmp_path)]
    assert cli.main(argv) == 3
    assert "solver failure" in capsys.readouterr().err
    assert (tmp_path / "snap_000001.vtk").is_file()
