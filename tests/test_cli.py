import pytest

from twofluid import cli

SMALL = ["--set", "nx=2", "--set", "ny=4"]


def test_terminal_velocity_exits_0(capsys):
    assert cli.main(["terminal-velocity"]) == 0
    assert "Clift correlation" in capsys.readouterr().out


def _run_small(out):
    argv = ["run", *SMALL, "--t-end", "0.0001", "--out", str(out), "--quiet"]
    assert cli.main(argv) == 0


def test_short_run_exits_0(tmp_path, capsys):
    _run_small(tmp_path)
    out = capsys.readouterr().out
    # one series row per accepted step after the t = 0 row, and the last
    # snapshot is named by the accepted-step count
    rows = (tmp_path / "series.csv").read_text().splitlines()[2:]
    last = sorted(p.name for p in tmp_path.glob("snap_*.vtk"))[-1]
    assert last == f"snap_{len(rows):06d}.vtk"
    assert f"finished t = 0.0001 s after {len(rows)} accepted steps" in out


def test_analyze_a_run_snapshot_exits_0(tmp_path, capsys):
    _run_small(tmp_path)
    last = sorted(tmp_path.glob("snap_*.vtk"))[-1]     # gas has entered
    argv = ["analyze", str(last), "--grid", "8x16",
            "--out", str(tmp_path / "spectra")]
    assert cli.main(argv) == 0
    assert "holdup on grid = " in capsys.readouterr().out
    radial = (tmp_path / "spectra" / "spectrum_radial.csv").read_text()
    hist = (tmp_path / "spectra" / "spectrum_hist.csv").read_text()
    assert radial.splitlines()[0] == "k_bin,power"
    assert len(radial.splitlines()) > 1
    assert hist.splitlines()[0] == "bin_lo,bin_hi,count"
    assert len(hist.splitlines()) == 31                # 30 bins by default


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
    # the second attempt stagnates, from the start time
    assert ("solver failure in step attempt 1 from t = 0 s: step control "
            "stagnated") in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("snap_*.vtk")] == ["snap_000000.vtk"]
