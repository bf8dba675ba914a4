import re

import numpy as np
import pytest

from twofluid import caseio, cli, fem, post

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


def test_analyze_matches_sampling_on_the_original_mesh(tmp_path, capsys):
    _run_small(tmp_path)
    last = sorted(tmp_path.glob("snap_*.vtk"))[-1]
    capsys.readouterr()
    argv = ["analyze", str(last), "--grid", "8x16",
            "--out", str(tmp_path / "spectra")]
    assert cli.main(argv) == 0
    # the same grid sample taken on the mesh the run stepped on
    mesh = caseio.CaseConfig(nx=2, ny=4).build_mesh()
    alpha = caseio.read_snapshot(last)[2]["alpha_g"]
    grid = post.sample_to_grid(fem.FunctionSpace.scalar_p1(mesh).field(alpha),
                               8, 16)
    assert grid.values.max() > 0.0
    assert (f"holdup on grid = {grid.values.mean():.6f}"
            in capsys.readouterr().out)
    _, power, _ = post.radial_average(post.power_spectrum_2d(grid))
    rows = (tmp_path / "spectra" / "spectrum_radial.csv").read_text()
    written = [float(line.split(",")[1]) for line in rows.splitlines()[1:]]
    assert written == list(power)


def test_analyze_needs_the_grid_in_the_snapshot_header(tmp_path, capsys):
    _run_small(tmp_path)
    snap = tmp_path / "snap_000000.vtk"
    text = snap.read_text()
    assert " nx=2 ny=4" in text.splitlines()[1]
    snap.write_text(text.replace(" nx=2 ny=4", "", 1))
    capsys.readouterr()
    assert cli.main(["analyze", str(snap), "--out", str(tmp_path)]) == 2
    assert "nx=0 ny=0" in capsys.readouterr().err


def test_convergence_writes_each_mesh_and_compares(tmp_path, capsys):
    argv = ["convergence", "--meshes", "2,4", "--t-end", "0.0001",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    for cells in (16, 64):                       # 2 x 4 and 4 x 8 quads
        rows = (tmp_path / f"holdup_{cells}.csv").read_text().splitlines()
        assert rows[0] == "t_seconds,holdup"
        assert len(rows) > 2
    out = capsys.readouterr().out
    peak = float(re.search(r"peak holdup = (\S+)", out).group(1))
    worst, share = re.search(
        r"max pairwise holdup deviation = (\S+) \((\S+)% of peak\)",
        out).groups()
    assert peak > 0.0
    assert float(share) == pytest.approx(float(worst) / peak * 100, abs=0.01)
    assert np.isfinite(float(worst))


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
