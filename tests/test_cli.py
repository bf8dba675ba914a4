import contextlib
import io
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import twofluid
from twofluid import caseio, cli, fem, mesh, post
from twofluid.errors import BracketError

SMALL = ["--set", "nx=2", "--set", "ny=4"]


def test_terminal_velocity_exits_0(capsys):
    assert cli.main(["terminal-velocity"]) == 0
    assert "Clift correlation" in capsys.readouterr().out


def _run_small(out, *overrides):
    argv = ["run", *SMALL, "--set", "t_end=0.0001",
            "--set", f"output_dir={out}", *overrides, "--quiet"]
    assert cli.main(argv) == 0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The default small run, once per module: its output directory and
    what it printed.  A test that edits one of its files edits a copy in
    its own tmp_path."""
    out = tmp_path_factory.mktemp("small_run")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        _run_small(out)
    return out, printed.getvalue()


@pytest.mark.parametrize("diagonal", mesh.DIAGONALS)
def test_short_run_exits_0(diagonal, small_run, tmp_path, capsys):
    if diagonal == caseio.CaseConfig().diagonal:
        # the default small run already is this one
        run_dir, out = small_run
    else:
        _run_small(tmp_path, "--set", f"diagonal={diagonal}")
        run_dir, out = tmp_path, capsys.readouterr().out
    # one series row per accepted step after the t = 0 row, and the last
    # snapshot is named by the accepted-step count
    rows = (run_dir / "series.csv").read_text().splitlines()[2:]
    last = sorted(p.name for p in run_dir.glob("snap_*.vtk"))[-1]
    assert last == f"snap_{len(rows):06d}.vtk"
    assert f"finished t = 0.0001 s after {len(rows)} accepted steps" in out


def test_run_prints_the_final_holdup_of_the_series(small_run):
    # the holdup after 1e-4 s is of order 1e-7: printed in fixed point
    # with 6 decimals it read 0.000000
    run_dir, out = small_run
    printed = re.search(r"final holdup = (\S+)", out).group(1)
    rows = (run_dir / "series.csv").read_text().splitlines()
    column = rows[0].split(",").index("holdup")
    holdup = float(rows[-1].split(",")[column])
    assert holdup > 0.0
    assert printed == f"{holdup:.6g}"


def test_unbounded_run_exits_0(tmp_path, capsys):
    argv = ["run", *SMALL, "--set", "t_end=0.0001", "--set",
            "alpha_scheme=linear", "--set", f"output_dir={tmp_path}",
            "--quiet"]
    assert cli.main(argv) == 0
    assert "finished t = 0.0001 s" in capsys.readouterr().out


def test_unbounded_3x6_run_exits_0(tmp_path, capsys):
    # the first alpha systems have their whole right-hand side on the
    # held inlet rows.  A Krylov solve of the whole system once stalled
    # on them in the fifth attempt; the unbounded scheme now solves the
    # free rows by the VI's reduced solve (dense LU at this size), and
    # this run keeps that start covered
    argv = ["run", "--set", "nx=3", "--set", "ny=6", "--set", "t_end=0.0001",
            "--set", "alpha_scheme=linear", "--set", f"output_dir={tmp_path}",
            "--quiet"]
    assert cli.main(argv) == 0
    assert "finished t = 0.0001 s" in capsys.readouterr().out


def test_run_reads_its_case_from_a_config_file(tmp_path, capsys):
    out = tmp_path / "from-file"
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.0001, output_dir=str(out))
    path = tmp_path / "case.cfg"
    path.write_text(caseio.dump_config(cfg), encoding="utf-8")
    assert cli.main(["run", "--config", str(path), "--quiet"]) == 0
    # the file set the end time, the mesh and the output directory
    assert "finished t = 0.0001 s" in capsys.readouterr().out
    first = (out / "snap_000000.vtk").read_text().splitlines()[1]
    assert first.endswith(" nx=2 ny=4")
    assert (out / "series.csv").exists()


def test_an_override_makes_a_config_file_valid(tmp_path, capsys):
    # the case is validated once, after the file and every --set; at
    # t_end = 0 the run writes its start only
    path = tmp_path / "case.cfg"
    path.write_text("dt_min = 0.05\n", encoding="utf-8")
    argv = ["run", "--config", str(path), *SMALL, "--set", "dt_max=0.1",
            "--set", "t_end=0", "--set", f"output_dir={tmp_path}", "--quiet"]
    assert cli.main(argv) == 0
    assert "finished t = 0.0000 s after 0 accepted steps" in (
        capsys.readouterr().out)


def test_an_override_can_make_a_valid_config_file_invalid(tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_text("nx = 2\nny = 4\n", encoding="utf-8")
    argv = ["run", "--config", str(path), "--set", "dt_max=1e-10",
            "--set", f"output_dir={tmp_path}"]
    assert cli.main(argv) == 2
    assert "key 'dt_min': " in capsys.readouterr().err


def test_a_later_override_of_a_key_wins(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["run", "--set", "nx=7", *SMALL, "--set", "t_end=1",
            "--set", "t_end=0.0001", "--set", f"output_dir={out}", "--quiet"]
    assert cli.main(argv) == 0
    assert "finished t = 0.0001 s" in capsys.readouterr().out
    first = (out / "snap_000000.vtk").read_text().splitlines()[1]
    assert first.endswith(" nx=2 ny=4")


def test_bad_value_in_a_config_file_exits_2_naming_line_and_key(tmp_path,
                                                                capsys):
    path = tmp_path / "case.cfg"
    path.write_text("[mesh]\nny = 4\nnx = abc\n", encoding="utf-8")
    argv = ["run", "--config", str(path),
            "--set", f"output_dir={tmp_path / 'out'}"]
    assert cli.main(argv) == 2
    assert "line 3: key 'nx'" in capsys.readouterr().err


def test_analyze_a_run_snapshot_exits_0(small_run, tmp_path, capsys):
    last = sorted(small_run[0].glob("snap_*.vtk"))[-1]  # gas has entered
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


def test_analyze_matches_sampling_on_the_original_mesh(small_run, tmp_path,
                                                       capsys):
    last = sorted(small_run[0].glob("snap_*.vtk"))[-1]
    argv = ["analyze", str(last), "--grid", "8x16",
            "--out", str(tmp_path / "spectra")]
    assert cli.main(argv) == 0
    # the same grid sample taken on the mesh the run stepped on
    mesh = caseio.CaseConfig(nx=2, ny=4).build_mesh()
    alpha = caseio.read_snapshot(last)[2]["alpha_g"]
    grid = post.sample_to_grid(fem.FunctionSpace.scalar_p1(mesh).field(alpha),
                               8, 16)
    assert grid.max() > 0.0
    assert (f"holdup on grid = {grid.mean():.6g}"
            in capsys.readouterr().out)
    _, power, _ = post.radial_average(post.power_spectrum_2d(grid))
    rows = (tmp_path / "spectra" / "spectrum_radial.csv").read_text()
    written = [float(line.split(",")[1]) for line in rows.splitlines()[1:]]
    assert written == list(power)


def test_analyze_needs_the_grid_in_the_snapshot_header(small_run, tmp_path,
                                                       capsys):
    text = (small_run[0] / "snap_000000.vtk").read_text()
    assert " nx=2 ny=4" in text.splitlines()[1]
    snap = tmp_path / "snap_000000.vtk"
    snap.write_text(text.replace(" nx=2 ny=4", "", 1))
    assert cli.main(["analyze", str(snap), "--out", str(tmp_path)]) == 2
    assert "nx=0 ny=0" in capsys.readouterr().err


def test_convergence_writes_each_mesh_and_compares(tmp_path, capsys):
    argv = ["convergence", "--meshes", "2,3,4", "--set", "t_end=0.0001",
            "--set", f"output_dir={tmp_path}"]
    assert cli.main(argv) == 0
    curves = []
    for cells in (16, 36, 64):              # 2 x 4, 3 x 6 and 4 x 8 quads
        rows = (tmp_path / f"holdup_{cells}.csv").read_text().splitlines()
        assert rows[0] == "t_seconds,holdup"
        assert len(rows) > 2
        curves.append(np.array([[float(v) for v in row.split(",")]
                                for row in rows[1:]]).T)
    out = capsys.readouterr().out
    peak = float(re.search(r"peak holdup = (\S+)", out).group(1))
    worst, share = re.search(
        r"max pairwise holdup deviation = (\S+) \((\S+)% of peak\)",
        out).groups()
    assert peak > 0.0
    assert float(share) == pytest.approx(float(worst) / peak * 100, abs=0.01)
    # the deviation of every pair of curves, the worst one printed
    t_common = np.linspace(0.0, 0.0001, 201)
    interps = [np.interp(t_common, t, h) for t, h in curves]
    pairs = [float(np.abs(a - b).max())
             for i, a in enumerate(interps) for b in interps[i + 1:]]
    assert min(pairs) < max(pairs)
    assert worst == f"{max(pairs):.6g}"


def _first_30_lines(snapshot):
    # title and points intact, the file ends inside the CELLS block
    return "".join(snapshot.splitlines(keepends=True)[:30])


def _unparsable_point(snapshot):
    lines = snapshot.splitlines(keepends=True)
    lines[6] = "x 0 0\n"
    return "".join(lines)


def _title_nx(value):
    def edit(snapshot):
        assert " nx=2 " in snapshot
        return snapshot.replace(" nx=2 ", f" nx={value} ", 1)
    return edit


def _nan_alpha(snapshot):
    # the first lookup table is alpha_g's
    lines = snapshot.splitlines(keepends=True)
    lines[lines.index("LOOKUP_TABLE default\n") + 1] = "nan\n"
    return "".join(lines)


def _nan_point(snapshot):
    lines = snapshot.splitlines(keepends=True)
    lines[6] = "nan 0 0\n"
    return "".join(lines)


def _clockwise_cell(snapshot):
    lines = snapshot.splitlines(keepends=True)
    first_cell = [ln.startswith("CELLS ") for ln in lines].index(True) + 1
    _, a, b, c = lines[first_cell].split()
    lines[first_cell] = f"3 {b} {a} {c}\n"
    return "".join(lines)


def _moved_interior_point(snapshot):
    # point 4 of the 2x4 grid is (0, 0.5), inside the column
    lines = snapshot.splitlines(keepends=True)
    first_point = [ln.startswith("POINTS ") for ln in lines].index(True) + 1
    assert lines[first_point + 4] == "0 0.5 0\n"
    lines[first_point + 4] = "0.3 0.9 0\n"
    return "".join(lines)


def _swapped_title_grid(snapshot):
    # 3 x 5 points and 16 cells either way
    assert " nx=2 ny=4" in snapshot
    return snapshot.replace(" nx=2 ny=4", " nx=4 ny=2", 1)


def _cell_on_a_missing_point(snapshot):
    lines = snapshot.splitlines(keepends=True)
    first_cell = [ln.startswith("CELLS ") for ln in lines].index(True) + 1
    lines[first_cell] = "3 0 1 999\n"
    return "".join(lines)


@pytest.mark.parametrize("name, text", [
    ("series.csv", None),
    ("empty.vtk", ""),
    pytest.param("truncated.vtk", _first_30_lines, id="truncated.vtk"),
    pytest.param("garbled.vtk", _unparsable_point, id="garbled.vtk"),
    ("binary.vtk", b"\x89PNG\r\n\x1a\n\xff\xfe"),
    *(pytest.param(f"nx_{value}.vtk", _title_nx(value), id=f"nx={value}")
      for value in ("nan", "inf", "1e400", "2.5")),
    pytest.param("nan_alpha.vtk", _nan_alpha, id="nan_alpha.vtk"),
    pytest.param("nan_point.vtk", _nan_point, id="nan_point.vtk"),
    pytest.param("missing_point.vtk", _cell_on_a_missing_point,
                 id="missing_point.vtk"),
    pytest.param("clockwise.vtk", _clockwise_cell, id="clockwise.vtk"),
    pytest.param("moved_point.vtk", _moved_interior_point,
                 id="moved_point.vtk"),
    pytest.param("swapped_grid.vtk", _swapped_title_grid,
                 id="swapped_grid.vtk"),
])
def test_analyze_a_file_that_is_not_a_snapshot_exits_2(name, text, small_run,
                                                        tmp_path, capsys):
    run_dir = small_run[0]
    path = run_dir / name if text is None else tmp_path / name
    if callable(text):
        text = text((run_dir / "snap_000000.vtk").read_text())
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    assert cli.main(["analyze", str(path), "--out", str(tmp_path)]) == 2
    assert f"snapshot '{path}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["analyze", "snap_000000.vtk", "--grid", "bad"],
    ["analyze", "snap_000000.vtk", "--grid", "1x4"],   # below 2x2
    ["analyze", "snap_000000.vtk", "--grid", "1x1"],
    ["convergence", "--meshes", ","],                   # no mesh at all
    ["convergence", "--meshes", "2,x"],
    ["run", "--unbounded"],          # replaced by --set alpha_scheme=linear
    ["run", "--t-end", "1"],         # replaced by --set t_end=1
    ["run", "--out", "d"],           # replaced by --set output_dir=d
    ["convergence", "--t-end", "1"],
    ["convergence", "--out", "d"],
])
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1


@pytest.mark.parametrize("argv, message", [
    (["analyze", "snap_000000.vtk", "--grid", "1x4"],
     "argument --grid: invalid grid value: '1x4'"),
    (["convergence", "--meshes", ","],
     "argument --meshes: invalid meshes value: ','"),
    # a count below 1 is refused before any mesh runs
    (["convergence", "--meshes", "2,-1"],
     "argument --meshes: invalid meshes value: '2,-1'"),
    (["convergence", "--meshes", "0,2"],
     "argument --meshes: invalid meshes value: '0,2'"),
], ids=["grid", "meshes", "meshes-negative", "meshes-zero"])
def test_a_bad_grid_or_mesh_list_is_reported_by_argparse(argv, message,
                                                         capsys, monkeypatch):
    def no_run(cfg):
        raise AssertionError(f"ran {cfg.nx} x {cfg.ny}")

    monkeypatch.setattr(cli.ipcs, "run", no_run)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: twofluid ") and message in err


def test_the_grid_and_mesh_defaults_are_converted():
    parser = cli._build_parser()
    assert parser.parse_args(["analyze", "s.vtk"]).grid == (64, 128)
    assert parser.parse_args(["convergence"]).meshes == [25, 50]


@pytest.mark.parametrize("argv", [
    ["run", "--set", "nx=0"],
    ["run", "--config", "no-such-file.cfg"],
    ["terminal-velocity", "--set", "rho_g=1000"],   # no buoyancy
])
def test_configuration_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    assert capsys.readouterr().err


def test_override_error_names_the_key(capsys):
    assert cli.main(["run", "--set", "ny=4", "--set", "nx=abc"]) == 2
    err = capsys.readouterr().err
    assert "nx" in err and "abc" in err
    assert "line" not in err


@pytest.mark.parametrize("override, key", [("ny=0", "ny"),
                                           ("dt_min=0.02", "dt_min"),
                                           ("output_every=0", "output_every"),
                                           ("t_end=nan", "t_end"),
                                           ("alpha_scheme=fct",
                                            "alpha_scheme")])
def test_invalid_value_exits_2_naming_its_key(override, key, tmp_path,
                                              capsys):
    argv = ["run", *SMALL, "--set", "t_end=0.0001",
            "--set", f"output_dir={tmp_path}", "--set", override]
    assert cli.main(argv) == 2
    assert f"key '{key}': " in capsys.readouterr().err


def test_the_replaced_bounded_key_exits_2_naming_alpha_scheme(tmp_path,
                                                              capsys):
    argv = ["run", *SMALL, "--set", "bounded=false", "--set", "t_end=0.0001",
            "--set", f"output_dir={tmp_path}"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "unknown key 'bounded'" in err and "alpha_scheme" in err


@pytest.mark.parametrize("key, replacement", [
    ("bounded", "alpha_scheme"), ("x_scale", "width"),
    ("v_scale", "inlet_peak_velocity"), ("h_ref", "height"),
    ("inlet_half_width", "inlet_sigma")])
def test_a_replaced_key_exits_2_naming_its_replacement(key, replacement,
                                                       tmp_path, capsys):
    path = tmp_path / "case.cfg"
    path.write_text(f"nx = 2\n{key} = 0.05\n", encoding="utf-8")
    for argv in (["run", "--set", f"{key}=0.05"],
                 ["run", "--config", str(path)]):
        assert cli.main(argv) == 2
        assert (f"unknown key '{key}', use {replacement}"
                in capsys.readouterr().err)


@pytest.mark.parametrize("d_b, n_d", [("5e-4", "64.75"), ("5e-3", "6.475e+04"),
                                      ("0.5", "6.475e+10")])
def test_terminal_velocity_outside_the_clift_range_exits_2(d_b, n_d, capsys):
    # the correlation is the 73 < N_D <= 580 branch of Clift, Grace and
    # Weber; at d_b = 0.5 m it gave a relative difference of 2.6e8 %
    assert cli.main(["terminal-velocity", "--set", f"d_b={d_b}"]) == 2
    err = capsys.readouterr().err
    assert "73 < N_D <= 580" in err and f"N_D = {n_d}" in err


def test_stagnating_run_exits_3(tmp_path, capsys):
    argv = ["run", *SMALL, "--set", "tol_step=1e-14", "--set", "dt_min=1e-5",
            "--set", "t_end=0.002", "--set", f"output_dir={tmp_path}"]
    assert cli.main(argv) == 3
    # the second attempt stagnates, from the start time
    assert ("solver failure in step attempt 1 from t = 0 s: step control "
            "stagnated") in capsys.readouterr().err
    assert [p.name for p in tmp_path.glob("snap_*.vtk")] == ["snap_000000.vtk"]


def test_a_solver_error_outside_a_run_exits_3(monkeypatch, capsys):
    # a TwoFluidError that is no SolverFailureError names no step attempt
    def no_bracket(props):
        raise BracketError("no sign change in [0.001, 10]")

    monkeypatch.setattr(cli.physics, "terminal_velocity_balance", no_bracket)
    assert cli.main(["terminal-velocity"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: no sign change") and "attempt" not in err


def test_importing_the_cli_loads_no_scipy_solver_modules():
    """Importing scipy.linalg or scipy.sparse.linalg raises a fresh
    process's peak RSS by about 7.5 and 9.5 MB, which a coarse run's
    memory budget cannot absorb; the solvers need neither."""
    src = os.path.dirname(os.path.dirname(twofluid.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import sys, twofluid.cli\n"
            "print(' '.join(m for m in ('scipy.linalg', 'scipy.sparse.linalg')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert proc.stdout.strip() == ""
