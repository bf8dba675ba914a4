import csv
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twofluid import caseio
from twofluid.caseio import (CaseConfig, SeriesWriter, build_spaces,
                             dump_config, initial_state, inlet_profiles,
                             parse_config, read_snapshot, write_snapshot)
from twofluid.errors import ConfigError
from twofluid.mesh import DIAGONALS, generate_rect_mesh


def test_empty_document_gives_reference_defaults():
    cfg = parse_config("")
    assert cfg.rho_g == 10.0
    assert cfg.rho_l == 1000.0
    assert cfg.mu_g == 2e-5
    assert cfg.mu_l == 5e-3
    assert cfg.d_b == 1e-3
    assert cfg.inlet_peak_velocity == 0.0616
    assert cfg.inlet_peak_alpha == 0.026
    assert cfg.inlet_ramp_time == 0.625
    assert cfg.c_p == 0.25
    assert cfg.alpha_scheme == "vi"


def test_parse_sections_and_comments():
    cfg = parse_config("""
[solver]
alpha_scheme = linear   # comparator run
nx = 10
tol_step = 2e-4
""")
    assert cfg.alpha_scheme == "linear"
    assert cfg.nx == 10
    assert cfg.tol_step == 2e-4


def test_unknown_key_rejected_with_line():
    with pytest.raises(ConfigError) as exc:
        parse_config("rho_l = 1000\nbogus_key = 1\n")
    assert "line 2" in str(exc.value)


def test_domain_invalid_value_names_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("rho_l = -1\n")
    assert "rho_l" in str(exc.value)


@pytest.mark.parametrize("text, key", [
    ("ny = 0\n", "ny"),
    ("nx = 0\n", "nx"),
    ("dt_min = 0.1\ndt_max = 0.01\n", "dt_min"),
    ("diagonal = diag\n", "diagonal"),
    ("rho_g = 2000\n", "rho_l"),      # the gas may not be the heavy phase
    ("rho_g = 1000\n", "rho_l"),      # nor as heavy as the liquid
    ("alpha_scheme = fct\n", "alpha_scheme"),
], ids=["ny", "nx", "dt_min", "diagonal", "rho_l", "rho_l_equal",
        "alpha_scheme"])
def test_invalid_value_names_the_wrong_key(text, key):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert exc.value.key == key


# the numeric values that stay valid at 0 (no gas at the inlet, no
# interfacial pressure, a run that only writes its start)
VALID_AT_ZERO = {"c_p", "t_end", "inlet_peak_alpha"}


@pytest.mark.parametrize("name, value", [
    (f.name, value) for f in fields(CaseConfig)
    for value in (0, -1, math.nan, math.inf)
    if f.type == "float" or (f.type == "int" and math.isfinite(value))])
def test_zero_or_negative_numeric_value_is_rejected_naming_its_key(name,
                                                                   value):
    cfg = CaseConfig(**{name: value})
    if value == 0 and name in VALID_AT_ZERO:
        cfg.validate()
        return
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    assert exc.value.key == name


def test_the_replaced_bounded_key_points_to_alpha_scheme():
    with pytest.raises(ConfigError) as exc:
        parse_config("nx = 4\nbounded = false\n")
    assert str(exc.value).startswith("line 2: unknown key 'bounded'")
    assert "alpha_scheme" in str(exc.value)


def test_scales_are_the_case_values():
    cfg = CaseConfig(width=0.1, height=0.3, inlet_peak_velocity=0.2,
                     gravity=9.0)
    s = cfg.scales()
    assert (s.x_s, s.v_s, s.g_s, s.h_ref) == (0.1, 0.2, 9.0, 0.3)
    assert (cfg.x_scale, cfg.v_scale, cfg.h_ref) == (0.1, 0.2, 0.3)
    # the scaled column is one width wide, whatever the width
    lo, hi = cfg.build_mesh().bounds()
    assert hi - lo == pytest.approx([1.0, 3.0], rel=1e-15)


def test_malformed_line_reports_position():
    with pytest.raises(ConfigError) as exc:
        parse_config("rho_l 1000\n")
    assert "line 1" in str(exc.value)


def test_dump_round_trips():
    cfg = CaseConfig(nx=13, alpha_scheme="linear", tol_vi=3e-11,
                     diagonal="left", output_dir="elsewhere")
    assert parse_config(dump_config(cfg)) == cfg


def _carriable(text):
    return ("#" not in text and text == text.strip()
            and len(text.splitlines()) <= 1)


def _ordered(cfg):
    """The liquid is the heavier phase and dt_min <= dt_max."""
    cfg.rho_g, cfg.rho_l = sorted((cfg.rho_g, cfg.rho_l))
    cfg.dt_min, cfg.dt_max = sorted((cfg.dt_min, cfg.dt_max))
    return cfg


def _valid_configs():
    """Every field drawn from its valid range; floats of any magnitude,
    with two distinct densities."""
    positive = st.floats(min_value=0.0, exclude_min=True,
                         allow_infinity=False)
    special = {
        "c_p": st.floats(min_value=0.0, allow_infinity=False),
        "t_end": st.floats(min_value=0.0, allow_infinity=False),
        "inlet_peak_alpha": st.floats(min_value=0.0, max_value=1.0),
        "alpha_ln_floor": st.floats(min_value=0.0, max_value=1.0,
                                    exclude_min=True, exclude_max=True),
        "slip_alpha_floor": st.floats(min_value=0.0, max_value=1.0,
                                      exclude_min=True, exclude_max=True),
        "nx": st.integers(1, 10 ** 6),
        "ny": st.integers(1, 10 ** 6),
        "diagonal": st.sampled_from(DIAGONALS),
        "alpha_scheme": st.sampled_from(caseio.ALPHA_SCHEMES),
        "output_dir": st.text().filter(_carriable),
    }
    return st.builds(CaseConfig, **{
        f.name: special.get(f.name, positive)
        for f in fields(CaseConfig)}).filter(
            lambda cfg: cfg.rho_g != cfg.rho_l).map(_ordered)


@given(_valid_configs())
def test_dump_round_trips_every_valid_config(cfg):
    cfg.validate()
    assert parse_config(dump_config(cfg)) == cfg


@pytest.mark.parametrize("output_dir", ["runs#1", " out ", "out\n", "a\nb",
                                        "a\rb"])
def test_dump_rejects_text_the_format_cannot_carry(output_dir):
    with pytest.raises(ConfigError) as exc:
        dump_config(CaseConfig(output_dir=output_dir))
    assert exc.value.key == "output_dir"


def test_overrides():
    cfg = parse_config("", ["nx=8", "alpha_scheme=linear"])
    assert cfg.nx == 8 and cfg.alpha_scheme == "linear"
    with pytest.raises(ConfigError):
        parse_config("", ["nonsense"])
    with pytest.raises(ConfigError):
        parse_config("", ["no_such_key=1"])


def test_inlet_profile_values():
    # full-ramp values; the time ramp is tested on the stepper's
    # Dirichlet data in test_ipcs
    cfg = CaseConfig()
    v, a = inlet_profiles(0.0, cfg)
    assert v == 0.0616
    assert a == 0.026
    # edge of the sparger: exp(-50)
    v, a = inlet_profiles(0.025, cfg)
    assert v == pytest.approx(0.0616 * np.exp(-50.0), rel=1e-12)
    assert a == pytest.approx(0.026 * np.exp(-50.0), rel=1e-12)
    assert v < 1e-20


def test_inlet_profile_even_and_monotone():
    cfg = CaseConfig()
    xs = np.linspace(0.0, 0.025, 11)
    v1, a1 = inlet_profiles(xs, cfg)
    v2, a2 = inlet_profiles(-xs, cfg)
    assert np.array_equal(v1, v2) and np.array_equal(a1, a2)
    # strictly decreasing away from the sparger's centre
    assert np.all(np.diff(v1) < 0.0) and np.all(np.diff(a1) < 0.0)


def test_initial_state_fields():
    cfg = CaseConfig(nx=4, ny=8)
    mesh = cfg.build_mesh()
    state = initial_state(mesh, cfg)
    assert np.all(state.alpha_g.coefficients == 0.0)
    assert np.all(state.alpha_l.coefficients == 1.0)
    assert np.all(state.v_g.coefficients == 0.0)
    assert np.all(state.v_l.coefficients == 0.0)
    # top of the column is at scaled y = height/x_scale
    p1 = state.p_l.space
    top = np.isclose(p1.node_coords[:, 1], cfg.height / cfg.x_scale)
    assert state.p_l.coefficients[top] == pytest.approx(0.0, abs=1e-14)
    bottom = np.isclose(p1.node_coords[:, 1], 0.0)
    # dimensional pressure at the floor: rho_l g h_ref = 981 Pa
    p_s = cfg.rho_l * cfg.gravity * cfg.h_ref
    assert state.p_l.coefficients[bottom] * p_s == pytest.approx(981.0)


def test_snapshot_round_trip(tmp_path):
    cfg = CaseConfig(nx=3, ny=4)
    mesh = cfg.build_mesh()
    spaces = build_spaces(mesh)
    state = initial_state(mesh, cfg, spaces)
    rng = np.random.default_rng(0)
    state.alpha_g.coefficients[:] = rng.uniform(0.0, 0.03, mesh.n_vertices)
    state.v_g.coefficients[:] = rng.standard_normal(spaces.vec.dof_count)
    path = tmp_path / "snap_000000.vtk"
    write_snapshot(state, mesh, str(path))
    text = path.read_text()
    assert "DATASET UNSTRUCTURED_GRID" in text
    for a, b, c in mesh.cells:
        assert f"3 {a} {b} {c}" in text
    verts, cells, data, meta = read_snapshot(str(path))
    assert verts == pytest.approx(mesh.vertices, abs=1e-15)
    assert np.array_equal(cells, mesh.cells)
    assert data["alpha_g"] == pytest.approx(state.alpha_g.coefficients,
                                            abs=1e-12)
    assert data["v_g"] == pytest.approx(state.v_g.vertex_values(), abs=1e-12)
    assert meta["nx"] == 3


def test_snapshot_into_a_missing_directory_raises_naming_the_path(tmp_path):
    cfg = CaseConfig(nx=1, ny=2)
    mesh = cfg.build_mesh()
    path = tmp_path / "missing" / "snap_000000.vtk"
    with pytest.raises(OSError,
                       match=re.escape(f"cannot write snapshot '{path}'")):
        write_snapshot(initial_state(mesh, cfg), mesh, str(path))
    assert not path.parent.exists()


def test_blank_lines_between_snapshot_blocks_are_skipped(tmp_path):
    cfg = CaseConfig(nx=2, ny=3)
    mesh = cfg.build_mesh()
    state = initial_state(mesh, cfg)
    rng = np.random.default_rng(1)
    state.alpha_g.coefficients[:] = rng.uniform(0.0, 0.03, mesh.n_vertices)
    state.v_l.coefficients[:] = rng.standard_normal(state.v_l.space.dof_count)
    path = tmp_path / "snap.vtk"
    write_snapshot(state, mesh, str(path))
    spaced = tmp_path / "spaced.vtk"
    headers = ("CELL_TYPES", "POINT_DATA", "SCALARS", "VECTORS")
    spaced.write_text("".join(
        ("\n" if line.startswith(headers) else "") + line
        for line in path.read_text().splitlines(keepends=True)) + "\n\n")
    assert spaced.read_text().count("\n\n") == 7
    want = read_snapshot(str(path))
    got = read_snapshot(str(spaced))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2].keys() == want[2].keys()
    for name, values in want[2].items():
        assert np.array_equal(got[2][name], values)
    assert got[3] == want[3]


def test_snapshot_zero_state(tmp_path):
    cfg = CaseConfig(nx=1, ny=1, height=0.1)
    mesh = generate_rect_mesh(1.0, 1.0, 1, 1, "right")
    spaces = build_spaces(mesh)
    state = initial_state(mesh, cfg, spaces)
    state.p_l.coefficients[:] = 0.0
    path = tmp_path / "s.vtk"
    write_snapshot(state, mesh, str(path))
    verts, cells, data, _ = read_snapshot(str(path))
    assert verts.shape == (4, 2)
    assert cells.shape == (2, 3)
    assert np.all(data["alpha_g"] == 0.0)
    assert np.all(data["v_l"] == 0.0)


def test_every_truncated_snapshot_is_rejected_naming_the_file(tmp_path):
    cfg = CaseConfig(nx=1, ny=1)
    mesh = cfg.build_mesh()
    full = tmp_path / "full.vtk"
    write_snapshot(initial_state(mesh, cfg), mesh, str(full))
    lines = full.read_text().splitlines(keepends=True)
    path = tmp_path / "cut.vtk"
    # every cut after the title line, from the POINTS header to the last
    # vector line
    for keep in range(2, len(lines)):
        path.write_text("".join(lines[:keep]))
        with pytest.raises(ValueError, match=re.escape(f"snapshot '{path}'")):
            read_snapshot(str(path))


def test_snapshot_deterministic(tmp_path):
    cfg = CaseConfig(nx=3, ny=4)
    mesh = cfg.build_mesh()
    state = initial_state(mesh, cfg)
    a = tmp_path / "a.vtk"
    b = tmp_path / "b.vtk"
    write_snapshot(state, mesh, str(a))
    write_snapshot(state, mesh, str(b))
    assert a.read_bytes() == b.read_bytes()


def test_series_writer(tmp_path):
    path = tmp_path / "series.csv"
    with SeriesWriter(str(path)) as w:
        w.write_row(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1)
        w.write_row(0.1, 0.01, 0.002, -1e-12, 0.026, 0.058, 11.4, 1)
        w.write_row(0.2, 0.01, 0.002, 0.0, 0.026, 0.058, 11.4, 0)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("t_seconds,dt_seconds,holdup,min_alpha_g,max_alpha_g,"
                        "slip_velocity_avg_mps,bubble_reynolds_avg,accepted")
    assert all(len(line.split(",")) == 8 for line in lines)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert float(rows[0]["holdup"]) == 0.0
    assert rows[-1]["accepted"] == "0"
    assert float(rows[1]["min_alpha_g"]) == -1e-12
    assert float(rows[1]["bubble_reynolds_avg"]) == 11.4
