"""Case configuration, boundary/initial data and on-disk output.

Configuration is flat "key = value" text; '#' starts a comment and
bracketed section headers are allowed but purely cosmetic.  All physical
keys are dimensional (SI); the dt_* controller keys are dimensionless
(they bound the scaled step of the adaptive controller).  The reference
scales are derived, not keys (`CaseConfig.scales`).  Unknown keys are
rejected; the error for a replaced key names its replacement.
`parse_config` alone turns case text (a file, then --set overrides) into
a case, validated once, so a key is judged the same wherever it is set.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError
from .fem import FeField, FunctionSpace
from .mesh import DIAGONALS, generate_rect_mesh
from .physics import FluidProperties, Scales

ALPHA_SCHEMES = ("vi", "linear")   # the box VI, or no bounds (comparator)


@dataclass
class CaseConfig:
    # material properties (SI)
    rho_g: float = 10.0
    rho_l: float = 1000.0
    mu_g: float = 2e-5
    mu_l: float = 5e-3
    d_b: float = 1e-3
    gravity: float = 9.81
    # interfacial pressure coefficient (0.25 uniform bubbles; 0 disables)
    c_p: float = 0.25
    # rectangular column geometry (m) and resolution
    width: float = 0.05
    height: float = 0.1
    nx: int = 50
    ny: int = 100
    diagonal: str = "alternating"
    # phase-fraction update (one of ALPHA_SCHEMES) and tolerances:
    # tol_linear (relative) governs the velocity and pressure solves,
    # tol_vi (absolute, mass units) the alpha update of both schemes
    alpha_scheme: str = "vi"
    tol_step: float = 1e-4
    tol_linear: float = 1e-10
    tol_vi: float = 1e-10
    alpha_ln_floor: float = 1e-5
    # dimensionless time-step controller bounds
    dt_init: float = 1e-4
    dt_min: float = 1e-9
    dt_max: float = 1e-2
    # end time (seconds)
    t_end: float = 2.5
    # sparger inlet profile (SI): gaussian in x with linear ramp in time
    inlet_peak_velocity: float = 0.0616
    inlet_peak_alpha: float = 0.026
    inlet_ramp_time: float = 0.625
    inlet_sigma: float = 0.1
    # diagnostics and output
    slip_alpha_floor: float = 0.005
    output_every: float = 0.05
    output_dir: str = "out"

    # the reference scales (m, m/s, m), read-only: each is a case value
    x_scale = property(lambda self: self.width)
    v_scale = property(lambda self: self.inlet_peak_velocity)
    h_ref = property(lambda self: self.height)

    def props(self):
        return FluidProperties(rho_g=self.rho_g, rho_l=self.rho_l,
                               mu_g=self.mu_g, mu_l=self.mu_l, d_b=self.d_b,
                               g=self.gravity)

    def scales(self):
        return Scales(x_s=self.x_scale, v_s=self.v_scale, g_s=self.gravity,
                      h_ref=self.h_ref)

    def build_mesh(self):
        return generate_rect_mesh(self.width / self.x_scale,
                                  self.height / self.x_scale,
                                  self.nx, self.ny, self.diagonal)

    def validate(self):
        for name, kind in _FIELD_TYPES.items():
            if kind == "float" and not np.isfinite(getattr(self, name)):
                raise ConfigError("must be a finite number", key=name)
        positive = ("rho_g", "rho_l", "mu_g", "mu_l", "d_b", "gravity",
                    "width", "height", "tol_step", "tol_linear", "tol_vi",
                    "dt_init", "dt_min", "dt_max",
                    "inlet_peak_velocity", "inlet_ramp_time", "inlet_sigma",
                    "output_every")
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError("must be positive", key=name)
        for name in ("c_p", "t_end"):
            if getattr(self, name) < 0:
                raise ConfigError("must be nonnegative", key=name)
        for name in ("nx", "ny"):
            if getattr(self, name) < 1:
                raise ConfigError("mesh resolution must be at least 1",
                                  key=name)
        if self.dt_min > self.dt_max:
            raise ConfigError("must not exceed dt_max", key="dt_min")
        for name, known in (("diagonal", DIAGONALS),
                            ("alpha_scheme", ALPHA_SCHEMES)):
            if getattr(self, name) not in known:
                raise ConfigError(f"expected one of {', '.join(known)}, got "
                                  f"'{getattr(self, name)}'", key=name)
        if not 0.0 <= self.inlet_peak_alpha <= 1.0:
            raise ConfigError("must lie in [0, 1]", key="inlet_peak_alpha")
        for name in ("alpha_ln_floor", "slip_alpha_floor"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ConfigError("must lie in (0, 1)", key=name)
        if self.rho_l <= self.rho_g:
            raise ConfigError("must exceed rho_g", key="rho_l")
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(CaseConfig)}

# removed key -> the key that replaced it
_REPLACED_KEYS = {"bounded": "alpha_scheme", "x_scale": "width",
                  "v_scale": "inlet_peak_velocity", "h_ref": "height",
                  "inlet_half_width": "inlet_sigma"}


# field type -> (parser, what a parse error says was expected)
_PARSERS = {"int": (int, "an integer"), "float": (float, "a number"),
            "str": (str, "text")}


def _assign(cfg, key, raw, line=None):
    """Parse the text `raw` as the value of config key `key` and set it.
    Errors name the key, and the line when the text is a config file's."""
    key = key.strip()
    if key not in _FIELD_TYPES:
        hint = (f", use {_REPLACED_KEYS[key]}" if key in _REPLACED_KEYS
                else "")
        raise ConfigError(f"unknown key '{key}'{hint}", line=line)
    parse, expected = _PARSERS[_FIELD_TYPES[key]]
    raw = raw.strip()
    try:
        value = parse(raw)
    except ValueError as exc:
        raise ConfigError(f"expected {expected}, got '{raw}'", line=line,
                          key=key) from exc
    setattr(cfg, key, value)


def parse_config(text, overrides=()):
    """Case text to a validated CaseConfig, in one pass: the lines of the
    config file `text` (errors name the line and the key), then each
    'key=value' string of `overrides` in order (CLI --set; errors name
    the key), then one validate, so the case is judged as a whole."""
    cfg = CaseConfig()
    for lineno, line in enumerate(io.StringIO(text), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected 'key = value', got '{stripped}'",
                              line=lineno)
        key, raw = stripped.split("=", 1)
        _assign(cfg, key, raw, lineno)
    for pair in overrides:
        if "=" not in pair:
            raise ConfigError(f"override '{pair}' is not key=value")
        key, raw = pair.split("=", 1)
        _assign(cfg, key, raw)
    return cfg.validate()


def dump_config(cfg):
    """Serialize a CaseConfig; parse_config(dump_config(c)) == c.

    A string the format cannot carry (one holding '#' or a line break, or
    with leading or trailing whitespace) raises ConfigError naming its key.
    """
    lines = []
    for f in fields(CaseConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, float):
            value = repr(value)
        elif isinstance(value, str) and (
                "#" in value or value != value.strip()
                or len(value.splitlines()) > 1):
            raise ConfigError(f"cannot write {value!r} as a config value",
                              key=f.name)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# boundary and initial data

def inlet_profiles(x, cfg):
    """Full-ramp sparger inlet values at position x (m) from the axis: gas
    vertical speed (m/s) and gas fraction, gaussian in x,

        v(x) = v_peak * exp(-(x/w)^2 / (2 sigma^2)),  w = width / 2.

    `ipcs.velocity_dirichlet` and `ipcs.alpha_dirichlet` scale them by the
    time ramp min(t/t0, 1).
    """
    shape = np.exp(-((np.asarray(x) / (cfg.width / 2.0)) ** 2)
                   / (2.0 * cfg.inlet_sigma ** 2))
    return cfg.inlet_peak_velocity * shape, cfg.inlet_peak_alpha * shape


@dataclass
class SpaceSet:
    p1: FunctionSpace
    vec: FunctionSpace


def build_spaces(mesh):
    return SpaceSet(FunctionSpace.scalar_p1(mesh),
                    FunctionSpace.vector_p2(mesh))


@dataclass
class State:
    """Scaled solution fields at one time level."""

    alpha_g: FeField
    alpha_l: FeField
    v_g: FeField
    v_l: FeField
    p_l: FeField
    t_tilde: float


def initial_state(mesh, cfg, spaces=None):
    """Quiescent start: no gas, zero velocities, hydrostatic liquid pressure
    P(y) = rho_l g (h_ref - y), nondimensionalized by rho_l g h_ref."""
    if spaces is None:
        spaces = build_spaces(mesh)
    p1, vec = spaces.p1, spaces.vec
    y_m = p1.node_coords[:, 1] * cfg.x_scale
    p_tilde = (cfg.h_ref - y_m) / cfg.h_ref
    return State(
        alpha_g=p1.field(np.zeros(p1.dof_count)),
        alpha_l=p1.field(np.ones(p1.dof_count)),
        v_g=vec.field(),
        v_l=vec.field(),
        p_l=p1.field(p_tilde),
        t_tilde=0.0,
    )


# ---------------------------------------------------------------------------
# output writers

def _fmt(x):
    return f"{x:.17g}"


def write_snapshot(state, mesh, path):
    """Legacy-VTK ASCII unstructured grid with point data alpha_g and
    pressure plus 3-component vectors v_g, v_l sampled at the vertices."""
    nv = mesh.n_vertices
    alpha = state.alpha_g.vertex_values()
    pressure = state.p_l.vertex_values()
    v_g = state.v_g.vertex_values()
    v_l = state.v_l.vertex_values()
    grid = mesh.grid or {}
    title = (f"twofluid snapshot t_tilde={_fmt(state.t_tilde)}"
             f" nx={grid.get('nx', 0)} ny={grid.get('ny', 0)}")
    lines = ["# vtk DataFile Version 2.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
    for x, y in mesh.vertices:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0")
    nc = mesh.n_cells
    lines.append(f"CELLS {nc} {4 * nc}")
    for a, b, c in mesh.cells:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nc}")
    lines.extend(["5"] * nc)
    lines.append(f"POINT_DATA {nv}")
    for name, values in (("alpha_g", alpha), ("pressure", pressure)):
        lines.append(f"SCALARS {name} double")
        lines.append("LOOKUP_TABLE default")
        lines.extend(_fmt(v) for v in values)
    for name, vec in (("v_g", v_g), ("v_l", v_l)):
        lines.append(f"VECTORS {name} double")
        lines.extend(f"{_fmt(vx)} {_fmt(vy)} 0" for vx, vy in vec)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write snapshot '{path}': {exc}") from exc
    return path


def read_snapshot(path):
    """Read back a write_snapshot file: (vertices, cells, point_data, meta).
    A file that is not UTF-8 text, one without write_snapshot's title
    line, one with fewer lines or fields than it declares, one with a
    number that does not parse (nx, ny must be integers), a non-finite
    point or point value, or a cell on a missing point raises ValueError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if len(lines) < 2 or not lines[1].startswith("twofluid snapshot "):
            raise ValueError("not a twofluid snapshot file")
        return _parse_snapshot(lines)
    except IndexError:
        raise ValueError(f"snapshot '{path}': truncated, fewer lines than "
                         "its headers declare") from None
    except ValueError as exc:
        raise ValueError(f"snapshot '{path}': {exc}") from None


def _parse_snapshot(lines):
    meta = {}
    for token in lines[1].split():
        if "=" in token:
            key, val = token.split("=", 1)
            meta[key] = int(val) if key in ("nx", "ny") else float(val)
    i = [k for k, ln in enumerate(lines) if ln.startswith("POINTS")][0]
    npts = int(lines[i].split()[1])
    verts = np.array([[float(v) for v in lines[i + 1 + k].split()[:2]]
                      for k in range(npts)])
    i = i + 1 + npts
    ncells = int(lines[i].split()[1])
    cells = np.array([[int(v) for v in lines[i + 1 + k].split()[1:]]
                      for k in range(ncells)], dtype=np.int32)
    data = {}
    j = i + 1 + ncells
    while j < len(lines):
        parts = lines[j].split()
        if not parts:
            j += 1
            continue
        if parts[0] == "SCALARS":
            data[parts[1]] = np.array([float(lines[j + 2 + k])
                                       for k in range(npts)])
            j += 2 + npts
        elif parts[0] == "VECTORS":
            data[parts[1]] = np.array(
                [[float(v) for v in lines[j + 1 + k].split()[:2]]
                 for k in range(npts)])
            j += 1 + npts
        else:
            j += 1
    missing = [name for name in ("alpha_g", "pressure", "v_g", "v_l")
               if name not in data]
    if missing:
        raise ValueError(f"truncated, no point data {', '.join(missing)}")
    if not all(np.all(np.isfinite(v)) for v in (verts, *data.values())):
        raise ValueError("a point or point value is not finite")
    if not np.all((cells >= 0) & (cells < npts)):
        raise ValueError("a cell refers to a point that does not exist")
    return verts, cells, data, meta


SERIES_COLUMNS = ("t_seconds", "dt_seconds", "holdup", "min_alpha_g",
                  "max_alpha_g", "slip_velocity_avg_mps",
                  "bubble_reynolds_avg", "accepted")


class SeriesWriter:
    """Appends fixed-order CSV rows; the header is written once."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8", newline="\n")
        self._fh.write(",".join(SERIES_COLUMNS) + "\n")

    def write_row(self, t_seconds, dt_seconds, holdup, min_alpha, max_alpha,
                  slip, reynolds, accepted):
        row = (_fmt(t_seconds), _fmt(dt_seconds), _fmt(holdup),
               _fmt(min_alpha), _fmt(max_alpha), _fmt(slip), _fmt(reynolds),
               str(int(accepted)))
        self._fh.write(",".join(row) + "\n")
        self._fh.flush()

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
