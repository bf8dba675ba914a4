"""Properties of the seeded `bubbly_vi` start state."""

import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import bubbly  # noqa: E402
from twofluid import caseio, ipcs, physics  # noqa: E402

FIELDS = ("alpha_g", "alpha_l", "v_g", "v_l", "p_l")


@pytest.fixture(scope="module")
def column():
    cfg = bubbly.config()
    mesh = cfg.build_mesh()
    return cfg, mesh, caseio.build_spaces(mesh)


def test_same_seed_same_coefficients(column):
    cfg, _, spaces = column
    a = bubbly.state(cfg, spaces, 7)
    b = bubbly.state(cfg, spaces, 7)
    c = bubbly.state(cfg, spaces, 8)
    for name in FIELDS:
        assert np.array_equal(getattr(a, name).coefficients,
                              getattr(b, name).coefficients)
    assert a.t_tilde == b.t_tilde
    assert not np.array_equal(a.alpha_g.coefficients, c.alpha_g.coefficients)


@pytest.mark.parametrize("seed", [0, 5, 15])
def test_bounds_and_complement(column, seed):
    cfg, _, spaces = column
    s = bubbly.state(cfg, spaces, seed)
    a = s.alpha_g.coefficients
    assert a.min() >= 0.0
    assert a.max() <= bubbly.MAX_AMPLITUDE
    assert np.array_equal(s.alpha_l.coefficients, 1.0 - a)
    # the VI starts from clip(alpha, 0, 1): nothing may be clipped
    assert np.array_equal(np.clip(a, 0.0, 1.0), a)


@pytest.mark.parametrize("seed", [0, 5, 15])
def test_dirichlet_data_hold_at_start(column, seed):
    cfg, _, spaces = column
    s = bubbly.state(cfg, spaces, seed)
    t_seconds = s.t_tilde * cfg.scales().t_s
    assert t_seconds > cfg.inlet_ramp_time
    nodes, values = ipcs.alpha_dirichlet(spaces.p1, cfg, t_seconds)
    assert np.allclose(s.alpha_g.coefficients[nodes], values, rtol=0,
                       atol=1e-15)
    for phase, field in (("gas", s.v_g), ("liquid", s.v_l)):
        dofs, values = ipcs.velocity_dirichlet(spaces.vec, cfg, t_seconds,
                                               phase)
        assert np.allclose(field.coefficients[dofs], values, rtol=0,
                           atol=1e-15)


def test_gas_rises_at_terminal_speed_over_resting_liquid(column):
    cfg, _, spaces = column
    s = bubbly.state(cfg, spaces, 3)
    v_t = physics.terminal_velocity_balance(cfg.props()) / cfg.v_scale
    dofs, _ = ipcs.velocity_dirichlet(spaces.vec, cfg, 1.0, "gas")
    free = np.setdiff1d(np.arange(spaces.vec.dof_count), dofs)
    v_y = free[free % 2 == 1]
    assert np.allclose(s.v_g.coefficients[v_y], v_t)
    assert not s.v_l.coefficients.any()


def test_blobs_fill_the_column_away_from_walls_and_inlet(column):
    cfg, mesh, spaces = column
    s = bubbly.state(cfg, spaces, 2)
    a = s.alpha_g.coefficients
    x, y = spaces.p1.node_coords.T
    (x0, y0), (x1, _) = mesh.bounds()
    h = (x1 - x0) / cfg.nx
    near_wall = (x < x0 + 1.5 * h) | (x > x1 - 1.5 * h)
    above_inlet = (y > y0) & (y < y0 + bubbly.INLET_CLEARANCE)
    assert not a[near_wall & (y > y0)].any()
    assert not a[above_inlet].any()
    # most of the column holds gas, so the VI has a large inactive set
    assert (a > 0).mean() > 0.5


def test_recorded_initial_holdups_match_the_generator(column):
    cfg, mesh, spaces = column
    with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)["bubbly_vi"]["initial"]
    for seed, want in enumerate(recorded):
        s = bubbly.state(cfg, spaces, seed)
        assert bubbly.holdup(s.alpha_g, mesh) == pytest.approx(want, rel=1e-12)
