import os

import numpy as np
import pytest

from twofluid import caseio, ipcs
from twofluid.errors import (NonconvergenceError, StagnationError,
                             StepFailureError)


def _config(**overrides):
    return caseio.CaseConfig(nx=4, ny=8, **overrides)


def _fields(state):
    return [f.coefficients.copy()
            for f in (state.alpha_g, state.alpha_l, state.v_g, state.v_l,
                      state.p_l)]


@pytest.fixture(scope="module")
def started():
    """30 attempted steps from the quiescent start on 4x8, the way `run`
    chains them; returns the config, the accepted states and the reports."""
    cfg = _config()
    mesh = cfg.build_mesh()
    state = caseio.initial_state(mesh, cfg)
    states, reports = [state], []
    dt, warm = cfg.dt_init, {}
    for _ in range(30):
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        reports.append(report)
        if report.accepted:
            state = new
            states.append(state)
        dt = report.dt_next
    return cfg, states, reports


def test_steps_keep_alpha_bounded_and_complementary(started):
    _, states, reports = started
    assert len(states) > 20
    assert states[-1].alpha_g.coefficients.max() > 0.0   # gas has entered
    for state in states:
        alpha_g = state.alpha_g.coefficients
        assert alpha_g.min() >= 0.0
        assert alpha_g.max() <= 1.0
        assert np.array_equal(state.alpha_l.coefficients, 1.0 - alpha_g)
    for report in reports:
        if report.accepted:
            assert 0.0 <= report.min_alpha_g <= report.max_alpha_g <= 1.0


def test_rejected_step_returns_input_state_unchanged(started):
    _, states, _ = started
    state = states[-1]
    before = _fields(state)
    cfg = _config(tol_step=1e-14)
    new, report = ipcs.step(state, 1e-6, cfg)
    assert not report.accepted
    assert report.local_error_estimate > cfg.tol_step
    assert report.dt_next < 1e-6
    assert new is state
    for a, b in zip(before, _fields(new)):
        assert np.array_equal(a, b)


def test_adapt_dt_clamps_and_stagnates():
    assert ipcs.adapt_dt(0.0, 1e-4, 9e-3, dt_max=1e-2) == (1e-2, True)
    dt_next, accepted = ipcs.adapt_dt(1.0, 1e-4, 1e-3)
    assert not accepted
    assert dt_next == pytest.approx(2e-4)          # factor clamped at 0.2
    with pytest.raises(StagnationError):
        ipcs.adapt_dt(1.0, 1e-4, 1e-8, dt_min=1e-8)


def test_step_raises_stagnation_below_dt_min(started):
    _, states, _ = started
    cfg = _config(tol_step=1e-14, dt_min=1e-6)
    with pytest.raises(StagnationError):
        ipcs.step(states[-1], 1e-6, cfg)


def test_local_error_estimate_is_second_order(started):
    cfg, states, _ = started
    state = states[-1]
    assert np.abs(state.v_g.coefficients).max() > 0.1
    _, coarse = ipcs.step(state, 1e-6, cfg)
    _, fine = ipcs.step(state, 0.5e-6, cfg)
    ratio = coarse.local_error_estimate / fine.local_error_estimate
    assert 3.0 <= ratio <= 5.0


def test_step_failure_names_the_sub_step(started, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise NonconvergenceError("no convergence", residual=1.0,
                                  iterations=10000)

    cfg, states, _ = started
    _, report = ipcs.step(states[-1], 1e-7, cfg)
    assert report.accepted            # so the step reaches the pressure solve
    monkeypatch.setattr(ipcs, "solve_cg", no_convergence)
    with pytest.raises(StepFailureError) as exc:
        ipcs.step(states[-1], 1e-7, cfg)
    assert exc.value.substep == "pressure-poisson"
    assert isinstance(exc.value.cause, NonconvergenceError)


def _snapshot_index(path):
    return int(os.path.basename(path)[len("snap_"):-len(".vtk")])


def test_run_writes_series_and_snapshots_on_cadence(tmp_path):
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.002, output_every=0.001,
                            output_dir=str(tmp_path))
    result = ipcs.run(cfg)
    accepted = sum(r.accepted for r in result.reports)
    with open(result.series_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(caseio.SERIES_COLUMNS)
    assert len(lines) - 1 == accepted + 1          # plus the initial row
    assert result.t_seconds[-1] == pytest.approx(cfg.t_end, rel=1e-12)

    assert sorted(result.snapshots) == sorted(
        str(p) for p in tmp_path.glob("snap_*.vtk"))
    indices = [_snapshot_index(p) for p in result.snapshots]
    assert indices[0] == 0
    assert indices[-1] == accepted
    # each snapshot lands on the first accepted step at or past its time
    for k, i in enumerate(indices[1:], start=1):
        due = k * cfg.output_every - 1e-12
        assert result.t_seconds[i - 1] < due <= result.t_seconds[i]
    assert len(indices) == 3


def test_run_flushes_a_snapshot_when_the_controller_stagnates(tmp_path):
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.002, tol_step=1e-14,
                            dt_min=1e-5, output_dir=str(tmp_path))
    with pytest.raises(StagnationError):
        ipcs.run(cfg)
    assert sorted(p.name for p in tmp_path.glob("snap_*.vtk")) == [
        "snap_000000.vtk", "snap_000001.vtk"]
    # no step was accepted, so the flushed snapshot holds the start state
    _, _, start, _ = caseio.read_snapshot(str(tmp_path / "snap_000000.vtk"))
    _, _, flushed, _ = caseio.read_snapshot(str(tmp_path / "snap_000001.vtk"))
    assert "alpha_g" in start
    for name in start:
        assert np.array_equal(start[name], flushed[name])
