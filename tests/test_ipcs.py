import dataclasses
import os

import numpy as np
import pytest

from twofluid import caseio, fem, ipcs, physics
from twofluid.errors import (ConfigError, NonconvergenceError,
                             StagnationError, StepFailureError)
from twofluid.linalg import lu_solve_dense
from twofluid.mesh import DIAGONALS, BoundaryTag


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


def test_unbounded_steps_balance_gas_to_roundoff():
    # the unbounded box leaves the VI one linear solve, which zeroes every
    # free row to tol_vi in mass units, so the defect of the balance read
    # off the alpha residual is roundoff on every accepted step, also once
    # the gas inventory has grown (300 attempts)
    cfg = _config(alpha_scheme="linear")
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    dt, warm, defects = cfg.dt_init, {}, []
    for _ in range(300):
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        if report.accepted:
            state = new
            defects.append(report.mass_balance_residual)
        dt = report.dt_next
    assert len(defects) > 250
    assert state.alpha_g.coefficients.max() > 0.0       # gas has entered
    assert max(defects) <= 1e-11


def test_accepted_states_hold_their_dirichlet_data(started):
    cfg, states, _ = started
    t_s = cfg.scales().t_s
    for state in states[1:]:
        t_seconds = state.t_tilde * t_s
        for phase, v in (("liquid", state.v_l), ("gas", state.v_g)):
            dofs, values = ipcs.velocity_dirichlet(v.space, cfg, t_seconds,
                                                   phase)
            assert np.abs(v.coefficients[dofs] - values).max() <= 1e-15
        nodes, values = ipcs.alpha_dirichlet(state.alpha_g.space, cfg,
                                             t_seconds)
        assert values.max() > 0.0                       # the inlet is on
        assert np.abs(state.alpha_g.coefficients[nodes]
                      - values).max() <= 1e-15


def test_inlet_data_ramp_linearly_to_their_full_values():
    cfg = _config()
    spaces = caseio.build_spaces(cfg.build_mesh())
    t0 = cfg.inlet_ramp_time

    def inlet(t_seconds):
        _, v = ipcs.velocity_dirichlet(spaces.vec, cfg, t_seconds, "gas")
        _, a = ipcs.alpha_dirichlet(spaces.p1, cfg, t_seconds)
        return v, a

    full_v, full_a = inlet(t0)
    # the sparger's centre node carries the peak values
    assert full_v.max() == cfg.inlet_peak_velocity / cfg.v_scale
    assert full_a.max() == cfg.inlet_peak_alpha
    v, a = inlet(0.0)
    assert np.all(v == 0.0) and np.all(a == 0.0)
    v, a = inlet(0.5 * t0)
    assert np.array_equal(v, 0.5 * full_v) and np.array_equal(a, 0.5 * full_a)
    for t_seconds in (1.6 * t0, 8.0 * t0):            # constant after t0
        v, a = inlet(t_seconds)
        assert np.array_equal(v, full_v) and np.array_equal(a, full_a)
    ramp = [inlet(f * t0) for f in (0.0, 0.3, 0.6, 0.9, 1.0, 2.0)]
    for (v0, a0), (v1, a1) in zip(ramp, ramp[1:]):
        assert np.all(v0 <= v1) and np.all(a0 <= a1)


@pytest.mark.parametrize("diagonal", DIAGONALS)
@pytest.mark.parametrize("nx, ny", [(1, 1), (3, 4), (10, 20)])
def test_boundary_tables_match_the_sides_of_the_box(nx, ny, diagonal):
    cfg = caseio.CaseConfig(nx=nx, ny=ny, diagonal=diagonal)
    spaces = caseio.build_spaces(cfg.build_mesh())
    t_seconds = 0.5 * cfg.inlet_ramp_time               # ramp factor 1/2

    def sides(space):
        """Node sets of the inlet, the outlet and both walls, and the
        inlet's gaussian shape, read off the node coordinates."""
        (x0, y0), (x1, y1) = space.mesh.bounds()
        x, y = space.node_coords.T
        inlet = np.flatnonzero(y == y0)
        shape = np.exp(-(x[inlet] * cfg.x_scale / (cfg.width / 2)) ** 2
                       / (2.0 * cfg.inlet_sigma ** 2))
        return (inlet, np.flatnonzero(y == y1),
                np.flatnonzero((x == x0) | (x == x1)), shape)

    inlet, outlet, walls, shape = sides(spaces.p1)
    corners = np.intersect1d(inlet, walls)
    assert corners.size == 2
    nodes, values = ipcs.alpha_dirichlet(spaces.p1, cfg, t_seconds)
    assert np.array_equal(nodes, np.union1d(inlet, walls))
    alpha = dict(zip(nodes.tolist(), values.tolist()))
    # the walls win over the sparger profile at the inlet corners
    assert all(alpha[n] == 0.0 for n in walls)
    for n, s in zip(inlet, shape):
        if n not in corners:
            assert alpha[n] == pytest.approx(0.5 * cfg.inlet_peak_alpha * s,
                                             rel=1e-13)

    inlet, outlet, walls, shape = sides(spaces.vec)
    everywhere = np.concatenate([inlet, outlet, walls])
    for phase in ("gas", "liquid"):
        dofs, values = ipcs.velocity_dirichlet(spaces.vec, cfg, t_seconds,
                                               phase)
        y_fixed = np.concatenate([inlet, walls] if phase == "liquid"
                                 else [inlet])
        # x on all four sides, y at the inlet (and the liquid's walls)
        assert np.array_equal(dofs, np.union1d(2 * everywhere,
                                               2 * y_fixed + 1))
        v = dict(zip(dofs.tolist(), values.tolist()))
        if phase == "liquid":
            assert not values.any()
            continue
        for n, s in zip(inlet, shape):
            assert v[2 * n + 1] == pytest.approx(
                0.5 * cfg.inlet_peak_velocity / cfg.v_scale * s, rel=1e-13)
            assert v[2 * n + 1] > 0.0
        assert not any(v[d] for d in dofs if d not in 2 * inlet + 1)


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


def _chain(cfg, n, warm):
    """The state and dt after n attempted steps from the quiescent start,
    chained the way `run` chains them."""
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    dt = cfg.dt_init
    for _ in range(n):
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        if report.accepted:
            state = new
        dt = report.dt_next
    return state, dt


def test_warm_starts_move_a_step_only_within_solver_tolerance():
    cfg = _config()
    warm = {}
    state, dt = _chain(cfg, 12, warm)
    assert set(warm) == {f"{key}_{phase}" for phase in fem.PHASES
                         for key in ("tentative_rate", "tentative_rate_prev",
                                     "heun_correction")}
    new_warm, warm_report = ipcs.step(state, dt, cfg, warm=warm)
    new_cold, cold_report = ipcs.step(state, dt, cfg, warm=None)
    assert warm_report.accepted and cold_report.accepted
    # the warm start must have changed the solves, not just been carried
    assert warm_report.linear_iterations != cold_report.linear_iterations
    assert warm_report.local_error_estimate == pytest.approx(
        cold_report.local_error_estimate, rel=1e-5)
    # each solve stops at relative residual tol_linear = 1e-10 from a
    # different start; the fields differ by that times the conditioning
    for warm_f, cold_f in zip(_fields(new_warm), _fields(new_cold)):
        scale = max(np.abs(cold_f).max(), 1.0)
        assert np.abs(warm_f - cold_f).max() <= 1e-7 * scale


def test_warm_cache_from_another_mesh_is_ignored_and_replaced():
    warm = {}
    _chain(_config(), 6, warm)              # rates of the 4x8 mesh
    cfg = caseio.CaseConfig(nx=2, ny=4)
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    dt, fresh = 1e-7, {}
    new, report = ipcs.step(state, dt, cfg, warm=warm)
    new_fresh, fresh_report = ipcs.step(state, dt, cfg, warm=fresh)
    assert report.accepted
    assert report == fresh_report
    for a, b in zip(_fields(new), _fields(new_fresh)):
        assert np.array_equal(a, b)
    assert set(warm) == set(fresh)
    for key, rate in fresh.items():
        assert np.array_equal(warm[key], rate)
    # one attempt on the new mesh: the old mesh's previous rates are
    # dropped, not shifted, so nothing of the 4x8 history is left
    vec = state.v_l.space
    assert set(warm) == {f"{key}_{phase}" for phase in fem.PHASES
                         for key in ("tentative_rate", "heun_correction")}
    for value in warm.values():
        assert value.size == vec.dof_count


def test_adapt_dt_clamps_and_stagnates():
    assert ipcs.adapt_dt(0.0, 1e-4, 9e-3, 1e-9, 1e-2) == (1e-2, True)
    dt_next, accepted = ipcs.adapt_dt(1.0, 1e-4, 1e-3, 1e-9, 1e-2)
    assert not accepted
    assert dt_next == pytest.approx(2e-4)          # factor clamped at 0.2
    with pytest.raises(StagnationError):
        ipcs.adapt_dt(1.0, 1e-4, 1e-8, 1e-8, 1e-2)


@pytest.mark.parametrize("error", [-1e-3, np.nan, np.inf])
def test_adapt_dt_rejects_a_negative_or_non_finite_error(error):
    with pytest.raises(ValueError, match="error must be"):
        ipcs.adapt_dt(error, 1e-4, 1e-3, 1e-9, 1e-2)


@pytest.mark.parametrize("dt", [0.0, -1e-3, np.nan, np.inf])
def test_step_rejects_a_nonpositive_or_non_finite_dt(started, dt):
    _, states, _ = started
    with pytest.raises(ValueError, match="dt must be"):
        ipcs.step(states[-1], dt, _config())


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


@pytest.mark.parametrize("scheme", ["vi", "linear"])
def test_full_step_converges_at_first_order_in_time(scheme):
    """The 4x8 column from rest with alpha_g = 0.02 on the interior nodes,
    marched to T = 4e-4 in N = 4, 8, ..., 64 fixed steps (tol_step = 1e9,
    so none is rejected; one warm cache).  The successive-difference
    orders log2(|u_N - u_2N| / |u_2N - u_4N|) read, for both schemes,
    v_l 1.11, 1.05, 1.02; v_g 0.93, 0.99, 1.00; alpha_g 1.01, 1.01, 1.01:
    the first order of the pressure correction.  p_l reads 1.64, 1.47,
    1.24, still falling toward 1, and is not pinned."""
    cfg = _config(tol_step=1e9, alpha_scheme=scheme)
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    p1 = state.alpha_g.space
    alpha = np.full(p1.dof_count, 0.02)
    alpha[p1.boundary_nodes(*BoundaryTag)] = 0.0
    start = dataclasses.replace(state, alpha_g=p1.field(alpha),
                                alpha_l=p1.field(1.0 - alpha))
    warm, finals = {}, []
    for n in (4, 8, 16, 32, 64):
        state = start
        for _ in range(n):
            state, report = ipcs.step(state, 4e-4 / n, cfg, warm=warm)
            assert report.accepted
        finals.append(state)
    for name in ("v_l", "v_g", "alpha_g"):
        u = [getattr(s, name).coefficients for s in finals]
        diffs = np.array([np.linalg.norm(a - b) for a, b in zip(u, u[1:])])
        orders = np.log2(diffs[:-1] / diffs[1:])
        assert np.all((0.9 <= orders) & (orders <= 1.15)), (name, orders)


def _swarm_balance(props, alpha_l):
    """Terminal slip of a dilute swarm: the single-bubble drag/buoyancy
    balance with g -> alpha_l g, since a bubble in a swarm feels the
    mixture's hydrostatic gradient, so its buoyancy is
    alpha_l (rho_l - rho_g) g."""
    return physics.terminal_velocity_balance(
        dataclasses.replace(props, g=alpha_l * props.g))


def test_a_dilute_swarm_rises_at_its_terminal_slip():
    """The whole step (tentative, pressure, update, alpha) relaxes a
    uniform dilute swarm to the buoyancy/drag balance.  Measured on 4x8:
    a core slip of 0.947962 against 0.947678 (+0.03%) after 400 accepted
    steps (407 attempts), where the single-bubble balance is 0.962421;
    drag K scaled by 1.1 gave 0.881282 (-7.0%)."""
    alpha_g = 0.02
    cfg = _config()
    mesh = cfg.build_mesh()
    spaces = caseio.build_spaces(mesh)
    p1, vec = spaces.p1, spaces.vec
    # past the inlet ramp, at rest over hydrostatic pressure, the Dirichlet
    # data of that time in place
    t_seconds = 1.2 * cfg.inlet_ramp_time
    alpha = np.full(p1.dof_count, alpha_g)
    nodes, values = ipcs.alpha_dirichlet(p1, cfg, t_seconds)
    alpha[nodes] = values
    v_g = np.zeros(vec.dof_count)
    dofs, values = ipcs.velocity_dirichlet(vec, cfg, t_seconds, "gas")
    v_g[dofs] = values
    state = dataclasses.replace(
        caseio.initial_state(mesh, cfg, spaces), alpha_g=p1.field(alpha),
        alpha_l=p1.field(1.0 - alpha), v_g=vec.field(v_g),
        t_tilde=t_seconds / cfg.scales().t_s)

    dt, warm, accepted = 1e-6, {}, 0
    while accepted < 400:
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        if report.accepted:
            state, accepted = new, accepted + 1
        dt = report.dt_next

    x, y = mesh.vertices.T
    core = (np.abs(x) < 0.3) & (y > 0.5) & (y < 1.5)
    slip = (state.v_g.vertex_values() - state.v_l.vertex_values())[core]
    balance = _swarm_balance(cfg.props(), 1.0 - alpha_g) / cfg.v_scale
    assert core.sum() == 9
    assert slip[:, 1].mean() == pytest.approx(balance, rel=3e-3)
    assert np.abs(slip[:, 0]).max() < 1e-3 * balance


def _failing_on_call(fn, n, error):
    """fn, except that its n-th call (from 1) raises `error`."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise error
        return fn(*args, **kwargs)

    return wrapper


def test_step_failure_names_the_sub_step(started, monkeypatch):
    cfg, states, _ = started
    _, report = ipcs.step(states[-1], 1e-7, cfg)
    assert report.accepted            # so the step reaches every sub-step
    # an accepted step's Krylov solves: BiCGStab for the tentative and
    # Heun velocities of each phase, then CG for the pressure and the two
    # velocity updates
    assert list(report.linear_iterations) == [
        "tentative_liquid", "tentative_gas", "heun_liquid", "heun_gas",
        "pressure", "update_liquid", "update_gas"]
    cases = [
        ("boundary-conditions", "velocity_dirichlet", 1),
        ("tentative-velocity", "solve_bicgstab", 1),
        ("tentative-velocity", "solve_bicgstab", 3),        # Heun
        ("pressure-poisson", "solve_cg", 1),
        ("velocity-update-liquid", "solve_cg", 2),
        ("velocity-update-gas", "solve_cg", 3),
        ("alpha-update", "solve_box_vi", 1),
    ]
    for substep, name, failing_call in cases:
        cause = NonconvergenceError("no convergence", residual=1.0,
                                    iterations=10000)
        with monkeypatch.context() as patch:
            patch.setattr(ipcs, name, _failing_on_call(
                getattr(ipcs, name), failing_call, cause))
            with pytest.raises(StepFailureError) as exc:
                ipcs.step(states[-1], 1e-7, cfg)
        assert exc.value.substep == substep, (name, failing_call)
        assert exc.value.cause is cause


def test_step_rejects_an_unknown_alpha_scheme(started):
    # the alpha update must not fall back to some scheme for a name it
    # does not know: `step` validates its config before any work
    _, states, _ = started
    with pytest.raises(ConfigError) as exc:
        ipcs.step(states[-1], 1e-7, _config(alpha_scheme="fct"))
    assert exc.value.key == "alpha_scheme"


@pytest.mark.parametrize("key, value", [
    ("rho_g", 2000.0),               # gas heavier than the liquid
    ("slip_alpha_floor", 5.0),
    ("alpha_ln_floor", 2.0),         # would make ln(max(alpha, floor)) flat
    ("inlet_peak_alpha", 3.0),
])
def test_step_rejects_a_config_that_validate_rejects(started, key, value):
    _, states, _ = started
    cfg = _config(**{key: value})
    with pytest.raises(ConfigError) as expected:
        cfg.validate()
    with pytest.raises(ConfigError) as exc:
        ipcs.step(states[-1], 1e-7, cfg)
    assert exc.value.key == expected.value.key


def test_velocity_update_matches_the_row_replaced_mass_system(started,
                                                             monkeypatch):
    # the update solves for the correction v(n+1) - v* with the Dirichlet
    # dofs held at zero; its v(n+1) is the solution of the mass system
    # with those rows replaced by the data, M v = M v* - dt Eu <grad dP,
    # phi>, solved densely here
    cfg, states, _ = started
    state, dt = states[-1], 1e-7
    solves = {"solve_bicgstab": [], "solve_cg": []}
    for name, calls in solves.items():
        def recorded(*args, _fn=getattr(ipcs, name), _calls=calls,
                     **kwargs):
            _calls.append(_fn(*args, **kwargs))
            return _calls[-1]
        monkeypatch.setattr(ipcs, name, recorded)
    new, report = ipcs.step(state, dt, cfg)
    assert report.accepted
    vec, p1 = state.v_l.space, state.p_l.space
    delta_p = p1.field(solves["solve_cg"][0])
    groups = physics.make_groups(cfg.props(), cfg.scales(), cfg.c_p)
    t_seconds = (state.t_tilde + dt) * cfg.scales().t_s
    for phase, v_star, v_new in (
            ("liquid", solves["solve_bicgstab"][0], new.v_l),
            ("gas", solves["solve_bicgstab"][1], new.v_g)):
        M = vec.mass_matrix.toarray()
        b = M @ v_star + fem.assemble_velocity_update(phase, vec, delta_p,
                                                      dt, groups)
        dofs, values = ipcs.velocity_dirichlet(vec, cfg, t_seconds, phase)
        M[dofs, :] = 0.0
        M[dofs, dofs] = 1.0
        b[dofs] = values
        expect = lu_solve_dense(M, b)
        assert (np.linalg.norm(v_new.coefficients - expect)
                <= 1e-10 * np.linalg.norm(expect))


def test_solves_hold_the_dirichlet_data_and_write_no_matrix(started,
                                                           monkeypatch):
    # each tentative matrix serves its phase's tentative and Heun solves:
    # both start from the data at t + dt on the held dofs, and neither
    # writes to the matrix's data or to the `indices` and `indptr` it
    # shares with the space's pattern
    cfg, states, _ = started
    state, dt = states[-1], 1e-7
    built, solves = [], []

    def tentative(*args, _fn=fem.tentative_velocity_system):
        out = _fn(*args)
        A = out[0]
        built.append((A, A.data.copy(), A.indices.copy(), A.indptr.copy()))
        return out

    def bicgstab(A, b, **kwargs):
        solves.append((A, kwargs["x0"].copy(), kwargs["fixed"]))
        return solve(A, b, **kwargs)

    solve = ipcs.solve_bicgstab
    monkeypatch.setattr(fem, "tentative_velocity_system", tentative)
    monkeypatch.setattr(ipcs, "solve_bicgstab", bicgstab)
    new, report = ipcs.step(state, dt, cfg)
    assert report.accepted
    t_seconds = (state.t_tilde + dt) * cfg.scales().t_s
    vec = state.v_l.space
    for k, phase in enumerate(("liquid", "gas")):
        A, data, indices, indptr = built[k]
        assert np.shares_memory(A.indices, vec.pattern.indices)
        assert np.shares_memory(A.indptr, vec.pattern.indptr)
        for got, kept in ((A.data, data), (A.indices, indices),
                          (A.indptr, indptr)):
            assert np.array_equal(got, kept)
        dofs, values = ipcs.velocity_dirichlet(vec, cfg, t_seconds, phase)
        for solved, x0, fixed in (solves[k], solves[k + 2]):
            assert solved is A
            assert np.array_equal(fixed, dofs)
            assert np.array_equal(x0[dofs], values)


def _static_arrays(space):
    """Copies of every array a space keeps: its own, its pattern's, its
    block map's and its mass matrix's, keyed by owner and name."""
    owners = {"space": space, "pattern": space.pattern}
    if space.kind == "ScalarP1":
        owners["blocks"] = space.blocks
    else:
        owners["mass_matrix"] = {name: getattr(space.mass_matrix, name)
                                 for name in ("data", "indices", "indptr")}
    return {(owner, name): value.copy()
            for owner, obj in owners.items()
            for name, value in (obj if isinstance(obj, dict)
                                else vars(obj)).items()
            if isinstance(value, np.ndarray)}


def test_steps_write_no_static_array_of_either_space():
    # the viscous and tentative data are summed in place into fresh
    # arrays, never into keps_data, mass_data or the mass matrix; the
    # index arrays every matrix shares, the slot maps and the diagonal
    # slots stay as built
    cfg = _config()
    state = caseio.initial_state(cfg.build_mesh(), cfg)
    spaces = (state.alpha_g.space, state.v_l.space)
    before = [_static_arrays(space) for space in spaces]
    for name in ("keps_data", "mass_data", "mass_diag_slots"):
        assert ("space", name) in before[1]
    for name in ("slots", "indices", "indptr", "diag_slots"):
        assert ("pattern", name) in before[0]
        assert ("pattern", name) in before[1]
    assert ("mass_matrix", "data") in before[1]
    assert ("blocks", "at") in before[0]
    dt, warm, accepted = cfg.dt_init, {}, 0
    for _ in range(8):              # four rejected, then four accepted
        new, report = ipcs.step(state, dt, cfg, warm=warm)
        if report.accepted:
            state, accepted = new, accepted + 1
        dt = report.dt_next
    assert accepted == 4
    for space, kept in zip(spaces, before):
        now = _static_arrays(space)
        assert now.keys() == kept.keys()
        for key, value in kept.items():
            assert np.array_equal(now[key], value), key


def test_the_vi_matrix_shares_the_p1_pattern(started, monkeypatch):
    # both schemes hand the assembled mass-unit alpha system to the VI
    # itself, no scaled copy, over the P1 pattern's own index arrays; the
    # scheme picks only the box
    cfg, states, _ = started
    state, dt = states[-1], 1e-7
    built, received = [], []

    def assemble(*args, _fn=fem.assemble_alpha_system):
        built.append(_fn(*args))
        return built[-1]

    def box_vi(a, b, x0, **kwargs):
        received.append((a, b, kwargs["box"]))
        return solve(a, b, x0, **kwargs)

    solve = ipcs.solve_box_vi
    monkeypatch.setattr(fem, "assemble_alpha_system", assemble)
    monkeypatch.setattr(ipcs, "solve_box_vi", box_vi)
    p1 = state.alpha_g.space
    for scheme, box in (("vi", (0.0, 1.0)), ("linear", (-np.inf, np.inf))):
        _, report = ipcs.step(state, dt,
                              dataclasses.replace(cfg, alpha_scheme=scheme))
        assert report.accepted
        (A_a, b_a), (a, b, received_box) = built.pop(), received.pop()
        assert a is A_a and b is b_a and received_box == box
        assert np.shares_memory(a.indices, p1.pattern.indices)
        assert np.shares_memory(a.indptr, p1.pattern.indptr)
    assert not built and not received


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


def test_a_step_across_several_output_times_writes_one_snapshot(
        tmp_path, monkeypatch):
    # scripted accepted steps: one of 2.5 ms across the output times 1 and
    # 2 ms, then 0.4 ms steps to 6.1 ms; a snapshot lands on the first
    # step at or past each output time, and on no step that crosses none
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.0061, output_every=0.001,
                            output_dir=str(tmp_path))
    t_s = cfg.scales().t_s
    times = [2.5e-3 + 0.4e-3 * k for k in range(10)]

    def scripted_step(state, dt, cfg, warm=None):
        new = dataclasses.replace(state, t_tilde=times.pop(0) / t_s)
        return new, ipcs.StepReport(dt, 0.0, True, dt)

    monkeypatch.setattr(ipcs, "step", scripted_step)
    result = ipcs.run(cfg)
    assert not times
    assert [_snapshot_index(p) for p in result.snapshots] == [0, 1, 3, 5, 8,
                                                             10]
    assert sorted(result.snapshots) == sorted(
        str(p) for p in tmp_path.glob("snap_*.vtk"))


def test_run_prints_a_progress_line_every_100_accepted_steps(tmp_path,
                                                             capsys):
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.002,
                            output_dir=str(tmp_path))
    result = ipcs.run(cfg, quiet=False)
    lines = capsys.readouterr().out.splitlines()
    accepted = sum(r.accepted for r in result.reports)
    assert accepted >= 100
    assert len(lines) == accepted // 100
    for k, line in enumerate(lines, start=1):
        row = 100 * k                  # series row 0 is the initial state
        assert line == (f"t = {result.t_seconds[row]:.4f} s  "
                        f"dt = {result.dt_seconds[row]:.3e} s  "
                        f"holdup = {result.holdup[row]:.6g}  "
                        f"min(alpha) = {result.min_alpha_g[row]:.2e}")


def _snapshot_fields(path):
    _, _, data, meta = caseio.read_snapshot(str(path))
    return data, meta["t_tilde"]


def _state_fields(state):
    return {"alpha_g": state.alpha_g.vertex_values(),
            "pressure": state.p_l.vertex_values(),
            "v_g": state.v_g.vertex_values(),
            "v_l": state.v_l.vertex_values()}


def test_run_flushes_a_snapshot_when_the_controller_stagnates(tmp_path):
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.002, tol_step=1e-14,
                            dt_min=1e-5, output_dir=str(tmp_path))
    with pytest.raises(StagnationError) as exc:
        ipcs.run(cfg)
    # two rejected attempts, the second one stagnates from t = 0
    assert exc.value.attempt == 1
    assert exc.value.t_seconds == 0.0
    # no step was accepted: the last valid state is the start state, and
    # snap_000000.vtk already holds it
    assert [p.name for p in tmp_path.glob("snap_*.vtk")] == ["snap_000000.vtk"]
    data, t_tilde = _snapshot_fields(tmp_path / "snap_000000.vtk")
    start = _state_fields(caseio.initial_state(cfg.build_mesh(), cfg))
    assert t_tilde == 0.0
    assert sorted(data) == sorted(start)
    for name in start:
        assert np.array_equal(data[name], start[name])


def test_run_flushes_the_last_accepted_state_on_a_step_failure(
        tmp_path, monkeypatch):
    cfg = caseio.CaseConfig(nx=2, ny=4, t_end=0.002, output_dir=str(tmp_path))
    accepted = []
    step, solve_cg = ipcs.step, ipcs.solve_cg

    def recording_step(*args, **kwargs):
        new, report = step(*args, **kwargs)
        accepted.append(new if report.accepted else None)
        return new, report

    def cg_failing_after_two_steps(*args, **kwargs):
        if sum(s is not None for s in accepted) == 2:
            raise NonconvergenceError("no convergence", residual=1.0,
                                      iterations=10000)
        return solve_cg(*args, **kwargs)

    monkeypatch.setattr(ipcs, "step", recording_step)
    monkeypatch.setattr(ipcs, "solve_cg", cg_failing_after_two_steps)
    with pytest.raises(StepFailureError) as exc:
        ipcs.run(cfg)
    assert exc.value.substep == "pressure-poisson"
    last = [s for s in accepted if s is not None][-1]
    # the failed attempt is the one after every recorded attempt
    assert exc.value.attempt == len(accepted)
    assert exc.value.t_seconds == last.t_tilde * cfg.scales().t_s
    assert sorted(p.name for p in tmp_path.glob("snap_*.vtk")) == [
        "snap_000000.vtk", "snap_000002.vtk"]
    data, t_tilde = _snapshot_fields(tmp_path / "snap_000002.vtk")
    assert t_tilde == last.t_tilde
    for name, values in _state_fields(last).items():
        assert np.array_equal(data[name], values)
