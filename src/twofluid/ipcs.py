"""Four-step incremental pressure-correction time stepping for the
two-fluid column, with adaptive step control and the bounded (box-VI)
phase-fraction update.

One step advances the scaled state (alpha_g, alpha_l, v_g, v_l, P_l) by

  1. tentative velocities for both phases (drag and interfacial pressure
     explicit, viscosity half implicit),
  2. a pressure-increment Poisson solve from the mixture incompressibility
     constraint div(sum_q alpha_q v_q) = 0,
  3. velocity correction with the increment gradient,
  4. implicit SUPG advection of the gas fraction, solved either as a box
     variational inequality (bounded mode, 0 <= alpha <= 1 imposed
     implicitly) or as a plain linear system (unbounded comparator);
     alpha_l := 1 - alpha_g afterwards.

The step imposes every velocity and gas-fraction Dirichlet row itself, by
row replacement in the unconstrained systems that `fem` assembles.

The local error of a step is measured on the tentative velocities only,
by comparing against a Heun (predictor-corrector) evaluation that reuses
the tentative solve as its predictor, so the extra cost is one explicit
right-hand-side evaluation per phase.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import caseio, fem, post
from .errors import (SolverFailureError, StagnationError, StepFailureError,
                     TwoFluidError)
from .linalg import solve_bicgstab, solve_cg
from .mesh import BoundaryTag
from .physics import make_groups
from .vi import BoxVIProblem, solve_box_vi


@dataclass
class State:
    """Scaled solution fields at one time level."""

    alpha_g: fem.FeField
    alpha_l: fem.FeField
    v_g: fem.FeField
    v_l: fem.FeField
    p_l: fem.FeField
    t_tilde: float


@dataclass
class StepReport:
    dt_used: float
    local_error_estimate: float
    accepted: bool
    dt_next: float
    linear_iterations: dict = field(default_factory=dict)
    vi_iterations: int = 0
    min_alpha_g: float = 0.0
    max_alpha_g: float = 0.0
    mass_balance_residual: float = 0.0


def adapt_dt(error, tol_step, dt, dt_min=1e-9, dt_max=1e-2):
    """Embedded-pair controller: accept iff error <= tol_step and rescale
    dt by 0.9 sqrt(tol/error) clamped to [0.2, 2.0] and [dt_min, dt_max]."""
    if error < 0:
        raise ValueError("error must be nonnegative")
    accept = error <= tol_step
    factor = min(max(0.9 * np.sqrt(tol_step / max(error, 1e-16)), 0.2), 2.0)
    dt_next = dt * factor
    if not accept and dt_next < dt_min:
        raise StagnationError(
            f"step control stagnated: rejected step would need dt "
            f"{dt_next:.3e} < dt_min {dt_min:.3e}")
    return min(max(dt_next, dt_min), dt_max), accept


# ---------------------------------------------------------------------------
# boundary conditions (applied at each sub-step at the new time level)

def _last_wins(dofs, values):
    """Sorted unique dofs of the concatenated entries, each taking the
    value of its last entry."""
    dofs = np.concatenate(dofs)[::-1]
    values = np.concatenate(values)[::-1]
    unique, last = np.unique(dofs, return_index=True)
    return unique, values[last]


def velocity_dirichlet(space, cfg, t_seconds, phase):
    """(dofs, values) velocity constraints at time t for one phase.

    gas:    inlet ramped gaussian profile, free-slip walls (normal
            component only), zero tangential velocity at the outlet
    liquid: no-slip inlet (sparger plate) and walls, zero tangential
            velocity at the outlet

    Values are the full-ramp values times the ramp factor min(t/t0, 1).
    """
    inlet = space.boundary_nodes(BoundaryTag.Inlet)
    outlet = space.boundary_nodes(BoundaryTag.Outlet)
    walls = space.boundary_nodes(BoundaryTag.WallLeft, BoundaryTag.WallRight)
    if phase == "gas":
        x_m = space.node_coords[inlet, 0] * cfg.x_scale
        v_y, _ = caseio.inlet_profiles(x_m, cfg.inlet_ramp_time, cfg)
        inlet_y = v_y / cfg.v_scale
    else:
        inlet_y = np.zeros(inlet.size)
    dofs = [2 * inlet, 2 * inlet + 1, 2 * outlet, 2 * walls]
    values = [np.zeros(inlet.size), inlet_y, np.zeros(outlet.size),
              np.zeros(walls.size)]
    if phase == "liquid":
        dofs.append(2 * walls + 1)
        values.append(np.zeros(walls.size))
    dofs, full = _last_wins(dofs, values)
    return dofs, full * min(t_seconds / cfg.inlet_ramp_time, 1.0)


def alpha_dirichlet(space, cfg, t_seconds):
    """(nodes, values) gas-fraction constraints: ramped gaussian at the
    inlet, zero at the walls (the liquid wets the walls)."""
    inlet = space.boundary_nodes(BoundaryTag.Inlet)
    walls = space.boundary_nodes(BoundaryTag.WallLeft, BoundaryTag.WallRight)
    x_m = space.node_coords[inlet, 0] * cfg.x_scale
    _, a_in = caseio.inlet_profiles(x_m, cfg.inlet_ramp_time, cfg)
    nodes, full = _last_wins([inlet, walls], [a_in, np.zeros(walls.size)])
    return nodes, full * min(t_seconds / cfg.inlet_ramp_time, 1.0)


# ---------------------------------------------------------------------------
# tentative velocities and the Heun error estimate

def _tentative_with_error(dt, tol, props, scales, groups, closures,
                          dirichlet, stats):
    """Solve both tentative velocities and estimate the local error.

    The Heun comparison value re-solves the same constrained tentative
    system with the velocity-dependent loads averaged between level n and
    the predictor (one extra solve per phase, warm-started), so boundary
    handling is identical on both paths and the difference is O(dt^2).
    `dirichlet` maps each phase to its velocity (dofs, values) at t + dt.
    Returns (v*_l, v*_g, error, v* sampled at the quadrature points)."""
    vec = closures.qp.space

    systems = {}
    v_star = {}
    for phase in ("liquid", "gas"):
        A, history, load = fem.tentative_velocity_system(phase, dt, groups,
                                                         closures)
        dofs, values = dirichlet[phase]
        A.zero_rows(dofs)
        b = history + load
        b[dofs] = values
        st = {}
        v_star[phase] = solve_bicgstab(A, b, tol=tol, max_iter=5000,
                                       x0=closures.qp.coefficients[phase],
                                       stats=st)
        stats[f"tentative_{phase}"] = st.get("iterations", 0)
        systems[phase] = (A, history, load)

    vsl = vec.field(v_star["liquid"])
    vsg = vec.field(v_star["gas"])
    qp_star = fem.VelocityQP(vsl, vsg, props, scales, groups)

    error = 0.0
    for phase in ("liquid", "gas"):
        A, history, load_n = systems[phase]
        load_p = fem.velocity_dependent_load(phase, qp_star, groups, closures)
        dofs, values = dirichlet[phase]
        b = history + 0.5 * (load_n + load_p)
        b[dofs] = values
        st = {}
        v_heun = solve_bicgstab(A, b, tol=tol, max_iter=5000,
                                x0=v_star[phase], stats=st)
        stats[f"heun_{phase}"] = st.get("iterations", 0)
        norm = max(float(np.linalg.norm(v_heun)), 1.0)
        error = max(error,
                    float(np.linalg.norm(v_heun - v_star[phase])) / norm)
    return vsl, vsg, error, qp_star


# ---------------------------------------------------------------------------
# one adaptive step

def step(state, dt, cfg, warm=None):
    """Advance one adaptive step.  Returns (new_state, report); on
    rejection the returned state is the input state and only dt_next in
    the report is meaningful.  `warm` is an optional cross-step cache of
    solver starting guesses."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    props = cfg.props()
    scales = cfg.scales()
    groups = make_groups(props, scales, cfg.c_p)
    p1 = state.alpha_g.space
    vec = state.v_l.space
    t_next_seconds = (state.t_tilde + dt) * scales.t_s
    stats = {}

    try:
        dirichlet = {phase: velocity_dirichlet(vec, cfg, t_next_seconds, phase)
                     for phase in ("liquid", "gas")}
    except TwoFluidError as exc:
        raise StepFailureError("boundary-conditions", exc) from exc

    try:
        closures = fem.closure_inputs(state, props, scales, groups,
                                      cfg.alpha_ln_floor)
        vsl, vsg, error, qp_star = _tentative_with_error(
            dt, cfg.tol_linear, props, scales, groups, closures, dirichlet,
            stats)
    except TwoFluidError as exc:
        raise StepFailureError("tentative-velocity", exc) from exc

    dt_next, accepted = adapt_dt(error, cfg.tol_step, dt,
                                 dt_min=cfg.dt_min, dt_max=cfg.dt_max)
    if not accepted:
        return state, StepReport(dt, error, False, dt_next,
                                 linear_iterations=stats)

    try:
        st = {}
        A_p, b_p = fem.assemble_pressure_poisson(state, qp_star, dt, groups)
        # the increment scales with dt, so cache its rate across steps
        rate = None if warm is None else warm.get("delta_p_rate")
        x0 = None if rate is None or rate.size != b_p.size else rate * dt
        delta_p = solve_cg(A_p, b_p, tol=cfg.tol_linear, max_iter=10000,
                           x0=x0, stats=st)
        if warm is not None:
            warm["delta_p_rate"] = delta_p / dt
        stats["pressure"] = st.get("iterations", 0)
    except TwoFluidError as exc:
        raise StepFailureError("pressure-poisson", exc) from exc
    dp_field = p1.field(delta_p)

    new_v = {}
    for phase, vstar in (("liquid", vsl), ("gas", vsg)):
        try:
            st = {}
            M, b = fem.assemble_velocity_update(phase, vstar, dp_field, dt,
                                                groups)
            dofs, values = dirichlet[phase]
            M.zero_rows(dofs)
            b[dofs] = values
            new_v[phase] = solve_bicgstab(M, b, tol=cfg.tol_linear,
                                          max_iter=2000,
                                          x0=vstar.coefficients, stats=st)
            stats[f"update_{phase}"] = st.get("iterations", 0)
        except TwoFluidError as exc:
            raise StepFailureError(f"velocity-update-{phase}", exc) from exc
    v_l_new = vec.field(new_v["liquid"])
    v_g_new = vec.field(new_v["gas"])

    alpha_nodes, alpha_values = alpha_dirichlet(p1, cfg, t_next_seconds)
    try:
        A_a, b_a = fem.assemble_alpha_system(state.alpha_g, v_g_new, dt)
        # scale the system by dt for the solvers: rows become O(mass).
        # Positive scaling leaves bounds and complementarity signs intact
        # but makes the absolute residual tolerances meaningful.  The
        # Dirichlet rows become dt * (alpha = value); A_a and b_a stay
        # unconstrained for the mass accounting.
        A_s = A_a.with_data(A_a.data * dt)
        A_s.zero_rows(alpha_nodes, diag_value=dt)
        b_s = b_a * dt
        b_s[alpha_nodes] = alpha_values * dt
        vi_iterations = 0
        if cfg.bounded:
            st = {}
            problem = BoxVIProblem(
                A_s, b_s, np.zeros(p1.dof_count), np.ones(p1.dof_count),
                x0=np.clip(state.alpha_g.coefficients, 0.0, 1.0))
            alpha_new = solve_box_vi(problem, tol=cfg.tol_vi, stats=st)
            vi_iterations = st.get("iterations", 0)
        else:
            st = {}
            alpha_new = solve_bicgstab(A_s, b_s, tol=cfg.tol_linear,
                                       max_iter=5000,
                                       x0=state.alpha_g.coefficients,
                                       stats=st)
            stats["alpha"] = st.get("iterations", 0)
    except TwoFluidError as exc:
        raise StepFailureError("alpha-update", exc) from exc

    alpha_g_new = p1.field(alpha_new)
    alpha_l_new = p1.field(1.0 - alpha_new)
    new_state = State(alpha_g_new, alpha_l_new, v_g_new, v_l_new,
                      p1.field(state.p_l.coefficients + delta_p),
                      state.t_tilde + dt)

    report = StepReport(
        dt_used=dt, local_error_estimate=error, accepted=True,
        dt_next=dt_next, linear_iterations=stats,
        vi_iterations=vi_iterations,
        min_alpha_g=float(alpha_new.min()),
        max_alpha_g=float(alpha_new.max()),
        mass_balance_residual=_mass_balance_residual(
            state.alpha_g, alpha_g_new, v_g_new, dt, A_a, b_a, alpha_nodes),
    )
    return new_state, report


def _mass_balance_residual(alpha_old, alpha_new, v_g, dt, A_a, b_a,
                           dirichlet_rows):
    """Relative defect of the discrete gas balance

        d/dt int(alpha) + (boundary flux of alpha v) = injection,

    where `injection` collects the residuals of the Dirichlet rows in the
    unconstrained system (A_a, b_a) (the discrete source those rows feed
    into the domain).
    Everything else cancels to quadrature and solver accuracy.
    """
    p1 = alpha_old.space
    lumped = p1.int_phi
    cells = p1.mesh.cells
    int_old = float(np.sum(lumped * alpha_old.coefficients[cells]))
    int_new = float(np.sum(lumped * alpha_new.coefficients[cells]))
    ddt = (int_new - int_old) / dt

    flux = fem.boundary_alpha_flux(
        alpha_new, v_g, BoundaryTag.Inlet, BoundaryTag.Outlet,
        BoundaryTag.WallLeft, BoundaryTag.WallRight)

    residual_rows = A_a.matvec(alpha_new.coefficients) - b_a
    injection = float(residual_rows[dirichlet_rows].sum())

    defect = ddt + flux - injection
    scale = max(abs(ddt), abs(flux), abs(injection), 1e-30)
    return abs(defect) / scale


# ---------------------------------------------------------------------------
# full runs

@dataclass
class RunResult:
    config: caseio.CaseConfig
    mesh: object
    state: State
    t_seconds: np.ndarray
    dt_seconds: np.ndarray
    holdup: np.ndarray
    min_alpha_g: np.ndarray
    max_alpha_g: np.ndarray
    slip_mps: np.ndarray
    bubble_reynolds: np.ndarray
    reports: list
    snapshots: list
    series_path: str


def run(cfg, quiet=True):
    """Advance the configured case from the quiescent start to t_end,
    emitting a CSV series row per accepted step and snapshots on the
    output cadence.  Solver failure or controller stagnation aborts after
    flushing the last valid state (as the snapshot of its accepted-step
    count, unless already written), with the failed attempt's index and
    start time set on the error."""
    cfg.validate()
    props = cfg.props()
    scales = cfg.scales()
    mesh = cfg.build_mesh()
    spaces = caseio.build_spaces(mesh)
    state = caseio.initial_state(mesh, cfg, spaces)

    os.makedirs(cfg.output_dir, exist_ok=True)
    series_path = os.path.join(cfg.output_dir, "series.csv")
    snapshots = []
    rows = []
    reports = []

    def snap(index):
        path = os.path.join(cfg.output_dir, f"snap_{index:06d}.vtk")
        if snapshots and snapshots[-1] == path:
            return
        caseio.write_snapshot(state, mesh, path)
        snapshots.append(path)

    def diagnostics(dt_seconds):
        holdup = post.gas_holdup(state.alpha_g, mesh)
        slip, reynolds, _ = post.slip_and_reynolds(
            state, props, scales, cfg.slip_alpha_floor)
        alpha = state.alpha_g.coefficients
        return (state.t_tilde * scales.t_s, dt_seconds, holdup,
                float(alpha.min()), float(alpha.max()), slip, reynolds, 1)

    t_end_tilde = cfg.t_end / scales.t_s
    dt = min(cfg.dt_init, cfg.dt_max)
    warm = {}
    accepted_steps = 0
    next_snap = cfg.output_every

    with caseio.SeriesWriter(series_path) as series:
        row = diagnostics(0.0)
        series.write_row(*row)
        rows.append(row)
        snap(0)
        try:
            while state.t_tilde < t_end_tilde * (1.0 - 1e-13):
                dt_try = min(dt, t_end_tilde - state.t_tilde)
                new_state, report = step(state, dt_try, cfg, warm=warm)
                reports.append(report)
                if report.accepted:
                    state = new_state
                    accepted_steps += 1
                    row = diagnostics(dt_try * scales.t_s)
                    series.write_row(*row)
                    rows.append(row)
                    if state.t_tilde * scales.t_s >= next_snap - 1e-12:
                        snap(accepted_steps)
                        next_snap += cfg.output_every
                    if not quiet and accepted_steps % 100 == 0:
                        print(f"t = {state.t_tilde * scales.t_s:.4f} s  "
                              f"dt = {dt_try * scales.t_s:.3e} s  "
                              f"holdup = {row[2]:.5f}  "
                              f"min(alpha) = {row[3]:.2e}")
                dt = report.dt_next
        except SolverFailureError as exc:
            exc.attempt = len(reports)
            exc.t_seconds = state.t_tilde * scales.t_s
            snap(accepted_steps)
            raise
        snap(accepted_steps)

    arr = np.array(rows)
    return RunResult(
        config=cfg, mesh=mesh, state=state,
        t_seconds=arr[:, 0], dt_seconds=arr[:, 1], holdup=arr[:, 2],
        min_alpha_g=arr[:, 3], max_alpha_g=arr[:, 4], slip_mps=arr[:, 5],
        bubble_reynolds=arr[:, 6], reports=reports, snapshots=snapshots, series_path=series_path)
