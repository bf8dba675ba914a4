"""Four-step incremental pressure-correction time stepping for the
two-fluid column, with adaptive step control and a choice of
phase-fraction update.

One step advances the scaled state (alpha_g, alpha_l, v_g, v_l, P_l) by

  1. tentative velocities for both phases (drag and interfacial pressure
     explicit, viscosity half implicit),
  2. a pressure-increment Poisson solve from the mixture incompressibility
     constraint div(sum_q alpha_q v_q) = 0,
  3. velocity correction with the increment gradient, a mass solve for
     the correction v(n+1) - v*,
  4. implicit SUPG advection of the gas fraction (`_alpha_update`), one
     box variational-inequality solve of the mass-unit system whose box
     cfg.alpha_scheme picks: "vi" imposes 0 <= alpha <= 1, "linear" (the
     comparator) has the box (-inf, inf), so its solve is the linear
     solve of the same system to the same tol_vi; alpha_l := 1 - alpha_g
     afterwards.

The step imposes every Dirichlet condition at t + dt on the
unconstrained systems that `fem` assembles, one way for every solver: it
writes the data into the start vector and passes the constrained
unknowns as `fixed`, which the solver holds without editing the matrix.
CG holds the pressure outlet (dP = 0) and the correction's Dirichlet
dofs at zero, as v* already holds the data at t + dt there.

The local error of a step is measured on the tentative velocities only,
by comparing against a Heun (predictor-corrector) evaluation that reuses
the tentative solve as its predictor, so the extra cost per phase is one
more velocity-dependent load evaluation and one warm-started BiCGStab
solve of the same tentative system.

This module picks each sub-step's solver, tolerance, iteration cap and
warm start; `linalg` takes them.  The box VI keeps its inner policy in
`vi`: the active-set iteration cap (`_MAX_ITER`), the dense-LU cutoff
(`_DENSE_CUTOFF`) for reduced systems, and the iteration cap
(`_reduced_solve`) and tolerance rule (from tol_vi) of the reduced
BiCGStab.
The one warm start that carries across steps, that of the tentative
velocities, is cached as a rate of change per unit dt, so that the guess
scales with the step it starts (cf. Fischer, CMAME 163, 1998, on reusing
previous solutions as initial guesses).  The pressure CG starts from
zeros.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import caseio, fem, post
from .caseio import State
from .errors import (SolverFailureError, StagnationError, StepFailureError,
                     TwoFluidError)
from .linalg import solve_bicgstab, solve_cg
from .mesh import BoundaryTag
from .physics import make_groups
from .vi import solve_box_vi


@dataclass
class StepReport:
    """What one attempt did.  `linear_iterations` maps each Krylov solve
    of the velocities and the pressure (tentative_*, heun_*, pressure,
    update_*) to its iteration count, in call order; `vi_iterations` is
    the alpha update's active-set iteration count, for either scheme.
    The alpha and mass fields describe the new state; a rejected attempt
    leaves them and `vi_iterations` 0."""
    dt_used: float
    local_error_estimate: float
    accepted: bool
    dt_next: float
    linear_iterations: dict = field(default_factory=dict)
    vi_iterations: int = 0
    min_alpha_g: float = 0.0
    max_alpha_g: float = 0.0
    mass_balance_residual: float = 0.0


def adapt_dt(error, tol_step, dt, dt_min, dt_max):
    """Embedded-pair controller: accept iff error <= tol_step and rescale
    dt by 0.9 sqrt(tol/error) clamped to [0.2, 2.0] and [dt_min, dt_max]."""
    if not 0 <= error < np.inf:
        raise ValueError(f"error must be finite and nonnegative, got {error}")
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

def velocity_dirichlet(space, cfg, t_seconds, phase):
    """(dofs, values) velocity constraints at time t for one phase, dofs
    sorted.

    gas:    inlet ramped gaussian profile, free-slip walls (normal
            component only), zero tangential velocity at the outlet
    liquid: no-slip inlet (sparger plate) and walls, zero tangential
            velocity at the outlet

    Values are the full-ramp values times the ramp factor min(t/t0, 1).
    """
    inlet = space.boundary_nodes(BoundaryTag.Inlet)
    fixed = np.zeros(space.dof_count, dtype=bool)
    full = np.zeros(space.dof_count)
    fixed[2 * space.boundary_nodes(*BoundaryTag)] = True
    fixed[2 * inlet + 1] = True
    if phase == "gas":
        x_m = space.node_coords[inlet, 0] * cfg.x_scale
        full[2 * inlet + 1] = caseio.inlet_profiles(x_m, cfg)[0] / cfg.v_scale
    else:
        walls = space.boundary_nodes(BoundaryTag.WallLeft,
                                     BoundaryTag.WallRight)
        fixed[2 * walls + 1] = True
    dofs = np.flatnonzero(fixed)
    return dofs, full[dofs] * min(t_seconds / cfg.inlet_ramp_time, 1.0)


def alpha_dirichlet(space, cfg, t_seconds):
    """(nodes, values) gas-fraction constraints, nodes sorted: ramped
    gaussian at the inlet, zero at the walls, the inlet corners included
    (the liquid wets the walls)."""
    inlet = space.boundary_nodes(BoundaryTag.Inlet)
    walls = space.boundary_nodes(BoundaryTag.WallLeft, BoundaryTag.WallRight)
    full = np.zeros(space.dof_count)
    full[inlet] = caseio.inlet_profiles(
        space.node_coords[inlet, 0] * cfg.x_scale, cfg)[1]
    full[walls] = 0.0               # after the inlet: the corners take 0
    nodes = np.union1d(inlet, walls)
    return nodes, full[nodes] * min(t_seconds / cfg.inlet_ramp_time, 1.0)


# ---------------------------------------------------------------------------
# sub-step plumbing

@contextmanager
def _substep(label):
    """Re-raise a solver error from the block as a StepFailureError that
    names the sub-step."""
    try:
        yield
    except TwoFluidError as exc:
        raise StepFailureError(label, exc) from exc


def _krylov(solver, stats, key, A, b, **options):
    """Solve A x = b; record the iteration count as stats[key]."""
    st = {}
    x = solver(A, b, stats=st, **options)
    stats[key] = st["iterations"]
    return x


# ---------------------------------------------------------------------------
# tentative velocities and the Heun error estimate

def _tentative_with_error(dt, tol, groups, closures, dirichlet, stats,
                          warm):
    """Solve both tentative velocities and estimate the local error.

    The Heun comparison value re-solves the same tentative system, with
    the same dofs held, against the velocity-dependent loads averaged
    between level n and the predictor (one extra solve per phase,
    warm-started), so boundary handling is identical on both paths and
    the difference is O(dt^2).
    `dirichlet` maps each phase to its velocity (dofs, values) at t + dt.
    Each tentative solve starts from v(n) + dt * rate, with the rate
    (v* - v(n))/dt of the last attempt cached in `warm` (rejected attempts
    included), or from v(n) without one of v's size (a first step,
    another mesh), and the data written over the held dofs.
    Returns (error, v* sampled at the quadrature points)."""
    vec = closures.qp.space

    systems = {}
    v_star = {}
    for phase in fem.PHASES:
        A, history, load = fem.tentative_velocity_system(phase, dt, groups,
                                                         closures)
        dofs, values = dirichlet[phase]
        vn = closures.qp.coefficients[phase]
        key = f"tentative_rate_{phase}"
        rate = warm.get(key)
        x0 = vn.copy()
        if rate is not None and rate.size == vn.size:
            x0 += rate * dt
        x0[dofs] = values
        v_star[phase] = _krylov(
            solve_bicgstab, stats, f"tentative_{phase}", A, history + load,
            tol=tol, max_iter=5000, x0=x0, fixed=dofs)
        warm[key] = (v_star[phase] - vn) / dt
        systems[phase] = (A, history, load)

    qp_star = fem.VelocityQP(vec.field(v_star["liquid"]),
                             vec.field(v_star["gas"]), groups)

    error = 0.0
    for phase in fem.PHASES:
        A, history, load_n = systems[phase]
        load_p = fem.velocity_dependent_load(phase, qp_star, groups, closures)
        v_heun = _krylov(solve_bicgstab, stats, f"heun_{phase}", A,
                         history + 0.5 * (load_n + load_p), tol=tol,
                         max_iter=5000, x0=v_star[phase],
                         fixed=dirichlet[phase][0])
        norm = max(float(np.linalg.norm(v_heun)), 1.0)
        error = max(error,
                    float(np.linalg.norm(v_heun - v_star[phase])) / norm)
    return error, qp_star


# ---------------------------------------------------------------------------
# one adaptive step

def step(state, dt, cfg, warm=None):
    """Advance one adaptive step.  Returns (new_state, report); on
    rejection the returned state is the input state and only dt_next in
    the report is meaningful.

    `warm` is the cross-step cache of the tentative solves' starting
    guesses, stored as rates so that they scale with the next dt: each
    phase's rate (v* - v(n))/dt under "tentative_rate_liquid" and
    "tentative_rate_gas", written on every attempt.  Without one the step
    starts a fresh cache, so it cold-starts and its rates are dropped.  A
    cached rate of another size (another mesh) is ignored and
    overwritten.  An invalid cfg raises ConfigError."""
    if not 0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    cfg.validate()
    warm = {} if warm is None else warm
    scales = cfg.scales()
    groups = make_groups(cfg.props(), scales, cfg.c_p)
    p1 = state.alpha_g.space
    vec = state.v_l.space
    t_next_seconds = (state.t_tilde + dt) * scales.t_s
    tol = cfg.tol_linear
    stats = {}

    with _substep("boundary-conditions"):
        dirichlet = {phase: velocity_dirichlet(vec, cfg, t_next_seconds, phase)
                     for phase in fem.PHASES}
        alpha_nodes, alpha_values = alpha_dirichlet(p1, cfg, t_next_seconds)

    with _substep("tentative-velocity"):
        closures = fem.closure_inputs(state, groups, cfg.alpha_ln_floor)
        error, qp_star = _tentative_with_error(
            dt, tol, groups, closures, dirichlet, stats, warm)

    dt_next, accepted = adapt_dt(error, cfg.tol_step, dt, cfg.dt_min,
                                 cfg.dt_max)
    if not accepted:
        return state, StepReport(dt, error, False, dt_next,
                                 linear_iterations=stats)

    with _substep("pressure-poisson"):
        A_p, b_p = fem.assemble_pressure_poisson(state, qp_star, dt, groups)
        delta_p = _krylov(solve_cg, stats, "pressure", A_p, b_p, tol=tol,
                          max_iter=10000,
                          fixed=p1.boundary_nodes(BoundaryTag.Outlet))
    dp_field = p1.field(delta_p)

    new_v = {}
    for phase in fem.PHASES:
        with _substep(f"velocity-update-{phase}"):
            load = fem.assemble_velocity_update(phase, vec, dp_field, dt,
                                                groups)
            correction = _krylov(solve_cg, stats, f"update_{phase}",
                                 vec.mass_matrix, load, tol=tol,
                                 max_iter=2000, fixed=dirichlet[phase][0])
            new_v[phase] = qp_star.coefficients[phase] + correction
    v_l_new = vec.field(new_v["liquid"])
    v_g_new = vec.field(new_v["gas"])

    with _substep("alpha-update"):
        alpha_new, vi_iterations, defect = _alpha_update(
            state.alpha_g, v_g_new, dt, alpha_nodes, alpha_values, cfg)

    new_state = State(p1.field(alpha_new), p1.field(1.0 - alpha_new),
                      v_g_new, v_l_new,
                      p1.field(state.p_l.coefficients + delta_p),
                      state.t_tilde + dt)
    return new_state, StepReport(
        dt, error, True, dt_next, linear_iterations=stats,
        vi_iterations=vi_iterations, min_alpha_g=float(alpha_new.min()),
        max_alpha_g=float(alpha_new.max()), mass_balance_residual=defect)


def _alpha_update(alpha_old, v_g_new, dt, nodes, values, cfg):
    """New gas fraction with Dirichlet data (nodes, values), held fixed:
    one box-VI solve of the mass-unit alpha system to the absolute tol_vi,
    on the box of cfg's scheme, (0, 1) for "vi" and (-inf, inf) for
    "linear".  Returns (coefficients, VI iterations, mass-balance
    defect)."""
    A_a, b_a = fem.assemble_alpha_system(alpha_old, v_g_new, dt)
    x0 = alpha_old.coefficients.copy()
    x0[nodes] = values
    box = (0.0, 1.0) if cfg.alpha_scheme == "vi" else (-np.inf, np.inf)
    vi_stats = {}
    alpha_new = solve_box_vi(A_a, b_a, x0, tol=cfg.tol_vi, stats=vi_stats,
                             fixed=nodes, box=box)
    defect = _mass_balance_residual(alpha_old, alpha_new, A_a, b_a, nodes)
    return alpha_new, vi_stats["iterations"], defect


def _mass_balance_residual(alpha_old, alpha_new, A_a, b_a, dirichlet_rows):
    """Relative defect of the discrete gas balance over one step, in mass
    units,

        change of int(alpha) + dt (boundary flux of alpha v) = injection,

    read off the residual r = A_a alpha_new - b_a of the unconstrained
    system alone.  Two facts make sum_i r_i = change of int(alpha) + dt
    boundary flux of (alpha v . n), to roundoff:

    - the P1 basis sums to 1 and its gradients to 0, so in the row sum
      the SUPG parts cancel and the integrand left is
      alpha_new - alpha_old + dt div(alpha_new v);
    - that integrand has degree 2 on each cell (alpha P1, v P2), within
      the 6-point rule's exact degree 4, so the divergence theorem holds.

    `injection` sums r over the Dirichlet rows (the discrete source they
    feed into the domain); the defect sums it over the free rows, which a
    linear solve zeroes and the VI does not at the nodes it holds at a
    bound.  The change of int(alpha) is w . (alpha_new - alpha_old) with
    the P1 space's weights w = `int_phi`, the same integral as
    `post.gas_holdup`'s; the flux term is the whole sum less that change.

    The defect is relative to the step's balance scale max(|change|,
    |flux|, |injection|), so it has a roundoff floor of about
    eps max|M alpha| / scale: the terms of r are of the size of M alpha
    (M the P1 mass matrix) whatever the balance.  Where the scale is
    small, an exact solve does not read as roundoff: on gas-filled
    states under the unbounded box, free rows solved to |r_i| ~ 3e-16 and
    balance scales of 6e-10 to 1e-8 in mass units gave relative defects
    up to 9e-7.  Judge such steps by the absolute defect, |sum of r over
    the free rows|.
    """
    residual = A_a @ alpha_new - b_a
    injection = float(residual[dirichlet_rows].sum())
    defect = float(np.delete(residual, dirichlet_rows).sum())

    change = float(alpha_old.space.int_phi
                   @ (alpha_new - alpha_old.coefficients))
    flux = float(residual.sum()) - change

    scale = max(abs(change), abs(flux), abs(injection), 1e-30)
    return abs(defect) / scale


# ---------------------------------------------------------------------------
# full runs

@dataclass
class RunResult:
    state: State
    t_seconds: np.ndarray
    dt_seconds: np.ndarray
    holdup: np.ndarray
    min_alpha_g: np.ndarray
    reports: list
    snapshots: list
    series_path: str


def run(cfg, quiet=True):
    """Advance the configured case from the quiescent start to t_end,
    emitting a CSV series row per accepted step and a snapshot on the
    first accepted step at or past each multiple of output_every (one
    snapshot for all the output times a step crosses).  Solver failure or controller stagnation aborts after
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
        holdup = post.gas_holdup(state.alpha_g)
        slip, reynolds = post.slip_and_reynolds(
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
                    t_seconds = state.t_tilde * scales.t_s
                    if t_seconds >= next_snap - 1e-12:
                        snap(accepted_steps)
                        while next_snap - 1e-12 <= t_seconds:
                            next_snap += cfg.output_every
                    if not quiet and accepted_steps % 100 == 0:
                        print(f"t = {t_seconds:.4f} s  "
                              f"dt = {dt_try * scales.t_s:.3e} s  "
                              f"holdup = {row[2]:.6g}  "
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
        state=state, t_seconds=arr[:, 0], dt_seconds=arr[:, 1],
        holdup=arr[:, 2], min_alpha_g=arr[:, 3], reports=reports,
        snapshots=snapshots, series_path=series_path)
