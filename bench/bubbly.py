"""Seeded gas-filled column state for the `bubbly_vi` workload.

The quiescent start of `ipcs.run` has almost no gas, so the box VI stays
almost all-active there.  This generator fills the 25x50 column with
smooth gas blobs so that most P1 nodes are inactive (0 < alpha < 1) and
the VI takes its reduced-solve branch on every step.

Every quantity is a function of the seed alone: the same seed gives the
same coefficients.  The state satisfies 0 <= alpha_g <= 1,
alpha_l = 1 - alpha_g and the alpha and velocity Dirichlet data at its
start time, so the first step clips no gas.
"""

from __future__ import annotations

import numpy as np

from twofluid import caseio, ipcs, physics

N_BLOBS = 48
MAX_AMPLITUDE = 0.1
RADIUS_RANGE = (0.15, 0.25)      # scaled units (column width = 1)
INLET_CLEARANCE = 0.15           # blobs stay this far above the sparger
RAMP_MULTIPLE = 1.2              # start time, in inlet ramp times


def config():
    """The 25x50 column with every other setting at its default."""
    cfg = caseio.CaseConfig()
    cfg.nx, cfg.ny = 25, 50
    return cfg


def holdup(alpha_g, mesh):
    """Area average of a P1 field, computed here rather than by `post`."""
    p = mesh.vertices[mesh.cells]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    areas = 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
    means = alpha_g.coefficients[mesh.cells].mean(axis=1)
    return float(areas @ means / areas.sum())


def state(cfg, spaces, seed):
    """Gas blobs of amplitude <= MAX_AMPLITUDE supported away from the
    walls, the inlet and the outlet; gas rising at the drag/buoyancy
    terminal speed, liquid at rest, hydrostatic pressure."""
    rng = np.random.default_rng(seed)
    p1, vec = spaces.p1, spaces.vec
    (x0, y0), (x1, y1) = p1.mesh.bounds()
    margin = (x1 - x0) / cfg.nx
    x, y = p1.node_coords.T
    alpha = np.zeros(p1.dof_count)
    for _ in range(N_BLOBS):
        r = rng.uniform(*RADIUS_RANGE)
        cx = rng.uniform(x0 + r + margin, x1 - r - margin)
        cy = rng.uniform(y0 + INLET_CLEARANCE + r, y1 - r - margin)
        amp = rng.uniform(0.5, 1.0) * MAX_AMPLITUDE
        d = np.hypot(x - cx, y - cy) / r
        bump = np.where(d < 1.0, amp * np.cos(0.5 * np.pi * d) ** 2, 0.0)
        alpha = np.maximum(alpha, bump)

    t_seconds = RAMP_MULTIPLE * cfg.inlet_ramp_time
    nodes, values = ipcs.alpha_dirichlet(p1, cfg, t_seconds)
    alpha[nodes] = values

    v_g = np.zeros(vec.dof_count)
    v_g[1::2] = physics.terminal_velocity_balance(cfg.props()) / cfg.v_scale
    dofs, values = ipcs.velocity_dirichlet(vec, cfg, t_seconds, "gas")
    v_g[dofs] = values

    y_m = p1.node_coords[:, 1] * cfg.x_scale
    return ipcs.State(
        alpha_g=p1.field(alpha),
        alpha_l=p1.field(1.0 - alpha),
        v_g=vec.field(v_g),
        v_l=vec.field(),
        p_l=p1.field((cfg.h_ref - y_m) / cfg.h_ref),
        t_tilde=t_seconds / cfg.scales().t_s,
    )
