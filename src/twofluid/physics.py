"""Interphase closures, nondimensionalization and 0D reference solutions.

The working system is a buoyant dispersed gas phase (bubbles of diameter
d_b) in a continuous liquid.  Everything here is a pure function; fields
enter only as plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConfigError


@dataclass
class FluidProperties:
    """Dimensional material properties (SI units); `CaseConfig.props`
    holds the reference values."""

    rho_g: float              # kg/m^3
    rho_l: float              # kg/m^3
    mu_g: float               # Pa s
    mu_l: float               # Pa s
    d_b: float                # bubble diameter, m
    g: float                  # m/s^2


@dataclass
class Scales:
    """Reference scales used to nondimensionalize the governing equations.

    Pressure scale is hydrostatic, P_s = rho_l * g_s * h_ref, with P_0 = 0.
    The time scale is x_s / v_s.  `CaseConfig.scales` derives them from
    the case: column width, peak inlet gas speed, gravity, column height.
    """

    x_s: float            # m (column width)
    v_s: float            # m/s (peak inlet gas speed)
    g_s: float            # m/s^2
    h_ref: float          # m (column height)

    @property
    def t_s(self):
        return self.x_s / self.v_s


@dataclass
class DimensionlessGroups:
    eu_l: float
    eu_g: float
    re_l: float
    re_g: float
    fr: float
    d_b_tilde: float
    rho_ratio: float
    c_p: float


def make_groups(props: FluidProperties, scales: Scales, c_p):
    """Euler, Reynolds and Froude numbers plus the scaled bubble diameter.

    Setting c_p = 0 recovers the equal bulk/interfacial pressure model.
    """
    p_s = props.rho_l * scales.g_s * scales.h_ref
    v2 = scales.v_s ** 2
    return DimensionlessGroups(
        eu_l=p_s / (props.rho_l * v2),
        eu_g=p_s / (props.rho_g * v2),
        re_l=props.rho_l * scales.v_s * scales.x_s / props.mu_l,
        re_g=props.rho_g * scales.v_s * scales.x_s / props.mu_g,
        fr=scales.v_s / np.sqrt(scales.g_s * scales.x_s),
        d_b_tilde=props.d_b / scales.x_s,
        rho_ratio=props.rho_l / props.rho_g,
        c_p=c_p,
    )


def _cd_re(re_b):
    """The drag law, once: Schiller-Naumann (Z. VDI 77, 1933) with the
    Newton-regime cap, times Re_b, which keeps it finite at Re_b = 0:
    C_D Re_b = max(24 (1 + 0.15 Re_b^0.687), 0.44 Re_b)."""
    return np.maximum(24.0 * (1.0 + 0.15 * re_b ** 0.687), 0.44 * re_b)


def drag_coefficient(re_b):
    """C_D = max(24/Re (1 + 0.15 Re^0.687), 0.44), vectorized; infinite at
    Re = 0, where the callers below use the finite C_D Re instead."""
    re_b = np.asarray(re_b, dtype=float)
    if np.any(re_b < 0):
        raise ValueError("bubble Reynolds number must be nonnegative")
    with np.errstate(divide="ignore"):
        out = _cd_re(re_b) / re_b
    return float(out) if out.ndim == 0 else out


def bubble_reynolds(v_r_norm, props: FluidProperties):
    """Re_b = rho_l |v_r| d_b / mu_l for a dimensional slip speed."""
    return props.rho_l * np.asarray(v_r_norm) * props.d_b / props.mu_l


def drag_exchange_coefficient(v_r_tilde_norm, groups: DimensionlessGroups):
    """Dimensionless drag factor K = (3/4) (C_D / d_b_tilde) |v_r_tilde|,
    which multiplies v_r_tilde in the momentum equations.  In the groups,
    Re_b = Re_l d_b_tilde |v_r_tilde| and K = (3/4) C_D Re_b /
    (Re_l d_b_tilde^2): continuous in the slip, with
    K(0) = 18 / (Re_l d_b_tilde^2) and no 0/0 at zero slip."""
    v = np.asarray(v_r_tilde_norm, dtype=float)
    re_db = groups.re_l * groups.d_b_tilde
    out = 0.75 * _cd_re(re_db * v) / (re_db * groups.d_b_tilde)
    return float(out) if out.ndim == 0 else out


def terminal_velocity_balance(props: FluidProperties):
    """Terminal rise speed of a single bubble (0.96242 v_scale in the
    reference case) from the drag/buoyancy balance
    C_D(Re(v)) = 4 (rho_l - rho_g) g d_b / (3 rho_l v^2), by bisection.
    A dilute swarm feels alpha_l (rho_l - rho_g) g instead: this balance
    with g scaled by alpha_l gives 0.94768 at alpha_g = 0.02, the slip
    that `test_a_dilute_swarm_rises_at_its_terminal_slip` checks."""
    drho = props.rho_l - props.rho_g
    if drho <= 0:
        raise BracketError("no buoyancy: rho_l <= rho_g")
    rhs = 4.0 * drho * props.g * props.d_b / (3.0 * props.rho_l)

    def f(v):
        # C_D v^2 - rhs, as C_D Re_b mu_l v / (rho_l d_b) to avoid 1/v
        return (_cd_re(bubble_reynolds(v, props)) * props.mu_l * v
                / (props.rho_l * props.d_b) - rhs)

    lo, hi = 1e-6, 10.0
    flo, fhi = f(lo), f(hi)
    if flo * fhi > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


def clift_terminal_reynolds(props: FluidProperties):
    """Terminal Reynolds number from the Clift-et-al. empirical correlation

        log10 Re_T = -1.7095 + 1.33438 log10 N_D - 0.11591 (log10 N_D)^2,
        N_D = 4 rho_l (rho_l - rho_g) g d_b^3 / (3 mu_l^2),

    the 73 < N_D <= 580 branch of Clift, Grace & Weber (1978), Table 5.3,
    for rigid spheres; an N_D outside that range raises ConfigError.
    Returns (Re_T, v_T) with v_T = Re_T mu_l / (rho_l d_b)."""
    drho = props.rho_l - props.rho_g
    n_d = 4.0 * props.rho_l * drho * props.g * props.d_b ** 3 / (3.0 * props.mu_l ** 2)
    if not 73.0 < n_d <= 580.0:
        raise ConfigError(f"the Clift correlation holds for 73 < N_D <= 580, "
                          f"these fluid properties give N_D = {n_d:.4g}")
    logn = np.log10(n_d)
    log_re = -1.7095 + 1.33438 * logn - 0.11591 * logn ** 2
    re_t = 10.0 ** log_re
    v_t = re_t * props.mu_l / (props.rho_l * props.d_b)
    return re_t, v_t
