import numpy as np
import pytest

from twofluid.caseio import CaseConfig
from twofluid.errors import BracketError
from twofluid.physics import (bubble_reynolds, clift_terminal_reynolds,
                              drag_coefficient, drag_exchange_coefficient,
                              make_groups, terminal_velocity_balance)


@pytest.fixture
def props():
    return CaseConfig().props()


@pytest.fixture
def scales():
    return CaseConfig().scales()


@pytest.fixture
def groups(props, scales):
    return make_groups(props, scales, CaseConfig().c_p)


def test_group_arithmetic(groups):
    assert groups.re_l == pytest.approx(1000 * 0.0616 * 0.05 / 5e-3)  # 616
    assert groups.re_g == pytest.approx(10 * 0.0616 * 0.05 / 2e-5)
    p_s = 1000 * 9.81 * 0.1
    assert groups.eu_l == pytest.approx(p_s / (1000 * 0.0616 ** 2))
    assert groups.eu_g == pytest.approx(p_s / (10 * 0.0616 ** 2))
    assert groups.fr == pytest.approx(0.0616 / np.sqrt(9.81 * 0.05))
    assert groups.d_b_tilde == pytest.approx(0.02)
    assert groups.rho_ratio == pytest.approx(100.0)
    assert groups.c_p == 0.25


def test_equal_density_unit_euler():
    # v_s^2 = P_s / rho makes both Euler numbers one
    cfg = CaseConfig(rho_g=1000.0, inlet_peak_velocity=np.sqrt(9.81 * 0.1),
                     gravity=9.81, height=0.1)
    g = make_groups(cfg.props(), cfg.scales(), cfg.c_p)
    assert g.eu_l == pytest.approx(1.0)
    assert g.eu_g == pytest.approx(1.0)


def test_cp_zero_passthrough(props, scales):
    assert make_groups(props, scales, c_p=0.0).c_p == 0.0


def test_drag_coefficient_values():
    assert drag_coefficient(0.1) == pytest.approx(
        24 / 0.1 * (1 + 0.15 * 0.1 ** 0.687), rel=1e-12)
    assert drag_coefficient(0.1) == pytest.approx(247.4, rel=1e-3)
    assert drag_coefficient(1000.0) == 0.44
    assert drag_coefficient(11.441) == pytest.approx(3.78, rel=1e-3)


def test_drag_coefficient_rejects_negative():
    with pytest.raises(ValueError):
        drag_coefficient(-1.0)


def test_drag_coefficient_continuous_at_crossover():
    # locate the max() crossover and check there is no jump
    res = np.linspace(900.0, 1100.0, 200001)
    cd = drag_coefficient(res)
    assert np.max(np.abs(np.diff(cd))) < 1e-5
    crossing = res[np.argmin(np.abs(cd - 0.44))]
    eps = 1e-8
    assert abs(drag_coefficient(crossing - eps)
               - drag_coefficient(crossing + eps)) < 1e-9


def test_exchange_coefficient_stokes_limit(props, scales, groups):
    k0 = drag_exchange_coefficient(0.0, groups)
    expect = 18.0 * props.mu_l * scales.x_s / (props.rho_l * props.d_b ** 2 * scales.v_s)
    assert k0 == pytest.approx(expect, rel=1e-12)
    # continuity: K(eps) -> K(0); the Re^0.687 correction decays slowly
    gaps = [abs(drag_exchange_coefficient(eps, groups) - k0)
            for eps in (1e-4, 1e-6, 1e-8)]
    assert gaps[0] < 1e-2 * k0
    assert gaps[1] < 1e-4 * k0
    assert gaps == sorted(gaps, reverse=True)


def test_exchange_coefficient_monotone(groups):
    v = np.linspace(0.0, 1.0, 2000)
    k = drag_exchange_coefficient(v, groups)
    assert np.all(np.diff(k) >= -1e-14)


def test_exchange_coefficient_is_the_dimensional_drag_law_in_groups(
        props, scales, groups):
    # K = (3/4) C_D(Re_b) |v_r~| / d_b~ with Re_b from the dimensional slip
    v = np.logspace(-8, 2, 400)
    re_b = bubble_reynolds(v * scales.v_s, props)
    expect = 0.75 * drag_coefficient(re_b) * v / groups.d_b_tilde
    k = drag_exchange_coefficient(v, groups)
    assert np.max(np.abs(k - expect) / expect) <= 1e-15
    assert drag_exchange_coefficient(0.0, groups) == pytest.approx(
        18.0 / (groups.re_l * groups.d_b_tilde ** 2), rel=1e-15)


def test_bubble_reynolds_at_correlation_speed(props):
    assert bubble_reynolds(0.0572, props) == pytest.approx(11.44, rel=1e-12)


def test_terminal_velocity_balance(props):
    v_t = terminal_velocity_balance(props)
    assert 0.058 <= v_t <= 0.060
    # force balance holds at the root
    re = bubble_reynolds(v_t, props)
    cd = drag_coefficient(re)
    rhs = 4 * (props.rho_l - props.rho_g) * props.g * props.d_b / (3 * props.rho_l)
    assert cd * v_t ** 2 == pytest.approx(rhs, rel=1e-6)


def test_terminal_velocity_stokes_regime():
    props = CaseConfig(d_b=1e-5).props()
    v_t = terminal_velocity_balance(props)
    stokes = (props.rho_l - props.rho_g) * props.g * props.d_b ** 2 / (18 * props.mu_l)
    assert v_t == pytest.approx(stokes, rel=0.01)


def test_terminal_velocity_no_buoyancy():
    with pytest.raises(BracketError):
        terminal_velocity_balance(CaseConfig(rho_g=1000.0).props())


def test_terminal_velocity_outside_the_bracket():
    # a 10 m bubble rises faster than the bracket's 10 m/s upper end
    with pytest.raises(BracketError, match="no sign change"):
        terminal_velocity_balance(CaseConfig(d_b=10.0).props())


def test_clift_correlation(props):
    re_t, v_t = clift_terminal_reynolds(props)
    assert re_t == pytest.approx(11.441, abs=5e-3)
    assert v_t == pytest.approx(0.0572, abs=5e-5)
    n_d = 4 * 1000 * 990 * 9.81 * 1e-9 / (3 * 25e-6)
    assert n_d == pytest.approx(518.0, rel=1e-3)


def test_clift_viscosity_dependence(props):
    # doubling mu_l shrinks N_D by 4 and Re_T accordingly; check against a
    # recomputation of the correlation with the new N_D
    re1, _ = clift_terminal_reynolds(props)
    thick = CaseConfig(mu_l=2 * props.mu_l).props()
    re2, _ = clift_terminal_reynolds(thick)
    n_d2 = 4 * 1000 * 990 * 9.81 * 1e-9 / (3 * (1e-2) ** 2)
    logn = np.log10(n_d2)
    expect = 10 ** (-1.7095 + 1.33438 * logn - 0.11591 * logn ** 2)
    assert re2 == pytest.approx(expect, rel=1e-12)
    assert re2 < re1


def test_balance_and_correlation_agree(props):
    v_balance = terminal_velocity_balance(props)
    _, v_clift = clift_terminal_reynolds(props)
    assert abs(v_balance - v_clift) / v_clift < 0.05


def test_drag_antisymmetry(props, groups):
    # alpha_l rho_l (liquid drag accel) + alpha_g rho_g (gas drag accel) = 0
    alpha_g, alpha_l = 0.02, 0.98
    v_r = 0.5
    k = drag_exchange_coefficient(v_r, groups)
    liquid = alpha_l * props.rho_l * (alpha_g / alpha_l) * k * v_r
    gas = alpha_g * props.rho_g * (-groups.rho_ratio * k * v_r)
    assert liquid + gas == pytest.approx(0.0, abs=1e-12 * abs(liquid))
