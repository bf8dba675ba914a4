import numpy as np
import pytest

from twofluid import post
from twofluid.caseio import CaseConfig, build_spaces, initial_state
from twofluid.fem import FunctionSpace
from twofluid.mesh import generate_rect_mesh
from twofluid.post import (gas_holdup, power_spectrum_2d, psd_histogram,
                           radial_average, sample_to_grid, slip_and_reynolds)


@pytest.fixture
def column():
    mesh = generate_rect_mesh(1.0, 2.0, 6, 12, "alternating")
    return mesh, FunctionSpace.scalar_p1(mesh)


def test_holdup_constants(column):
    mesh, p1 = column
    assert gas_holdup(p1.field(np.zeros(p1.dof_count)), mesh) == 0.0
    half = p1.field(np.full(p1.dof_count, 0.5))
    assert gas_holdup(half, mesh) == pytest.approx(0.5, rel=1e-14)


def test_holdup_linear_profile(column):
    mesh, p1 = column
    alpha = p1.field(p1.node_coords[:, 1] / 2.0)  # y/H
    assert gas_holdup(alpha, mesh) == pytest.approx(0.5, rel=1e-12)


def test_holdup_complement(column):
    mesh, p1 = column
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.0, 1.0, p1.dof_count)
    a = gas_holdup(p1.field(beta), mesh)
    b = gas_holdup(p1.field(1.0 - beta), mesh)
    assert a + b == pytest.approx(1.0, rel=1e-12)


def _state_with_slip(vy):
    cfg = CaseConfig(nx=4, ny=8)
    mesh = cfg.build_mesh()
    spaces = build_spaces(mesh)
    state = initial_state(mesh, cfg, spaces)
    state.v_g.coefficients[1::2] = vy / cfg.v_scale
    return state, cfg


def test_slip_matches_correlation_speed():
    state, cfg = _state_with_slip(0.0572)
    state.alpha_g.coefficients[:] = 0.02
    slip, re_b = slip_and_reynolds(state, cfg.props(), cfg.scales(),
                                   cfg.slip_alpha_floor)
    assert slip == pytest.approx(0.0572, rel=1e-12)
    assert re_b == pytest.approx(11.44, rel=1e-10)


def test_slip_zero_when_phases_match():
    state, cfg = _state_with_slip(0.0)
    state.alpha_g.coefficients[:] = 0.02
    slip, re_b = slip_and_reynolds(state, cfg.props(), cfg.scales(),
                                   cfg.slip_alpha_floor)
    assert slip == 0.0 and re_b == 0.0


def test_slip_zero_when_no_vertex_clears_the_floor():
    # the gas-free start: slip of 0.1 m/s, but no vertex to average it on
    state, cfg = _state_with_slip(0.1)
    slip, re_b = slip_and_reynolds(state, cfg.props(), cfg.scales(),
                                   cfg.slip_alpha_floor)
    assert slip == 0.0 and re_b == 0.0


@pytest.mark.parametrize("floor", [0.0, 1.0, -0.1, 2.0])
def test_slip_rejects_a_floor_outside_the_unit_interval(floor):
    state, cfg = _state_with_slip(0.1)
    with pytest.raises(ValueError, match=r"alpha_floor must lie in \(0, 1\)"):
        slip_and_reynolds(state, cfg.props(), cfg.scales(), floor)


def test_sample_to_grid_constant_and_linear(column):
    mesh, p1 = column
    const = sample_to_grid(p1.field(np.full(p1.dof_count, 0.7)), 8, 16)
    assert const == pytest.approx(0.7 * np.ones((16, 8)))
    lin = sample_to_grid(p1.field(p1.node_coords[:, 0]), 8, 16)
    (x0, _), (x1, _) = mesh.bounds()
    dx = (x1 - x0) / 8
    assert lin[0] == pytest.approx(x0 + dx * (0.5 + np.arange(8)))


def test_grid_mean_approximates_holdup(column):
    mesh, p1 = column
    rng = np.random.default_rng(5)
    alpha = p1.field(rng.uniform(0.0, 0.05, p1.dof_count))
    grid = sample_to_grid(alpha, 32, 64)
    assert grid.mean() == pytest.approx(gas_holdup(alpha, mesh),
                                               abs=0.05 * 0.05)


def test_grid_shape_validation(column):
    _, p1 = column
    alpha = p1.field(np.zeros(p1.dof_count))
    assert sample_to_grid(alpha, 4, 3).shape == (3, 4)
    with pytest.raises(ValueError):
        sample_to_grid(alpha, 1, 3)
    with pytest.raises(ValueError):
        sample_to_grid(alpha, 4, 1)


def test_psd_constant_field_is_zero():
    psd = power_spectrum_2d(np.full((16, 16), 3.3))
    assert np.max(np.abs(psd)) < 1e-20


def test_psd_dc_term_is_exactly_zero():
    # the mean is removed, so the DC term is 0, not a roundoff residue
    rng = np.random.default_rng(11)
    field = 0.3 + 1e-3 * rng.standard_normal((16, 8))
    assert power_spectrum_2d(field)[0, 0] == 0.0


def test_psd_pure_tone():
    n = 32
    k = 5
    x = np.arange(n)
    field = np.cos(2 * np.pi * k * x / n)[None, :] * np.ones((n, 1))
    psd = power_spectrum_2d(field)
    hot = {(0, k), (0, n - k)}
    for j in range(n):
        for i in range(n):
            if (j, i) in hot:
                assert psd[j, i] > 1.0
            else:
                assert psd[j, i] < 1e-10


def test_psd_parseval():
    rng = np.random.default_rng(7)
    field = rng.standard_normal((24, 40))
    psd = power_spectrum_2d(field)
    centered = field - field.mean()
    assert psd.sum() == pytest.approx((centered ** 2).sum(), rel=1e-10)


def test_psd_rejects_nonfinite():
    bad = np.zeros((4, 4))
    bad[1, 1] = np.nan
    with pytest.raises(ValueError):
        power_spectrum_2d(bad)


def test_radial_average_tone_and_power():
    n = 32
    k = 6
    x = np.arange(n)
    field = np.cos(2 * np.pi * k * x / n)[None, :] * np.ones((n, 1))
    psd = power_spectrum_2d(field)
    radii, power, counts = radial_average(psd)
    nonzero = radii[power > 1e-12]
    assert list(nonzero) == [k]
    # total power preserved: bin means times counts recover the sum
    assert (power * counts).sum() == pytest.approx(psd.sum(), rel=1e-12)


def test_radial_average_zero_input():
    radii, power, counts = radial_average(np.zeros((8, 8)))
    assert np.all(power == 0.0)
    assert counts.sum() == 64


def test_radial_average_gaussian_matches_analytic():
    # isotropic gaussian bump: the FFT pipeline's radial spectrum must match
    # the radial average of the analytic spectrum bin by bin (5%)
    n = 64
    s = 3.0
    x = np.arange(n) - n / 2
    xx, yy = np.meshgrid(x, x)
    field = np.exp(-(xx ** 2 + yy ** 2) / (2 * s ** 2))
    psd = power_spectrum_2d(field)
    radii, power, counts = radial_average(psd)

    # analytic PSD of the sampled gaussian (continuous transform, mean
    # removed at k = 0), radially averaged with the same binning
    ky = np.fft.fftfreq(n) * n
    kxx, kyy = np.meshgrid(ky, ky)
    k2 = (2 * np.pi / n) ** 2 * (kxx ** 2 + kyy ** 2)
    analytic = (2 * np.pi * s ** 2 * np.exp(-k2 * s ** 2 / 2.0)) ** 2 / field.size
    analytic[0, 0] = 0.0
    radii_a, power_a, _ = radial_average(analytic)
    assert np.array_equal(radii, radii_a)
    # compare where the signal is meaningfully above the fft noise floor
    keep = (power_a > 1e-10 * power_a.max()) & (radii > 0)
    assert keep.sum() > 10
    assert power[keep] == pytest.approx(power_a[keep], rel=0.05)
    # monotone decay of the resolved part
    resolved = power[keep]
    assert np.all(np.diff(resolved) < 0)


def test_histogram_counts_and_floor():
    vals = np.concatenate([np.logspace(-3, 0, 50), [1e-40] * 7])
    edges, counts = psd_histogram(vals)
    assert counts.sum() == 50       # near-zero densities omitted
    assert edges.size == 31         # 30 bins
    # the 1e-30 floor is exclusive: a density at it is omitted
    edges, counts = psd_histogram(np.concatenate([vals, [1e-30, 2e-30]]))
    assert counts.sum() == 51
    edges, counts = psd_histogram(np.full(5, 1e-35))
    assert counts.size == 0


def test_histogram_of_a_constant_psd_is_one_bin_around_it():
    edges, counts = psd_histogram(np.concatenate([np.full(6, 2.5e-3),
                                                  [0.0, 1e-40]]))
    assert list(counts) == [6]
    assert edges.tolist() == [2.5e-3 * 0.999, 2.5e-3 * 1.001]
