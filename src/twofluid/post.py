"""Diagnostics: holdup, slip statistics and 2D spectral analysis of the
gas-fraction field."""

from __future__ import annotations

import numpy as np

from .fem import evaluate_many
from .physics import bubble_reynolds

PSD_BINS = 30
PSD_FLOOR = 1e-30


def gas_holdup(alpha_g, mesh):
    """Domain average of the gas fraction by exact P1 integration."""
    areas = mesh.cell_areas()
    cell_means = alpha_g.coefficients[mesh.cells].mean(axis=1)
    return float((areas * cell_means).sum() / areas.sum())


def slip_and_reynolds(state, props, scales, alpha_floor):
    """Average dimensional slip speed |v_g - v_l| and bubble Reynolds
    number over mesh vertices where alpha_g >= alpha_floor.

    Returns (slip m/s, Re_b), both zero when no vertex clears the floor.
    """
    if not 0.0 < alpha_floor < 1.0:
        raise ValueError("alpha_floor must lie in (0, 1)")
    mask = state.alpha_g.vertex_values() >= alpha_floor
    if not np.any(mask):
        return 0.0, 0.0
    v_r = (state.v_g.vertex_values() - state.v_l.vertex_values())[mask]
    slip = float(np.mean(np.linalg.norm(v_r, axis=1))) * scales.v_s
    return slip, float(bubble_reynolds(slip, props))


def sample_to_grid(field, nx, ny):
    """Sample a field at nx-by-ny cell-centered points covering the mesh
    bounding box.  Returns the (ny, nx) array whose row j holds the
    points at one y."""
    if nx < 2 or ny < 2:
        raise ValueError("need nx, ny >= 2")
    lo, hi = field.space.mesh.bounds()
    dx = (hi[0] - lo[0]) / nx
    dy = (hi[1] - lo[1]) / ny
    xs = lo[0] + dx * (0.5 + np.arange(nx))
    ys = lo[1] + dy * (0.5 + np.arange(ny))
    xv, yv = np.meshgrid(xs, ys)
    pts = np.column_stack([xv.ravel(), yv.ravel()])
    return evaluate_many(field, pts).reshape(ny, nx)


def power_spectrum_2d(grid):
    """Power spectral density of the mean-removed (ny, nx) sample grid:
    |DFT|^2 normalized by the sample count, on the unshifted DFT index
    grid.  The DC term is exactly 0, not the roundoff left after removing
    the mean."""
    values = np.asarray(grid, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("grid values must be finite")
    centered = values - values.mean()
    psd = np.abs(np.fft.fft2(centered)) ** 2 / values.size
    psd[0, 0] = 0.0
    return psd


def _radial_index(shape):
    ny, nx = shape
    ky = np.fft.fftfreq(ny) * ny
    kx = np.fft.fftfreq(nx) * nx
    kyy, kxx = np.meshgrid(ky, kx, indexing="ij")
    return np.rint(np.hypot(kxx, kyy)).astype(int)


def radial_average(psd):
    """Radially averaged spectrum: bin PSD values by the rounded integer
    radius of their index-space wavenumber.  Empty bins are absent.

    Returns (radii, mean power, count) arrays.
    """
    psd = np.asarray(psd, dtype=float)
    radius = _radial_index(psd.shape).ravel()
    sums = np.bincount(radius, weights=psd.ravel())
    counts = np.bincount(radius)
    present = counts > 0
    radii = np.nonzero(present)[0]
    return radii, sums[present] / counts[present], counts[present]


def psd_histogram(psd):
    """Log-spaced histogram, in PSD_BINS bins, of PSD values strictly above
    PSD_FLOOR (near-zero densities are omitted, mirroring how such spectra
    are reported).

    Returns (edges, counts); empty input gives (empty, empty).
    """
    vals = np.asarray(psd, dtype=float).ravel()
    vals = vals[vals > PSD_FLOOR]
    if vals.size == 0:
        return np.empty(0), np.empty(0, dtype=int)
    lo, hi = vals.min(), vals.max()
    if lo == hi:
        edges = np.array([lo * 0.999, hi * 1.001])
    else:
        edges = np.logspace(np.log10(lo), np.log10(hi), PSD_BINS + 1)
        edges[0] *= 1.0 - 1e-12
        edges[-1] *= 1.0 + 1e-12
    counts, edges = np.histogram(vals, bins=edges)
    return edges, counts
