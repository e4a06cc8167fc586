"""Discrete Fourier transforms and the fractional Sobolev norm.

Conventions (fixed repo-wide):
  forward:  f_hat(xi) = (2*pi)^(-1/2) * integral f(x) exp(-i*xi*x) dx
  inverse:  f(x)      = (2*pi)^(-1/2) * integral f_hat(xi) exp(+i*xi*x) dxi
The discrete sums carry the measure factors, so Parseval holds exactly:
  sum |f|^2 * step == sum |f_hat|^2 * freq_step.
The Sobolev bracket is <xi> = 1 + |xi| (not sqrt(1+xi^2)).
"""

from __future__ import annotations

import numpy as np

from .grids import GridFunction, SpaceTimeField, UniformGrid

__all__ = [
    "BAND_CAP",
    "x_spectrum",
    "x_values",
    "x_half_spectrum",
    "x_half_values",
    "spectrum_matrix",
    "values_from_spectrum_matrix",
    "field_l2_norm",
    "sobolev_norm",
    "band_mask",
    "nonuniform_transform",
    "random_band_limited",
]


# The resolved band as a fraction of the Nyquist frequency, fixed repo-wide.
# The Duhamel term, the x = 0 traces and the quadratic term drop the modes
# with |xi| > BAND_CAP * nyquist of the x grid; the boundary potential's
# beta-integral stops at BAND_CAP * nyquist of the t grid.
BAND_CAP = 0.75


def _axis0(row: np.ndarray, ndim: int) -> np.ndarray:
    return row[:, None] if ndim == 2 else row


def x_spectrum(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Forward transform along axis 0 of a 1-D array or of every column of a 2-D one."""
    phase = _axis0(np.exp(-1j * grid.frequencies * grid.origin), np.ndim(values))
    return (grid.step / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(values, axis=0)


def x_values(spec: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Inverse of `x_spectrum`, along the same axis."""
    phase = _axis0(np.exp(1j * grid.frequencies * grid.origin), np.ndim(spec))
    return (np.sqrt(2.0 * np.pi) / grid.step) * np.fft.ifft(spec * phase, axis=0)


def x_half_spectrum(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """`x_spectrum` of real samples on its rows 0 ... count // 2, by one rfft.

    These rows hold xi >= 0 (and, for an even count, the Nyquist frequency
    last, at -nyquist as in `grid.frequencies`); the rows xi < 0 of a real
    field are their conjugates.
    """
    freqs = grid.frequencies[: grid.count // 2 + 1]
    phase = _axis0(np.exp(-1j * freqs * grid.origin), np.ndim(values))
    return (grid.step / np.sqrt(2.0 * np.pi)) * phase * np.fft.rfft(values, axis=0)


def x_half_values(spec: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Inverse of `x_half_spectrum`: the real samples whose half spectrum has
    the leading rows `spec` and is zero on the rows it does not reach."""
    rows = np.shape(spec)[0]
    if rows > grid.count // 2 + 1:
        raise ValueError(
            f"a half spectrum of a {grid.count}-point grid has at most "
            f"{grid.count // 2 + 1} rows, got {rows}"
        )
    phase = _axis0(np.exp(1j * grid.frequencies[:rows] * grid.origin), np.ndim(spec))
    values = np.fft.irfft(spec * phase, n=grid.count, axis=0)
    values *= np.sqrt(2.0 * np.pi) / grid.step
    return values


def spectrum_matrix(u: SpaceTimeField) -> np.ndarray:
    """2-D spectrum u_hat(xi, tau), shape (count_x, count_t), FFT order."""
    xg, tg = u.xgrid, u.tgrid
    phase_x = np.exp(-1j * xg.frequencies * xg.origin)[:, None]
    phase_t = np.exp(-1j * tg.frequencies * tg.origin)[None, :]
    scale = xg.step * tg.step / (2.0 * np.pi)
    return scale * phase_x * phase_t * np.fft.fft2(u.values)


def values_from_spectrum_matrix(
    coeffs: np.ndarray, xgrid: UniformGrid, tgrid: UniformGrid
) -> SpaceTimeField:
    phase_x = np.exp(1j * xgrid.frequencies * xgrid.origin)[:, None]
    phase_t = np.exp(1j * tgrid.frequencies * tgrid.origin)[None, :]
    scale = (2.0 * np.pi) / (xgrid.step * tgrid.step)
    vals = scale * np.fft.ifft2(coeffs * phase_x * phase_t)
    return SpaceTimeField(xgrid, tgrid, vals)


def field_l2_norm(u: SpaceTimeField) -> float:
    return float(
        np.sqrt(np.sum(np.abs(u.values) ** 2) * u.xgrid.step * u.tgrid.step)
    )


def sobolev_norm(f: GridFunction, s: float, band: float | None = None) -> float:
    """H^s norm with weight (1+|xi|)^(2s) on the discrete spectrum.

    `f` is a GridFunction or a TimeSeries, so the frequencies are those of
    x or of t.  With `band`, only the modes |xi| <= band are summed (for
    band-extension studies).
    """
    if s < 0:
        raise ValueError(f"sobolev_norm requires s >= 0, got {s}")
    freqs = f.grid.frequencies
    coeffs = x_spectrum(f.values, f.grid)
    if band is not None:
        keep = np.abs(freqs) <= band
        freqs, coeffs = freqs[keep], coeffs[keep]
    w = (1.0 + np.abs(freqs)) ** (2.0 * s)
    return float(np.sqrt(np.sum(w * np.abs(coeffs) ** 2) * f.grid.freq_step))


def band_mask(grid: UniformGrid) -> np.ndarray:
    """Boolean mask keeping modes with |xi| <= BAND_CAP * nyquist."""
    return np.abs(grid.frequencies) <= BAND_CAP * grid.nyquist


def nonuniform_transform(f: GridFunction, freqs) -> np.ndarray:
    """Forward transform evaluated at arbitrary frequencies by direct summation.

    Spectrally accurate for data supported inside the grid window (periodic
    trapezoid rule).  All-zero data give exact zeros without a sum.  A
    deliberate independent oracle: the package itself never calls it; the
    tests check the boundary potential's data transform (the conjugate of
    its stored time table) against it.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    nodes, vals = f.grid.nodes, f.values
    if not np.any(vals):
        return np.zeros(len(freqs), dtype=np.complex128)
    out = np.empty(len(freqs), dtype=np.complex128)
    chunk = 512
    scale = f.grid.step / np.sqrt(2.0 * np.pi)
    for start in range(0, len(freqs), chunk):
        block = freqs[start : start + chunk]
        out[start : start + chunk] = scale * (
            np.exp(-1j * np.outer(block, nodes)) @ vals
        )
    return out


def random_band_limited(
    grid: UniformGrid,
    band: float,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 1.0,
) -> GridFunction:
    """Random smooth function with spectrum supported in |xi| <= band.

    A deliberate seeded test-data generator: the package itself never calls
    it; the tests and ad-hoc studies draw their band-limited data from it.

    Coefficients are complex Gaussian with an exp(-decay*(xi/band)^2)
    envelope; the result is normalized to the requested L-infinity amplitude.

    Draws are assigned to lattice frequencies in the resolution-independent
    order k = 0, 1, -1, 2, -2, ..., so the same rng state produces the same
    continuum function on any refinement of a grid with the same period.
    """
    freq_step = grid.freq_step
    kmax = min(int(np.floor(band / freq_step)), (grid.count - 1) // 2)
    coeffs = np.zeros(grid.count, dtype=np.complex128)
    for k in range(0, kmax + 1):
        signed = ((k, k),) if k == 0 else ((k, k), (grid.count - k, -k))
        for idx, kk in signed:
            raw = complex(rng.standard_normal(), rng.standard_normal())
            coeffs[idx] = raw * np.exp(-decay * (kk * freq_step / band) ** 2)
    values = x_values(coeffs, grid)
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return GridFunction(grid, np.zeros(grid.count, dtype=np.complex128))
    return GridFunction(grid, values * (amplitude / peak))
