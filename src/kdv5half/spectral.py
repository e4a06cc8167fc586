"""Discrete Fourier transforms and the fractional Sobolev norm.

Conventions (fixed repo-wide):
  forward:  f_hat(xi) = (2*pi)^(-1/2) * integral f(x) exp(-i*xi*x) dx
  inverse:  f(x)      = (2*pi)^(-1/2) * integral f_hat(xi) exp(+i*xi*x) dxi
The discrete sums carry the measure factors, so Parseval holds exactly:
  sum |f|^2 * step == sum |f_hat|^2 * freq_step.
The Sobolev bracket is <xi> = 1 + |xi| (not sqrt(1+xi^2)).

Every function of one variable is real (see `grids`), so the one 1-D pair is
the half spectrum: `x_half_spectrum` keeps the rows xi >= 0 of the discrete
transform, 0 ... count // 2 of `grid.frequencies` (for an even count the
Nyquist frequency last, at -nyquist), and the rows xi < 0 are their
conjugates.  A sum over the whole spectrum is a sum over these rows weighted
by `half_multiplicity`.  The 2-D pair (`spectrum_matrix`) stays complex for
the bilinear probes' fields.
"""

from __future__ import annotations

import numpy as np

from .grids import GridFunction, SpaceTimeField, UniformGrid

__all__ = [
    "BAND_CAP",
    "x_half_spectrum",
    "x_half_values",
    "half_multiplicity",
    "spectrum_matrix",
    "values_from_spectrum_matrix",
    "field_l2_norm",
    "sobolev_norm",
    "band_mask",
    "nonuniform_transform",
]


# The resolved band as a fraction of the Nyquist frequency, fixed repo-wide.
# The Duhamel term, the x = 0 traces and the quadratic term keep the modes
# with |xi| < BAND_CAP * nyquist of the x grid (`band_mask`); the boundary
# potential's beta-integral stops at BAND_CAP * nyquist of the t grid.
BAND_CAP = 0.75


def _axis0(row: np.ndarray, ndim: int) -> np.ndarray:
    return row[:, None] if ndim == 2 else row


def x_half_spectrum(values: np.ndarray, grid: UniformGrid) -> np.ndarray:
    """Forward transform of real samples along axis 0 (of a 1-D array or of
    every column of a 2-D one), on the rows 0 ... count // 2, by one rfft.
    Complex samples are refused (ValueError): rfft would drop their
    imaginary part."""
    if np.iscomplexobj(values):
        raise ValueError("x_half_spectrum takes real samples")
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


def half_multiplicity(grid: UniformGrid) -> np.ndarray:
    """How many rows of the whole spectrum each half-spectrum row stands for:
    1 at xi = 0 and on an even count's Nyquist row (their own conjugates),
    2 on every other row (itself and its conjugate row -xi)."""
    mult = np.full(grid.count // 2 + 1, 2.0)
    mult[0] = 1.0
    if grid.count % 2 == 0:
        mult[-1] = 1.0
    return mult


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
    freqs = np.abs(f.grid.frequencies[: f.grid.count // 2 + 1])
    power = half_multiplicity(f.grid) * np.abs(x_half_spectrum(f.values, f.grid)) ** 2
    if band is not None:
        keep = freqs <= band
        freqs, power = freqs[keep], power[keep]
    w = (1.0 + freqs) ** (2.0 * s)
    return float(np.sqrt(np.sum(w * power) * f.grid.freq_step))


def band_mask(grid: UniformGrid) -> np.ndarray:
    """Boolean mask, in FFT order, keeping the modes |xi| < BAND_CAP * nyquist.

    Decided on the integer mode index k (xi = k * freq_step) as
    2|k| < BAND_CAP * count, so a mode on the cap itself is dropped on every
    grid rather than by the last bit of the float frequencies."""
    k = np.abs(np.fft.fftfreq(grid.count, d=1.0 / grid.count))
    return 2.0 * k < BAND_CAP * grid.count


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

