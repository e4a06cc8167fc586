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

`phase_table` tabulates cos and sin of t_i f_k for the dense phase tables of
the group and of the boundary potential, one angle-sum product per entry.
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
    "phase_table",
    "distinct_rows",
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


def field_l2_norm(values: np.ndarray, xgrid: UniformGrid, tgrid: UniformGrid) -> float:
    """L^2 norm of samples on (a box of) the xgrid x tgrid lattice, rectangle rule."""
    return float(np.sqrt(np.sum(np.abs(values) ** 2) * (xgrid.step * tgrid.step)))


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


def distinct_rows(values: np.ndarray) -> tuple:
    """The sorted distinct values of a 1-D array and the row of each entry
    among them: `np.unique(values, return_inverse=True)` to the bit, by the
    same quicksort argsort, whose first entry of each run of equal values
    (+0 and -0 among them) stands for the run.  Written out because
    `np.unique` imports `numpy.ma`, 13 ms in a fresh interpreter."""
    perm = np.argsort(values, kind="quicksort")
    ordered = values[perm]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    rows = np.empty(len(ordered), dtype=np.intp)
    rows[perm] = np.cumsum(first) - 1
    return ordered[first], rows


def _split_unit(t: np.ndarray) -> float:
    """The power of two H for which the targets t, split as m H + r with
    m = round(t / H), have the fewest distinct m plus distinct r.  Above
    2 max |t| every m is 0 and every distinct t is its own r; H halves from
    there until the distinct m alone leave no room for a better count,
    which they do at the latest once every distinct t has its own m.  The
    search stops at H = 2^(e - 53), e the binary exponent of max |t|: there
    every t / H is exact and finite, while below it a subnormal target
    beside normal ones would send t / H to inf and H on to 0."""
    top = int(np.frexp(np.max(np.abs(t)))[1])
    best, best_count = np.ldexp(1.0, top + 1), 1 + len(distinct_rows(t)[0])
    for exponent in range(top, top - 54, -1):
        unit = np.ldexp(1.0, exponent)
        m = np.round(t / unit)
        coarse = len(distinct_rows(m)[0])
        if coarse + 1 >= best_count:
            break
        count = coarse + len(distinct_rows(t - m * unit)[0])
        if count < best_count:
            best, best_count = unit, count
    return best


def _unit_phases(angles: np.ndarray) -> np.ndarray:
    out = np.empty(angles.shape, dtype=np.complex128)
    np.cos(angles, out=out.real)
    np.sin(angles, out=out.imag)
    return out


def phase_table(targets, freqs, cos: np.ndarray, sin: np.ndarray) -> None:
    """Write cos(t_i f_k) into cos[i, k] and sin(t_i f_k) into sin[i, k] for
    the targets t (N) and frequencies f (K); cos and sin are (N, K) arrays
    or views of any strides, such as the real and imaginary parts of a
    complex table.

    Each target splits exactly as t_i = m_i H + r_i with m_i = round(t_i / H)
    and H a power of two: m_i H is exact, and so is r_i = t_i - m_i H, since
    |r_i| <= H / 2 <= |t_i| whenever m_i != 0 (Sterbenz).  cos and sin are
    evaluated once on each distinct coarse angle (m H) f and fine angle r f,
    and each entry is the angle sum e^{i t f} = e^{i m H f} e^{i r f}, one
    complex product.  H is the power of two with the fewest distinct m and
    r (`_split_unit`): on N targets of a uniform grid of dyadic step about
    2 sqrt(N) rows of libm cos and sin, against N for a direct table; on
    targets without such structure (non-dyadic, unsorted, repeated) the
    split still holds exactly, only with more distinct rows.  The angles
    are rounded twice instead of once, so an entry is within a few eps
    (1 + |t_i f_k|) of the exact cos and sin.
    """
    t = np.asarray(targets, dtype=float)
    f = np.asarray(freqs, dtype=float)
    if t.size == 0:
        return
    unit = _split_unit(t)
    m = np.round(t / unit)
    coarse, row_coarse = distinct_rows(m)
    fine, row_fine = distinct_rows(t - m * unit)
    fine_phase = _unit_phases(np.outer(fine, f))
    for c, phase in enumerate(_unit_phases(np.outer(coarse * unit, f))):
        rows = np.flatnonzero(row_coarse == c)
        product = fine_phase[row_fine[rows]]
        product *= phase
        cos[rows], sin[rows] = product.real, product.imag
