"""Dispersive space-time norms and bilinear-estimate ratio monitors.

The norms weight the two-dimensional spectrum by powers of <xi> = 1 + |xi|
and of the modulation <tau + xi^5> = 1 + |tau + xi^5|; the modulation
vanishes exactly on the characteristic surface tau = -xi^5 traced out by
solutions of u_t + d^5u/dx^5 = 0 under this package's transform convention.

All functionals are plain weighted Parseval sums on the periodic box, so a
single on-grid mode of amplitude A carries the box factor sqrt(Lx*Lt) in its
norm.  Ratio monitors divide one such norm by a product of two, so they are
grid-stable under refinement at a fixed box but are empirical constants, not
certified operator norms.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .cutoffs import auxiliary_violations, gain_violations
from .grids import SpaceTimeField, UniformGrid
from .spectral import band_mask, spectrum_matrix, values_from_spectrum_matrix

__all__ = [
    "xsb_norm",
    "xsba_norm",
    "bilinear_ratio",
    "seeded_band_limited_field",
]


def _weight_at(xi: np.ndarray, tau: np.ndarray, s: float, b: float) -> np.ndarray:
    """The X^{s,b} weight <xi>^s <tau+xi^5>^b at the broadcast frequencies."""
    return (1.0 + np.abs(xi)) ** s * (1.0 + np.abs(tau + xi**5)) ** b


def _xsb_weight(xgrid: UniformGrid, tgrid: UniformGrid, s: float, b: float) -> np.ndarray:
    """The X^{s,b} weight on every (xi, tau) of an fft2, shape (X, T), read-only."""
    weight = _weight_at(xgrid.frequencies[:, None], tgrid.frequencies[None, :], s, b)
    weight.flags.writeable = False
    return weight


# `xsb_norm`'s weight, built once per (grids, s, b): `bilinear_ratio` measures
# both factors at one (s, b) and the numerator at a second.
_cached_xsb_weight = lru_cache(maxsize=2, typed=True)(_xsb_weight)


def xsb_norm(u: SpaceTimeField, s: float, b: float) -> float:
    """sqrt( sum <xi>^{2s} <tau+xi^5>^{2b} |u_hat|^2 dxi dtau ).

    At (s, b) = (0, 0) this is the space-time L^2 norm (Parseval).
    """
    weight = _cached_xsb_weight(u.xgrid, u.tgrid, s, b)
    measure = u.xgrid.freq_step * u.tgrid.freq_step
    return float(np.sqrt(np.sum((weight * np.abs(spectrum_matrix(u))) ** 2) * measure))


def xsba_norm(
    values: np.ndarray, xgrid: UniformGrid, tgrid: UniformGrid, s: float, b: float, alpha: float
) -> float:
    """Norm of the real samples `values` on xgrid x tgrid, with the
    low-frequency time weight added for |xi| <= 1.

    The weight is <xi>^s <tau+xi^5>^b + chi_{[-1,1]}(xi) <tau>^alpha applied
    to the spectrum before the L^2 sum, so the result always dominates
    xsb_norm.  The samples are read where they lie, with no copy: the
    Picard loop measures its iterates and their differences as they are.
    Their spectrum is one rfft2 over the columns tau >= 0, summed against
    the folded squared weight in the transposed layout, so that the spectrum
    of a column-major iterate is summed in place and a row-major one pays
    one copy.  A non-finite sample makes the norm non-finite, which raises
    ValueError, as does a sum that overflows.
    """
    if np.iscomplexobj(values):
        raise ValueError("xsba_norm takes a real field")
    if values.shape != (xgrid.count, tgrid.count):
        raise ValueError(
            f"values shape {values.shape} does not match grid shape {(xgrid.count, tgrid.count)}"
        )
    spec = np.fft.rfft2(values)
    power = spec.real**2 + spec.imag**2
    scale = xgrid.step * tgrid.step / (2.0 * np.pi)
    total = np.vdot(_folded_xsba_weight(xgrid, tgrid, s, b, alpha).T, power.T)
    norm = float(scale * np.sqrt(total * xgrid.freq_step * tgrid.freq_step))
    if not np.isfinite(norm):
        raise ValueError(
            f"the X^{{s,b,alpha}} norm is {norm}: the values hold non-finite entries "
            "or overflow the sum"
        )
    return norm


@lru_cache(maxsize=2, typed=True)
def _folded_xsba_weight(
    xgrid: UniformGrid, tgrid: UniformGrid, s: float, b: float, alpha: float
) -> np.ndarray:
    """w^2(xi, tau) + w^2(-xi, -tau) for the weight w of `xsba_norm` on the
    columns tau >= 0 of an rfft2, shape (X, T // 2 + 1), column-major as the
    spectrum of a solver iterate is, built once per (grids, indices); a
    fixed-point solve measures every iterate with it.

    A real field's spectrum takes the same modulus at (xi, tau) and at
    (-xi, -tau), the index pair (k, m) and (-k mod X, -m mod T), so each kept
    column stands for its missing mirror, except the columns tau = 0 and, for
    an even T, the Nyquist column, which are their own mirrors and keep w^2.
    Both terms are evaluated on the kept columns only, the mirror at the
    grids' own frequencies of (-k mod X, -m mod T), which keeps the Nyquist
    row's -X/2 exact.  Each is built transposed, (T // 2 + 1, X) row-major,
    so the column-major result needs no copy.
    """
    xi, tau = xgrid.frequencies, tgrid.frequencies
    k, m = np.arange(xgrid.count), np.arange(tgrid.count // 2 + 1)

    def square(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        x, t = xi[None, rows], tau[cols, None]
        return (_weight_at(x, t, s, b) + (np.abs(x) <= 1.0) * (1.0 + np.abs(t)) ** alpha) ** 2

    self_paired = (m == 0) | (2 * m == tgrid.count)
    folded = square(k, m)
    folded += np.where(self_paired[:, None], 0.0, square(-k % xgrid.count, -m % tgrid.count))
    folded = folded.T
    folded.flags.writeable = False
    return folded


def bilinear_ratio(
    v: SpaceTimeField,
    w: SpaceTimeField,
    s: float,
    b: float,
    a: float = 0.0,
    mode: str = "gain",
) -> float:
    """Ratio ||d_x(vw)||_numerator / (||v||_{X^{s,b}} ||w||_{X^{s,b}}).

    mode="gain":      numerator norm X^{s+a, -b}, indices in the window of
                      `cutoffs.gain_violations`.
    mode="auxiliary": numerator norm X^{1/2, (2(s+a)-1-10b)/10}, indices in
                      the window of `cutoffs.auxiliary_violations`.
    Both need s >= 0 and a >= 0.

    The product is formed pointwise in physical space and differentiated
    spectrally under the standard band cap.  Invariant under independent
    rescaling of v and w.
    """
    if s < 0:
        raise ValueError(f"regularity s must be >= 0, got {s}")
    if a < 0:
        raise ValueError(f"gain index a must be >= 0, got {a}")
    if mode == "gain":
        violations = gain_violations(s, b, a)
        label = "derivative-gain bilinear estimate"
    elif mode == "auxiliary":
        violations = auxiliary_violations(s, b, a)
        label = "auxiliary bilinear estimate"
    else:
        raise ValueError(f"mode must be 'gain' or 'auxiliary', got {mode!r}")
    if violations:
        raise ValueError(f"inadmissible indices for the {label}: violated " + "; ".join(violations))
    if v.xgrid != w.xgrid or v.tgrid != w.tgrid:
        raise ValueError("bilinear ratio arguments must share grids")
    denom = xsb_norm(v, s, b) * xsb_norm(w, s, b)
    if denom == 0.0:
        raise ValueError("bilinear ratio undefined for zero factors")
    product = SpaceTimeField(v.xgrid, v.tgrid, v.values * w.values)
    mult = 1j * v.xgrid.frequencies[:, None] * band_mask(v.xgrid)[:, None]
    deriv = values_from_spectrum_matrix(mult * spectrum_matrix(product), v.xgrid, v.tgrid)
    if mode == "gain":
        numer = xsb_norm(deriv, s + a, -b)
    else:
        numer = xsb_norm(deriv, 0.5, (2.0 * (s + a) - 1.0 - 10.0 * b) / 10.0)
    return numer / denom


def seeded_band_limited_field(
    xgrid: UniformGrid,
    tgrid: UniformGrid,
    band_x: float,
    band_t: float,
    seed: int,
) -> SpaceTimeField:
    """Random band-limited field reproducible across grid refinements.

    Coefficients are drawn on the fixed frequency lattice determined by the
    box lengths (spacing 2*pi/L), restricted to |xi| <= band_x, |tau| <=
    band_t, in an order independent of the grid resolution.  Refining a grid
    at a fixed box therefore reproduces the same continuum field exactly.
    """
    rng = np.random.default_rng(seed)
    kx_max = int(np.floor(band_x / xgrid.freq_step))
    kt_max = int(np.floor(band_t / tgrid.freq_step))
    if 2 * kx_max + 1 > xgrid.count or 2 * kt_max + 1 > tgrid.count:
        raise ValueError("band exceeds the grid's resolvable lattice")
    envelope_x = np.exp(-0.5 * (np.arange(-kx_max, kx_max + 1) / max(kx_max, 1)) ** 2)
    envelope_t = np.exp(-0.5 * (np.arange(-kt_max, kt_max + 1) / max(kt_max, 1)) ** 2)
    draws = rng.standard_normal((2 * kx_max + 1, 2 * kt_max + 1, 2))
    block = (draws[..., 0] + 1j * draws[..., 1]) * envelope_x[:, None] * envelope_t[None, :]
    spec = np.zeros((xgrid.count, tgrid.count), dtype=np.complex128)
    rows = np.arange(-kx_max, kx_max + 1) % xgrid.count
    cols = np.arange(-kt_max, kt_max + 1) % tgrid.count
    spec[np.ix_(rows, cols)] = block
    values = values_from_spectrum_matrix(spec, xgrid, tgrid).values
    peak = float(np.max(np.abs(values)))
    if peak > 0:
        values = values / peak
    return SpaceTimeField(xgrid, tgrid, values)
