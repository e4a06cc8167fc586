"""Whole-line group of the linearized equation and its Duhamel integral.

The group is the Fourier multiplier exp(-i*t*xi^5).  Because xi^5 makes any
explicit time-stepping of the multiplier hopeless, every time integral is done
mode-wise on the integrand exp(-i*(t-t')*xi^5) * F_hat(xi,t') with the phase
evaluated analytically; only the smooth F_hat is interpolated (cubic spline)
and integrated (4-node Gauss-Legendre, one panel per time step).
`duhamel_trajectory` gives the x-spectrum of the integral at every time node
in one sweep per time direction.  It integrates the real part of its forcing,
as the real problem requires: it fits and sweeps only the band-capped
xi >= 0 modes and fills xi < 0 by conjugation, and on the uniform time grid
every panel's Gauss sum is the spline's power coefficients times one fixed
(4, K) phase table per direction.  `trace_at_origin` reads the x = 0 traces
off that spectrum, or off a datum's free evolution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .cutoffs import eta
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .spectral import band_mask, sobolev_norm, x_spectrum, x_values

__all__ = [
    "PropagatorPlan",
    "apply_group",
    "free_field",
    "duhamel_trajectory",
    "trace_at_origin",
    "kato_smoothing_ratio",
]


@dataclass(frozen=True)
class PropagatorPlan:
    """Precomputed frequency powers and free-evolution phases for one spatial grid."""

    xgrid: UniformGrid

    @property
    def xi(self) -> np.ndarray:
        return self.xgrid.frequencies

    # Computed once per plan; cached_property writes the instance dict
    # directly, so it works on the frozen dataclass.
    @cached_property
    def xi5(self) -> np.ndarray:
        return self.xi**5

    @cached_property
    def cap_mask(self) -> np.ndarray:
        return band_mask(self.xgrid)

    @cached_property
    def trace_multipliers(self) -> np.ndarray:
        """Band-capped (i xi)^j for the trace orders j = 0, 1, 2, shape (3, X)."""
        return np.where(self.cap_mask, (1j * self.xi) ** np.arange(3)[:, None], 0.0)

    def free_phases(self, tgrid: UniformGrid) -> np.ndarray:
        """e^{-i t_n xi^5}, shape (T, X); built once per time grid (the plan
        keeps the table of the last grid asked for)."""
        cached = self.__dict__.get("_free_phases")
        if cached is None or cached[0] != tgrid:
            cached = (tgrid, np.exp(-1j * np.outer(tgrid.nodes, self.xi5)))
            cached[1].flags.writeable = False
            self.__dict__["_free_phases"] = cached
        return cached[1]

    def release_free_phases(self) -> None:
        """Drop the cached `free_phases` table (it is rebuilt on demand)."""
        self.__dict__.pop("_free_phases", None)


def apply_group(g: GridFunction, t: float, plan: PropagatorPlan | None = None) -> GridFunction:
    """Exact free evolution: multiply the spectrum by exp(-i*t*xi^5).

    The multiplier has unit modulus on every mode, so t = 0 is the identity
    and every H^s norm is preserved to rounding.
    """
    plan = plan or PropagatorPlan(g.grid)
    evolved = x_spectrum(g.values, g.grid) * np.exp(-1j * t * plan.xi5)
    return type(g)(g.grid, x_values(evolved, g.grid))


def free_field(g: GridFunction, tgrid: UniformGrid, plan: PropagatorPlan | None = None) -> SpaceTimeField:
    """W(t_n) g for every node of tgrid, as one space-time field."""
    plan = plan or PropagatorPlan(g.grid)
    ghat = x_spectrum(g.values, g.grid)
    phases = plan.free_phases(tgrid).T
    return SpaceTimeField(g.grid, tgrid, x_values(phases * ghat[:, None], g.grid))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _panel_table(dt: float, xi5: np.ndarray, forward: bool) -> np.ndarray:
    """G_p = +/-(dt/2) sum_k w_k d_k^(3-p) e^{-i lag_k xi5}, shape (4, K).

    d_k = (dt/2)(1 + x_k) are the Gauss-Legendre node offsets from a panel's
    left end, and a cubic with power coefficients c[p] on the panel (as in
    `CubicSpline.c`) has the phase-weighted panel sum sum_p c[p] G_p.  The
    forward sweep targets the right end (lag_k = dt - d_k); the backward
    sweep targets the left end (lag_k = -d_k) and subtracts, hence the sign.
    """
    offsets = 0.5 * dt * (1.0 + _GL_NODES)
    lags = dt - offsets if forward else -offsets
    weighted = (0.5 * dt) * _GL_WEIGHTS[None, :] * offsets[None, :] ** np.arange(3, -1, -1)[:, None]
    table = weighted @ np.exp(-1j * np.outer(lags, xi5))
    return table if forward else -table


def _sweep(coef: np.ndarray, table: np.ndarray, step_phase: np.ndarray) -> np.ndarray:
    """Phase-exact recursion acc <- step_phase acc + p_n over the panels of
    `coef` (power coefficients, shape (4, panels, K), in sweep order), with
    p_n = sum_p coef[p, n] table[p].  Returns acc after each panel, shape
    (panels, K)."""
    sums = np.einsum("pnk,pk->nk", coef, table)
    acc = np.zeros(coef.shape[2], dtype=np.complex128)
    for n, p_n in enumerate(sums):
        acc *= step_phase
        acc += p_n
        sums[n] = acc
    return sums


def duhamel_trajectory(
    F: np.ndarray,
    tgrid: UniformGrid,
    plan: PropagatorPlan,
    t_window: tuple | None = None,
) -> np.ndarray:
    """x-spectrum of integral_0^t W(t-t') Re F(t') dt' at every time node,
    shape (X, T), computed mode-wise; `x_values` turns it into the field.

    F holds the (X, T) forcing samples on `plan`'s space grid and on `tgrid`.
    Only Re F enters (the forcing of the real problem is real, and `F.real`
    is F itself for a float64 array), so only the band-capped modes xi >= 0
    are fitted and swept, xi < 0 is filled by conjugation, and the field is
    real to rounding.  Modes beyond the band cap are zero.  Panel n spans
    [t_n, t_{n+1}] and is summed towards its end farther from t = 0.
    `t_window` restricts the computed range (columns outside are zero),
    which callers use when a time cutoff will kill those samples anyway.
    """
    n0 = tgrid.index_of(0.0)
    xi = plan.xi
    pos = np.flatnonzero(plan.cap_mask & (xi >= 0.0))
    mirrored = np.flatnonzero(xi[pos] > 0.0)
    xi5 = plan.xi5[pos]
    spec_t = x_spectrum(F.real, plan.xgrid)[pos]
    coef = CubicSpline(tgrid.nodes, spec_t.T, axis=0).c
    lo, hi = 0, tgrid.count - 1
    if t_window is not None:
        nodes = tgrid.nodes
        inside = np.where((nodes >= t_window[0]) & (nodes <= t_window[1]))[0]
        if len(inside):
            lo, hi = int(inside[0]), int(inside[-1])
        else:
            lo = hi = n0
    lo = min(lo, n0)
    hi = max(hi, n0)
    dt = tgrid.step
    step_phase = np.exp(-1j * dt * xi5)
    rows = np.zeros((tgrid.count, len(pos)), dtype=np.complex128)
    rows[n0 + 1 : hi + 1] = _sweep(coef[:, n0:hi], _panel_table(dt, xi5, True), step_phase)
    rows[lo:n0] = _sweep(
        coef[:, lo:n0][:, ::-1], _panel_table(dt, xi5, False), np.conj(step_phase)
    )[::-1]
    spec = np.zeros((plan.xgrid.count, tgrid.count), dtype=np.complex128)
    spec[pos] = rows.T
    spec[plan.xgrid.count - pos[mirrored]] = np.conj(rows[:, mirrored].T)
    return spec


def trace_at_origin(
    source,
    tgrid: UniformGrid,
    plan: PropagatorPlan | None = None,
) -> np.ndarray:
    """eta(t) * d^j/dx^j [field](0, t) for j = 0, 1, 2 by exact spectral
    summation at x = 0, shape (3, T).

    `source` is either a GridFunction (traced along its free evolution) or
    the (X, T) x-spectrum of a field on `plan`'s space grid and on `tgrid`,
    as `duhamel_trajectory` returns it (traced as-is).  The derivative
    multipliers (i*xi)^j are applied with the band cap, all three orders in
    one product.
    """
    if isinstance(source, GridFunction):
        plan = plan or PropagatorPlan(source.grid)
        ghat = x_spectrum(source.values, source.grid)
        sums = (plan.free_phases(tgrid) @ (plan.trace_multipliers * ghat).T).T
    elif isinstance(source, np.ndarray):
        if plan is None:
            raise ValueError("a spectrum source needs the plan of its space grid")
        if source.shape != (plan.xgrid.count, tgrid.count):
            raise ValueError(
                f"source spectrum of shape {source.shape} does not match the space "
                f"and time grids ({plan.xgrid.count}, {tgrid.count})"
            )
        sums = plan.trace_multipliers @ source
    else:
        raise TypeError(f"unsupported trace source: {type(source)}")
    scale = plan.xgrid.freq_step / np.sqrt(2.0 * np.pi)
    return eta(tgrid.nodes) * scale * sums


def kato_smoothing_ratio(
    g: GridFunction,
    s: float,
    tgrid: UniformGrid,
    plan: PropagatorPlan | None = None,
) -> tuple:
    """Trace-gain diagnostics (r0, r1, r2): the time-Sobolev norm of order
    (s + 2 - j)/5 of the cut-off origin trace of order j of the free
    evolution, over the H^s norm of the datum."""
    denom = sobolev_norm(g, s)
    if denom == 0.0:
        raise ValueError("smoothing ratio undefined for zero datum")
    traces = trace_at_origin(g, tgrid, plan)
    return tuple(
        sobolev_norm(TimeSeries(tgrid, trace), (s + 2.0 - j) / 5.0) / denom
        for j, trace in enumerate(traces)
    )
