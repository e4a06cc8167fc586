"""Whole-line group of the linearized equation and its Duhamel integral.

The group is the Fourier multiplier exp(-i*t*xi^5).  Because xi^5 makes any
explicit time-stepping of the multiplier hopeless, every time integral is done
mode-wise on the integrand exp(-i*(t-t')*xi^5) * F_hat(xi,t') with the phase
evaluated analytically; only the smooth F_hat is interpolated (cubic spline)
and integrated (composite Gauss-Legendre, one panel per time step).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.interpolate import CubicSpline

from .cutoffs import eta
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .spectral import (
    SpectrumFunction,
    band_mask,
    forward_transform,
    fractional_time_norm,
    inverse_transform,
    sobolev_norm,
)

__all__ = [
    "PropagatorPlan",
    "apply_group",
    "free_field",
    "duhamel",
    "duhamel_trajectory",
    "trace_at_origin",
    "kato_smoothing_ratio",
]


@dataclass(frozen=True)
class PropagatorPlan:
    """Precomputed frequency powers for one spatial grid."""

    xgrid: UniformGrid
    cap_fraction: float = 0.75

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
        return band_mask(self.xgrid, self.cap_fraction)


def apply_group(g: GridFunction, t: float, plan: PropagatorPlan | None = None) -> GridFunction:
    """Exact free evolution: multiply the spectrum by exp(-i*t*xi^5).

    The multiplier has unit modulus on every mode, so t = 0 is the identity
    and every H^s norm is preserved to rounding.
    """
    plan = plan or PropagatorPlan(g.grid)
    spec = forward_transform(g)
    evolved = spec.coefficients * np.exp(-1j * t * plan.xi5)
    return inverse_transform(SpectrumFunction(g.grid, evolved), type(g))


def free_field(g: GridFunction, tgrid: UniformGrid, plan: PropagatorPlan | None = None) -> SpaceTimeField:
    """W(t_n) g for every node of tgrid, as one space-time field."""
    plan = plan or PropagatorPlan(g.grid)
    ghat = forward_transform(g).coefficients
    phases = np.exp(-1j * np.outer(plan.xi5, tgrid.nodes))
    spec_t = phases * ghat[:, None]
    phase_x = np.exp(1j * plan.xi * g.grid.origin)[:, None]
    vals = (np.sqrt(2.0 * np.pi) / g.grid.step) * np.fft.ifft(spec_t * phase_x, axis=0)
    return SpaceTimeField(g.grid, tgrid, vals)


def _field_spectrum_x(F: SpaceTimeField) -> np.ndarray:
    """Spectrum along x of every time slice, shape (count_x, count_t)."""
    grid = F.xgrid
    phase = np.exp(-1j * grid.frequencies * grid.origin)[:, None]
    return (grid.step / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(F.values, axis=0)


def _values_from_spectrum_x(spec_t: np.ndarray, xgrid: UniformGrid) -> np.ndarray:
    phase = np.exp(1j * xgrid.frequencies * xgrid.origin)[:, None]
    return (np.sqrt(2.0 * np.pi) / xgrid.step) * np.fft.ifft(spec_t * phase, axis=0)


_GL_CACHE: dict = {}


def _gl_nodes(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def _panel_sum(spline, xi5, a: float, b: float, target: float, nodes_per_panel: int):
    """Gauss-Legendre integral of exp(-i*(target-t')*xi5) * F_hat over [a,b]."""
    x, w = _gl_nodes(nodes_per_panel)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    tq = mid + half * x
    fq = spline(tq)  # (nodes, count_x)
    phases = np.exp(-1j * np.outer(target - tq, xi5))
    return half * np.einsum("q,qk,qk->k", w, phases, fq)


def duhamel(
    F: SpaceTimeField,
    t: float,
    plan: PropagatorPlan | None = None,
    nodes_per_panel: int = 4,
) -> GridFunction:
    """integral_0^t of W(t-t') F(t') dt', evaluated mode-wise.

    t must lie inside F's time grid and be >= 0.  Modes above the band cap are
    dropped before the xi^5 phase is applied.
    """
    plan = plan or PropagatorPlan(F.xgrid)
    if t < 0 or not F.tgrid.contains_time(t):
        raise ValueError(f"duhamel time {t} outside [0, grid range]")
    spec_t = _field_spectrum_x(F)
    spec_t[~plan.cap_mask, :] = 0.0
    spline = CubicSpline(F.tgrid.nodes, spec_t.T, axis=0)
    edges = [0.0]
    interior = F.tgrid.nodes[(F.tgrid.nodes > 0.0) & (F.tgrid.nodes < t)]
    edges.extend(float(v) for v in interior)
    edges.append(float(t))
    acc = np.zeros(F.xgrid.count, dtype=np.complex128)
    for a, b in zip(edges[:-1], edges[1:]):
        acc += _panel_sum(spline, plan.xi5, a, b, t, nodes_per_panel)
    vals = inverse_transform(SpectrumFunction(F.xgrid, acc))
    return vals


def duhamel_trajectory(
    F: SpaceTimeField,
    plan: PropagatorPlan | None = None,
    nodes_per_panel: int = 4,
    t_window: tuple | None = None,
) -> SpaceTimeField:
    """Duhamel integral at every time node, by phase-exact panel recursion.

    Matches `duhamel` at the shared nodes to rounding; cost is one panel per
    step instead of a fresh composite sum per target.  `t_window` restricts
    the computed range (values outside are zero), which callers use when a
    time cutoff will kill those samples anyway.
    """
    plan = plan or PropagatorPlan(F.xgrid)
    tg = F.tgrid
    n0 = tg.index_of(0.0)
    spec_t = _field_spectrum_x(F)
    spec_t[~plan.cap_mask, :] = 0.0
    spline = CubicSpline(tg.nodes, spec_t.T, axis=0)
    lo, hi = 0, tg.count - 1
    if t_window is not None:
        nodes = tg.nodes
        inside = np.where((nodes >= t_window[0]) & (nodes <= t_window[1]))[0]
        if len(inside):
            lo, hi = int(inside[0]), int(inside[-1])
        else:
            lo = hi = n0
    lo = min(lo, n0)
    hi = max(hi, n0)
    dt = tg.step
    step_phase = np.exp(-1j * dt * plan.xi5)
    out = np.zeros((F.xgrid.count, tg.count), dtype=np.complex128)
    acc = np.zeros(F.xgrid.count, dtype=np.complex128)
    for n in range(n0, hi):
        a, b = tg.nodes[n], tg.nodes[n + 1]
        acc = step_phase * acc + _panel_sum(spline, plan.xi5, a, b, b, nodes_per_panel)
        out[:, n + 1] = acc
    acc = np.zeros(F.xgrid.count, dtype=np.complex128)
    for n in range(n0 - 1, lo - 1, -1):
        a, b = tg.nodes[n], tg.nodes[n + 1]
        acc = np.conj(step_phase) * acc - _panel_sum(spline, plan.xi5, a, b, a, nodes_per_panel)
        out[:, n] = acc
    vals = _values_from_spectrum_x(out, F.xgrid)
    return SpaceTimeField(F.xgrid, tg, vals)


def trace_at_origin(
    source,
    j: int,
    tgrid: UniformGrid,
    plan: PropagatorPlan | None = None,
) -> TimeSeries:
    """eta(t) * d^j/dx^j [field](0, t) by exact spectral summation at x = 0.

    `source` is either a GridFunction (traced along its free evolution) or a
    SpaceTimeField on `tgrid` (traced as-is).  The derivative multiplier
    (i*xi)^j is applied with the band cap.
    """
    if j not in (0, 1, 2):
        raise ValueError(f"trace order j must be 0, 1, or 2, got {j}")
    if isinstance(source, SpaceTimeField):
        if source.tgrid != tgrid:
            raise ValueError("source field lives on a different time grid")
        plan = plan or PropagatorPlan(source.xgrid)
        spec_t = _field_spectrum_x(source)
        mult = np.where(plan.cap_mask, (1j * plan.xi) ** j, 0.0)
        sums = mult @ spec_t
    elif isinstance(source, GridFunction):
        plan = plan or PropagatorPlan(source.grid)
        ghat = forward_transform(source).coefficients
        mult = np.where(plan.cap_mask, (1j * plan.xi) ** j, 0.0)
        phases = np.exp(-1j * np.outer(tgrid.nodes, plan.xi5))
        sums = phases @ (mult * ghat)
    else:
        raise TypeError(f"unsupported trace source: {type(source)}")
    scale = plan.xgrid.freq_step / np.sqrt(2.0 * np.pi)
    vals = eta(tgrid.nodes) * scale * sums
    return TimeSeries(tgrid, vals)


def kato_smoothing_ratio(
    g: GridFunction,
    s: float,
    j: int,
    tgrid: UniformGrid,
    plan: PropagatorPlan | None = None,
) -> float:
    """Trace-gain diagnostic: time-Sobolev norm of the cut-off origin trace of
    the free evolution, over the H^s norm of the datum."""
    denom = sobolev_norm(g, s)
    if denom == 0.0:
        raise ValueError("smoothing ratio undefined for zero datum")
    trace = trace_at_origin(g, j, tgrid, plan)
    return fractional_time_norm(trace, (s + 2.0 - j) / 5.0) / denom
