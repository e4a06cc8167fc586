"""Whole-line group of the linearized equation and its Duhamel integral.

The group is the Fourier multiplier exp(-i*t*xi^5).  Because xi^5 makes any
explicit time-stepping of the multiplier hopeless, every time integral is done
mode-wise on the integrand exp(-i*(t-t')*xi^5) * F_hat(xi,t') with the phase
evaluated analytically; only the smooth F_hat is interpolated and integrated
(4-node Gauss-Legendre, one panel per time step).  The interpolant is the
not-a-knot cubic spline in t, held as its node values and the slopes that
the private `_not_a_knot_slopes` solves for (one tridiagonal sweep on the
uniform grid, vectorised over the modes).
Every field here is real, so it is held as its half x-spectrum, the rows
xi >= 0 that `x_half_spectrum` gives.  `duhamel_trajectory` takes the
band-capped rows of a real forcing's half spectrum and gives the same rows
of the integral at every time node in one sweep per time direction; on the
uniform time grid every panel's Gauss sum is its end values and slopes
times one fixed (4, K) Hermite phase table per direction.
`PropagatorPlan.free_spectrum` gives the half spectrum of a datum's free
evolution (no phase table outlives the call), `free_field` and
`kato_smoothing_ratio` read the field and the trace gains off one such
spectrum, and `trace_at_origin` reads the real x = 0 traces off any half
spectrum.  The datum g is real (the grid types hold real samples only), and
so are `apply_group` and `free_field`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cutoffs import eta
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .spectral import band_mask, half_multiplicity, phase_table, sobolev_norm, x_half_spectrum, x_half_values

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
    """Precomputed frequency powers and trace multipliers for one spatial grid."""

    xgrid: UniformGrid

    @property
    def xi(self) -> np.ndarray:
        """Frequencies of the half-spectrum rows 0 ... X // 2."""
        return self.xgrid.frequencies[: self.xgrid.count // 2 + 1]

    # Computed once per plan; cached_property writes the instance dict
    # directly, so it works on the frozen dataclass.
    @cached_property
    def xi5(self) -> np.ndarray:
        return self.xi**5

    @cached_property
    def band_rows(self) -> int:
        """K, the number of leading half-spectrum rows inside the band cap:
        the modes 0 <= xi < BAND_CAP * nyquist."""
        return int(np.count_nonzero(band_mask(self.xgrid)[: len(self.xi)]))

    @cached_property
    def trace_multipliers(self) -> np.ndarray:
        """c (i xi)^j on the band-capped rows for the trace orders j = 0, 1, 2,
        shape (3, K), with c the rows' `half_multiplicity`."""
        k = self.band_rows
        return half_multiplicity(self.xgrid)[:k] * (1j * self.xi[:k]) ** np.arange(3)[:, None]

    def free_spectrum(self, values: np.ndarray, tgrid: UniformGrid) -> np.ndarray:
        """Half x-spectrum e^{-i t_n xi^5} g_hat of W(t_n) g for the real
        samples `values` of g on the plan's grid, shape (X // 2 + 1, T): a
        (T, X // 2 + 1) complex table, its real and imaginary parts written
        by `phase_table` from exact angle sums, scaled by g_hat in place and
        transposed.  Nothing is cached: a caller that reads the spectrum
        twice holds it."""
        table = np.empty((tgrid.count, len(self.xi5)), dtype=np.complex128)
        phase_table(-tgrid.nodes, self.xi5, table.real, table.imag)
        table *= x_half_spectrum(values, self.xgrid)
        return table.T


def apply_group(g: GridFunction, t: float, plan: PropagatorPlan) -> GridFunction:
    """Exact free evolution: multiply the spectrum by exp(-i*t*xi^5).

    The multiplier has unit modulus on every mode, so t = 0 is the identity
    and every H^s norm is preserved to rounding.
    """
    evolved = x_half_spectrum(g.values, g.grid) * np.exp(-1j * t * plan.xi5)
    return type(g)(g.grid, x_half_values(evolved, g.grid))


def free_field(spec: np.ndarray, tgrid: UniformGrid, plan: PropagatorPlan) -> SpaceTimeField:
    """W(t_n) g for every node of tgrid, as one space-time field, from the
    free spectrum `spec` of g that `PropagatorPlan.free_spectrum` gives."""
    return SpaceTimeField(plan.xgrid, tgrid, x_half_values(spec, plan.xgrid))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(4)


def _panel_table(dt: float, xi5: np.ndarray, forward: bool) -> np.ndarray:
    """G_j = +/-(dt/2) sum_k w_k H_j(theta_k) e^{-i lag_k xi5}, shape (4, K).

    On a panel [t_n, t_n + dt] a cubic spline is the Hermite interpolant
    of (y_n, s_n, y_{n+1}, s_{n+1}), its node values and slopes, with the
    basis H_j below at theta = (t - t_n)/dt (the slope members carry dt),
    so its phase-weighted Gauss-Legendre panel sum is sum_j G_j times that
    member.  theta_k = (1 + x_k)/2 for the Gauss-Legendre nodes x_k, and
    d_k = dt theta_k are their offsets from the left end.  The forward
    sweep targets the right end (lag_k = dt - d_k); the backward sweep
    targets the left end (lag_k = -d_k) and subtracts, hence the sign.
    """
    theta = 0.5 * (1.0 + _GL_NODES)
    lags = dt - dt * theta if forward else -dt * theta
    basis = np.array([(1.0 + 2.0 * theta) * (1.0 - theta) ** 2, dt * theta * (1.0 - theta) ** 2,
                      theta**2 * (3.0 - 2.0 * theta), dt * theta**2 * (theta - 1.0)])
    table = ((0.5 * dt) * _GL_WEIGHTS * basis) @ np.exp(-1j * np.outer(lags, xi5))
    return table if forward else -table


def _not_a_knot_slopes(y: np.ndarray, h: float) -> np.ndarray:
    """Node slopes, shape (n, K), of the not-a-knot cubic spline through the
    n rows of y (shape (n, K)) on a uniform grid of step h.

    The slopes s solve the tridiagonal system with interior rows
    s_{i-1} + 4 s_i + s_{i+1} = 3 (d_{i-1} + d_i), d_i = (y_{i+1} - y_i)/h,
    and the not-a-knot end rows (third derivative continuous at t_1 and
    t_{n-2}) s_0 + 2 s_1 = (5 d_0 + d_1)/2 and 2 s_{n-2} + s_{n-1} =
    (d_{n-3} + 5 d_{n-2})/2; one Thomas sweep solves it for all K columns.
    Below 4 nodes the two end conditions coincide, so n < 4 is refused.
    """
    n = len(y)
    if n < 4:
        raise ValueError(f"a not-a-knot spline needs at least 4 nodes, got {n}")
    slope = np.diff(y, axis=0) / h
    s = np.empty(y.shape, dtype=np.result_type(y, float))
    s[0] = 0.5 * (5.0 * slope[0] + slope[1])
    s[1:-1] = 3.0 * (slope[:-1] + slope[1:])
    s[-1] = 0.5 * (slope[-2] + 5.0 * slope[-1])
    # Forward elimination leaves row i < n - 1 as s_i + upper[i] s_{i+1} = s[i].
    upper = [2.0]
    for i in range(1, n - 1):
        pivot = 4.0 - upper[-1]
        s[i] -= s[i - 1]
        s[i] /= pivot
        upper.append(1.0 / pivot)
    s[-1] -= 2.0 * s[-2]
    s[-1] /= 1.0 - 2.0 * upper[-1]
    for i in range(n - 2, -1, -1):
        s[i] -= upper[i] * s[i + 1]
    return s


def _sweep(y: np.ndarray, s: np.ndarray, table: np.ndarray, step_phase: np.ndarray) -> np.ndarray:
    """Phase-exact recursion acc <- step_phase acc + p_n over the panels
    between the node values y and slopes s (shape (panels + 1, K), in sweep
    order), with p_n = G_0 y_n + G_1 s_n + G_2 y_{n+1} + G_3 s_{n+1} for
    the rows G_j of `table`.  Returns acc after each panel, shape
    (panels, K)."""
    sums = table[0] * y[:-1] + table[1] * s[:-1] + table[2] * y[1:] + table[3] * s[1:]
    acc = np.zeros(y.shape[1], dtype=np.complex128)
    for n, p_n in enumerate(sums):
        acc *= step_phase
        acc += p_n
        sums[n] = acc
    return sums


def duhamel_trajectory(
    F: np.ndarray, tgrid: UniformGrid, plan: PropagatorPlan, t_window: tuple
) -> np.ndarray:
    """Band-capped half x-spectrum of integral_0^t W(t-t') F(t') dt' at every
    time node, shape (K, T) for the plan's K = `band_rows`, computed
    mode-wise; `x_half_values` turns it into the real field.

    F is a half x-spectrum of a real forcing on `plan`'s space grid and on
    `tgrid`, as `nonlinearity_FT` returns it; only its first K rows are read,
    fitted and swept, so the modes beyond the band cap are zero.
    Panel n spans [t_n, t_{n+1}] and is summed towards its end farther from
    t = 0.
    Only the columns of the nodes in `t_window` (`UniformGrid.window`),
    which must hold t = 0, are computed (the others are zero), as a time
    cutoff kills the samples outside it anyway.
    """
    n0 = tgrid.index_of(0.0)
    k = plan.band_rows
    xi5 = plan.xi5[:k]
    y = F[:k].T
    s = _not_a_knot_slopes(y, tgrid.step)
    inside = tgrid.window(*t_window)
    lo, hi = min(inside.start, n0), max(inside.stop - 1, n0)
    dt = tgrid.step
    step_phase = np.exp(-1j * dt * xi5)
    rows = np.zeros((tgrid.count, k), dtype=np.complex128)
    forward = _panel_table(dt, xi5, True)
    rows[n0 + 1 : hi + 1] = _sweep(y[n0 : hi + 1], s[n0 : hi + 1], forward, step_phase)
    # Read from n0 down to lo, a panel's right end comes first: swap the pairs.
    backward = _panel_table(dt, xi5, False)[[2, 3, 0, 1]]
    rows[lo:n0] = _sweep(y[lo : n0 + 1][::-1], s[lo : n0 + 1][::-1], backward, np.conj(step_phase))[::-1]
    return rows.T


def trace_at_origin(spec: np.ndarray, tgrid: UniformGrid, plan: PropagatorPlan) -> np.ndarray:
    """eta(t) * d^j/dx^j [field](0, t) for j = 0, 1, 2 by exact spectral
    summation at x = 0, as a real (3, T) array.

    `spec` is a half x-spectrum of a real field on `plan`'s space grid and
    on `tgrid`, as `duhamel_trajectory` or `PropagatorPlan.free_spectrum`
    returns it, with between K = `band_rows` and X // 2 + 1 rows.  Its first
    K rows are summed with the band-capped derivative multipliers, all three
    orders in one product; each row xi > 0 counts for its conjugate too.
    """
    k, rows = plan.band_rows, plan.xgrid.count // 2 + 1
    if not (k <= spec.shape[0] <= rows and spec.shape[1:] == (tgrid.count,)):
        raise ValueError(
            f"spectrum of shape {spec.shape} does not match the space and time "
            f"grids: {k} to {rows} half-spectrum rows of {tgrid.count} columns"
        )
    scale = plan.xgrid.freq_step / np.sqrt(2.0 * np.pi)
    return eta(tgrid.nodes) * scale * (plan.trace_multipliers @ spec[:k]).real


def kato_smoothing_ratio(
    g: GridFunction, s: float, spec: np.ndarray, tgrid: UniformGrid, plan: PropagatorPlan
) -> tuple:
    """Trace-gain diagnostics (r0, r1, r2): the time-Sobolev norm of order
    (s + 2 - j)/5 of the cut-off origin trace of order j of the free
    evolution, over the H^s norm of the datum.  The traces are read off
    `spec`, g's free spectrum on tgrid as `PropagatorPlan.free_spectrum`
    gives it."""
    denom = sobolev_norm(g, s)
    if denom == 0.0:
        raise ValueError("smoothing ratio undefined for zero datum")
    traces = trace_at_origin(spec, tgrid, plan)
    return tuple(
        sobolev_norm(TimeSeries(tgrid, trace), (s + 2.0 - j) / 5.0) / denom
        for j, trace in enumerate(traces)
    )
