"""Independent oracles and claim checks for the half-line solver.

Nothing here shares numerics with the production path: the whole-line
reference solver is Lawson's integrating-factor RK4 scheme on the rfft
half-spectrum of a real datum, with its own transforms (manufactured
boundary data are read off its spectrum by one x = 0 row functional), the
interior residual uses finite differences in time, and the weak-form check
integrates the solution against an explicit family of separable test
functions.  Agreement between
these and the fixed-point output is the end-to-end evidence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.polynomial import Polynomial

from .boundary import AccuracyError
from .cutoffs import extend_initial_datum, right_bump, smoothing_window
from .fixed_point import SolveResult, SolverConfig, SolverData, picard_solve
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .propagator import apply_group
from .spectral import (
    BAND_CAP,
    band_mask,
    field_l2_norm,
    half_multiplicity,
    sobolev_norm,
    x_half_spectrum,
    x_half_values,
)

__all__ = [
    "HarnessError",
    "halfline_box",
    "whole_line_oracle",
    "manufactured_data",
    "oracle_distance",
    "pde_residual",
    "SeparableTestFunction",
    "weak_test_family",
    "weak_form_residual",
    "extension_independence",
    "smoothing_report",
    "spectral_tail_slope",
    "field_tail_slope",
]


class HarnessError(RuntimeError):
    """A verification fixture violated its own stated constraints."""


def halfline_box(xgrid: UniformGrid, tgrid: UniformGrid, T: float) -> tuple:
    """The box x >= 0, 0 <= t <= T as the slices (x_sel, t_sel) of the grids'
    nodes, by the `UniformGrid.window` rule: a node within 1e-14 of the box
    counts."""
    return xgrid.window(0.0, np.inf), tgrid.window(0.0, T)


def oracle_distance(u: SpaceTimeField, oracle: SpaceTimeField, T: float) -> float:
    """L^2 distance of u from the oracle on x >= 0, 0 <= t <= T; the oracle
    holds u's time nodes from t = 0 on."""
    x_sel, t_sel = halfline_box(u.xgrid, u.tgrid, T)
    i0 = u.tgrid.index_of(0.0)
    diff = u.values[x_sel, t_sel] - oracle.values[x_sel, t_sel.start - i0 : t_sel.stop - i0]
    return field_l2_norm(diff, u.xgrid, u.tgrid)


# ---------------------------------------------------------------------------
# Whole-line integrating-factor reference solver.
# ---------------------------------------------------------------------------

# The L^2 distance within which the final slices of the oracle's run and of
# the run at twice its step must agree.  It bounds the oracle's own error,
# which must sit far below the solver errors the oracle measures: two decades
# under the bundled `oracle_match` tolerance (1e-5).  The bundled
# manufactured oracle reads 2.3e-13.
_DOUBLING_TOL = 1e-7


def _lawson_sweep(g_l: GridFunction, T: float, steps: int, stride: int) -> tuple:
    """Integrating-factor RK4 slices at every `stride`-th step, shape (X,
    steps // stride + 1), and the final slice of the run at half the steps,
    shape (X,); `steps` must be even and a multiple of `stride`.

    The real datum makes the scheme run on the rfft half-spectrum: each step
    takes 4 irfft and 4 rfft (one pair per advection stage).  The coarse run
    is a second row: on even steps both rows advance by a step of their own
    size (2-row transforms), on odd steps the trajectory row advances alone.
    The kept slices are stored as spectra and inverse-transformed at the end.
    """
    grid = g_l.grid
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.count, d=grid.step)
    dts = np.array([T / steps, 2.0 * T / steps])[:, None]
    half = np.exp(-1j * (dts / 2.0) * xi**5)
    full = np.exp(-1j * dts * xi**5)
    dealias = np.abs(xi) <= (2.0 / 3.0) * grid.nyquist
    deriv = (-0.5j) * xi * dealias

    def burgers_rate(V: np.ndarray) -> np.ndarray:
        v_d = np.fft.irfft(dealias * V, n=grid.count)
        return deriv * np.fft.rfft(v_d * v_d)

    def step(V: np.ndarray, E: np.ndarray, E2: np.ndarray, dt: np.ndarray) -> np.ndarray:
        # Lawson: classical RK4 on W = e^{i t xi^5} V, so the stiff factor
        # e^{-i t xi^5} is applied exactly, E over a half step, E2 over a step.
        a = burgers_rate(V)
        b = burgers_rate(E * (V + (dt / 2.0) * a))
        c = burgers_rate(E * V + (dt / 2.0) * b)
        E2V = E2 * V
        d = burgers_rate(E2V + dt * (E * c))
        return E2V + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)

    V = np.tile(np.fft.rfft(g_l.values), (2, 1))
    out = np.empty((steps // stride + 1, len(xi)), dtype=np.complex128)
    out[0] = V[0]
    for n in range(steps):
        rows = 2 - n % 2
        V[:rows] = step(V[:rows], half[:rows], full[:rows], dts[:rows])
        if (n + 1) % stride == 0:
            out[(n + 1) // stride] = V[0]
    coarse = np.fft.irfft(V[1], n=grid.count)
    return np.fft.irfft(out, n=grid.count, axis=1).T, coarse


def whole_line_oracle(g_l: GridFunction, T: float, steps: int, stride: int = 1) -> tuple:
    """Reference trajectory of u_t + d^5_x u + u d_x u = 0 on the periodic box,
    at every `stride`-th of its `steps` steps, as (SpaceTimeField, doubling
    difference).

    Lawson's integrating-factor RK4 (Lawson 1967; Kassam & Trefethen 2005):
    the dispersive factor exp(-i t xi^5) is applied exactly, and the
    advection term with 2/3-rule dealiasing goes through the four stages of
    classical RK4, carried on the half-spectrum of the real datum.  The run
    at half the steps (so `steps` must be even) goes alongside, and the L^2
    difference of the two final slices is returned and must stay below
    `_DOUBLING_TOL`, otherwise AccuracyError.  It bounds the trajectory's
    own error from above: against the same scheme at 32 times the steps,
    at the step counts `manufactured_data` picks, it measured 16 times the
    error on the bundled manufactured solve, 58 times on a k = 1.4 wave
    packet on the same grid, and 2.5 to 9.7 times on 64^2 test data that
    do not vanish at the box edge, where the scheme loses order on stiff
    content.
    """
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if steps < 1:
        raise ValueError("need at least one step")
    if steps % 2:
        raise ValueError(f"the step-doubling check needs an even number of steps, got {steps}")
    if stride < 1 or steps % stride:
        raise ValueError(f"stride {stride} must divide the {steps} steps")
    vals, coarse = _lawson_sweep(g_l, T, steps, stride)
    diff = float(np.sqrt(np.sum(np.abs(vals[:, -1] - coarse) ** 2) * g_l.grid.step))
    if not diff <= _DOUBLING_TOL:  # a run that blew up reads NaN
        raise AccuracyError(
            f"oracle self-check failed: doubling the step changes the final "
            f"slice by {diff:.3e} > {_DOUBLING_TOL:g}; increase steps"
        )
    tgrid = UniformGrid(origin=0.0, step=T / steps * stride, count=steps // stride + 1)
    return SpaceTimeField(g_l.grid, tgrid, vals), diff


# The oracle steps per solver time step that `manufactured_data` tries, in
# order; the first whose doubling difference passes is kept.
_STEPS_PER_NODE = (1, 2, 4, 8)


def manufactured_data(
    g_l: GridFunction, cfg: SolverConfig, horizon: float = 1.0, taper_start: float = 0.7
):
    """Boundary data manufactured from the whole-line solution of g_l.

    Runs the oracle on [0, horizon] at the fewest steps per solver time step
    in `_STEPS_PER_NODE` whose doubling difference passes (a count that
    gives an odd step total is skipped; AccuracyError if none passes),
    keeping its slices on the solver's nodes, reads off the x = 0 traces of
    orders 0, 1, 2 (real, as the whole-line solution of a real datum is),
    tapers them smoothly to zero before the horizon end (the solver's data
    window eta(t/2T) must die before the taper begins), and returns
    (SolverData, oracle field on the solver nodes of [0, horizon], the
    oracle's doubling difference).
    """
    dt = cfg.tgrid.step
    n_nodes = int(round(horizon / dt))
    if abs(n_nodes * dt - horizon) > 1e-12:
        raise ValueError("horizon must be a multiple of the solver time step")
    if 2.0 * cfg.T > taper_start:
        raise ValueError("data window 2T reaches into the taper; shorten T or move the taper")
    i0 = cfg.tgrid.index_of(0.0)
    if i0 + n_nodes >= cfg.tgrid.count:
        raise ValueError(f"horizon {horizon:g} passes the last time node {cfg.tgrid.nodes[-1]:g}")
    for per_node in _STEPS_PER_NODE:
        if n_nodes * per_node % 2:
            continue
        try:
            oracle, doubling = whole_line_oracle(g_l, horizon, n_nodes * per_node, per_node)
            break
        except AccuracyError as err:
            failure = err
    else:
        raise AccuracyError(
            f"at {_STEPS_PER_NODE[-1]} oracle steps per solver time step: {failure}"
        )
    # d^j/dx^j u(0, t) = Re sum_k m_k (i xi_k)^j e^{2 pi i k r / X} V_k(t) / X
    # over the rfft half-spectrum V, with r the row of x = 0 and m_k = 2 on
    # the modes whose conjugate is not stored (1 on the zero and Nyquist
    # modes); k r is reduced mod X so that the phase is exact to rounding.
    grid = g_l.grid
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.count, d=grid.step)
    mult = np.full(len(xi), 2.0)
    mult[0] = 1.0
    if grid.count % 2 == 0:
        mult[-1] = 1.0
    turns = (np.arange(len(xi)) * grid.index_of(0.0)) % grid.count
    shift = np.exp(2j * np.pi * turns / grid.count)
    rows = (1j * xi) ** np.arange(3)[:, None] * (mult * shift / grid.count)
    traces = (rows @ np.fft.rfft(oracle.values, axis=0)).real
    taper = right_bump(oracle.tgrid.nodes, -2.0, -1.0, taper_start, horizon)
    vals = np.zeros((3, cfg.tgrid.count))
    vals[:, i0 : i0 + n_nodes + 1] = traces * taper
    h1, h2, h3 = (TimeSeries(cfg.tgrid, v) for v in vals)
    data = SolverData(g_l=g_l, h1=h1, h2=h2, h3=h3)
    return data, oracle, doubling


# ---------------------------------------------------------------------------
# Interior residual of the differential equation.
# ---------------------------------------------------------------------------

# Centered sixth-order first derivative: weights of u[n - 3 .. n + 3].
_DT_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def pde_residual(
    u: SpaceTimeField,
    fifth_x: SpaceTimeField | None = None,
    x_range: tuple | None = None,
    t_range: tuple | None = None,
) -> float:
    """L^2 norm of u_t + d^5_x u of a real field u over an interior window.

    Measured on the half x-spectrum of u, from one forward transform.  The
    time derivative is a centered sixth-order finite difference on the
    field's own time grid, taken on the spectrum's columns: the x transform
    and the time stencil act on different axes, so this is the transform
    of the stencil on the samples.  The fifth x-derivative is (i xi)^5 on
    the band rows of that spectrum, as in the solver's derivatives, unless
    an analytic field is supplied via `fifth_x`, whose half spectrum is
    added instead (mandatory for fields that are not box-periodic, e.g.
    boundary potentials whose oscillatory part does not wrap smoothly; the
    transform of any samples is exact, so it needs no periodicity).

    The window is the time nodes the stencil reaches, cut to `t_range`.
    Over the whole x box the norm is Parseval's sum over the half spectrum,
    weighted by `half_multiplicity`; with `x_range` the residual's spectrum
    is transformed back once and summed over the x nodes in the range.  A
    range selects its nodes by the `UniformGrid.window` rule.
    """
    margin = len(_DT_STENCIL) // 2
    nt = u.tgrid.count
    if nt < 2 * margin + 1:
        raise ValueError("time grid too short for the 7-point stencil")
    if fifth_x is not None and (fifth_x.xgrid != u.xgrid or fifth_x.tgrid != u.tgrid):
        raise ValueError("analytic fifth derivative must share the field's grids")
    xg, dt = u.xgrid, u.tgrid.step
    window = u.tgrid.window(*t_range) if t_range is not None else slice(0, nt)
    start = max(window.start, margin)
    cols = slice(start, max(start, min(window.stop, nt - margin)))
    spec = x_half_spectrum(u.values, xg)
    # The residual's spectrum on the window's columns; each stencil term
    # passes through one temporary of its shape.
    res = np.zeros((spec.shape[0], cols.stop - cols.start), dtype=np.complex128)
    term = np.empty_like(res)
    for k, c in enumerate(_DT_STENCIL):
        if c == 0.0:
            continue
        shift = k - margin
        np.multiply(c, spec[:, cols.start + shift : cols.stop + shift], out=term)
        res += term
    del term
    res /= dt
    if fifth_x is not None:
        res += x_half_spectrum(fifth_x.values, xg)[:, cols]
    else:
        # Capped at the band rows, as the solver's derivatives are: above them the
        # spectrum holds rounding that xi^5 would amplify.
        rows = int(np.count_nonzero(band_mask(xg)[: xg.count // 2 + 1]))
        res[:rows] += (1j * xg.frequencies[:rows, None]) ** 5 * spec[:rows, cols]
    del spec
    if x_range is None:
        pairs = res.view(np.float64)
        power = half_multiplicity(xg) @ np.einsum("ij,ij->i", pairs, pairs)
        return float(np.sqrt(power * xg.freq_step * dt))
    values = x_half_values(res, xg)[xg.window(*x_range)]
    return float(np.sqrt(np.vdot(values, values) * xg.step * dt))


# ---------------------------------------------------------------------------
# Weak formulation against separable test functions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparableTestFunction:
    """phi(x,t) = x^p exp(-((x-c)/w)^2) * (T-t)^q, normalized.

    p >= 2 makes phi and phi_x vanish at x = 0 exactly; the (T-t)^q factor
    vanishes at t = T.  x-derivatives up to order 5 come from the polynomial
    recursion P_{k+1} = P_k' - P_k * 2(x-c)/w^2.
    """

    T: float
    p: int
    c: float
    w: float
    q: int
    scale: float
    _xpolys: tuple

    @classmethod
    def build(cls, T: float, p: int, c: float, w: float, q: int) -> "SeparableTestFunction":
        if p < 2:
            raise HarnessError(f"need p >= 2 for the x = 0 constraints, got p={p}")
        if q < 1:
            raise HarnessError(f"need q >= 1 for the t = T constraint, got q={q}")
        poly = Polynomial([0.0] * p + [1.0])
        gauss_log_deriv = Polynomial([2.0 * c / w**2, -2.0 / w**2])
        polys = [poly]
        for _ in range(5):
            polys.append(polys[-1].deriv() + polys[-1] * gauss_log_deriv)
        xs = np.linspace(0.0, c + 8.0 * w, 400)
        envelope = np.exp(-(((xs - c) / w) ** 2))
        peak = max(float(np.max(np.abs(P(xs) * envelope))) for P in polys)
        return cls(T=T, p=p, c=c, w=w, q=q, scale=peak, _xpolys=tuple(polys))

    def x_part(self, x, order: int = 0):
        x = np.asarray(x, dtype=float)
        envelope = np.exp(-(((x - self.c) / self.w) ** 2))
        return self._xpolys[order](x) * envelope / self.scale

    def theta(self, t):
        return (self.T - np.asarray(t, dtype=float)) ** self.q

    def theta_t(self, t):
        return -self.q * (self.T - np.asarray(t, dtype=float)) ** (self.q - 1)

    def check_constraints(self) -> None:
        theta = np.max(np.abs(self.theta(np.array([self.T]))))
        x0 = abs(float(self.x_part(np.array([0.0]), 0)[0]))
        x1 = abs(float(self.x_part(np.array([0.0]), 1)[0]))
        bad = []
        if x0 > 1e-12:
            bad.append(f"phi(0,·) = {x0:.3e}")
        if x1 > 1e-12:
            bad.append(f"phi_x(0,·) = {x1:.3e}")
        if theta > 1e-12:
            bad.append(f"phi(·,T) = {theta:.3e}")
        if bad:
            raise HarnessError("test function violates constraints: " + ", ".join(bad))


def _simpson_weights(n: int, h: float) -> np.ndarray:
    """Composite Simpson weights for n >= 3 samples at uniform spacing h.

    Odd n is the classical h/3 (1, 4, 2, ..., 2, 4, 1) rule.  Even n (the
    x >= 0 half of an even grid) applies it to the first n - 1 samples and
    integrates the last interval with Cartwright's correction, the parabola
    through the last three samples: weights (-1/12, 2/3, 5/12) h.
    """
    if n < 3:
        raise ValueError(f"composite Simpson needs at least 3 samples, got {n}")
    odd = n if n % 2 else n - 1
    w = np.zeros(n)
    w[1:odd:2] = 4.0
    w[2 : odd - 1 : 2] = 2.0
    w[0] = w[odd - 1] = 1.0
    w *= h / 3.0
    if odd < n:
        w[-3:] += h * np.array([-1.0 / 12.0, 2.0 / 3.0, 5.0 / 12.0])
    return w


def weak_test_family(T: float) -> list:
    """Twelve members: p in {2,3,4} x (c,w) in {(3,2),(6,3)} x q in {1,2}."""
    members = []
    for p in (2, 3, 4):
        for c, w in ((3.0, 2.0), (6.0, 3.0)):
            for q in (1, 2):
                members.append(SeparableTestFunction.build(T, p, c, w, q))
    return members


def weak_form_residual(
    u: SpaceTimeField,
    g: GridFunction,
    h1: TimeSeries,
    h2: TimeSeries,
    h3: TimeSeries,
    T: float,
) -> float:
    """Max over `weak_test_family(T)` of the integrated-by-parts identity

        int int [U (phi_t + d^5_x phi) + U^2/2 phi_x] dx dt
        + int g phi(x, 0) dx
        + int h1 d^4_x phi(0,t) dt - int h2 d^3_x phi(0,t) dt
        + int h3 d^2_x phi(0,t) dt

    over x >= 0, t in [0, T]; an exact solution makes every member vanish.
    """
    u.tgrid.index_of(T)  # T must be a grid node
    x_sel, t_sel = halfline_box(u.xgrid, u.tgrid, T)
    xs, ts = u.xgrid.nodes[x_sel], u.tgrid.nodes[t_sel]
    U = u.values[x_sel, t_sel]
    g_vals = g.values[x_sel]
    h_vals = [h.values[t_sel] for h in (h1, h2, h3)]
    wx = _simpson_weights(len(xs), u.xgrid.step)
    wt = _simpson_weights(len(ts), u.tgrid.step)
    worst = 0.0
    for member in weak_test_family(T):
        member.check_constraints()
        X = [member.x_part(xs, k) for k in range(6)]
        theta, theta_t = member.theta(ts), member.theta_t(ts)
        interior = U * (X[0][:, None] * theta_t[None, :] + X[5][:, None] * theta[None, :])
        interior = interior + 0.5 * U * U * (X[1][:, None] * theta[None, :])
        total = complex(wt @ (wx @ interior))
        total += complex(wx @ (g_vals * X[0])) * float(member.theta(0.0))
        x0 = np.array([0.0])
        d4, d3, d2 = (float(member.x_part(x0, k)[0]) for k in (4, 3, 2))
        total += complex(wt @ (h_vals[0] * theta)) * d4
        total -= complex(wt @ (h_vals[1] * theta)) * d3
        total += complex(wt @ (h_vals[2] * theta)) * d2
        worst = max(worst, abs(total))
    return float(worst)


# ---------------------------------------------------------------------------
# Extension independence (observable face of uniqueness).
# ---------------------------------------------------------------------------

def extension_independence(
    g: GridFunction, h_series: tuple, cfg: SolverConfig
) -> dict:
    """Solve once per (extension method x collar width), zero or reflection
    x collar 2 or 3; report the run labels (`runs`) and the maximum pairwise
    L^2 distance of the restrictions to x >= 0, t in [0, T] (`max_distance`).

    The solution of the half-line problem must not depend on how the initial
    datum was extended to x < 0 nor on the taper used inside the boundary
    potential; agreement across these runs is the computable consequence.
    """
    h1, h2, h3 = h_series
    solutions = []
    labels = []
    for method in ("zero", "reflection"):
        ext = extend_initial_datum(g, cfg.s, method=method)
        for collar in (2.0, 3.0):
            run_cfg = replace(cfg, collar=collar)
            data = SolverData(g_l=ext, h1=h1, h2=h2, h3=h3)
            result = picard_solve(data, run_cfg)
            solutions.append(result.u)
            labels.append(f"{method}/collar={collar:g}")
    box = halfline_box(cfg.xgrid, cfg.tgrid, cfg.T)
    worst = 0.0
    for i in range(len(solutions)):
        for k in range(i + 1, len(solutions)):
            diff = solutions[i].values[box] - solutions[k].values[box]
            worst = max(worst, field_l2_norm(diff, cfg.xgrid, cfg.tgrid))
    return {"runs": labels, "max_distance": worst}


# ---------------------------------------------------------------------------
# Smoothing of the nonlinear part.
# ---------------------------------------------------------------------------

def _log_slope(freqs: np.ndarray, mags: np.ndarray, band: tuple) -> float:
    """Least-squares slope of log mags against log<xi> over |xi| in the band."""
    freqs = np.abs(freqs)
    mask = (freqs >= band[0]) & (freqs <= band[1]) & (mags > 0)
    if np.count_nonzero(mask) < 8:
        raise ValueError("band contains too few resolved modes for a slope fit")
    return float(np.polyfit(np.log1p(freqs[mask]), np.log(mags[mask]), 1)[0])


def spectral_tail_slope(f: GridFunction, band: tuple) -> float:
    """Least-squares slope of log|f_hat| against log<xi> over the band."""
    mags = np.abs(x_half_spectrum(f.values, f.grid))
    return _log_slope(f.grid.frequencies[: len(mags)], mags, band)


def field_tail_slope(u: SpaceTimeField, band: tuple, t_indices) -> float:
    """Slope fit of the time-sup envelope of the x-spectrum magnitudes."""
    spec = x_half_spectrum(u.values[:, list(t_indices)], u.xgrid)
    envelope = np.max(np.abs(spec), axis=1)
    return _log_slope(u.xgrid.frequencies[: len(envelope)], envelope, band)


def smoothing_report(result: SolveResult, cfg: SolverConfig, a: float) -> dict:
    """One row quantifying how much smoother the nonlinear part is than g,
    measured in H^{s+a}.

    The row reports: the admissibility flag of (s, b, a); the sup over
    t-samples (9, evenly spread over [0, T]) of the half-line H^{s+a}
    upper-bound norm of the nonlinear part; spectral tail slopes over
    2 <= |xi| <= 0.9 * band cap of the nonlinear part and of the datum g_l,
    with the gain; and the relative growth of band-limited H^{s+a} partial
    norms from the base band (half the slope band's top) to its double, for
    the datum's free evolution vs the nonlinear part.  An inadmissible a is
    flagged but still measured.
    """
    tnodes = cfg.tgrid.nodes
    t_sel = np.arange(cfg.tgrid.count)[cfg.tgrid.window(0.0, cfg.T)]
    samples = t_sel[np.linspace(0, len(t_sel) - 1, 9).round().astype(int)]
    cap = BAND_CAP * cfg.xgrid.nyquist
    band = (2.0, 0.9 * cap)
    band_factors = (1.0, 2.0)
    base_band = band[1] / max(band_factors)
    g_l = result.workspace.data.g_l
    slope_g = spectral_tail_slope(g_l, band)
    slope_nl = field_tail_slope(result.nonlinear, band, samples)
    # W(t) g_l at the sample times only; eta = 1 at every sample time, so
    # the free evolution needs no cutoff.
    plan = result.workspace.plan
    free_part = [apply_group(g_l, t, plan) for t in tnodes[samples]]
    nonlinear_part = [
        GridFunction(cfg.xgrid, column) for column in result.nonlinear.values[:, samples].T
    ]
    target = cfg.s + a
    sup_norm = 0.0
    for slice_fn in nonlinear_part:
        sup_norm = max(sup_norm, sobolev_norm(extend_initial_datum(slice_fn, target), target))
    growth = {}
    band_norms = {}
    # The band-extension contrast compares the datum's free evolution
    # (which fails H^{s+a} exactly as the datum does) against the
    # nonlinear remainder.  The boundary-driven piece of the linear part
    # is excluded: its x-content is confined below |Re r| <= (beta
    # band)^{1/5} by construction, so its band growth reflects the
    # quadrature band rather than the regularity of the data.
    for label, part in (("linear", free_part), ("nonlinear", nonlinear_part)):
        norms = []
        for factor in band_factors:
            worst = 0.0
            for slice_fn in part:
                worst = max(worst, sobolev_norm(slice_fn, target, band=factor * base_band))
            norms.append(worst)
        growth[label] = norms[-1] / norms[0] - 1.0 if norms[0] > 0 else 0.0
        band_norms[label] = [float(v) for v in norms]
    return {
        "a": float(a),
        "admissible": smoothing_window(cfg.s, cfg.b, a),
        "sup_halfline_norm": float(sup_norm),
        "tail_slope_nonlinear": slope_nl,
        "tail_slope_reference": slope_g,
        "slope_gain": float(slope_g - slope_nl),
        "band_caps": [float(f * base_band) for f in band_factors],
        "band_norms_linear": band_norms["linear"],
        "band_norms_nonlinear": band_norms["nonlinear"],
        "band_growth_linear": float(growth["linear"]),
        "band_growth_nonlinear": float(growth["nonlinear"]),
    }
