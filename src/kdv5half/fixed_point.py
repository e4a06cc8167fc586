"""Picard iteration for the half-line initial-boundary value problem.

The solution operator is the fixed point of the affine map

    Gamma_T(u) = L + N(u)
    L    = eta(t) W(t) g_l + eta(t) BoundaryPotential[w (h_j - q_j)]
    N(u) = eta(t) Duhamel[F_T(u)] - eta(t) BoundaryPotential[w r_j(u)]

where F_T(u) = eta(t/2T) (-1/2) d_x(u^2), w = eta(t/2T) chi_{t>0}, and q_j,
r_j(u) are the x = 0 traces of the free and Duhamel terms, so that the
total trace reproduces the prescribed h_j on the working window.
Everything is assembled on fixed grids with one shared boundary potential
per solve: BoundaryPotential.from_data builds its quadrature nodes,
e^{i beta t} table and x-block tables from the first nonzero data and only
the data change afterwards.  L is built once, with the workspace, and every
iterate is L + N(u) as summed, so the linear/nonlinear split of the result
is exact by construction; the loop starts at u_1 = Gamma_T(0) = L, since
F_T(0) = 0.  The problem data g_l and h_j are real (a GridFunction or
TimeSeries holds real samples only), so L, N(u) and every iterate are real
(X, T) arrays and the traces q_j, r_j and the corrected data real (3, T)
arrays.  Every x transform is a real one: the free and Duhamel terms are
held as their half x-spectra (rows xi >= 0), from which the traces are read
and one inverse rfft gives the field.  The loop passes these arrays
directly, the norms included; only the result wraps them in
SpaceTimeFields.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .boundary import BoundaryPotential, truncation_radius
from .bourgain import xsba_norm
from .cutoffs import corner_conditions, eta, validate_regularity
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .propagator import PropagatorPlan, duhamel_trajectory, trace_at_origin
from .spectral import BAND_CAP, x_half_spectrum, x_half_values

__all__ = [
    "SolverConfig",
    "SolverData",
    "IterationTrace",
    "NonContractionError",
    "nonlinearity_FT",
    "GammaWorkspace",
    "picard_solve",
    "SolveResult",
]

# The Picard loop converges once a successive X^{s,b,alpha} difference falls
# below FP_TOL and gives up after MAX_ITER iterates.  SPECTRUM_TOL is the
# relative spectrum level of the truncation radius (potential and data_band).
FP_TOL = 1e-9
MAX_ITER = 25
SPECTRUM_TOL = 1e-12


class NonContractionError(RuntimeError):
    """Picard iteration stopped contracting; carries the iteration trace."""

    def __init__(self, message: str, trace: "IterationTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class SolverConfig:
    """Grids, norm indices, and horizon for one fixed-point solve.

    The index invariants are the contraction window of the iteration:
    max{s/5 - 1/20, 2/5} < b < bstar < 1/2 and 1/2 < alpha < 1 - bstar,
    with 0 < T <= 1/2.
    """

    xgrid: UniformGrid
    tgrid: UniformGrid
    s: float
    b: float
    bstar: float
    alpha: float
    T: float
    depth: int = 2
    collar: float = 2.0

    def __post_init__(self):
        validate_regularity(self.s)
        lower = max(self.s / 5.0 - 0.05, 0.4)
        if not (lower < self.b < self.bstar < 0.5):
            raise ValueError(
                "indices must satisfy the contraction window "
                f"max{{s/5 - 1/20, 2/5}} = {lower:g} < b < bstar < 1/2; "
                f"got b={self.b}, bstar={self.bstar}"
            )
        if not (0.5 < self.alpha < 1.0 - self.bstar):
            raise ValueError(
                f"low-frequency index must satisfy 1/2 < alpha < 1 - bstar = {1.0 - self.bstar:g}; "
                f"got alpha={self.alpha}"
            )
        if not (0.0 < self.T <= 0.5):
            raise ValueError(f"horizon T must lie in (0, 1/2], got {self.T}")


@dataclass(frozen=True)
class SolverData:
    """Whole-line extended initial datum plus zero-extended boundary series."""

    g_l: GridFunction
    h1: TimeSeries
    h2: TimeSeries
    h3: TimeSeries

    @property
    def boundary_series(self):
        return (self.h1, self.h2, self.h3)


@dataclass
class IterationTrace:
    """The Picard loop's state, recorded as it runs: no field is a setting."""

    norms: list = dc_field(init=False, default_factory=list)
    diffs: list = dc_field(init=False, default_factory=list)
    factors: list = dc_field(init=False, default_factory=list)
    residual: float | None = dc_field(init=False, default=None)
    converged: bool = dc_field(init=False, default=False)
    iterations: int = dc_field(init=False, default=0)

    def record(self, norm: float, diff: float) -> None:
        self.norms.append(norm)
        self.diffs.append(diff)
        if len(self.diffs) >= 2 and self.diffs[-2] > 0:
            self.factors.append(self.diffs[-1] / self.diffs[-2])
        self.iterations += 1

    def to_payload(self) -> dict:
        return {
            "norms": list(self.norms),
            "diffs": list(self.diffs),
            "contraction_factors": list(self.factors),
            "residual": self.residual,
            "converged": self.converged,
            "iterations": self.iterations,
        }


def nonlinearity_FT(u: np.ndarray, tgrid: UniformGrid, plan: PropagatorPlan, T: float) -> np.ndarray:
    """Band-capped half x-spectrum of F_T(u) = eta(t/2T) * (-1/2) d_x(u^2)
    for the real (X, T) samples u on `plan`'s space grid and on `tgrid`,
    with band caps around the square.

    The band cap is applied to u before squaring and to the derivative
    multiplier after, so the quadratic term cannot fold energy back from
    beyond the resolved band.  Returns the complex (K, T) rows 0 <= xi <=
    BAND_CAP * nyquist (K = `plan.band_rows`), as `duhamel_trajectory`
    takes them.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    xgrid, k = plan.xgrid, plan.band_rows
    u_capped = x_half_values(x_half_spectrum(u, xgrid)[:k], xgrid)
    spec = x_half_spectrum(u_capped * u_capped, xgrid)[:k] * (1j * plan.xi[:k, None])
    spec *= -0.5 * eta(tgrid.nodes / (2.0 * T))[None, :]
    return spec


class GammaWorkspace:
    """Gamma_T as the affine map Gamma_T(u) = L + N(u) on fixed data.

    L = eta W(t) g_l + eta Pot[w (h - q)] is built here, once; every
    application adds N(u) = eta Duhamel[F_T(u)] - eta Pot[w r(u)], where
    w = eta(t/2T) chi_{t>0} and r(u) are the x = 0 traces of the Duhamel
    term, read off its half x-spectrum.  One BoundaryPotential (quadrature
    nodes plus its data-independent time and space tables) is shared by all
    of them, since the potential is linear in its data.  g_l and every h_j are
    real, and so is everything held here: L and every iterate are real
    (X, T) arrays on the solver grids, and h, q and r real (3, T) arrays.
    """

    def __init__(self, data: SolverData, cfg: SolverConfig):
        for h in data.boundary_series:
            if h.grid != cfg.tgrid:
                raise ValueError("boundary series must live on the solver time grid")
        if data.g_l.grid != cfg.xgrid:
            raise ValueError("initial datum must live on the solver space grid")
        self.data = data
        self.cfg = cfg
        self.plan = PropagatorPlan(cfg.xgrid)
        tnodes = cfg.tgrid.nodes
        self.eta_t = eta(tnodes)
        # eta(t/2T) * chi_{t>0}, chi_{t>0} zero up to the zero node by the
        # `UniformGrid.window` rule: supported in (0, 2T], inside t_window below.
        self.data_window = eta(tnodes / (2.0 * cfg.T))
        self.data_window[: cfg.tgrid.window(-np.inf, 0.0).stop] = 0.0
        dt = cfg.tgrid.step
        self.t_window = (-1.0 - dt, 1.0 + dt)
        self._pot: BoundaryPotential | None = None
        # L = Gamma_T(0), as F_T(0) = 0: building it counts as the first application.
        self.diagnostics: dict = {
            "applications": 1,
            # The x band the time grid carries, |xi|^5 <= BAND_CAP * pi / dt,
            # and g_l's band by the truncation rule; reported, not judged.
            "resolved_band": (BAND_CAP * np.pi / dt) ** 0.2,
            "data_band": truncation_radius([data.g_l], SPECTRUM_TOL, np.inf)[0],
        }
        self.h = np.array([h.values for h in data.boundary_series])
        # One spectrum gives q and the free term, as in `apply`; it is
        # freed before the potential's tables are built.
        spec = self.plan.free_spectrum(data.g_l.values, cfg.tgrid)
        self.q = trace_at_origin(spec, cfg.tgrid, self.plan)
        self.linear = x_half_values(spec, cfg.xgrid)
        del spec
        self.linear *= self.eta_t[None, :]
        self._add_potential(self.linear, self.data_window * (self.h - self.q))
        self.linear.flags.writeable = False

    def zero_extension_flags(self, r: np.ndarray) -> list:
        """Near-origin magnitudes of the corrected data w (h - q - r), with the
        per-channel requirement: channel j must vanish at t = 0+ when its
        corner condition binds (`corner_conditions`)."""
        k = self.cfg.tgrid.index_of(0.0) + 1
        near = np.abs(self.data_window[k] * (self.h - self.q - r)[:, k])
        required = corner_conditions(self.cfg.s)
        return [
            {"channel": j + 1, "required": j < required, "near_origin": float(near[j])}
            for j in range(3)
        ]

    # -- boundary potential ------------------------------------------------------
    def _add_potential(self, values: np.ndarray, series: np.ndarray) -> None:
        """values += eta(t) * BoundaryPotential[series] on the shared potential.

        `series` is the real (3, T) corrected data.  The first nonzero series
        builds the potential (truncation radius, quadrature and tables; a
        spectrum clamped at the band cap is reported, not raised); later
        calls only update the data.  All-zero series add nothing.
        """
        cfg = self.cfg
        if not np.any(series):
            return
        series = tuple(TimeSeries(cfg.tgrid, d) for d in series)
        if self._pot is None:
            self._pot = BoundaryPotential.from_data(
                *series,
                depth=cfg.depth,
                x_span=float(np.max(np.abs(cfg.xgrid.nodes))),
                spectrum_tol=SPECTRUM_TOL,
                collar=cfg.collar,
                t_window=self.t_window,
                strict=False,
            )
            self.diagnostics.update(self._pot.diagnostics)
        else:
            self._pot.update_data(*series)
        self._pot.add_field_on_grid(values, cfg.xgrid.nodes, self.eta_t)

    # -- one application of Gamma_T ---------------------------------------------
    def apply(self, u: np.ndarray) -> tuple:
        """(Gamma_T(u), N(u), r(u)) for a real (X, T) iterate u on the solver
        grids: real arrays of shapes (X, T), (X, T) and (3, T), with
        Gamma_T(u) = L + N(u) bitwise."""
        cfg = self.cfg
        forcing = nonlinearity_FT(u, cfg.tgrid, self.plan, cfg.T)
        spec = duhamel_trajectory(forcing, cfg.tgrid, self.plan, t_window=self.t_window)
        del forcing
        r = trace_at_origin(spec, cfg.tgrid, self.plan)
        # The spectrum is not read again: free it before the potential's tables.
        nonlinear = x_half_values(spec, cfg.xgrid)
        del spec
        nonlinear *= self.eta_t[None, :]
        self._add_potential(nonlinear, -self.data_window * r)
        self.diagnostics["applications"] += 1
        return self.linear + nonlinear, nonlinear, r


@dataclass(frozen=True)
class SolveResult:
    u: SpaceTimeField
    trace: IterationTrace
    traces: np.ndarray  # real (3, T): x = 0 traces p = q + r of the free and Duhamel terms
    nonlinear: SpaceTimeField
    diagnostics: dict
    workspace: GammaWorkspace


def picard_solve(data: SolverData, cfg: SolverConfig) -> SolveResult:
    """Iterate u_{k+1} = Gamma_T(u_k) from u_1 = Gamma_T(0) = L to the fixed point.

    Convergence is declared when the successive difference in the discrete
    X^{s,b,alpha} norm falls below FP_TOL (the first difference is
    u_1 - 0 = L); the returned residual is measured by one extra
    application.  Three consecutive non-contracting steps, or MAX_ITER
    iterates without convergence, raise NonContractionError with the trace
    attached (the horizon is too large for the data at this resolution).
    The loop runs on the workspace's real arrays and measures them in place
    (a non-finite iterate raises ValueError there); the result hands u and
    N out as SpaceTimeFields, and L stays on the workspace as `linear`.
    """
    ws = GammaWorkspace(data, cfg)

    def norm_of(values: np.ndarray) -> float:
        return xsba_norm(values, cfg.xgrid, cfg.tgrid, cfg.s, cfg.b, cfg.alpha)

    trace = IterationTrace()
    # N(0) and r(0) vanish, as F_T(0) = 0.
    u, nonlinear, r = ws.linear, np.zeros_like(ws.linear), np.zeros((3, cfg.tgrid.count))
    norm = diff = norm_of(u)
    while True:
        trace.record(norm=norm, diff=diff)
        if diff < FP_TOL:
            trace.converged = True
            break
        if len(trace.factors) >= 3 and all(f >= 1.0 for f in trace.factors[-3:]):
            raise NonContractionError(
                "Picard iteration failed to contract for 3 consecutive steps; "
                "the horizon T is too large for this data at this resolution",
                trace,
            )
        if trace.iterations == MAX_ITER:
            raise NonContractionError(
                f"no convergence within {MAX_ITER} iterations (last diff {diff:.3e})",
                trace,
            )
        # The previous N(u) is not read again: free it before `apply` builds the next.
        del nonlinear
        u_next, nonlinear, r = ws.apply(u)
        diff = norm_of(u_next - u)
        norm = norm_of(u_next)
        u = u_next
    trace.residual = norm_of(ws.apply(u)[0] - u)
    diagnostics = dict(ws.diagnostics)
    diagnostics["zero_extension_flags"] = ws.zero_extension_flags(r)
    diagnostics["T"] = cfg.T
    return SolveResult(
        u=SpaceTimeField(cfg.xgrid, cfg.tgrid, u),
        trace=trace,
        traces=ws.q + r,
        nonlinear=SpaceTimeField(cfg.xgrid, cfg.tgrid, nonlinear),
        diagnostics=diagnostics,
        workspace=ws,
    )
