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
is exact by construction.  The problem data g_l and h_j must be real
(PreconditionError otherwise), so the traces q_j, r_j and the corrected
data are kept as real (3, T) arrays: the imaginary parts of the spectral
traces are complex-FFT rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .boundary import BoundaryPotential, PreconditionError
from .bourgain import xsba_norm
from .cutoffs import eta, validate_regularity
from .grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from .propagator import PropagatorPlan, duhamel_trajectory, free_field, trace_at_origin
from .spectral import band_mask, x_spectrum, x_values

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
    max_iter: int = 25
    fp_tol: float = 1e-9
    depth: int = 2
    collar: float = 2.0
    spectrum_tol: float = 1e-12

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
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


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
    norms: list = dc_field(default_factory=list)
    diffs: list = dc_field(default_factory=list)
    factors: list = dc_field(default_factory=list)
    residual: float | None = None
    converged: bool = False
    iterations: int = 0

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


def nonlinearity_FT(u: SpaceTimeField, T: float) -> SpaceTimeField:
    """F_T(u) = eta(t/2T) * (-1/2) d_x(u^2), with band caps around the square.

    The band cap is applied to u before squaring and to the derivative
    multiplier after, so the quadratic term cannot fold energy back from
    beyond the resolved band.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    xgrid = u.xgrid
    xi = xgrid.frequencies[:, None]
    mask = band_mask(xgrid)[:, None]
    u_capped = x_values(mask * x_spectrum(u.values, xgrid), xgrid)
    sq_spec = x_spectrum(u_capped * u_capped, xgrid)
    deriv = x_values(mask * (1j * xi) * sq_spec, xgrid)
    window = eta(u.tgrid.nodes / (2.0 * T))[None, :]
    return SpaceTimeField(xgrid, u.tgrid, -0.5 * window * deriv)


class GammaWorkspace:
    """Gamma_T as the affine map Gamma_T(u) = L + N(u) on fixed data.

    L = eta W(t) g_l + eta Pot[w (h - q)] is built here, once; every
    application adds N(u) = eta Duhamel[F_T(u)] - eta Pot[w r(u)], where
    w = eta(t/2T) chi_{t>0} and r(u) are the x = 0 traces of the Duhamel
    term, read off its x-spectrum.  One BoundaryPotential (quadrature nodes
    plus its data-independent time and space tables) is shared by all of
    them, since the potential is linear in its data.  g_l and every h_j must
    be real; h, q and r are held as real (3, T) arrays.
    """

    def __init__(self, data: SolverData, cfg: SolverConfig):
        for h in data.boundary_series:
            if h.grid != cfg.tgrid:
                raise ValueError("boundary series must live on the solver time grid")
        if data.g_l.grid != cfg.xgrid:
            raise ValueError("initial datum must live on the solver space grid")
        if any(np.any(f.values.imag) for f in (data.g_l, *data.boundary_series)):
            raise PreconditionError("initial and boundary data must be real")
        self.data = data
        self.cfg = cfg
        self.plan = PropagatorPlan(cfg.xgrid)
        tnodes = cfg.tgrid.nodes
        self.eta_t = eta(tnodes)
        # eta(t/2T) * chi_{t>0}: supported in (0, 2T], inside t_window below.
        self.data_window = eta(tnodes / (2.0 * cfg.T)) * (tnodes > 0)
        dt = cfg.tgrid.step
        self.t_window = (-1.0 - dt, 1.0 + dt)
        self._pot: BoundaryPotential | None = None
        self.diagnostics: dict = {"applications": 0}
        self.h = np.array([h.values.real for h in data.boundary_series])
        self.q = trace_at_origin(data.g_l, cfg.tgrid, self.plan).real
        values = free_field(data.g_l, cfg.tgrid, self.plan).values * self.eta_t[None, :]
        self._add_potential(values, self.data_window * (self.h - self.q))
        self.linear = SpaceTimeField(cfg.xgrid, cfg.tgrid, values)
        # q and the free term were the last readers of the (T, X) table.
        self.plan.release_free_phases()

    def zero_extension_flags(self, r: np.ndarray) -> list:
        """Near-origin magnitudes of the corrected data w (h - q - r), with the
        per-channel requirement: channel j must vanish at t = 0+ when
        s > 1/2 + j."""
        k = self.cfg.tgrid.index_of(0.0) + 1
        near = np.abs(self.data_window[k] * (self.h - self.q - r)[:, k])
        return [
            {"channel": j + 1, "required": self.cfg.s > 0.5 + j, "near_origin": float(near[j])}
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
                spectrum_tol=cfg.spectrum_tol,
                collar=cfg.collar,
                t_window=self.t_window,
                strict=False,
            )
            d = self._pot.diagnostics
            for key in ("beta_radius", "spectrum_within_band", "tail_mass"):
                self.diagnostics[key] = d[key]
            self.diagnostics["quadrature_nodes"] = d["node_count"]
        else:
            self._pot.update_data(*series)
        field = self._pot.field_on_grid(cfg.xgrid.nodes)
        field *= self.eta_t[None, :]
        values += field

    # -- one application of Gamma_T ---------------------------------------------
    def apply(self, u: SpaceTimeField) -> tuple:
        """Returns (Gamma_T(u), N(u), r(u)) with r(u) real, shape (3, T);
        Gamma_T(u) = L + N(u) bitwise."""
        cfg = self.cfg
        if u.xgrid != cfg.xgrid or u.tgrid != cfg.tgrid:
            raise ValueError("iterate must live on the solver grids")
        forcing = nonlinearity_FT(u, cfg.T)
        if np.any(forcing.values):
            spec = duhamel_trajectory(forcing, self.plan, t_window=self.t_window)
            r = trace_at_origin(spec, cfg.tgrid, self.plan).real
            values = x_values(spec, cfg.xgrid)
            # The spectrum is not read again; free it before the potential's tables.
            del spec
            values *= self.eta_t[None, :]
            self._add_potential(values, -self.data_window * r)
        else:
            values = np.zeros((cfg.xgrid.count, cfg.tgrid.count), np.complex128)
            r = np.zeros((3, cfg.tgrid.count))
        nonlinear = SpaceTimeField(cfg.xgrid, cfg.tgrid, values)
        total = SpaceTimeField(cfg.xgrid, cfg.tgrid, self.linear.values + nonlinear.values)
        self.diagnostics["applications"] += 1
        return total, nonlinear, r


@dataclass(frozen=True)
class SolveResult:
    u: SpaceTimeField
    trace: IterationTrace
    traces: np.ndarray  # real (3, T): x = 0 traces p = q + r of the free and Duhamel terms
    nonlinear: SpaceTimeField
    linear: SpaceTimeField
    diagnostics: dict
    workspace: GammaWorkspace


def picard_solve(data: SolverData, cfg: SolverConfig) -> SolveResult:
    """Iterate u_{k+1} = Gamma_T(u_k) from u_0 = 0 to the fixed point.

    Convergence is declared when the successive difference in the discrete
    X^{s,b,alpha} norm falls below cfg.fp_tol; the returned residual is
    measured by one extra application.  Three consecutive non-contracting
    steps raise NonContractionError with the trace attached (the horizon is
    too large for the data at this resolution).
    """
    ws = GammaWorkspace(data, cfg)
    zero = SpaceTimeField(
        cfg.xgrid, cfg.tgrid, np.zeros((cfg.xgrid.count, cfg.tgrid.count), np.complex128)
    )
    trace = IterationTrace()
    u = zero
    for _ in range(cfg.max_iter):
        u_next, nonlinear, r = ws.apply(u)
        diff = xsba_norm(
            SpaceTimeField(cfg.xgrid, cfg.tgrid, u_next.values - u.values),
            cfg.s,
            cfg.b,
            cfg.alpha,
        )
        trace.record(norm=xsba_norm(u_next, cfg.s, cfg.b, cfg.alpha), diff=diff)
        u = u_next
        if diff < cfg.fp_tol:
            trace.converged = True
            break
        if len(trace.factors) >= 3 and all(f >= 1.0 for f in trace.factors[-3:]):
            raise NonContractionError(
                "Picard iteration failed to contract for 3 consecutive steps; "
                "the horizon T is too large for this data at this resolution",
                trace,
            )
    if not trace.converged:
        raise NonContractionError(
            f"no convergence within {cfg.max_iter} iterations (last diff {trace.diffs[-1]:.3e})",
            trace,
        )
    residual_field = ws.apply(u)[0]
    trace.residual = xsba_norm(
        SpaceTimeField(cfg.xgrid, cfg.tgrid, residual_field.values - u.values),
        cfg.s,
        cfg.b,
        cfg.alpha,
    )
    diagnostics = dict(ws.diagnostics)
    diagnostics["zero_extension_flags"] = ws.zero_extension_flags(r)
    diagnostics["T"] = cfg.T
    return SolveResult(
        u=u,
        trace=trace,
        traces=ws.q + r,
        nonlinear=nonlinear,
        linear=ws.linear,
        diagnostics=diagnostics,
        workspace=ws,
    )
