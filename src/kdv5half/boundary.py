"""Boundary potential of the linear half-line problem.

For each time frequency beta, the three roots of i*beta + r^5 = 0 with
Re r <= 0 span the solutions of the symbol equation that stay bounded on
x > 0.  Cramer's rule against the data transforms (h1_hat, h2_hat, h3_hat)
fixes one combination per beta, and an inverse transform in beta assembles
the space-time field:

    W(x,t) = (2*pi)^(-1/2) * integral e^{i beta t} sum_m c_m(beta) e^{r_m x} dbeta

One root per sign of beta is purely oscillatory (kept on all of R_x); the two
strictly decaying roots blow up as x -> -infinity and are tapered by the
collar cutoff rho(|beta|^{1/5} x).  The beta integrals are singular like
|beta|^{-1/5}, |beta|^{-2/5} at 0 through the Cramer coefficients; the
substitution beta = sign*gamma^5 removes the singularity exactly, and
composite Gauss-Legendre in gamma (geometric panels toward 0, phase-graded
panel counts) does the rest, up to the truncation radius that
`BoundaryPotential.from_data` reads off the data spectra.

Real data halve the work.  For real h_j, h_j_hat(-beta) = conj h_j_hat(beta)
and the stable roots at -beta are the conjugates of those at beta in
reversed order, so the beta < 0 half of the integral is the conjugate of
the beta > 0 half: a potential whose three series have imaginary parts
exactly zero evaluates only the beta > 0 nodes of its (symmetric) quadrature
and returns 2 Re of their sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .cutoffs import rho
from .grids import SpaceTimeField, TimeSeries, UniformGrid
from .spectral import BAND_CAP, forward_transform, nonuniform_transform

__all__ = [
    "AccuracyError",
    "PreconditionError",
    "RootTriple",
    "CoefficientTriple",
    "roots_of_symbol",
    "stable_root_array",
    "vandermonde_det",
    "solve_coefficients",
    "solve_coefficients_batch",
    "QuadratureResult",
    "gamma_panel_edges",
    "panel_nodes_weights",
    "oscillatory_quadrature",
    "BoundaryQuadrature",
    "BoundaryPotential",
    "truncation_radius",
    "assemble_boundary_potential",
    "boundary_potential_traces",
]


class AccuracyError(RuntimeError):
    """A quadrature or convergence target was not met."""


class PreconditionError(ValueError):
    """Input data violates a stated operating precondition."""


# Root phases (stable half-plane Re r <= 0).  One entry per sign of beta;
# index 0 (beta < 0) resp. 2 (beta > 0) is the purely oscillatory root.
_PHASES_NEG = np.exp(1j * np.pi * np.array([1.0 / 2.0, 9.0 / 10.0, 13.0 / 10.0]))
_PHASES_POS = np.exp(1j * np.pi * np.array([7.0 / 10.0, 11.0 / 10.0, 3.0 / 2.0]))
OSC_INDEX_NEG = 0
OSC_INDEX_POS = 2


@dataclass(frozen=True)
class RootTriple:
    beta: float
    r1: complex
    r2: complex
    r3: complex

    @property
    def as_array(self) -> np.ndarray:
        return np.array([self.r1, self.r2, self.r3])

    @property
    def oscillatory_index(self) -> int:
        return OSC_INDEX_NEG if self.beta < 0 else OSC_INDEX_POS


def roots_of_symbol(beta: float) -> RootTriple:
    """The three roots of i*beta + r^5 = 0 with Re r <= 0 (beta = 0, a
    quintuple root, is rejected); one row of `stable_root_array`."""
    r = stable_root_array(np.array([beta]))[0]
    return RootTriple(beta=float(beta), r1=complex(r[0]), r2=complex(r[1]), r3=complex(r[2]))


def stable_root_array(betas: np.ndarray) -> np.ndarray:
    """Roots of i*beta + r^5 = 0 with Re r <= 0, shape (len(betas), 3).

    The real radical |beta|^(1/5) is taken as the positive real root and the
    complex roots are formed from explicit unit-modulus phases, so no
    principal-branch ambiguity enters.  All betas must be nonzero.
    """
    betas = np.asarray(betas, dtype=float)
    if np.any(betas == 0.0):
        raise ValueError("beta = 0 is excluded")
    radius = np.abs(betas) ** 0.2
    out = np.empty((len(betas), 3), dtype=np.complex128)
    neg = betas < 0
    out[neg] = radius[neg, None] * _PHASES_NEG[None, :]
    out[~neg] = radius[~neg, None] * _PHASES_POS[None, :]
    return out


def vandermonde_det(roots) -> complex:
    """(r3-r2)(r3-r1)(r2-r1), the determinant of the 1/r/r^2 system."""
    r = roots.as_array if isinstance(roots, RootTriple) else np.asarray(roots)
    return complex((r[2] - r[1]) * (r[2] - r[0]) * (r[1] - r[0]))


@dataclass(frozen=True)
class CoefficientTriple:
    beta: float
    c1: complex
    c2: complex
    c3: complex
    rhs: tuple

    @property
    def as_array(self) -> np.ndarray:
        return np.array([self.c1, self.c2, self.c3])


def solve_coefficients_batch(roots: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Closed-form Cramer solve of sum c_m r_m^k = rhs_{k+1}, k = 0,1,2.

    roots: (..., 3), rhs: (..., 3); returns (..., 3).
    """
    r1, r2, r3 = roots[..., 0], roots[..., 1], roots[..., 2]
    b1, b2, b3 = rhs[..., 0], rhs[..., 1], rhs[..., 2]
    det = (r3 - r2) * (r3 - r1) * (r2 - r1)
    c1 = (r3 - r2) * (b1 * r2 * r3 - b2 * (r2 + r3) + b3) / det
    c2 = -(r3 - r1) * (b1 * r1 * r3 - b2 * (r1 + r3) + b3) / det
    c3 = (r2 - r1) * (b1 * r1 * r2 - b2 * (r1 + r2) + b3) / det
    return np.stack([c1, c2, c3], axis=-1)


def solve_coefficients(roots: RootTriple, rhs) -> CoefficientTriple:
    """Cramer's rule for one root triple; raises on a degenerate system."""
    r = roots.as_array
    det = vandermonde_det(r)
    scale = max(1.0, float(np.max(np.abs(r))) ** 3)
    if abs(det) < 1e-13 * scale:
        raise ArithmeticError(f"near-degenerate root system at beta={roots.beta}: |det|={abs(det)}")
    rhs_arr = np.asarray(rhs, dtype=np.complex128)
    c = solve_coefficients_batch(r, rhs_arr)
    residual = np.array(
        [c.sum() - rhs_arr[0], (c * r).sum() - rhs_arr[1], (c * r * r).sum() - rhs_arr[2]]
    )
    denom = max(float(np.max(np.abs(rhs_arr))), float(np.max(np.abs(c))) * scale, 1e-300)
    if np.max(np.abs(residual)) > 1e-10 * denom:
        raise ArithmeticError(f"Cramer residual too large at beta={roots.beta}")
    return CoefficientTriple(
        beta=roots.beta,
        c1=complex(c[0]),
        c2=complex(c[1]),
        c3=complex(c[2]),
        rhs=tuple(complex(v) for v in rhs_arr),
    )


# ---------------------------------------------------------------------------
# Oscillatory quadrature in the substituted variable gamma = |beta|^(1/5).
# ---------------------------------------------------------------------------

_N_GEO_BLOCKS = 10
_PHASE_PER_PANEL = 6.0
_BASE_PANELS = 2


def gamma_panel_edges(
    gamma_max: float,
    depth: int,
    t_scale: float = 0.0,
    x_scale: float = 0.0,
) -> np.ndarray:
    """Panel edges on [0, gamma_max]: geometric blocks toward 0, each block
    subdivided so the oscillation phase (t_scale*gamma^5 + x_scale*gamma) per
    panel stays below a budget that halves with every depth increment."""
    if gamma_max <= 0:
        raise ValueError("gamma_max must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    blocks = [0.0] + [gamma_max * 2.0 ** (-i) for i in range(_N_GEO_BLOCKS, -1, -1)]
    edges = [0.0]
    for a, b in zip(blocks[:-1], blocks[1:]):
        phase = (b**5 - a**5) * t_scale + (b - a) * x_scale
        n = max(_BASE_PANELS, int(np.ceil(phase / _PHASE_PER_PANEL)))
        n = min(n * 2**depth, 1 << 14)
        edges.extend(a + (b - a) * (np.arange(1, n + 1) / n))
    return np.asarray(edges)


def panel_nodes_weights(edges: np.ndarray, nodes_per_panel: int = 8):
    """Composite Gauss-Legendre nodes/weights over the given panel edges."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    estimate: float
    depth: int
    node_count: int


def oscillatory_quadrature(
    integrand,
    sign: int,
    gamma_max: float,
    depth: int = 2,
    nodes_per_panel: int = 8,
    t_scale: float = 0.0,
    x_scale: float = 0.0,
) -> QuadratureResult:
    """Integrate `integrand(beta)` over one half-line of beta.

    Applies beta = sign*gamma^5 (dbeta = 5 gamma^4 dgamma), which turns
    |beta|^(-k/5) endpoint singularities into polynomials, then composite
    Gauss-Legendre on [0, gamma_max].  The returned estimate is the change
    under one depth doubling; a second doubling must shrink it, otherwise an
    AccuracyError is raised with diagnostics.
    """
    if sign not in (-1, 1):
        raise ValueError("sign must be -1 or +1")

    def run(d: int):
        gam, w = panel_nodes_weights(
            gamma_panel_edges(gamma_max, d, t_scale, x_scale), nodes_per_panel
        )
        betas = sign * gam**5
        vals = np.asarray(integrand(betas), dtype=np.complex128)
        return complex(np.sum(w * 5.0 * gam**4 * vals)), len(gam)

    v0, _ = run(depth)
    v1, _ = run(depth + 1)
    v2, n2 = run(depth + 2)
    e1, e2 = abs(v1 - v0), abs(v2 - v1)
    floor = 1e-14 * (abs(v2) + 1.0)
    if e2 > max(0.9 * e1, floor):
        raise AccuracyError(
            "oscillatory quadrature not converging under depth doubling: "
            f"|d{depth + 1}-d{depth}|={e1:.3e}, |d{depth + 2}-d{depth + 1}|={e2:.3e}, "
            f"gamma_max={gamma_max}, nodes={n2}"
        )
    return QuadratureResult(value=v2, estimate=e2, depth=depth + 2, node_count=n2)


# ---------------------------------------------------------------------------
# Field assembly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryQuadrature:
    """Data-independent node table for one truncation radius and target box."""

    collar: float
    betas: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # includes the 5 gamma^4 jacobian
    roots: np.ndarray = field(repr=False)  # (Q, 3)
    osc_index: np.ndarray = field(repr=False)  # (Q,) int in {0, 2}

    @classmethod
    def build(
        cls,
        beta_radius: float,
        depth: int,
        t_span: float,
        x_span: float,
        nodes_per_panel: int = 8,
        collar: float = 2.0,
    ) -> "BoundaryQuadrature":
        gamma_max = beta_radius**0.2
        betas, gammas, weights = [], [], []
        for sign in (-1, 1):
            gam, w = panel_nodes_weights(
                gamma_panel_edges(gamma_max, depth, t_scale=t_span, x_scale=x_span),
                nodes_per_panel,
            )
            betas.append(sign * gam**5)
            gammas.append(gam)
            weights.append(5.0 * gam**4 * w)
        betas = np.concatenate(betas)
        gammas = np.concatenate(gammas)
        weights = np.concatenate(weights)
        roots = stable_root_array(betas)
        osc = np.where(betas < 0, OSC_INDEX_NEG, OSC_INDEX_POS)
        return cls(
            collar=collar,
            betas=betas,
            gammas=gammas,
            weights=weights,
            roots=roots,
            osc_index=osc,
        )

    @property
    def node_count(self) -> int:
        return len(self.betas)


def truncation_radius(series, tolerance: float, cap: float):
    """Smallest radius outside which every spectrum is below tolerance*max.

    Returns (radius, tail_mass, ok).  tail_mass is the spectral l1 mass beyond
    the returned radius (only nonzero when the cap had to clamp the radius).
    """
    radius = 1.0
    ok = True
    tail = 0.0
    for h in series:
        spec = forward_transform(h)
        mags = np.abs(spec.coefficients)
        peak = float(mags.max())
        if peak == 0.0:
            continue
        freqs = np.abs(spec.frequencies)
        order = np.argsort(freqs)
        f_sorted, m_sorted = freqs[order], mags[order]
        from_above = np.maximum.accumulate(m_sorted[::-1])[::-1]
        below = from_above < tolerance * peak
        if np.any(below):
            needed = float(f_sorted[np.argmax(below)])
        else:
            needed = float(f_sorted[-1])
        if needed > cap:
            ok = False
            above = f_sorted > cap
            tail += float(np.sum(m_sorted[above]) * spec.grid.freq_step)
        radius = max(radius, min(needed, cap))
    return radius, tail, ok


_X_BLOCK = 128  # x targets per block of `BoundaryPotential.field_on_grid`


def _combine(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_m coef[q, m] * table[m, q, b] -> (Q, B)."""
    out = coef[:, 0, None] * table[0]
    term = np.empty_like(out)
    for m in (1, 2):
        out += np.multiply(coef[:, m, None], table[m], out=term)
    return out


def _positive_half(quad: BoundaryQuadrature) -> BoundaryQuadrature:
    """The beta > 0 nodes of a symmetric quadrature (the half rule)."""
    keep = quad.betas > 0
    return replace(
        quad,
        betas=quad.betas[keep],
        gammas=quad.gammas[keep],
        weights=quad.weights[keep],
        roots=quad.roots[keep],
        osc_index=quad.osc_index[keep],
    )


def _is_real(series) -> bool:
    return not any(np.any(h.values.imag) for h in series)


class BoundaryPotential:
    """Boundary-data field bound to one quadrature table (from data: `from_data`).

    Each data update costs one data transform and one batch of per-node
    Cramer solves; evaluation is then one dense contraction per x-block.
    Data whose three series have imaginary parts exactly zero at
    construction take the half rule: only the beta > 0 nodes of `quad` are
    evaluated (every table, `rhs` and `coeffs` hold those nodes only) and
    `field_values` / `trace_values` return 2 Re of their sum, as one real
    product of the interleaved (cos, sin) time table with (Re, -Im) of the
    kernel.  Such a potential refuses complex data in `update_data`; `quad`
    stays the full symmetric rule either way.

    The tables that do not depend on the data are built once per potential:

    * with `t_sel` (rows of the data's time grid where the field is wanted),
      the unweighted table e^{i beta_q t_n} on those rows, shape (T_sel, Q).
      It serves every evaluation on those times and, whenever the data
      vanish off those rows, the data transform too (through its conjugate);
      otherwise the transform falls back to `nonuniform_transform`.
    * in `field_on_grid`, the separable form e^{r_m x} = e^{r_m x_b}
      e^{r_m (x - x_b)} per x-block with left end x_b: one (3, Q, B) offset
      table shared by every block whose offsets match the first block's (all
      blocks of a uniform grid), one base vector per block and, for blocks
      that reach x < 0, the collar taper on the nodes where it does not
      vanish.

    The quadrature weights and (2 pi)^(-1/2) are folded into the per-node
    coefficients, so the contraction is a plain matrix product.
    """

    def __init__(self, quad: BoundaryQuadrature, h1, h2, h3, t_sel=None):
        self.quad = quad
        self._real = _is_real((h1, h2, h3))
        self._nodes = _positive_half(quad) if self._real else quad
        self.tgrid = h1.grid
        self.t_sel = None if t_sel is None else np.asarray(t_sel)
        self.ttargets = None
        self._ttable = None
        if self.t_sel is not None:
            self.ttargets = self.tgrid.nodes[self.t_sel]
            self._ttable = np.exp(1j * np.outer(self.ttargets, self._nodes.betas))
            self._off_rows = np.ones(self.tgrid.count, dtype=bool)
            self._off_rows[self.t_sel] = False
        self._osc = self._nodes.osc_index[:, None] == np.arange(3)  # (Q, 3)
        self._grid_key = None
        self._blocks: dict = {}
        self.update_data(h1, h2, h3)

    @classmethod
    def from_data(
        cls,
        h1: TimeSeries,
        h2: TimeSeries,
        h3: TimeSeries,
        *,
        depth: int,
        x_span: float,
        spectrum_tol: float = 1e-8,
        collar: float = 2.0,
        t_window: tuple | None = None,
        strict: bool = True,
    ) -> "BoundaryPotential | None":
        """Potential of (h1, h2, h3) bound to the rows of their time grid inside
        `t_window` (all rows for None), with its choices in `diagnostics`;
        None when all three series vanish.  A spectrum that does not fall
        below `spectrum_tol` inside the band cap raises PreconditionError when
        `strict`, else it is clamped there and reported as `tail_mass`."""
        series = (h1, h2, h3)
        tgrid = h1.grid
        if any(h.grid != tgrid for h in series):
            raise ValueError("boundary series must share one time grid")
        if not any(np.any(h.values) for h in series):
            return None
        cap = BAND_CAP * tgrid.nyquist
        radius, tail, ok = truncation_radius(series, spectrum_tol, cap)
        if not ok and strict:
            raise PreconditionError(
                "boundary data spectrum does not decay below "
                f"{spectrum_tol:g} (relative) within the usable band |beta| <= {cap:g}; "
                "refine the time grid or smooth the data"
            )
        tnodes = tgrid.nodes
        t_sel = np.arange(tgrid.count)
        if t_window is not None:
            t_sel = np.flatnonzero((tnodes >= t_window[0]) & (tnodes <= t_window[1]))
        ttargets = tnodes[t_sel]
        t_span = float(np.max(np.abs(ttargets))) if len(ttargets) else 1.0
        quad = BoundaryQuadrature.build(radius, depth, t_span, x_span, collar=collar)
        pot = cls(quad, h1, h2, h3, t_sel=t_sel)
        pot.diagnostics = {
            "beta_radius": radius,
            "gamma_max": radius**0.2,
            "depth": depth,
            "node_count": quad.node_count,
            "tail_mass": tail,
            "spectrum_within_band": ok,
            "t_span": t_span,
            "x_span": x_span,
        }
        return pot

    def update_data(self, h1, h2, h3) -> None:
        series = (h1, h2, h3)
        if self._real and not _is_real(series):
            raise ValueError(
                "complex boundary data for a potential built on real data (half rule); "
                "build a new potential"
            )
        nodes = self._nodes
        if self._ttable is not None and all(
            h.grid == self.tgrid and not np.any(h.values[self._off_rows]) for h in series
        ):
            data = np.stack([h.values[self.t_sel] for h in series], axis=-1)
            scale = self.tgrid.step / np.sqrt(2.0 * np.pi)
            self.rhs = scale * np.conj(self._ttable.T @ np.conj(data))
        else:
            self.rhs = np.stack(
                [nonuniform_transform(h, nodes.betas, support_tol=1e-15) for h in series],
                axis=-1,
            )
        self.coeffs = solve_coefficients_batch(nodes.roots, self.rhs)

    def _time_table(self, ttargets: np.ndarray) -> np.ndarray:
        if self._ttable is not None and np.array_equal(ttargets, self.ttargets):
            return self._ttable
        return np.exp(1j * np.outer(ttargets, self._nodes.betas))

    def _node_sum(self, table: np.ndarray, values: np.ndarray) -> np.ndarray:
        """table @ values over the evaluated nodes; on the half rule 2 Re of
        it, as the real product of table's (cos, sin) columns with (Re, -Im)."""
        if not self._real:
            return table @ values
        pairs = np.stack([values.real, -values.imag], axis=1)
        return 2.0 * (table.view(np.float64) @ pairs.reshape(2 * len(values), *values.shape[1:]))

    def _x_block_tables(self, xs: np.ndarray, shared=None) -> tuple:
        """(offsets, offset table, base, live rows, taper) of an x-block; x_b = min xs.

        The offset table (3, Q, B) holds e^{r_m (x - x_b)} and is taken from
        the tables `shared` of another block when the offsets agree to the
        rounding of the nodes; base (Q, 3) holds e^{r_m x_b}.  On x >= 0 the
        collar cutoff is 1 and live/taper are None.  Otherwise the
        decaying-root base entries are zeroed on the nodes whose taper
        vanishes across the block (so an overflowing e^{Re r x_b} never meets
        a zero taper), and the taper is kept on the remaining `live` rows only.
        """
        quad = self._nodes
        x_b = float(np.min(xs))
        offsets = xs - x_b
        if shared is not None and len(shared[0]) == len(offsets) and np.allclose(
            shared[0], offsets, rtol=0.0, atol=4.0 * np.finfo(float).eps * np.max(np.abs(xs))
        ):
            table = shared[1]
        else:
            table = np.exp(quad.roots.T[:, :, None] * offsets)
        z = quad.roots * x_b
        if x_b >= 0:
            return offsets, table, np.exp(z), None, None
        taper = rho(np.outer(quad.gammas, xs), quad.collar)
        live = np.any(taper, axis=1)
        base = np.zeros_like(z)
        keep = self._osc | live[:, None]
        base[keep] = np.exp(z[keep])
        live = slice(None) if live.all() else np.flatnonzero(live)
        return offsets, table, base, live, taper[live]

    def _weighted_coefficients(self, root_power: int) -> tuple:
        """w_q (2 pi)^(-1/2) c_m(beta_q) r_m^root_power split into its
        oscillatory-root and decaying-root entries, (Q, 3) each."""
        nodes = self._nodes
        coeffs = self.coeffs * nodes.roots**root_power if root_power else self.coeffs
        weighted = coeffs * (nodes.weights / np.sqrt(2.0 * np.pi))[:, None]
        return np.where(self._osc, weighted, 0.0), np.where(self._osc, 0.0, weighted)

    def field_values(self, xtargets, ttargets, root_power: int = 0) -> np.ndarray:
        """Field samples, shape (len(xtargets), len(ttargets)).

        root_power = 5 gives the analytic fifth x-derivative (valid where the
        collar cutoff is identically 1, i.e. x >= 0).
        """
        xtargets = np.atleast_1d(np.asarray(xtargets, dtype=float))
        ttargets = np.asarray(ttargets, dtype=float)
        osc, dec = self._weighted_coefficients(root_power)
        tables = self._blocks.get(xtargets.tobytes()) or self._x_block_tables(xtargets)
        _, table, base, live, taper = tables
        if live is None:
            kernel = _combine(base * (osc + dec), table)
        else:
            kernel = _combine(base * osc, table)
            kernel[live] += taper * _combine((base * dec)[live], table[:, live])
        return self._node_sum(self._time_table(ttargets), kernel).T

    def field_on_grid(self, xnodes) -> np.ndarray:
        """Field on xnodes and every node of the data's time grid, shape
        (X, T); zero off the rows `t_sel`.

        Evaluated by `field_values` in blocks of _X_BLOCK targets.  The block
        tables stay for the next call on the same nodes, which the
        fixed-point loop makes once per application.
        """
        if self.t_sel is None:
            raise ValueError("field_on_grid needs a potential bound to time rows (t_sel)")
        xnodes = np.asarray(xnodes, dtype=float)
        if xnodes.tobytes() != self._grid_key:
            self._grid_key, self._blocks = xnodes.tobytes(), {}
        values = np.zeros((len(xnodes), self.tgrid.count), dtype=np.complex128)
        for start in range(0, len(xnodes), _X_BLOCK):
            xs = xnodes[start : start + _X_BLOCK]
            if xs.tobytes() not in self._blocks:
                first = next(iter(self._blocks.values()), None)
                self._blocks[xs.tobytes()] = self._x_block_tables(xs, first)
            values[start : start + _X_BLOCK, self.t_sel] = self.field_values(xs, self.ttargets)
        return values

    def trace_values(self, j: int, ttargets) -> np.ndarray:
        """d^j/dx^j at x = 0 from the analytic kernel derivatives (r^j factors)."""
        if j not in (0, 1, 2):
            raise ValueError(f"trace order j must be 0, 1, or 2, got {j}")
        ttargets = np.asarray(ttargets, dtype=float)
        nodes = self._nodes
        node_vals = np.sum(self.coeffs * nodes.roots**j, axis=-1)
        phases = self._time_table(ttargets)
        return self._node_sum(phases, nodes.weights * node_vals) / np.sqrt(2.0 * np.pi)

    def trace_on_grid(self, j: int) -> TimeSeries:
        """Trace of order j on the data's time grid; zero off the rows `t_sel`."""
        if self.t_sel is None:
            raise ValueError("trace_on_grid needs a potential bound to time rows (t_sel)")
        vals = np.zeros(self.tgrid.count, dtype=np.complex128)
        vals[self.t_sel] = self.trace_values(j, self.ttargets)
        return TimeSeries(self.tgrid, vals)


@dataclass(frozen=True)
class BoundaryAssembly:
    field: SpaceTimeField
    diagnostics: dict
    potential: BoundaryPotential


def assemble_boundary_potential(
    h1: TimeSeries,
    h2: TimeSeries,
    h3: TimeSeries,
    xgrid: UniformGrid,
    tgrid: UniformGrid,
    depth: int = 2,
    t_window: tuple | None = None,
) -> BoundaryAssembly:
    """Assemble the boundary-data field on a space-time grid.

    Data must be smooth, supported in t > 0, and rapidly decaying in
    frequency: the truncation radius is chosen where all three spectra fall
    below 1e-8 relative to their peaks, inside the band |beta| <= BAND_CAP *
    Nyquist, and a spectrum that does not decay there raises
    PreconditionError.  The spectral tail beyond the radius contributes
    roughly 1e-8 * (decay length) to the field, well under typical 1e-6
    accuracy targets.

    `t_window` restricts evaluation to a sub-range of tgrid (other samples
    are zero); callers that multiply by a compactly supported time cutoff use
    this to avoid paying for samples the cutoff kills.
    """
    if h1.grid != tgrid:
        raise ValueError("boundary series must live on the assembly time grid")
    x_span = float(np.max(np.abs(xgrid.nodes)))
    pot = BoundaryPotential.from_data(h1, h2, h3, depth=depth, x_span=x_span, t_window=t_window)
    if pot is None:
        zero = np.zeros((xgrid.count, tgrid.count), dtype=np.complex128)
        diagnostics = {"beta_radius": 0.0, "node_count": 0, "tail_mass": 0.0}
        return BoundaryAssembly(SpaceTimeField(xgrid, tgrid, zero), diagnostics, None)
    values = pot.field_on_grid(xgrid.nodes)
    return BoundaryAssembly(SpaceTimeField(xgrid, tgrid, values), pot.diagnostics, pot)


def boundary_potential_traces(
    h1: TimeSeries,
    h2: TimeSeries,
    h3: TimeSeries,
    tgrid: UniformGrid,
    j: int,
    depth: int = 2,
    t_window: tuple | None = None,
) -> TimeSeries:
    """x = 0 trace of order j of the assembled field, on the time grid.

    Derivatives come from the kernel exponentials analytically (factors r^j);
    no finite differences are involved.  Truncation as in
    `assemble_boundary_potential`.
    """
    pot = BoundaryPotential.from_data(h1, h2, h3, depth=depth, x_span=0.0, t_window=t_window)
    if pot is None:
        return TimeSeries(tgrid, np.zeros(tgrid.count, dtype=np.complex128))
    return pot.trace_on_grid(j)
