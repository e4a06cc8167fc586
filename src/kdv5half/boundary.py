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
substitution beta = gamma^5 removes the singularity exactly, and
composite Gauss-Legendre in gamma (geometric panels toward 0, phase-graded
panel counts) does the rest, up to the truncation radius that
`BoundaryPotential.from_data` reads off the data spectra.

The problem is real, and so is every boundary datum: for real h_j,
h_j_hat(-beta) = conj h_j_hat(beta) and the stable roots at -beta are the
conjugates of those at beta in reversed order, so the beta < 0 half of the
integral is the conjugate of the beta > 0 half.  The quadrature therefore
tabulates the beta > 0 nodes only, the potential returns 2 Re of their sum,
and data with a nonzero imaginary part are refused (PreconditionError).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import rho
from .grids import TimeSeries
from .spectral import BAND_CAP, nonuniform_transform, x_spectrum

__all__ = [
    "AccuracyError",
    "PreconditionError",
    "stable_root_array",
    "solve_coefficients_batch",
    "gamma_panel_edges",
    "panel_nodes_weights",
    "BoundaryQuadrature",
    "BoundaryPotential",
    "truncation_radius",
    "boundary_potential_traces",
]


class AccuracyError(RuntimeError):
    """A quadrature or convergence target was not met."""


class PreconditionError(ValueError):
    """Input data violates a stated operating precondition."""


# Root phases (stable half-plane Re r <= 0), one list per sign of beta.  The
# purely oscillatory root is index 0 for beta < 0 and index 2 for beta > 0;
# the quadrature holds beta > 0 nodes only, so _OSC masks its oscillatory root.
_PHASES_NEG = np.exp(1j * np.pi * np.array([1.0 / 2.0, 9.0 / 10.0, 13.0 / 10.0]))
_PHASES_POS = np.exp(1j * np.pi * np.array([7.0 / 10.0, 11.0 / 10.0, 3.0 / 2.0]))
_OSC = np.arange(3) == 2


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


# ---------------------------------------------------------------------------
# Field assembly.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryQuadrature:
    """Data-independent node table for one truncation radius and target box.

    Only the beta > 0 half of the symmetric rule is tabulated (the beta < 0
    half is its mirror, see the module docstring); `node_count` counts both.
    """

    collar: float
    betas: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # includes the 5 gamma^4 jacobian
    roots: np.ndarray = field(repr=False)  # (Q, 3)

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
        gammas, w = panel_nodes_weights(
            gamma_panel_edges(beta_radius**0.2, depth, t_scale=t_span, x_scale=x_span),
            nodes_per_panel,
        )
        betas = gammas**5
        return cls(
            collar=collar,
            betas=betas,
            gammas=gammas,
            weights=5.0 * gammas**4 * w,
            roots=stable_root_array(betas),
        )

    @property
    def node_count(self) -> int:
        """Nodes of the symmetric rule on both signs of beta."""
        return 2 * len(self.betas)


def truncation_radius(series, tolerance: float, cap: float):
    """Smallest radius outside which every spectrum is below tolerance*max.

    Returns (radius, tail_mass, ok).  tail_mass is the spectral l1 mass beyond
    the returned radius (only nonzero when the cap had to clamp the radius).
    """
    radius = 1.0
    ok = True
    tail = 0.0
    for h in series:
        mags = np.abs(x_spectrum(h.values, h.grid))
        peak = float(mags.max())
        if peak == 0.0:
            continue
        freqs = np.abs(h.grid.frequencies)
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
            tail += float(np.sum(m_sorted[above]) * h.grid.freq_step)
        radius = max(radius, min(needed, cap))
    return radius, tail, ok


_X_BLOCK = 128  # x targets per `field_values` block (`field_on_grid`, the initial-vanishing probe)


def _combine(coef: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_m coef[q, m] * table[m, q, b] -> (Q, B)."""
    out = coef[:, 0, None] * table[0]
    term = np.empty_like(out)
    for m in (1, 2):
        out += np.multiply(coef[:, m, None], table[m], out=term)
    return out


class BoundaryPotential:
    """Boundary-data field bound to one quadrature table (from data: `from_data`).

    Each data update costs one data transform and one batch of per-node
    Cramer solves; evaluation is then one dense contraction per x-block.
    The data must be real (PreconditionError otherwise): every table, `rhs`
    and `coeffs` hold the beta > 0 nodes of `quad` only, and `field_values` /
    `trace_values` return 2 Re of their sum, as one real product of the
    interleaved (cos, sin) time table with (Re, -Im) of the kernel.

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
        self.tgrid = h1.grid
        self.t_sel = None if t_sel is None else np.asarray(t_sel)
        self.ttargets = None
        self._ttable = None
        if self.t_sel is not None:
            self.ttargets = self.tgrid.nodes[self.t_sel]
            self._ttable = np.exp(1j * np.outer(self.ttargets, quad.betas))
            self._off_rows = np.ones(self.tgrid.count, dtype=bool)
            self._off_rows[self.t_sel] = False
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
        if any(np.any(h.values.imag) for h in series):
            raise PreconditionError(
                "boundary data must be real: the potential sums the beta > 0 nodes only"
            )
        quad = self.quad
        if self._ttable is not None and all(
            h.grid == self.tgrid and not np.any(h.values[self._off_rows]) for h in series
        ):
            data = np.stack([h.values[self.t_sel] for h in series], axis=-1)
            scale = self.tgrid.step / np.sqrt(2.0 * np.pi)
            self.rhs = scale * np.conj(self._ttable.T @ np.conj(data))
        else:
            self.rhs = np.stack(
                [nonuniform_transform(h, quad.betas, support_tol=1e-15) for h in series],
                axis=-1,
            )
        self.coeffs = solve_coefficients_batch(quad.roots, self.rhs)

    def _time_table(self, ttargets: np.ndarray) -> np.ndarray:
        if self._ttable is not None and np.array_equal(ttargets, self.ttargets):
            return self._ttable
        return np.exp(1j * np.outer(ttargets, self.quad.betas))

    @staticmethod
    def _node_sum(table: np.ndarray, values: np.ndarray) -> np.ndarray:
        """2 Re (table @ values), as the real product of table's (cos, sin)
        columns with (Re, -Im) of values."""
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
        quad = self.quad
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
        keep = _OSC | live[:, None]
        base[keep] = np.exp(z[keep])
        live = slice(None) if live.all() else np.flatnonzero(live)
        return offsets, table, base, live, taper[live]

    def _weighted_coefficients(self, root_power: int) -> tuple:
        """w_q (2 pi)^(-1/2) c_m(beta_q) r_m^root_power split into its
        oscillatory-root and decaying-root entries, (Q, 3) each."""
        quad = self.quad
        coeffs = self.coeffs * quad.roots**root_power if root_power else self.coeffs
        weighted = coeffs * (quad.weights / np.sqrt(2.0 * np.pi))[:, None]
        return np.where(_OSC, weighted, 0.0), np.where(_OSC, 0.0, weighted)

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
        """Real field on xnodes and every node of the data's time grid, shape
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
        values = np.zeros((len(xnodes), self.tgrid.count))
        for start in range(0, len(xnodes), _X_BLOCK):
            xs = xnodes[start : start + _X_BLOCK]
            if xs.tobytes() not in self._blocks:
                first = next(iter(self._blocks.values()), None)
                self._blocks[xs.tobytes()] = self._x_block_tables(xs, first)
            values[start : start + _X_BLOCK, self.t_sel] = self.field_values(xs, self.ttargets)
        return values

    def trace_values(self, ttargets) -> np.ndarray:
        """d^j/dx^j at x = 0 for j = 0, 1, 2 from the analytic kernel
        derivatives (r^j factors), shape (3, len(ttargets))."""
        ttargets = np.asarray(ttargets, dtype=float)
        quad = self.quad
        node_vals = np.sum(self.coeffs[:, :, None] * quad.roots[:, :, None] ** np.arange(3), axis=1)
        phases = self._time_table(ttargets)
        return self._node_sum(phases, quad.weights[:, None] * node_vals).T / np.sqrt(2.0 * np.pi)

    def trace_on_grid(self) -> tuple:
        """Traces of orders 0, 1, 2 on the data's time grid, as three
        TimeSeries; zero off the rows `t_sel`."""
        if self.t_sel is None:
            raise ValueError("trace_on_grid needs a potential bound to time rows (t_sel)")
        vals = np.zeros((3, self.tgrid.count), dtype=np.complex128)
        vals[:, self.t_sel] = self.trace_values(self.ttargets)
        return tuple(TimeSeries(self.tgrid, v) for v in vals)


def boundary_potential_traces(
    h1: TimeSeries,
    h2: TimeSeries,
    h3: TimeSeries,
    depth: int = 2,
) -> tuple:
    """x = 0 traces of orders 0, 1, 2 of the assembled field, as three
    TimeSeries on the data's time grid (zero series for all-zero data).

    Derivatives come from the kernel exponentials analytically (factors r^j);
    no finite differences are involved.  The truncation radius is where all
    three spectra fall below 1e-8 of their peaks, and data whose spectra do
    not decay inside the band cap raise PreconditionError.
    """
    pot = BoundaryPotential.from_data(h1, h2, h3, depth=depth, x_span=0.0)
    if pot is None:
        zero = TimeSeries(h1.grid, np.zeros(h1.grid.count, dtype=np.complex128))
        return zero, zero, zero
    return pot.trace_on_grid()
