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
tabulates the beta > 0 nodes only and the potential returns 2 Re of their
sum; the data are real because a TimeSeries holds real samples only.

The time table is folded about t = 0 as well: e^{-i beta t} is the conjugate
of e^{i beta t}, so the field at +-t is 2 (cos(beta |t|) Re K -+ sin(beta |t|)
Im K) for the kernel sums K, and the potential stores real cos and sin of
beta |t| on the distinct values of |t| among its rows only.  Rows pair by
exact equality of |t|; a symmetric window needs half the table.

Both dense tables come from exact angle sums (`spectral.phase_table`): the
folded time table's cos and sin of beta |t|, and the x-block offset planes
e^{r_m (x - x_b)}, as e^{Re r_m o} times cos and sin of Im r_m o over the
offsets o = x - x_b.  libm's cos and sin run once per distinct coarse and
fine row of the split t = m H + r, not once per entry.

A field evaluation is one node sum over all of its targets: each chunk of
nodes forms its kernel planes on every x target, and their products with the
chunk's time-table columns, gemms as wide as the target set, add into
accumulators on the distinct |t|.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cutoffs import rho
from .grids import PreconditionError, TimeSeries
from .spectral import BAND_CAP, distinct_rows, half_multiplicity, phase_table, x_half_spectrum

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


# Root phases (stable half-plane Re r <= 0), one list per sign of beta.  The
# purely oscillatory root is index 0 for beta < 0 and index 2 for beta > 0;
# the quadrature holds beta > 0 nodes only, so column 2 is its oscillatory root.
_PHASES_NEG = np.exp(1j * np.pi * np.array([1.0 / 2.0, 9.0 / 10.0, 13.0 / 10.0]))
_PHASES_POS = np.exp(1j * np.pi * np.array([7.0 / 10.0, 11.0 / 10.0, 3.0 / 2.0]))


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
    the returned radius, on both signs of xi (only nonzero when the cap had to
    clamp the radius).  The half-spectrum rows run in increasing |xi|.
    """
    radius = 1.0
    ok = True
    tail = 0.0
    for h in series:
        mags = np.abs(x_half_spectrum(h.values, h.grid))
        peak = float(mags.max())
        if peak == 0.0:
            continue
        freqs = np.abs(h.grid.frequencies[: len(mags)])
        from_above = np.maximum.accumulate(mags[::-1])[::-1]
        below = from_above < tolerance * peak
        if np.any(below):
            needed = float(freqs[np.argmax(below)])
        else:
            needed = float(freqs[-1])
        if needed > cap:
            ok = False
            above = freqs > cap
            tail += float(np.sum((half_multiplicity(h.grid) * mags)[above]) * h.grid.freq_step)
        radius = max(radius, min(needed, cap))
    return radius, tail, ok


# x targets per offset table.  `field_values` splits its targets into blocks
# of X_BLOCK; on a uniform grid every block, a shorter last one included,
# reads the first block's (Q, 6, X_BLOCK) offset table, so a potential holds
# one table however many targets it evaluates.
X_BLOCK = 128

# Most nodes per chunk of the node sum, whose (NODE_CHUNK, X) buffer holds
# one kernel plane on every x target at a time.  On a 2-core host, with the
# 258 distinct |t| and Q = 4480 nodes of the bundled 1024 x 1024 solve,
# (258 x 560) @ (560 x 1024) ran at about 86 GFlop/s, against 81 at 224
# nodes, 71 for one x-block of 128 targets over all nodes and 91 for a
# square 1024 x 1024 product.  Larger chunks gain nothing and hold more.
NODE_CHUNK = 560

# x targets per compact collar taper on an x < 0 block: each such run of
# columns sums the decaying roots on its own live prefix of nodes.
TAPER_BLOCK = 32


def _offset_planes(roots: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Real planes (Q, 6, B) [Re E_0, Im E_0, Re E_1, Im E_1, Re E_2, Im E_2]
    of E_m = e^{r_m o} for the roots (Q, 3) and the offsets o >= 0 (B), one
    root at a time: e^{Re r_m o} <= 1 in the Re plane, times cos and sin of
    Im r_m o, which `phase_table` writes from exact angle sums over the
    offsets into one (B, Q) pair shared by the three roots."""
    out = np.empty((len(roots), 6, len(offsets)))
    cos, sin = np.empty((2, len(offsets), len(roots)))
    for m in range(3):
        phase_table(offsets, roots[:, m].imag, cos, sin)
        re, im = out[:, 2 * m], out[:, 2 * m + 1]
        np.exp(np.outer(roots[:, m].real, offsets, out=re), out=re)
        np.multiply(re, sin.T, out=im)
        re *= cos.T
    return out


def _coefficient_blocks(coef: np.ndarray) -> np.ndarray:
    """Real (Q, 2, 6) matrices of the complex coef (Q, 3) that map real
    planes (Q, 6, B) [Re z_0, Im z_0, Re z_1, Im z_1, Re z_2, Im z_2] to Re
    and Im of sum_m coef_m z_m: blocks [[a, -b], [b, a]] of a + ib = coef_m,
    so the kernel planes are one batched matmul."""
    a, b = coef.real, coef.imag
    rows = np.stack([np.stack([a, -b], axis=-1), np.stack([b, a], axis=-1)], axis=1)
    return rows.reshape(len(coef), 2, 6)


@dataclass(frozen=True)
class _FoldedTable:
    """e^{i beta t} on the targets t, folded about t = 0: cos and sin of
    beta |t| on the distinct |t| (U, Q), which `phase_table` writes in
    place, the row of each target among them and sign(t)."""

    cos: np.ndarray
    sin: np.ndarray
    rows: np.ndarray
    sign: np.ndarray

    @classmethod
    def build(cls, ttargets: np.ndarray, betas: np.ndarray) -> "_FoldedTable":
        mags, rows = distinct_rows(np.abs(ttargets))
        shape = (len(mags), len(betas))
        cos, sin = np.empty(shape), np.empty(shape)
        phase_table(mags, betas, cos, sin)
        return cls(cos, sin, rows, np.sign(ttargets))

    def node_sum(self, fill, width: int) -> np.ndarray:
        """2 Re (e^{i beta t} @ K) on the targets, (T, width), for the kernel
        K whose plane 0 (Re K) or 1 (Im K) `fill(nodes, plane, kernel)`
        writes into the (n, width) buffer `kernel` on a slice of nodes.  The
        nodes run in equal chunks of at most NODE_CHUNK; each plane of a
        chunk meets the chunk's cos or sin columns in one real product that
        adds into the accumulator even or odd on the distinct |t|.  The
        buffer goes before the rows at +|t| gather 2 (even - odd) and those
        at -|t| 2 (even + odd)."""
        count = self.cos.shape[1]
        chunks = -(-count // NODE_CHUNK)
        size = -(-count // chunks)
        sums = np.zeros((3, len(self.cos), width))  # even, odd, then even + odd
        even, odd, part = sums
        buffer = np.empty((size, width))
        for lo in range(0, count, size):
            nodes = slice(lo, min(lo + size, count))
            kernel = buffer[: nodes.stop - lo]
            for plane, (table, acc) in enumerate(((self.cos, even), (self.sin, odd))):
                fill(nodes, plane, kernel)
                acc += np.matmul(table[:, nodes], kernel, out=part)
        del buffer, kernel
        np.add(even, odd, out=part)
        even -= odd
        out = sums.reshape(-1, width)[self.rows + 2 * len(even) * (self.sign < 0)]
        out *= 2.0
        return out

    def transform(self, data: np.ndarray) -> np.ndarray:
        """sum_n e^{-i beta t_n} data[n] for real data (T, C), (Q, C): the
        data summed over each |t| pair, weighted by 1 and by sign(t), against
        the cos and sin columns."""
        even, odd = np.zeros((2, len(self.cos), data.shape[1]))
        np.add.at(even, self.rows, data)
        np.add.at(odd, self.rows, self.sign[:, None] * data)
        return self.cos.T @ even - 1j * (self.sin.T @ odd)


class BoundaryPotential:
    """Boundary-data field bound to one quadrature table and to the rows
    `t_sel` (a slice or index array) of the data's time grid (from data:
    `from_data`).

    Each data update costs one data transform and one batch of per-node
    Cramer solves; evaluation is then one node sum over every target.
    The data are real TimeSeries, so every table, `rhs` and `coeffs` hold
    the beta > 0 nodes of `quad` only, and `field_values` /
    `trace_values` return 2 Re of their sum.  The sum runs over chunks of
    at most NODE_CHUNK nodes: each chunk's real planes of Re and Im of the
    kernel on all X targets, one batched real matmul away from the tables
    and formed one at a time in a (NODE_CHUNK, X) buffer, meet the chunk's
    columns of the folded time table's cos and sin in two real products
    that add into (U, X) accumulators.

    The tables that do not depend on the data are built once per potential:

    * on the required rows `t_sel` of the data's time grid (where the field
      is wanted), the unweighted table e^{i beta_q t_n} folded about t = 0:
      real cos and sin of beta_q |t|, shape (U, Q) for the U distinct |t_n|,
      with the map back to the rows and sign(t_n) (U = 258 for the 515 rows
      of a symmetric 1024-node solver window).  It serves every evaluation
      on those times and, through its conjugate, the data transform, so the
      data must vanish off those rows (ValueError otherwise).
    * in `field_values`, the separable form e^{r_m x} = e^{r_m x_b}
      e^{r_m (x - x_b)} per x-block with left end x_b: one offset table of
      real planes (Q, 6, B), Re and Im of e^{r_m (x - x_b)} for m = 0, 1, 2,
      made by the first block evaluated and read by every block whose
      offsets match a prefix of it (all blocks of a uniform grid, a shorter
      last one included), one base vector per block and, for blocks that
      reach x < 0, per run of TAPER_BLOCK columns a compact copy of the
      collar taper on the prefix of nodes where it does not vanish.  They
      are kept per block for the next call on the same targets; a block
      that cannot read the first block's table builds its own for that call
      only.

    The quadrature weights and (2 pi)^(-1/2) are folded into the per-node
    coefficients `coeffs` once per data update, so the contraction is a
    plain matrix product.
    """

    def __init__(self, quad: BoundaryQuadrature, h1, h2, h3, t_sel):
        self.quad = quad
        self.tgrid = h1.grid
        self.t_sel = t_sel
        self.ttargets = self.tgrid.nodes[self.t_sel]
        self._ttable = _FoldedTable.build(self.ttargets, quad.betas)
        self._off_rows = np.ones(self.tgrid.count, dtype=bool)
        self._off_rows[self.t_sel] = False
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
        `t_window` by the `UniformGrid.window` rule, as a slice (all rows for
        None; data nonzero outside raise ValueError),
        with its choices in `diagnostics`; None when all three series vanish.
        A spectrum that does not fall below `spectrum_tol` inside the band cap
        raises PreconditionError when `strict`, else it is clamped there and
        reported as `tail_mass`."""
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
        t_sel = slice(None) if t_window is None else tgrid.window(*t_window)
        ttargets = tgrid.nodes[t_sel]
        t_span = float(np.max(np.abs(ttargets), initial=0.0))
        quad = BoundaryQuadrature.build(radius, depth, t_span, x_span, collar=collar)
        pot = cls(quad, h1, h2, h3, t_sel=t_sel)
        pot.diagnostics = {
            "beta_radius": radius,
            "spectrum_within_band": ok,
            "tail_mass": tail,
            "quadrature_nodes": quad.node_count,
        }
        return pot

    def update_data(self, h1, h2, h3) -> None:
        series = (h1, h2, h3)
        if any(h.grid != self.tgrid or np.any(h.values[self._off_rows]) for h in series):
            raise ValueError(
                "boundary data must lie on the potential's time grid and vanish off its rows t_sel"
            )
        data = np.stack([h.values[self.t_sel] for h in series], axis=-1)
        scale = self.tgrid.step / np.sqrt(2.0 * np.pi)
        self.rhs = scale * self._ttable.transform(data)
        # w_q (2 pi)^(-1/2) c_m(beta_q), (Q, 3).
        self.coeffs = solve_coefficients_batch(self.quad.roots, self.rhs)
        self.coeffs *= (self.quad.weights / np.sqrt(2.0 * np.pi))[:, None]

    def _time_table(self, ttargets: np.ndarray) -> _FoldedTable:
        if np.array_equal(ttargets, self.ttargets):
            return self._ttable
        return _FoldedTable.build(ttargets, self.quad.betas)

    def _x_block_tables(self, xs: np.ndarray, shared=None) -> tuple:
        """(offsets, offset planes, base, live, tapers) of an x-block; x_b = min xs.

        The offset planes (Q, 6, B) of e^{r_m (x - x_b)} are a prefix of the
        planes of the tables `shared` of another block when the offsets agree
        with a prefix of its offsets to the rounding of the nodes; base (Q,
        3) holds e^{r_m x_b}.  On x >= 0 the
        collar cutoff is 1 and live/tapers are None.  Otherwise rho(gamma x)
        vanishes for gamma |x| >= collar and the gammas ascend, so the nodes
        where the taper does not vanish on a run of columns are a prefix.
        `tapers` holds one compact (live_s, TAPER_BLOCK) copy of the taper
        on its prefix per run of TAPER_BLOCK columns (a shorter last run
        included), and `live` is the longest prefix; the decaying-root base
        entries are zeroed past it (so an overflowing e^{Re r x_b} never
        meets a zero taper).
        """
        quad = self.quad
        x_b = float(np.min(xs))
        offsets = xs - x_b
        n = len(offsets)
        if shared is not None and len(shared[0]) >= n and np.allclose(
            shared[0][:n], offsets, rtol=0.0, atol=4.0 * np.finfo(float).eps * np.max(np.abs(xs))
        ):
            table = shared[1][:, :, :n]
        else:
            table = _offset_planes(quad.roots, offsets)
        z = quad.roots * x_b
        if x_b >= 0:
            return offsets, table, np.exp(z), None, None
        taper = rho(np.outer(quad.gammas, xs), quad.collar)
        tapers = []
        for start in range(0, n, TAPER_BLOCK):
            run = taper[:, start : start + TAPER_BLOCK]
            live = int(np.count_nonzero(np.any(run, axis=1)))  # a prefix: see above
            tapers.append(run[:live].copy())
        live = max(len(run) for run in tapers)
        base = np.zeros_like(z)
        base[:, 2] = np.exp(z[:, 2])
        base[:live, :2] = np.exp(z[:live, :2])
        return offsets, table, base, live, tuple(tapers)

    def _block_tables(self, xs: np.ndarray) -> tuple:
        """The kept tables of the x-block xs, built on the first call on it."""
        key = xs.tobytes()
        tables = self._blocks.get(key)
        if tables is None:
            first = next(iter(self._blocks.values()), None)
            tables = self._x_block_tables(xs, first)
            if first is None or tables[1].base is first[1]:  # a view of the kept table
                self._blocks[key] = tables
        return tables

    def field_values(self, xtargets, ttargets) -> np.ndarray:
        """Field samples, shape (len(xtargets), len(ttargets)): one node sum
        over every target, with the x-block tables kept as the class
        docstring says.

        Consecutive blocks that read one offset table form a run whose
        coefficient blocks are stacked to (Q, 2, blocks, 6), so a kernel
        plane of a node chunk is one batched matmul per run.  On an x < 0
        block the run sums the oscillatory root (column 2) only, and the two
        decaying roots are added under the taper on the live prefix of each
        TAPER_BLOCK columns; the other entries are zero and are not summed."""
        xtargets = np.atleast_1d(np.asarray(xtargets, dtype=float))
        ttargets = np.asarray(ttargets, dtype=float)
        runs, tapered = [], []
        for start in range(0, len(xtargets), X_BLOCK):
            _, table, base, live, tapers = self._block_tables(xtargets[start : start + X_BLOCK])
            coef = _coefficient_blocks(base * self.coeffs)
            if tapers is not None:
                tapered.append((start, table, coef[:live, :, :4].copy(), tapers))
                coef[:, :, :4] = 0.0
            same = runs and runs[-1][1].shape == table.shape
            if same and np.may_share_memory(runs[-1][1], table):  # a view of the same kept table
                runs[-1][2].append(coef)
            else:
                runs.append((start, table, [coef]))
        runs = [
            (slice(start, start + len(coefs) * table.shape[2]), table, np.stack(coefs, axis=2))
            for start, table, coefs in runs
        ]

        def fill(nodes: slice, plane: int, kernel: np.ndarray) -> None:
            for cols, table, coef in runs:  # coef (Q, 2, blocks, 6), table (Q, 6, B)
                out = kernel[:, cols].reshape((len(kernel), coef.shape[2], -1), copy=False)
                np.matmul(coef[nodes, plane], table[nodes], out=out)
            for start, table, coef, tapers in tapered:
                for sub, taper in zip(range(0, table.shape[2], TAPER_BLOCK), tapers):
                    rows = slice(nodes.start, min(nodes.stop, len(taper)))  # live in the chunk
                    if rows.start < rows.stop:
                        cols = slice(sub, sub + taper.shape[1])
                        decaying = np.einsum("qj,qjb->qb", coef[rows, plane], table[rows, :4, cols])
                        decaying *= taper[rows]
                        kernel[: len(decaying), start + sub : start + cols.stop] += decaying

        return self._time_table(ttargets).node_sum(fill, len(xtargets)).T

    def add_field_on_grid(self, values: np.ndarray, xnodes, weight: np.ndarray) -> None:
        """values += weight(t) * field, in place, for the real (X, T) samples
        `values` on xnodes and every node of the data's time grid and a real
        weight of shape (T,); the columns off `t_sel`, where the field is
        zero, are left as they are.

        One `field_values` call on every x node and the rows `t_sel`, whose
        result is weighted in place and added on those rows.  The block
        tables stay for the next call on the same nodes, which the
        fixed-point loop makes once per application.
        """
        field = self.field_values(xnodes, self.ttargets)
        field *= weight[self.t_sel]
        values[:, self.t_sel] += field

    def trace_values(self, ttargets) -> np.ndarray:
        """d^j/dx^j at x = 0 for j = 0, 1, 2 from the analytic kernel
        derivatives (r^j factors), shape (3, len(ttargets))."""
        ttargets = np.asarray(ttargets, dtype=float)
        powers = self.quad.roots[:, :, None] ** np.arange(3)  # (Q, 3, 3): r_m^j
        powers = np.stack([powers.real, powers.imag], axis=2).reshape(len(powers), 6, 3)
        blocks = _coefficient_blocks(self.coeffs)
        return self._time_table(ttargets).node_sum(
            lambda nodes, plane, kernel: np.matmul(
                blocks[nodes, plane, None], powers[nodes], out=kernel[:, None]
            ),
            3,
        ).T

    def trace_on_grid(self) -> tuple:
        """Traces of orders 0, 1, 2 on the data's time grid, as three
        TimeSeries; zero off the rows `t_sel`."""
        vals = np.zeros((3, self.tgrid.count))
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
        zero = TimeSeries(h1.grid, np.zeros(h1.grid.count))
        return zero, zero, zero
    return pot.trace_on_grid()
