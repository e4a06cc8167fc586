"""Smooth cutoffs, half-line extensions, and corner compatibility checks.

The three bump functions share one exp(-1/x) transition profile.  `eta` is the
unit time cutoff (plateau [-1/2,1/2], support [-1,1]); `rho` is the one-sided
cutoff that tapers boundary-kernel extensions on a left collar.  The paper's
index sets live here too: its regularity range and the (s, b, a) windows of
its bilinear and smoothing estimates.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridFunction, TimeSeries

__all__ = [
    "smooth_transition",
    "eta",
    "rho",
    "right_bump",
    "extend_initial_datum",
    "zero_extend_time",
    "check_compatibility",
    "corner_conditions",
    "validate_regularity",
    "gain_violations",
    "auxiliary_violations",
    "smoothing_window",
    "EXCLUDED_REGULARITY",
    "EXCLUSION_TOL",
    "S_MAX",
]

EXCLUDED_REGULARITY = (0.5, 1.5, 2.5)
EXCLUSION_TOL = 1e-9
S_MAX = 2.75


def smooth_transition(y):
    """C-infinity monotone ramp: 0 for y <= 0, 1 for y >= 1."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[y >= 1.0] = 1.0
    mid = (y > 0.0) & (y < 1.0)
    ym = y[mid]
    a = np.exp(-1.0 / ym)
    b = np.exp(-1.0 / (1.0 - ym))
    out[mid] = a / (a + b)
    return out if out.ndim else float(out)


def eta(t):
    """Unit time cutoff: 1 on [-1/2,1/2], supported in [-1,1]."""
    return smooth_transition((1.0 - np.abs(t)) / 0.5)


def rho(x, collar: float = 2.0):
    """One-sided cutoff: 1 on x >= 0, 0 on x <= -collar."""
    if collar <= 0:
        raise ValueError(f"collar must be positive, got {collar}")
    x = np.asarray(x, dtype=float)
    return smooth_transition(x / collar + 1.0)


def right_bump(t, t0: float, t1: float, t2: float, t3: float):
    """Smooth bump supported in [t0,t3], equal to 1 on [t1,t2]."""
    if not (t0 < t1 <= t2 < t3):
        raise ValueError("need t0 < t1 <= t2 < t3")
    t = np.asarray(t, dtype=float)
    up = smooth_transition((t - t0) / (t1 - t0))
    down = smooth_transition((t3 - t) / (t3 - t2))
    return up * down


# ---------------------------------------------------------------------------
# Index windows of the estimates; half-line extension of the initial datum.
# ---------------------------------------------------------------------------

def validate_regularity(s: float) -> None:
    """Refuse s outside [0, 11/4) or within EXCLUSION_TOL of a transition value.

    At s = 1/2, 3/2, 5/2 the number of compatibility conditions and the
    datum extension change, and the estimates degenerate there.  The solver
    configuration and the extensions share this one check, so no s passes
    one and fails the other.  EXCLUSION_TOL = 1e-9 is far above the rounding
    of a decimal s (about 1e-16) and far below any s a scenario would
    choose on purpose; it was the solver's tolerance before the two checks
    were merged, so every s the solver refused stays refused.
    """
    if not (0.0 <= s < S_MAX):
        raise ValueError(f"regularity s must lie in [0, 11/4), got {s}")
    if any(abs(s - bad) < EXCLUSION_TOL for bad in EXCLUDED_REGULARITY):
        raise ValueError(
            f"regularity s = {s} is one of the excluded transition values {EXCLUDED_REGULARITY}"
        )


def gain_violations(s: float, b: float, a: float) -> list:
    """Breaches of the derivative-gain bilinear window 2/5 <= b < 1/2,
    0 <= a <= 10b-4 (none: admissible); s >= 0 is the caller's check."""
    v = []
    if not (0.4 <= b < 0.5):
        v.append(f"2/5 <= b < 1/2 (got b={b})")
    if not (0.0 <= a <= 10.0 * b - 4.0):
        v.append(f"0 <= a <= 10b-4 = {10.0 * b - 4.0:g} (got a={a})")
    return v


def auxiliary_violations(s: float, b: float, a: float) -> list:
    """Breaches of the auxiliary bilinear window 1/2 < s < 11/4, 0 <= a <
    11/4 - s, max{(s+a)/5 - 1/20, 2/5} < b < 1/2 (none: admissible).  The
    contraction window of the fixed-point argument is `SolverConfig`'s."""
    v = []
    if not (0.5 < s < S_MAX):
        v.append(f"1/2 < s < 11/4 (got s={s})")
    if not (0.0 <= a < S_MAX - s):
        v.append(f"0 <= a < 11/4 - s = {S_MAX - s:g} (got a={a})")
    lower = max((s + a) / 5.0 - 0.05, 0.4)
    if not (lower < b < 0.5):
        v.append(f"max{{(s+a)/5 - 1/20, 2/5}} = {lower:g} < b < 1/2 (got b={b})")
    return v


def smoothing_window(s: float, b: float, a: float) -> bool:
    """Whether `smoothing_report` counts a gain of a derivatives at (s, b) as
    admissible; False for every s >= 3/2."""
    if 0.0 <= s < 0.5:
        return 0.45 < b < 0.5 and 0.0 <= a < 0.5 - s
    if 0.5 < s < 1.5:
        return 0.45 < b < 0.5 and 0.0 <= a <= 0.5
    return False


def _zero_extension(g: GridFunction) -> np.ndarray:
    vals = np.array(g.values)
    vals[: g.grid.window(0.0, np.inf).start] = 0.0
    return vals


_JET_ORDER = 7  # derivatives 0..6 are matched across the join


def _one_sided_jet(g: GridFunction):
    """Derivatives of g at 0 from the right, orders 0.._JET_ORDER-1.

    A degree-9 least-squares polynomial on the first 20 half-line samples
    keeps the estimate stable for all orders at once (one-sided difference
    stencils above order 2 amplify rounding much more)."""
    k0 = g.grid.index_of(0.0)
    xs = g.grid.nodes[k0 : k0 + 20]
    ys = g.values[k0 : k0 + 20]
    scale = float(xs[-1]) if xs[-1] > 0 else 1.0
    t = xs / scale
    coef = np.polynomial.polynomial.polyfit(t, ys, 9)
    return [math.factorial(m) * coef[m] / scale**m for m in range(_JET_ORDER)]


def _reflection_extension(g: GridFunction) -> np.ndarray:
    """Derivative-matching extension: for x < 0 the datum continues as
    Q(x) exp(-(x/w)^2), with the polynomial Q chosen so the product's
    one-sided jet at 0 equals the datum's through order 6.

    The Gaussian envelope (rather than a compactly supported cutoff) matters:
    its own spectral footprint is negligible, so the extension's spectrum
    decays as fast as the C^6 join allows (~ xi^-8).  Cutoff-based collars
    and scaled-reflection formulas g(-kx) both inject slowly decaying or
    frequency-shifted content that the time grid cannot track, which shows
    up directly as spurious extension dependence of the half-line solution.
    """
    vals = _zero_extension(g)
    nodes = g.grid.nodes
    neg = slice(g.grid.window(0.0, np.inf).start)
    if neg.stop == 0:
        return vals
    jet = _one_sided_jet(g)
    taylor = np.array([d / math.factorial(m) for m, d in enumerate(jet)])
    width = min(4.0, 0.15 * abs(float(nodes[0])))
    # Q = (Taylor series of g) * (Taylor series of exp(+(x/w)^2)), truncated:
    # then Q(x) exp(-(x/w)^2) carries exactly the datum's jet.
    inv_envelope = np.zeros(_JET_ORDER)
    for n in range(0, (_JET_ORDER + 1) // 2):
        inv_envelope[2 * n] = 1.0 / (math.factorial(n) * width ** (2 * n))
    q = np.convolve(taylor, inv_envelope)[:_JET_ORDER]
    xm = nodes[neg]
    vals[neg] = np.polynomial.polynomial.polyval(xm, q) * np.exp(-((xm / width) ** 2))
    return vals


def extend_initial_datum(g: GridFunction, s: float, method: str = "auto") -> GridFunction:
    """Extend half-line samples (nodes x >= 0 of `g`) to the whole grid.

    method: "zero" | "reflection" | "auto" (zero below s = 1/2, else
    reflection).  "reflection" is a derivative-matching collar extension;
    see _reflection_extension.
    """
    validate_regularity(s)
    if method == "auto":
        method = "zero" if s < 0.5 else "reflection"
    if method not in ("zero", "reflection"):
        raise ValueError(f"unknown extension method: {method!r}")
    extend = _zero_extension if method == "zero" else _reflection_extension
    return GridFunction(g.grid, extend(g))


# ---------------------------------------------------------------------------
# Time-data zero extension and compatibility checks.
# ---------------------------------------------------------------------------

def zero_extend_time(h: TimeSeries) -> TimeSeries:
    """h with its t < 0 samples set to zero."""
    return TimeSeries(h.grid, _zero_extension(h))


_CONDITION_NAMES = ("g(0)=h1(0)", "g'(0)=h2(0)", "g''(0)=h3(0)")


def corner_conditions(s: float) -> int:
    """How many corner conditions g^(j)(0) = h_{j+1}(0) bind at regularity s:
    condition j does when s > 1/2 + j, so none below s = 1/2 and one, two or
    three on the successive admissible bands above it."""
    validate_regularity(s)
    return sum(s > bad for bad in EXCLUDED_REGULARITY)


def check_compatibility(
    g: GridFunction,
    h1: TimeSeries,
    h2: TimeSeries,
    h3: TimeSeries,
    s: float,
) -> dict:
    """Corner matching gaps at (x,t) = (0,0), keyed by the s-range, as the
    report payload {"s", "required", "measured_gaps"}.

    The required matches are the first `corner_conditions(s)`, named in
    `required`.  The payload holds the measured gaps only: the caller judges
    them against its own tolerance (a scenario's `compatibility` check).

    g(0) is the sample at x = 0; g'(0) and g''(0) come from `_one_sided_jet`,
    the jet the reflection extension matches.  At dx = 0.078 that jet is off
    by 7.3e-12 (g') and 3.4e-10 (g'') on the Gaussian 0.01 exp(-((x-2)/3)^2),
    and by 7.4e-5 and 3.3e-3 on exp(-x^2).
    """
    n_req = corner_conditions(s)
    jet = [g.values[g.grid.index_of(0.0)]]
    if n_req > 1:
        jet += _one_sided_jet(g)[1:n_req]
    gaps = [
        float(abs(lhs - h.values[h.grid.index_of(0.0)]))
        for lhs, h in zip(jet[:n_req], (h1, h2, h3))
    ]
    return {"s": s, "required": list(_CONDITION_NAMES[:n_req]), "measured_gaps": gaps}
