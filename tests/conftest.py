"""Shared fixtures: default grids and one session-wide manufactured solve;
and the tests' complex DFT pair.

The manufactured solve is the most expensive shared artifact (11 s of
fixture setup, measured with `pytest --durations` on a 2-vCPU VM with
numpy 2.4.6 and OpenBLAS); every test that needs a converged solution
reuses it instead of solving again.

`full_spectrum` / `full_values` are the whole complex transform pair along
x, on every row of `grid.frequencies`, in the package's convention.  The
package holds real functions as their half spectra only; the tests use this
pair as the independent oracle of those (`from conftest import ...`).
`random_band_limited` draws the tests' seeded band-limited real data.
`potential_field` is a boundary potential's field on a grid by itself, and
`boundary_potential_with_fifth_x` one with its analytic fifth x-derivative;
`evolved_field` and `kato_ratios` read a datum's free field and trace gains
off its free spectrum, as the linear-only pipeline does.
"""

import copy

import numpy as np
import pytest

from kdv5half import (
    BoundaryPotential,
    GridFunction,
    SolverConfig,
    SpaceTimeField,
    TimeSeries,
    UniformGrid,
    free_field,
    kato_smoothing_ratio,
    manufactured_data,
    picard_solve,
)
from kdv5half.spectral import x_half_values

def full_spectrum(values, grid: UniformGrid) -> np.ndarray:
    """Forward transform along axis 0 of a 1-D array or of every column of a
    2-D one, on all rows of `grid.frequencies` (FFT order); complex input
    allowed."""
    phase = np.exp(-1j * grid.frequencies * grid.origin)
    phase = phase[:, None] if np.ndim(values) == 2 else phase
    return (grid.step / np.sqrt(2.0 * np.pi)) * phase * np.fft.fft(values, axis=0)


def full_values(spec, grid: UniformGrid) -> np.ndarray:
    """Inverse of `full_spectrum`, along the same axis; complex samples."""
    phase = np.exp(1j * grid.frequencies * grid.origin)
    phase = phase[:, None] if np.ndim(spec) == 2 else phase
    return (np.sqrt(2.0 * np.pi) / grid.step) * np.fft.ifft(spec * phase, axis=0)


def random_band_limited(
    grid: UniformGrid,
    band: float,
    rng: np.random.Generator,
    amplitude: float = 1.0,
    decay: float = 1.0,
) -> GridFunction:
    """Random smooth real function with spectrum supported in |xi| <= band.

    One complex Gaussian coefficient c_k is drawn per lattice frequency
    k * freq_step, with an exp(-decay*(xi/band)^2) envelope, in the
    resolution-independent order k = 0, 1, -1, 2, -2, ..., so the same rng
    state produces the same continuum function on any refinement of a grid
    with the same period.  The function is the real part of their sum, the
    half spectrum (c_k + conj c_{-k})/2, normalized to the requested
    L-infinity amplitude.
    """
    freq_step = grid.freq_step
    kmax = min(int(np.floor(band / freq_step)), (grid.count - 1) // 2)
    coeffs = np.zeros(kmax + 1, dtype=np.complex128)
    for k in range(0, kmax + 1):
        envelope = np.exp(-decay * (k * freq_step / band) ** 2)
        pos = complex(rng.standard_normal(), rng.standard_normal())
        neg = complex(rng.standard_normal(), rng.standard_normal()) if k else pos
        coeffs[k] = 0.5 * envelope * (pos + np.conj(neg))
    values = x_half_values(coeffs, grid)
    peak = np.max(np.abs(values))
    if peak == 0.0:
        return GridFunction(grid, np.zeros(grid.count))
    return GridFunction(grid, values * (amplitude / peak))


def potential_field(pot, xnodes) -> np.ndarray:
    """The field of the BoundaryPotential `pot` on xnodes and every node of
    its time grid, column-major: `add_field_on_grid` into zeros at unit
    weight, which adds 1 * f to 0 and so writes f itself."""
    values = np.zeros((len(xnodes), pot.tgrid.count), order="F")
    pot.add_field_on_grid(values, xnodes, np.ones(pot.tgrid.count))
    return values


def boundary_potential_with_fifth_x(xg: UniformGrid, tg: UniformGrid) -> tuple:
    """(field, fifth_x): the boundary potential of two pulses h1, h3 at
    depth 2 on the (xg, tg) lattice, and its fifth x-derivative on x >= 0
    (zero elsewhere).  The kernel exponentials give that derivative
    analytically (coefficients c_m r_m^5, exact where the collar cutoff is
    1), so a residual with it isolates the quadrature error of the potential."""
    tt = tg.nodes
    pulse = lambda c, w, a: TimeSeries(tg, a * np.exp(-(((tt - c) / w) ** 2)) * (tt > 0))
    h1, h2, h3 = pulse(0.5, 0.1, 0.3), TimeSeries(tg, np.zeros(tg.count)), pulse(0.6, 0.12, 0.1)
    pot = BoundaryPotential.from_data(h1, h2, h3, depth=2, x_span=float(np.max(np.abs(xg.nodes))))
    field = SpaceTimeField(xg, tg, potential_field(pot, xg.nodes))
    fifth_pot = copy.copy(pot)
    fifth_pot.coeffs = pot.coeffs * pot.quad.roots**5
    fifth_vals = np.zeros((xg.count, tg.count))
    pos = xg.nodes >= 0
    fifth_vals[pos, :] = fifth_pot.field_values(xg.nodes[pos], tt)
    return field, SpaceTimeField(xg, tg, fifth_vals)


def evolved_field(g, tgrid, plan):
    """W(t_n) g on every node of tgrid: `free_field` of g's free spectrum."""
    return free_field(plan.free_spectrum(g.values, tgrid), tgrid, plan)


def kato_ratios(g, s, tgrid, plan) -> tuple:
    """`kato_smoothing_ratio` of the datum g, read off its free spectrum."""
    return kato_smoothing_ratio(g, s, plan.free_spectrum(g.values, tgrid), tgrid, plan)


DEFAULT_X = dict(origin=-40.0, step=80.0 / 1024, count=1024)
DEFAULT_T = dict(origin=-2.0, step=4.0 / 1024, count=1024)


@pytest.fixture(scope="session")
def xgrid():
    return UniformGrid(**DEFAULT_X)


@pytest.fixture(scope="session")
def tgrid():
    return UniformGrid(**DEFAULT_T)


@pytest.fixture(scope="session")
def solver_config(xgrid, tgrid):
    return SolverConfig(
        xgrid=xgrid, tgrid=tgrid, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25
    )


@pytest.fixture(scope="session")
def small_config():
    """A 64 x 64 configuration for fast solves: x in [-10, 10), t in [-1, 1)."""
    return SolverConfig(
        xgrid=UniformGrid(-10.0, 20.0 / 64, 64),
        tgrid=UniformGrid(-1.0, 2.0 / 64, 64),
        s=1.0,
        b=0.42,
        bstar=0.46,
        alpha=0.52,
        T=0.25,
    )


@pytest.fixture(scope="session")
def manufactured_case(solver_config):
    """(data, oracle, result) for a small-amplitude Gaussian datum."""
    xg = solver_config.xgrid
    vals = 0.01 * np.exp(-(((xg.nodes - 2.0) / 3.0) ** 2))
    g_l = GridFunction(xg, vals)
    data, oracle, _ = manufactured_data(g_l, solver_config)
    result = picard_solve(data, solver_config)
    return data, oracle, result
