"""Transforms, Parseval bookkeeping, Sobolev norms, and random band fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdv5half.grids import GridFunction, TimeSeries, UniformGrid
from kdv5half.spectral import (
    band_mask,
    nonuniform_transform,
    random_band_limited,
    sobolev_norm,
    x_half_spectrum,
    x_half_values,
    x_spectrum,
    x_values,
)

GRID = UniformGrid(origin=-10.0, step=20.0 / 256, count=256)
TGRID = UniformGrid(origin=-2.0, step=4.0 / 256, count=256)


def capped_derivative(f: GridFunction, order: int) -> np.ndarray:
    """Oracle: the (i xi)^order multiplier with the modes above the band cap zeroed."""
    mult = np.where(band_mask(f.grid), (1j * f.grid.frequencies) ** order, 0.0)
    return x_values(mult * x_spectrum(f.values, f.grid), f.grid)


def single_mode(grid, k):
    """exp(i*xi_k*x) for the k-th positive lattice frequency."""
    xi = k * grid.freq_step
    return xi, GridFunction(grid, np.exp(1j * xi * grid.nodes))


class TestTransforms:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(1)
        f = GridFunction(GRID, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        back = x_values(x_spectrum(f.values, GRID), GRID)
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_single_mode_concentrates(self):
        xi, f = single_mode(GRID, 5)
        mags = np.abs(x_spectrum(f.values, GRID))
        peak = np.argmax(mags)
        assert GRID.frequencies[peak] == pytest.approx(xi)
        others = np.delete(mags, peak)
        assert np.max(others) < 1e-12 * mags[peak]

    def test_parseval_exact(self):
        rng = np.random.default_rng(2)
        f = GridFunction(GRID, rng.standard_normal(256) + 1j * rng.standard_normal(256))
        phys = np.sum(np.abs(f.values) ** 2) * GRID.step
        freq = np.sum(np.abs(x_spectrum(f.values, GRID)) ** 2) * GRID.freq_step
        assert freq == pytest.approx(phys, rel=1e-13)

    def test_gaussian_matches_closed_form(self):
        # transform of exp(-x^2/(2w^2)) is w*exp(-w^2 xi^2/2) in this convention
        w = 1.3
        spec = x_spectrum(np.exp(-(GRID.nodes**2) / (2 * w**2)), GRID)
        xi = GRID.frequencies
        expected = w * np.exp(-(w**2) * xi**2 / 2.0)
        assert np.max(np.abs(spec - expected)) < 1e-12


class TestHalfTransforms:
    # Real samples, one column or three, on grids with an even or an odd
    # count and a nonzero origin; k is how many leading rows are passed back.
    # 3000 seeded draws over the same ranges gave relative defects of at most
    # 5.3e-16 (spectrum) and 9.6e-16 (inverse), and padding was bit for bit.
    @settings(max_examples=80, deadline=None)
    @given(
        count=st.integers(2, 41),
        origin=st.floats(-30.0, 30.0).filter(lambda o: o != 0.0),
        step=st.floats(0.01, 2.0),
        columns=st.sampled_from([None, 3]),
        k=st.integers(1, 21),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(count=2, origin=-1.5, step=0.5, columns=None, k=1, seed=0)
    @example(count=2, origin=0.7, step=0.25, columns=3, k=2, seed=1)
    @example(count=3, origin=-2.0, step=1.0, columns=None, k=1, seed=2)
    @example(count=3, origin=5.0, step=0.1, columns=3, k=2, seed=3)
    def test_half_pair(self, count, origin, step, columns, k, seed):
        grid = UniformGrid(origin, step, count)
        shape = (count,) if columns is None else (count, columns)
        values = np.random.default_rng(seed).standard_normal(shape)
        rows = count // 2 + 1
        full = x_spectrum(values, grid)
        half = x_half_spectrum(values, grid)
        # The leading rows of the complex transform, Nyquist row included.
        assert half.shape == (rows,) + shape[1:]
        assert np.max(np.abs(half - full[:rows])) <= 1e-13 * np.max(np.abs(full))
        back = x_half_values(half, grid)
        assert back.dtype == np.float64
        assert np.max(np.abs(back - values)) <= 1e-13 * np.max(np.abs(values))
        # Passing the first k rows is zero-padding the rest.
        k = min(k, rows)
        padded = np.zeros_like(half)
        padded[:k] = half[:k]
        assert np.array_equal(x_half_values(half[:k], grid), x_half_values(padded, grid))

    def test_too_many_rows_refused(self):
        spec = np.zeros(GRID.count // 2 + 2, dtype=complex)
        with pytest.raises(ValueError, match="at most 129 rows"):
            x_half_values(spec, GRID)


class TestNorms:
    def test_sobolev_single_mode_closed_form(self):
        xi, f = single_mode(GRID, 7)
        # ||e^{i xi x}||_{H^s}^2 = <xi>^{2s} * L (box measure)
        for s in (0.0, 0.5, 1.0, 2.6):
            expected = (1.0 + abs(xi)) ** s * np.sqrt(GRID.length)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_sobolev_monotone_in_s(self):
        rng = np.random.default_rng(4)
        f = GridFunction(GRID, rng.standard_normal(256) + 0j)
        norms = [sobolev_norm(f, s) for s in (0.0, 0.3, 1.0, 2.6)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_fractional_time_norm_single_mode(self):
        # The same norm on a TimeSeries weighs the t-frequencies.
        tau = 6 * TGRID.freq_step
        h = TimeSeries(TGRID, np.exp(1j * tau * TGRID.nodes))
        expected = (1.0 + tau) ** 0.46 * np.sqrt(TGRID.length)
        assert sobolev_norm(h, 0.46) == pytest.approx(expected, rel=1e-12)

    def test_band_limited_norm_converges_to_full(self):
        rng = np.random.default_rng(5)
        f = GridFunction(GRID, rng.standard_normal(256) + 0j)
        full = sobolev_norm(f, 0.7)
        assert sobolev_norm(f, 0.7, band=GRID.nyquist * 2) == pytest.approx(full, rel=1e-12)
        assert sobolev_norm(f, 0.7, band=2.0) < full


class TestDerivativeAndMask:
    def test_spectral_derivative_of_mode(self):
        xi, f = single_mode(GRID, 4)
        cap = 0.75 * GRID.nyquist
        for order in (1, 2, 5):
            d = capped_derivative(f, order)
            # the 1e-16 relative spectral floor is amplified by cap^order
            tol = max(1e-12, 1e-14 * cap**order)
            assert np.max(np.abs(d - (1j * xi) ** order * f.values)) < tol

    def test_band_cap_zeroes_high_modes(self):
        k_high = 120  # above 0.75 * (256/2)
        xi, f = single_mode(GRID, k_high)
        assert xi > 0.75 * GRID.nyquist
        assert np.max(np.abs(capped_derivative(f, 1))) < 1e-12

    def test_band_mask_counts(self):
        mask = band_mask(GRID)
        assert mask.sum() == np.sum(np.abs(GRID.frequencies) <= 0.75 * GRID.nyquist)


class TestNonuniform:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(6)
        vals = rng.standard_normal(256) * np.exp(-((GRID.nodes / 3.0) ** 2))
        f = GridFunction(GRID, vals + 0j)
        freqs = np.array([0.0, 0.37, -2.2, 11.1])
        got = nonuniform_transform(f, freqs)
        direct = np.array(
            [
                GRID.step / np.sqrt(2 * np.pi) * np.sum(vals * np.exp(-1j * b * GRID.nodes))
                for b in freqs
            ]
        )
        assert np.max(np.abs(got - direct)) < 1e-12

    def test_zero_data_give_exact_zeros(self):
        f = GridFunction(GRID, np.zeros(256, dtype=complex))
        got = nonuniform_transform(f, np.linspace(-40.0, 40.0, 1001))
        assert got.shape == (1001,) and got.dtype == np.complex128
        assert np.all(got == 0.0)


class TestRandomBandLimited:
    def test_band_respected_and_seeded(self):
        f1 = random_band_limited(GRID, band=5.0, rng=np.random.default_rng(11))
        f2 = random_band_limited(GRID, band=5.0, rng=np.random.default_rng(11))
        assert np.array_equal(f1.values, f2.values)
        outside = np.abs(GRID.frequencies) > 5.0 + 1e-9
        assert np.max(np.abs(x_spectrum(f1.values, GRID)[outside])) < 1e-13

    def test_refinement_reproduces_same_function(self):
        """Doubling the resolution at fixed box yields the same trig polynomial."""
        coarse = random_band_limited(GRID, band=5.0, rng=np.random.default_rng(12))
        fine_grid = UniformGrid(GRID.origin, GRID.step / 2, GRID.count * 2)
        fine = random_band_limited(fine_grid, band=5.0, rng=np.random.default_rng(12))
        # same lattice coefficients; only the sup normalization may differ
        ratio = fine.values[::2] / coarse.values
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9


class TestBandedNormProperties:
    """`sobolev_norm(f, s, band=b)` on seeded band-limited draws, real and
    complex, on an x grid and on a t grid."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(0.0, 3.0),
        on_t=st.booleans(),
        real=st.booleans(),
        bands=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=5),
    )
    def test_monotone_in_band_and_full_beyond_the_top_mode(self, seed, s, on_t, real, bands):
        grid = TGRID if on_t else GRID
        f = random_band_limited(grid, band=0.5 * grid.nyquist, rng=np.random.default_rng(seed))
        if real:
            f = GridFunction(grid, f.values.real)
        if on_t:
            f = TimeSeries(grid, f.values)
        norms = [sobolev_norm(f, s, band=b) for b in sorted(bands)]
        # Modes past the draw's band hold rounding-level coefficients, and
        # adding them regroups numpy's pairwise sum: a wider band may come
        # out one ulp lower (seed 1, s = 0.6875, bands 21 and 23 on GRID).
        rounding = 4.0 * np.finfo(float).eps
        assert all(b >= a * (1.0 - rounding) for a, b in zip(norms, norms[1:]))
        top = float(np.max(np.abs(grid.frequencies)))
        assert sobolev_norm(f, s, band=top) == sobolev_norm(f, s)
        assert sobolev_norm(f, s, band=2.0 * top) == sobolev_norm(f, s)
