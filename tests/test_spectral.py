"""Transforms, Parseval bookkeeping, Sobolev norms, and random band fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_spectrum, full_values, random_band_limited
from kdv5half.boundary import truncation_radius
from kdv5half.grids import GridFunction, TimeSeries, UniformGrid
from kdv5half.spectral import (
    band_mask,
    distinct_rows,
    nonuniform_transform,
    phase_table,
    sobolev_norm,
    x_half_spectrum,
    x_half_values,
)

GRID = UniformGrid(origin=-10.0, step=20.0 / 256, count=256)
TGRID = UniformGrid(origin=-2.0, step=4.0 / 256, count=256)


def capped_derivative(values: np.ndarray, grid: UniformGrid, order: int) -> np.ndarray:
    """Oracle: the (i xi)^order multiplier with the modes above the band cap zeroed."""
    mult = np.where(band_mask(grid), (1j * grid.frequencies) ** order, 0.0)
    return full_values(mult * full_spectrum(values, grid), grid)


def single_mode(grid, k):
    """exp(i*xi_k*x) for the k-th positive lattice frequency, as complex samples."""
    xi = k * grid.freq_step
    return xi, np.exp(1j * xi * grid.nodes)


def cosine_mode(grid, k, phase=0.3):
    """cos(xi_k*x + phase) for the k-th positive lattice frequency."""
    xi = k * grid.freq_step
    return xi, np.cos(xi * grid.nodes + phase)


class TestTransforms:
    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(1)
        f = GridFunction(GRID, rng.standard_normal(256))
        back = x_half_values(x_half_spectrum(f.values, GRID), GRID)
        assert np.max(np.abs(back - f.values)) < 1e-12

    def test_single_mode_concentrates(self):
        xi, values = cosine_mode(GRID, 5)
        mags = np.abs(x_half_spectrum(values, GRID))
        peak = np.argmax(mags)
        assert GRID.frequencies[peak] == pytest.approx(xi)
        others = np.delete(mags, peak)
        assert np.max(others) < 1e-12 * mags[peak]

    def test_parseval_exact(self):
        # Each half-spectrum row stands for itself and its conjugate, except
        # xi = 0 and the Nyquist row.
        rng = np.random.default_rng(2)
        f = GridFunction(GRID, rng.standard_normal(256))
        phys = np.sum(f.values**2) * GRID.step
        half = np.abs(x_half_spectrum(f.values, GRID)) ** 2
        freq = (2.0 * np.sum(half) - half[0] - half[-1]) * GRID.freq_step
        assert freq == pytest.approx(phys, rel=1e-13)

    def test_gaussian_matches_closed_form(self):
        # transform of exp(-x^2/(2w^2)) is w*exp(-w^2 xi^2/2) in this convention
        w = 1.3
        spec = x_half_spectrum(np.exp(-(GRID.nodes**2) / (2 * w**2)), GRID)
        xi = GRID.frequencies[: len(spec)]
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
        full = full_spectrum(values, grid)
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

    def test_complex_samples_refused(self):
        # rfft would drop the imaginary part with only a warning.
        values = np.ones(GRID.count, dtype=complex)
        with pytest.raises(ValueError, match="takes real samples"):
            x_half_spectrum(values, GRID)
        with pytest.raises(ValueError, match="takes real samples"):
            x_half_spectrum(np.ones((GRID.count, 2)) + 1e-20j, GRID)

    def test_too_many_rows_refused(self):
        spec = np.zeros(GRID.count // 2 + 2, dtype=complex)
        with pytest.raises(ValueError, match="at most 129 rows"):
            x_half_values(spec, GRID)


class TestNorms:
    def test_sobolev_single_mode_closed_form(self):
        xi, values = cosine_mode(GRID, 7)
        f = GridFunction(GRID, values)
        # ||cos(xi x + phase)||_{H^s}^2 = <xi>^{2s} * L / 2 (box measure)
        for s in (0.0, 0.5, 1.0, 2.6):
            expected = (1.0 + abs(xi)) ** s * np.sqrt(GRID.length / 2.0)
            assert sobolev_norm(f, s) == pytest.approx(expected, rel=1e-12)

    def test_sobolev_monotone_in_s(self):
        rng = np.random.default_rng(4)
        f = GridFunction(GRID, rng.standard_normal(256))
        norms = [sobolev_norm(f, s) for s in (0.0, 0.3, 1.0, 2.6)]
        assert all(a <= b for a, b in zip(norms, norms[1:]))

    def test_fractional_time_norm_single_mode(self):
        # The same norm on a TimeSeries weighs the t-frequencies.
        tau, values = cosine_mode(TGRID, 6)
        h = TimeSeries(TGRID, values)
        expected = (1.0 + tau) ** 0.46 * np.sqrt(TGRID.length / 2.0)
        assert sobolev_norm(h, 0.46) == pytest.approx(expected, rel=1e-12)

    def test_band_limited_norm_converges_to_full(self):
        rng = np.random.default_rng(5)
        f = GridFunction(GRID, rng.standard_normal(256))
        full = sobolev_norm(f, 0.7)
        assert sobolev_norm(f, 0.7, band=GRID.nyquist * 2) == pytest.approx(full, rel=1e-12)
        assert sobolev_norm(f, 0.7, band=2.0) < full


class TestDerivativeAndMask:
    def test_spectral_derivative_of_mode(self):
        xi, values = single_mode(GRID, 4)
        cap = 0.75 * GRID.nyquist
        for order in (1, 2, 5):
            d = capped_derivative(values, GRID, order)
            # the 1e-16 relative spectral floor is amplified by cap^order
            tol = max(1e-12, 1e-14 * cap**order)
            assert np.max(np.abs(d - (1j * xi) ** order * values)) < tol

    def test_band_cap_zeroes_high_modes(self):
        k_high = 120  # above 0.75 * (256/2)
        xi, values = single_mode(GRID, k_high)
        assert xi > 0.75 * GRID.nyquist
        assert np.max(np.abs(capped_derivative(values, GRID, 1))) < 1e-12

    def test_band_mask_counts(self):
        # 2|k| < 0.75 * 256 keeps |k| <= 95: the mode k = 96 on the cap is dropped.
        mask = band_mask(GRID)
        k = np.round(GRID.frequencies / GRID.freq_step).astype(int)
        assert mask.sum() == 191
        assert np.array_equal(mask, np.abs(k) <= 95)

    @pytest.mark.parametrize("count", [1024, 256, 64, 24])
    @pytest.mark.parametrize("length", [80.0, 8.0, 20.0, 40.0, 3.7])
    def test_band_mask_edge_is_decided_by_index(self, count, length):
        # When 8 divides the count, the mode k = 3 count / 8 lies on the cap;
        # it is dropped on every period, and its neighbour below is kept.
        # The float frequencies cannot decide this: on 1024 points 2 pi
        # fftfreq puts that mode above the cap over 80 and below it over 8.
        grid = UniformGrid(-length / 2.0, length / count, count)
        mask = band_mask(grid)
        edge = 3 * count // 8
        assert not mask[edge] and not mask[-edge]
        assert mask[edge - 1] and mask[-(edge - 1)]
        assert mask.sum() == 2 * edge - 1


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
        assert np.array_equal(f1.values, f2.values) and f1.values.dtype == np.float64
        outside = np.abs(GRID.frequencies) > 5.0 + 1e-9
        assert np.max(np.abs(full_spectrum(f1.values, GRID)[outside])) < 1e-13

    def test_real_part_of_the_complex_draw(self):
        # The same draws in the same order: c_k for k = 0, 1, -1, 2, -2, ...
        # with the exp(-(xi/band)^2) envelope; the function is the real part
        # of their sum.
        band = 5.0
        rng = np.random.default_rng(13)
        kmax = int(np.floor(band / GRID.freq_step))
        coeffs = np.zeros(GRID.count, dtype=complex)
        for k in range(kmax + 1):
            for kk in (k, -k) if k else (0,):
                raw = complex(rng.standard_normal(), rng.standard_normal())
                coeffs[kk % GRID.count] = raw * np.exp(-((kk * GRID.freq_step / band) ** 2))
        expected = full_values(coeffs, GRID).real
        expected /= np.max(np.abs(expected))
        got = random_band_limited(GRID, band=band, rng=np.random.default_rng(13))
        assert np.max(np.abs(got.values - expected)) < 1e-14

    def test_refinement_reproduces_same_function(self):
        """Doubling the resolution at fixed box yields the same trig polynomial."""
        coarse = random_band_limited(GRID, band=5.0, rng=np.random.default_rng(12))
        fine_grid = UniformGrid(GRID.origin, GRID.step / 2, GRID.count * 2)
        fine = random_band_limited(fine_grid, band=5.0, rng=np.random.default_rng(12))
        # same lattice coefficients; only the sup normalization may differ
        ratio = fine.values[::2] / coarse.values
        assert np.max(np.abs(ratio - ratio[0])) < 1e-9


class TestBandedNormProperties:
    """`sobolev_norm(f, s, band=b)` on seeded band-limited draws, on an x
    grid and on a t grid."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        s=st.floats(0.0, 3.0),
        on_t=st.booleans(),
        bands=st.lists(st.floats(0.0, 60.0), min_size=2, max_size=5),
    )
    def test_monotone_in_band_and_full_beyond_the_top_mode(self, seed, s, on_t, bands):
        grid = TGRID if on_t else GRID
        f = random_band_limited(grid, band=0.5 * grid.nyquist, rng=np.random.default_rng(seed))
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


class TestHalfSpectrumSums:
    """Sums over the whole spectrum, taken on the half spectrum with each
    row's multiplicity, against the full complex DFT on even and odd counts.
    White noise puts content on every row, the Nyquist row included."""

    @staticmethod
    def noise(count):
        grid = UniformGrid(-3.0, 6.0 / count, count)
        return grid, np.random.default_rng(count).standard_normal(count)

    @pytest.mark.parametrize("count", [64, 65])
    @pytest.mark.parametrize("s", [0.0, 0.7, 2.6])
    def test_sobolev_norm_matches_the_full_sum(self, count, s):
        grid, values = self.noise(count)
        f = GridFunction(grid, values)
        freqs = np.abs(grid.frequencies)
        power = (1.0 + freqs) ** (2.0 * s) * np.abs(full_spectrum(values, grid)) ** 2
        # band=None, a band between lattice modes, and bands reaching the top
        # row (the Nyquist row for an even count) exactly and beyond.
        for band in (None, 0.37 * grid.nyquist, float(freqs.max()), 2.0 * grid.nyquist):
            keep = np.ones(count, bool) if band is None else freqs <= band
            expected = np.sqrt(np.sum(power[keep]) * grid.freq_step)
            assert sobolev_norm(f, s, band=band) == pytest.approx(
                expected, rel=1e-13, abs=0.0
            ), band

    @staticmethod
    def full_truncation(values, grid, tolerance, cap):
        """(radius, tail, l1 mass) by the truncation rule on the full
        spectrum: the first lattice |xi| past the last mode at or above
        tolerance * peak."""
        mags = np.abs(full_spectrum(values, grid))
        freqs = np.abs(grid.frequencies)
        loudest = np.max(freqs[mags >= tolerance * np.max(mags)])
        lattice = np.unique(freqs)
        beyond = lattice[lattice > loudest]
        needed = beyond[0] if len(beyond) else lattice[-1]
        tail = np.sum(mags[freqs > cap]) * grid.freq_step if needed > cap else 0.0
        return max(1.0, min(needed, cap)), tail, np.sum(mags) * grid.freq_step

    @pytest.mark.parametrize("count", [64, 65])
    @pytest.mark.parametrize("cap_fraction", [np.inf, 0.5])
    def test_truncation_radius_matches_the_full_spectrum(self, count, cap_fraction):
        grid, noise = self.noise(count)
        # A Gaussian whose spectrum passes 1e-6 of its peak mid-band, and
        # the same plus noise that keeps every row, the Nyquist row
        # included, above the tolerance.
        smooth = np.exp(-((grid.nodes / 0.3) ** 2))
        cap = cap_fraction * grid.nyquist
        for values in (smooth, smooth + 1e-3 * noise):
            f = GridFunction(grid, values)
            radius, tail, ok = truncation_radius([f], 1e-6, cap)
            want_radius, want_tail, mass = self.full_truncation(values, grid, 1e-6, cap)
            assert radius == pytest.approx(want_radius, rel=1e-13)
            # Every coefficient carries a rounding error of about eps times the
            # peak, so a tail of small coefficients is compared on the scale of
            # the whole l1 mass (measured: 9.2e-17 of it at most).
            assert tail == pytest.approx(want_tail, rel=1e-13, abs=1e-13 * mass)
            assert ok == (want_tail == 0.0)


@st.composite
def phase_targets(draw):
    """Targets for `phase_table`: a run of a grid of dyadic or non-dyadic
    step, on that step's lattice or off it, with +0 and -0 and repeats
    mixed in, in any order; from no target to a few dozen."""
    step = draw(st.one_of(st.integers(-10, 3).map(lambda k: 2.0**k), st.floats(1e-3, 4.0)))
    origin = draw(st.one_of(st.integers(-200, 200).map(lambda k: k * step), st.floats(-40.0, 40.0)))
    targets = list(origin + step * np.arange(draw(st.integers(0, 40))))
    targets += draw(st.lists(st.sampled_from([0.0, -0.0]), max_size=2))
    if targets:
        targets += draw(st.lists(st.sampled_from(targets), max_size=5))
    return np.array(draw(st.permutations(targets)), dtype=float)


class TestDistinctRows:
    """`distinct_rows` is `np.unique(..., return_inverse=True)` to the bit:
    the same values, +0 or -0 kept as np.unique keeps it, and the same rows."""

    @settings(max_examples=100, deadline=None)
    @given(targets=phase_targets())
    @example(targets=np.array([-0.0, 0.0, 0.0]))
    @example(targets=np.array([0.0, -0.0, 1.5, -0.0, 1.5, 0.0]))
    @example(targets=np.array([]))
    def test_matches_np_unique(self, targets):
        for values in (targets, np.abs(targets)):
            got, rows = distinct_rows(values)
            want, want_rows = np.unique(values, return_inverse=True)
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(rows, want_rows)
            assert np.array_equal(got[rows], values)


class TestPhaseTable:
    # Per entry, |got - exact| <= 3 eps (1 + |t f|) for the exact cos and
    # sin of the product of the float64 inputs: the two angle products are
    # off by at most eps/2 (|m H| + |r|) |f| <= 1.5 eps |t f|, since
    # |m H| + |r| <= |t| + H <= 3 |t| when m != 0; libm's cos and sin and the
    # complex product add a few eps / 2 more.  Measured worst over a few
    # thousand random cases: 0.61.
    BOUND = 3.0

    @settings(max_examples=150, deadline=None)
    @given(
        targets=phase_targets(),
        freqs=st.lists(st.floats(-1e4, 1e4), max_size=12).map(np.array),
    )
    @example(targets=np.array([]), freqs=np.array([1.0, -3.5]))
    @example(targets=np.array([0.7]), freqs=np.array([1e4, -2.0, 0.0]))
    @example(targets=np.array([-0.0, 0.0, 0.0]), freqs=np.array([5.0, -5.0]))
    # A subnormal target beside normal ones: the split search must stop
    # before t / H overflows, or every entry is NaN.
    @example(targets=np.array([2.22507386e-313, 1.0, 2.0, 0.0]), freqs=np.array([0.0]))
    def test_entries_match_long_double(self, targets, freqs):
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps
        # Written into the real and imaginary views of a complex table, as
        # the free spectrum does; every entry is written.
        table = np.full((len(targets), len(freqs)), np.nan, dtype=complex)
        phase_table(targets, freqs, table.real, table.imag)
        angle = np.outer(targets.astype(np.longdouble), freqs.astype(np.longdouble))
        bound = self.BOUND * np.finfo(float).eps * (1.0 + np.abs(np.outer(targets, freqs)))
        assert np.all(np.abs(table.real - np.cos(angle)) <= bound)
        assert np.all(np.abs(table.imag - np.sin(angle)) <= bound)
        zero = targets == 0.0
        assert np.all(table[zero] == 1.0)
