"""Free evolution group, Duhamel integrals, and origin traces."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from conftest import evolved_field, full_spectrum, full_values, kato_ratios, random_band_limited
from kdv5half.cutoffs import eta
from kdv5half.grids import GridFunction, SpaceTimeField, TimeSeries, UniformGrid
from kdv5half.propagator import (
    PropagatorPlan,
    _not_a_knot_slopes,
    apply_group,
    duhamel_trajectory,
    free_field,
    kato_smoothing_ratio,
    trace_at_origin,
)
from kdv5half.spectral import (
    band_mask,
    sobolev_norm,
    x_half_spectrum,
    x_half_values,
)

XG = UniformGrid(-40.0, 80.0 / 1024, 1024)
TG = UniformGrid(-2.0, 4.0 / 1024, 1024)
PLAN = PropagatorPlan(XG)


def gaussian_datum(amp=0.5, center=0.0, width=3.0):
    return GridFunction(XG, amp * np.exp(-(((XG.nodes - center) / width) ** 2)))


def capped_derivative(f: GridFunction, order: int) -> np.ndarray:
    """Oracle: the (i xi)^order multiplier with the modes above the band cap zeroed."""
    mult = np.where(band_mask(f.grid), (1j * f.grid.frequencies) ** order, 0.0)
    return full_values(mult * full_spectrum(f.values, f.grid), f.grid)


def full_row_traces(spec: np.ndarray, xg: UniformGrid, tg: UniformGrid) -> np.ndarray:
    """Oracle: eta(t) times the band-capped (i xi)^j sum, j = 0, 1, 2, over
    every row of a full (X, T) x-spectrum, shape (3, T)."""
    mult = np.where(band_mask(xg), (1j * xg.frequencies) ** np.arange(3)[:, None], 0.0)
    return eta(tg.nodes) * (xg.freq_step / np.sqrt(2.0 * np.pi)) * (mult @ spec)


class TestGroup:
    def test_zero_time_is_identity(self):
        g = gaussian_datum()
        out = apply_group(g, 0.0, PLAN)
        assert np.max(np.abs(out.values - g.values)) < 1e-12

    def test_group_law(self):
        g = gaussian_datum(center=2.0)
        one_shot = apply_group(g, 0.7, PLAN)
        two_step = apply_group(apply_group(g, 0.3, PLAN), 0.4, PLAN)
        scale = np.max(np.abs(one_shot.values))
        assert np.max(np.abs(one_shot.values - two_step.values)) < 1e-12 * scale

    # 300 seeded draws with |t1|, |t2| <= 2 and band <= 6 gave a largest
    # relative defect of 1.9e-13, a margin of 5 under the 1e-12 above.
    @settings(max_examples=50, deadline=None)
    @given(
        t1=st.floats(-2.0, 2.0),
        t2=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
        band=st.floats(0.5, 6.0),
    )
    def test_group_law_over_random_times(self, t1, t2, seed, band):
        g = random_band_limited(XG, band=band, rng=np.random.default_rng(seed))
        plan = PropagatorPlan(XG)
        one_shot = apply_group(g, t1 + t2, plan)
        two_step = apply_group(apply_group(g, t1, plan), t2, plan)
        scale = np.max(np.abs(one_shot.values))
        assert np.max(np.abs(one_shot.values - two_step.values)) < 1e-12 * scale

    def test_inverse(self):
        g = gaussian_datum(width=2.0)
        back = apply_group(apply_group(g, 0.5, PLAN), -0.5, PLAN)
        assert np.max(np.abs(back.values - g.values)) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 2.6])
    def test_sobolev_isometry(self, s):
        rng = np.random.default_rng(14)
        g = random_band_limited(XG, band=6.0, rng=rng)
        before = sobolev_norm(g, s)
        after = sobolev_norm(apply_group(g, 1.3, PLAN), s)
        assert abs(after - before) <= 1e-12 * before

    def test_single_mode_phase(self):
        # One real lattice mode cos(xi x + phase) evolves by the exact phase
        # shift t xi^5: its modes +-xi take exp(-/+i t xi^5).
        xi = XG.frequencies[37]
        g = GridFunction(XG, np.cos(xi * XG.nodes + 0.4))
        t = 0.21
        evolved = apply_group(g, t, PLAN)
        assert evolved.values.dtype == np.float64
        expected = np.cos(xi * XG.nodes + 0.4 - t * xi**5)
        assert np.max(np.abs(evolved.values - expected)) < 1e-12


class TestFreeField:
    def test_matches_group_slices(self):
        g = gaussian_datum(center=-1.0)
        F = free_field(PLAN.free_spectrum(g.values, TG), TG, PLAN)
        assert F.values.dtype == np.float64
        for n in (0, 100, 512, 1023):
            slice_n = F.values[:, n]
            direct = apply_group(g, TG.nodes[n], PLAN).values
            assert np.max(np.abs(slice_n - direct)) < 1e-11

    def test_free_spectrum_is_the_evolved_datum_spectrum(self):
        # e^{-i t xi^5} g_hat on the rows xi >= 0 at every node, each entry
        # within 2 eps (1 + |t xi^5|) |g_hat| of the phase of the long-double
        # angle times g_hat (measured: 1.10; a table of directly rounded
        # angles reads 0.72); the plan keeps no table of that size, and a
        # second call gives the same bits.
        g = gaussian_datum(center=-1.0)
        plan = PropagatorPlan(XG)
        spec = plan.free_spectrum(g.values, TG)
        rows = XG.count // 2 + 1
        assert spec.shape == (rows, TG.count) and spec.flags.f_contiguous
        for n in (0, 100, 512, 1023):
            direct = full_spectrum(apply_group(g, TG.nodes[n], plan).values, XG)[:rows]
            assert np.max(np.abs(spec[:, n] - direct)) < 1e-11
        assert np.finfo(np.longdouble).eps < np.finfo(float).eps
        angle = np.outer(plan.xi5.astype(np.longdouble), TG.nodes.astype(np.longdouble))
        ghat = x_half_spectrum(g.values, XG)[:, None]
        error = np.abs((spec - (np.cos(angle) - 1j * np.sin(angle)) * ghat).astype(complex))
        arg = np.abs(np.outer(plan.xi5, TG.nodes))
        assert np.all(error <= 2.0 * np.finfo(float).eps * (1.0 + arg) * np.abs(ghat))
        assert all(np.size(value) < rows * TG.count for value in vars(plan).values())
        assert np.array_equal(plan.free_spectrum(g.values, TG), spec)

    def test_returns_field_on_both_grids(self):
        F = evolved_field(gaussian_datum(), TG, PLAN)
        assert isinstance(F, SpaceTimeField)
        assert F.xgrid == XG and F.tgrid == TG


def duhamel_oracle(F: np.ndarray, xg: UniformGrid, tg: UniformGrid, t: float) -> np.ndarray:
    """integral_0^t W(t-t') F(t') dt' at one time t, by its own composite sum.

    4-node Gauss-Legendre panels between the time nodes of [0, t] on a cubic
    spline of the band-capped x-spectrum; for t < 0 the sum runs over [t, 0]
    and is negated.
    """
    spec = full_spectrum(F, xg)
    spec[~band_mask(xg), :] = 0.0
    spline = CubicSpline(tg.nodes, spec.T, axis=0)
    xi5 = xg.frequencies**5
    lo, hi = min(0.0, t), max(0.0, t)
    nodes = tg.nodes
    edges = np.concatenate(([lo], nodes[(nodes > lo) & (nodes < hi)], [hi]))
    x, w = np.polynomial.legendre.leggauss(4)
    acc = np.zeros(xg.count, dtype=complex)
    for a, b in zip(edges[:-1], edges[1:]):
        tq = 0.5 * (a + b) + 0.5 * (b - a) * x
        phases = np.exp(-1j * np.outer(t - tq, xi5))
        acc += 0.5 * (b - a) * np.sum(w[:, None] * phases * spline(tq), axis=0)
    return full_values(acc if t >= 0 else -acc, xg)


class TestDuhamel:
    XG = UniformGrid(-20.0, 40.0 / 256, 256)
    TG = UniformGrid(-1.0, 2.0 / 256, 256)
    WHOLE = (-1.0, 1.0)  # a window holding every node of TG

    def forcing(self):
        """Real (X, T) forcing samples on the coarse grids."""
        f = np.exp(-((self.XG.nodes / 2.0) ** 2))
        w = np.exp(-((self.TG.nodes - 0.3) ** 2) / 0.1)
        return np.outer(f, w)

    def field(self, F, t_window=WHOLE):
        """The real (X, T) values of the Duhamel trajectory of the forcing
        samples F, given to the sweep as their half x-spectrum."""
        return self.field_of_spectrum(x_half_spectrum(F, self.XG), t_window)

    def field_of_spectrum(self, spec, t_window=WHOLE):
        traj = duhamel_trajectory(spec, self.TG, PropagatorPlan(self.XG), t_window)
        return x_half_values(traj, self.XG)

    def test_zero_at_time_zero(self):
        out = self.field(self.forcing())[:, self.TG.index_of(0.0)]
        assert np.max(np.abs(out)) < 1e-14

    def test_matches_direct_quadrature(self):
        # integral_0^t W(t-t') F(t') dt' against a dense composite Simpson sum
        # of group-evolved slices.
        xg, tg = self.XG, self.TG
        F = self.forcing()
        t = 0.5
        n0, nt = tg.index_of(0.0), tg.index_of(t)
        nodes = tg.nodes[n0 : nt + 1]
        stack = np.empty((len(nodes), xg.count), dtype=complex)
        plan = PropagatorPlan(xg)
        for i, tp in enumerate(nodes):
            stack[i] = apply_group(GridFunction(xg, F[:, n0 + i]), t - tp, plan).values
        direct = simpson(stack, x=nodes, axis=0)
        fast = self.field(F)[:, nt]
        scale = np.max(np.abs(direct))
        assert np.max(np.abs(fast - direct)) < 1e-6 * scale

    def test_trajectory_matches_pointwise(self):
        self.check_against_oracle((0.25, 0.5, 0.75))

    def test_backward_trajectory_matches_pointwise(self):
        # The solver also integrates on [-1, 0): the sweep towards t < 0.
        self.check_against_oracle((-0.75, -0.5, -0.25))

    def check_against_oracle(self, times):
        F = self.forcing()
        traj = self.field(F)
        for t in times:
            n = self.TG.index_of(t)
            single = duhamel_oracle(F, self.XG, self.TG, t)
            scale = max(np.max(np.abs(single)), 1e-30)
            assert np.max(np.abs(traj[:, n] - single)) < 1e-9 * scale

    def test_reads_only_the_band_capped_nonnegative_rows(self):
        # Only the half spectrum's first K rows, 0 <= xi <= BAND_CAP * nyquist,
        # are swept: rewriting the rows beyond them, or leaving them out,
        # leaves the trajectory bit for bit as it is.
        spec = x_half_spectrum(self.forcing(), self.XG)
        k = PropagatorPlan(self.XG).band_rows
        xi = self.XG.frequencies[: len(spec)]
        assert k == np.count_nonzero(band_mask(self.XG) & (self.XG.frequencies >= 0.0))
        assert k < len(spec) and np.all(xi[:k] >= 0.0)
        noisy = spec.copy()
        noisy[k:] = 1.0 + 1j * np.outer(np.cos(xi[k:]), self.TG.nodes)
        out = self.field_of_spectrum(noisy)
        assert np.array_equal(out, self.field_of_spectrum(spec))
        assert np.array_equal(out, self.field_of_spectrum(spec[:k]))

    def test_trajectory_window_zeroes_outside(self):
        traj = self.field(self.forcing(), t_window=(0.0, 0.5))
        assert np.max(np.abs(traj[:, self.TG.index_of(0.875)])) == 0.0

    def test_spectrum_is_band_capped(self):
        # The trajectory holds the K band-capped rows xi >= 0 and no others.
        plan = PropagatorPlan(self.XG)
        spec = duhamel_trajectory(
            x_half_spectrum(self.forcing(), self.XG), self.TG, plan, self.WHOLE
        )
        assert spec.shape == (plan.band_rows, self.TG.count)
        # 0 <= xi < 0.75 * nyquist on 256 points; the mode k = 96 lies on
        # the cap and is dropped.
        assert plan.band_rows == 96

    def test_window_is_a_restriction_of_the_full_trajectory(self):
        F = self.forcing()
        full = self.field(F)
        windowed = self.field(F, t_window=(-0.5, 0.5))
        inside = (self.TG.nodes >= -0.5) & (self.TG.nodes <= 0.5)
        assert np.array_equal(windowed[:, inside], full[:, inside])
        assert not np.any(windowed[:, ~inside])


class TestDuhamelMemory:
    # Allocation guard for one trajectory on the 1024^2 solver shape (K =
    # 384 band rows, the solver's window), in MiB of tracemalloc: the spline
    # slopes and the (T, K) output, with one panel-sum array and its
    # temporaries.  Measured 18.23 with numpy 2.4; the 5% margin is 0.9 MiB,
    # below one more (T, K) complex array (6 MiB) left alive.
    PEAK = 18.23
    MARGIN = 1.05

    def test_trajectory_allocations(self):
        rng = np.random.default_rng(3)
        k = PLAN.band_rows
        F = rng.standard_normal((k, TG.count)) + 1j * rng.standard_normal((k, TG.count))
        window = (-1.0 - TG.step, 1.0 + TG.step)
        # A first call builds the plan's cached xi^5, whatever the test order.
        duhamel_trajectory(F, TG, PLAN, window)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = duhamel_trajectory(F, TG, PLAN, window)
            peak = (tracemalloc.get_traced_memory()[1] - start) / 2.0**20
        finally:
            tracemalloc.stop()
        assert out.shape == (384, TG.count)
        assert peak <= self.MARGIN * self.PEAK, peak


def spline_distances(y: np.ndarray, h: float) -> tuple:
    """(largest distance of `_not_a_knot_slopes` from scipy's
    `CubicSpline(...)(nodes, 1)`; scipy's slopes).  The nodes start at a
    multiple of a power-of-two step, so scipy's node differences are
    exactly h."""
    nodes = h * (np.arange(len(y)) - 7)
    oracle = CubicSpline(nodes, y, axis=0)(nodes, 1)
    return np.max(np.abs(_not_a_knot_slopes(y, h) - oracle)), oracle


class TestNotAKnotSpline:
    # The slopes' distance is measured against the size a slope takes on
    # data of this size, max|y| / h, not against the slopes themselves,
    # some of which may nearly cancel.  2000 seeded draws over the same
    # ranges gave 1.5e-15 at most, a margin of 6 under 1e-14; the example
    # is the smallest system, 4 nodes (1.7e-16).
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 80),
        modes=st.integers(1, 6),
        log2_step=st.integers(-10, 2),
        log10_amp=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=4, modes=1, log2_step=0, log10_amp=2.0, seed=20)
    def test_matches_cubic_spline(self, n, modes, log2_step, log10_amp, seed):
        rng = np.random.default_rng(seed)
        y = (rng.standard_normal((n, modes)) + 1j * rng.standard_normal((n, modes))) * 10.0**log10_amp
        h = 2.0**log2_step
        diff, _ = spline_distances(y, h)
        assert diff / (np.max(np.abs(y)) / h) < 1e-14

    def test_matches_cubic_spline_on_the_solver_shape(self):
        # The forcing spectrum of a 1024^2 solve: 1024 time nodes, K = 384
        # band-capped modes (`PropagatorPlan.band_rows`).
        # Measured: 1.5e-16 at most, a margin of 13 under 2e-15.
        rng = np.random.default_rng(5)
        y = rng.standard_normal((1024, 384)) + 1j * rng.standard_normal((1024, 384))
        diff, oracle = spline_distances(y, TG.step)
        assert diff / np.max(np.abs(oracle)) < 2e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_needs_four_nodes(self, n):
        # Below 4 nodes the two not-a-knot conditions coincide (scipy
        # switches to a parabola); the sweep refuses instead.
        with pytest.raises(ValueError, match="at least 4 nodes"):
            _not_a_knot_slopes(np.ones((n, 2)), 0.5)


class TestTraceAtOrigin:
    def test_matches_free_evolution_samples(self):
        g = gaussian_datum(amp=0.3, center=1.0)
        n_origin = XG.index_of(0.0)
        plan = PropagatorPlan(XG)
        traces = trace_at_origin(plan.free_spectrum(g.values, TG), TG, plan)
        assert traces.shape == (3, TG.count) and traces.dtype == np.float64
        for j, trace in enumerate(traces):
            sampled = np.empty(TG.count, dtype=complex)
            for n, t in enumerate(TG.nodes):
                evolved = apply_group(g, t, plan)
                sampled[n] = capped_derivative(evolved, j)[n_origin]
            expected = eta(TG.nodes) * sampled
            assert np.max(np.abs(trace - expected)) < 1e-10

    @pytest.mark.parametrize("count", [256, 255])
    def test_half_spectrum_matches_the_full_row_sum(self, count):
        # Rows xi > 0 count twice, for their conjugates: the traces of a real
        # field's half spectrum, whole or cut to its K band-capped rows, are
        # the full-row (i xi)^j sums.  Measured: 5.9e-16 of the maxima at most.
        xg = UniformGrid(-10.0, 20.0 / count, count)
        tg = UniformGrid(-1.0, 2.0 / 64, 64)
        field = np.random.default_rng(count).standard_normal((count, tg.count))
        plan = PropagatorPlan(xg)
        half = x_half_spectrum(field, xg)
        expected = full_row_traces(full_spectrum(field, xg), xg, tg)
        for spec in (half, half[: plan.band_rows]):
            traces = trace_at_origin(spec, tg, plan)
            for j in range(3):
                scale = np.max(np.abs(expected[j]))
                assert np.max(np.abs(traces[j] - expected[j])) <= 1e-13 * scale, j

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), band=st.floats(0.5, 4.0))
    def test_field_source_matches_datum_source(self, seed, band):
        g = random_band_limited(XG, band=band, rng=np.random.default_rng(seed))
        plan = PropagatorPlan(XG)
        spec = plan.free_spectrum(g.values, TG)
        from_datum = trace_at_origin(spec, TG, plan)
        spectrum = x_half_spectrum(free_field(spec, TG, plan).values, XG)
        from_field = trace_at_origin(spectrum, TG, plan)
        for j in range(3):
            assert np.max(np.abs(from_datum[j] - from_field[j])) < 1e-10, j

    def test_rejects_foreign_time_grid(self):
        plan = PropagatorPlan(XG)
        spectrum = plan.free_spectrum(gaussian_datum().values, TG)
        other = UniformGrid(-2.0, 4.0 / 512, 512)
        with pytest.raises(ValueError, match="does not match the space and time grids"):
            trace_at_origin(spectrum, other, plan)

    @pytest.mark.parametrize("rows", [383, 514])
    def test_rejects_a_wrong_row_count(self, rows):
        # K = 384 band-capped rows at least, X // 2 + 1 = 513 at most.
        spectrum = np.zeros((rows, TG.count), dtype=complex)
        with pytest.raises(ValueError, match="384 to 513 half-spectrum rows"):
            trace_at_origin(spectrum, TG, PropagatorPlan(XG))


class TestKatoRatio:
    def test_positive_and_finite(self):
        rng = np.random.default_rng(5)
        g = random_band_limited(XG, band=4.0, rng=rng)
        for s in (0.0, 1.0):
            ratios = kato_ratios(g, s, TG, PLAN)
            assert len(ratios) == 3
            for r in ratios:
                assert np.isfinite(r) and r > 0.0

    def test_matches_the_full_row_traces(self):
        # The ratios of the traces summed over every row of the evolved
        # datum's full spectrum, whose imaginary part is rounding (measured:
        # 9.0e-15 of the peak; the ratios agree to 3.3e-16 relative).
        g = random_band_limited(XG, band=4.0, rng=np.random.default_rng(6))
        phases = np.exp(-1j * np.outer(XG.frequencies**5, TG.nodes))
        traces = full_row_traces(phases * full_spectrum(g.values, XG)[:, None], XG, TG)
        assert np.max(np.abs(traces.imag)) <= 1e-13 * np.max(np.abs(traces))
        s = 1.0
        expected = [
            sobolev_norm(TimeSeries(TG, trace.real), (s + 2.0 - j) / 5.0) / sobolev_norm(g, s)
            for j, trace in enumerate(traces)
        ]
        assert kato_ratios(g, s, TG, PLAN) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_datum_rejected(self):
        g = GridFunction(XG, np.zeros(XG.count))
        with pytest.raises(ValueError, match="zero datum"):
            kato_smoothing_ratio(g, 1.0, PLAN.free_spectrum(g.values, TG), TG, PLAN)

    def test_stable_under_refinement(self):
        # The same band-limited datum drawn on a twice-finer lattice changes
        # the ratio by well under ten percent.
        fine_x = UniformGrid(XG.origin, XG.step / 2.0, XG.count * 2)
        fine_t = UniformGrid(TG.origin, TG.step / 2.0, TG.count * 2)
        coarse = random_band_limited(XG, band=4.0, rng=np.random.default_rng(77))
        fine = random_band_limited(fine_x, band=4.0, rng=np.random.default_rng(77))
        r0 = kato_ratios(coarse, 1.0, TG, PLAN)[1]
        r1 = kato_ratios(fine, 1.0, fine_t, PropagatorPlan(fine_x))[1]
        assert abs(r1 - r0) <= 0.1 * r0
