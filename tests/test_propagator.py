"""Free evolution group, Duhamel integrals, and origin traces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.interpolate import CubicSpline

from kdv5half.cutoffs import eta
from kdv5half.grids import GridFunction, SpaceTimeField, UniformGrid
from kdv5half.propagator import (
    PropagatorPlan,
    apply_group,
    duhamel_trajectory,
    free_field,
    kato_smoothing_ratio,
    trace_at_origin,
)
from kdv5half.spectral import (
    band_mask,
    random_band_limited,
    sobolev_norm,
    x_spectrum,
    x_values,
)

XG = UniformGrid(-40.0, 80.0 / 1024, 1024)
TG = UniformGrid(-2.0, 4.0 / 1024, 1024)


def gaussian_datum(amp=0.5, center=0.0, width=3.0):
    return GridFunction(XG, amp * np.exp(-(((XG.nodes - center) / width) ** 2)))


def capped_derivative(f: GridFunction, order: int) -> np.ndarray:
    """Oracle: the (i xi)^order multiplier with the modes above the band cap zeroed."""
    mult = np.where(band_mask(f.grid), (1j * f.grid.frequencies) ** order, 0.0)
    return x_values(mult * x_spectrum(f.values, f.grid), f.grid)


class TestGroup:
    def test_zero_time_is_identity(self):
        g = gaussian_datum()
        out = apply_group(g, 0.0)
        assert np.max(np.abs(out.values - g.values)) < 1e-12

    def test_group_law(self):
        g = gaussian_datum(center=2.0)
        one_shot = apply_group(g, 0.7)
        two_step = apply_group(apply_group(g, 0.3), 0.4)
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
        back = apply_group(apply_group(g, 0.5), -0.5)
        assert np.max(np.abs(back.values - g.values)) < 1e-12

    @pytest.mark.parametrize("s", [0.0, 0.3, 1.0, 2.6])
    def test_sobolev_isometry(self, s):
        rng = np.random.default_rng(14)
        g = random_band_limited(XG, band=6.0, rng=rng)
        before = sobolev_norm(g, s)
        after = sobolev_norm(apply_group(g, 1.3), s)
        assert abs(after - before) <= 1e-12 * before

    def test_single_mode_phase(self):
        # One lattice mode evolves by the exact scalar phase exp(-i*t*xi^5).
        k = 37
        coeffs = np.zeros(XG.count, dtype=complex)
        coeffs[k] = 1.0
        g = GridFunction(XG, x_values(coeffs, XG))
        xi = XG.frequencies[k]
        t = 0.21
        evolved = apply_group(g, t)
        expected = g.values * np.exp(-1j * t * xi**5)
        assert np.max(np.abs(evolved.values - expected)) < 1e-12


class TestFreeField:
    def test_matches_group_slices(self):
        g = gaussian_datum(center=-1.0)
        F = free_field(g, TG)
        for n in (0, 100, 512, 1023):
            slice_n = F.values[:, n]
            direct = apply_group(g, TG.nodes[n]).values
            assert np.max(np.abs(slice_n - direct)) < 1e-11

    def test_plan_keeps_phase_table_until_released(self):
        plan = PropagatorPlan(XG)
        first = plan.free_phases(TG)
        assert plan.free_phases(TG) is first
        plan.release_free_phases()
        again = plan.free_phases(TG)
        assert again is not first
        assert np.array_equal(again, first)

    def test_returns_field_on_both_grids(self):
        F = free_field(gaussian_datum(), TG)
        assert isinstance(F, SpaceTimeField)
        assert F.xgrid == XG and F.tgrid == TG


def duhamel_oracle(F: np.ndarray, xg: UniformGrid, tg: UniformGrid, t: float) -> np.ndarray:
    """integral_0^t W(t-t') F(t') dt' at one time t, by its own composite sum.

    4-node Gauss-Legendre panels between the time nodes of [0, t] on a cubic
    spline of the band-capped x-spectrum; for t < 0 the sum runs over [t, 0]
    and is negated.
    """
    spec = x_spectrum(F, xg)
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
    return x_values(acc if t >= 0 else -acc, xg)


class TestDuhamel:
    XG = UniformGrid(-20.0, 40.0 / 256, 256)
    TG = UniformGrid(-1.0, 2.0 / 256, 256)

    def forcing(self):
        """Real (X, T) forcing samples on the coarse grids."""
        f = np.exp(-((self.XG.nodes / 2.0) ** 2))
        w = np.exp(-((self.TG.nodes - 0.3) ** 2) / 0.1)
        return np.outer(f, w)

    def field(self, F, **kwargs):
        """The (X, T) values of the Duhamel trajectory, from its x-spectrum."""
        spec = duhamel_trajectory(F, self.TG, PropagatorPlan(self.XG), **kwargs)
        return x_values(spec, self.XG)

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
        for i, tp in enumerate(nodes):
            stack[i] = apply_group(GridFunction(xg, F[:, n0 + i]), t - tp).values
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

    def test_integrates_the_real_part(self):
        F = self.forcing()
        noisy = F + 1j * np.outer(np.cos(self.XG.nodes), self.TG.nodes)
        out = self.field(noisy)
        assert np.array_equal(out, self.field(F))
        assert np.max(np.abs(out.imag)) <= 1e-15 * np.max(np.abs(out))

    def test_trajectory_window_zeroes_outside(self):
        traj = self.field(self.forcing(), t_window=(0.0, 0.5))
        assert np.max(np.abs(traj[:, self.TG.index_of(0.875)])) == 0.0

    def test_spectrum_is_band_capped(self):
        spec = duhamel_trajectory(self.forcing(), self.TG, PropagatorPlan(self.XG))
        assert spec.shape == (self.XG.count, self.TG.count)
        assert not np.any(spec[~band_mask(self.XG)])

    def test_window_is_a_restriction_of_the_full_trajectory(self):
        F = self.forcing()
        full = self.field(F)
        windowed = self.field(F, t_window=(-0.5, 0.5))
        inside = (self.TG.nodes >= -0.5) & (self.TG.nodes <= 0.5)
        assert np.array_equal(windowed[:, inside], full[:, inside])
        assert not np.any(windowed[:, ~inside])


class TestTraceAtOrigin:
    def test_matches_free_evolution_samples(self):
        g = gaussian_datum(amp=0.3, center=1.0)
        n_origin = XG.index_of(0.0)
        traces = trace_at_origin(g, TG)
        assert len(traces) == 3
        for j, trace in enumerate(traces):
            sampled = np.empty(TG.count, dtype=complex)
            for n, t in enumerate(TG.nodes):
                evolved = apply_group(g, t)
                sampled[n] = capped_derivative(evolved, j)[n_origin]
            expected = eta(TG.nodes) * sampled
            assert np.max(np.abs(trace - expected)) < 1e-10

    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        band=st.floats(0.5, 4.0),
        real=st.booleans(),
    )
    def test_field_source_matches_datum_source(self, seed, band, real):
        g = random_band_limited(XG, band=band, rng=np.random.default_rng(seed))
        if real:
            g = GridFunction(XG, g.values.real)
        plan = PropagatorPlan(XG)
        from_datum = trace_at_origin(g, TG, plan)
        spectrum = x_spectrum(free_field(g, TG, plan).values, XG)
        from_field = trace_at_origin(spectrum, TG, plan)
        for j in range(3):
            assert np.max(np.abs(from_datum[j] - from_field[j])) < 1e-10, j

    def test_rejects_foreign_time_grid(self):
        spectrum = x_spectrum(free_field(gaussian_datum(), TG).values, XG)
        other = UniformGrid(-2.0, 4.0 / 512, 512)
        with pytest.raises(ValueError, match="does not match the space and time grids"):
            trace_at_origin(spectrum, other, PropagatorPlan(XG))
        with pytest.raises(ValueError, match="needs the plan"):
            trace_at_origin(spectrum, TG)

    def test_rejects_unsupported_source(self):
        # A field is traced through its x-spectrum, not as values.
        with pytest.raises(TypeError, match="trace source"):
            trace_at_origin(free_field(gaussian_datum(), TG), TG)


class TestKatoRatio:
    def test_positive_and_finite(self):
        rng = np.random.default_rng(5)
        g = random_band_limited(XG, band=4.0, rng=rng)
        for s in (0.0, 1.0):
            ratios = kato_smoothing_ratio(g, s, TG)
            assert len(ratios) == 3
            for r in ratios:
                assert np.isfinite(r) and r > 0.0

    def test_zero_datum_rejected(self):
        g = GridFunction(XG, np.zeros(XG.count, dtype=complex))
        with pytest.raises(ValueError, match="zero datum"):
            kato_smoothing_ratio(g, 1.0, TG)

    def test_stable_under_refinement(self):
        # The same band-limited datum drawn on a twice-finer lattice changes
        # the ratio by well under ten percent.
        fine_x = UniformGrid(XG.origin, XG.step / 2.0, XG.count * 2)
        fine_t = UniformGrid(TG.origin, TG.step / 2.0, TG.count * 2)
        coarse = random_band_limited(XG, band=4.0, rng=np.random.default_rng(77))
        fine = random_band_limited(fine_x, band=4.0, rng=np.random.default_rng(77))
        r0 = kato_smoothing_ratio(coarse, 1.0, TG)[1]
        r1 = kato_smoothing_ratio(fine, 1.0, fine_t)[1]
        assert abs(r1 - r0) <= 0.1 * r0
