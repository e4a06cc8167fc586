"""Oracle, interior residual, weak form, and smoothing diagnostics."""

from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

from conftest import (
    boundary_potential_with_fifth_x,
    evolved_field,
    full_values,
    random_band_limited,
)
from kdv5half import verification
from kdv5half.boundary import AccuracyError
from kdv5half.grids import GridFunction, PreconditionError, SpaceTimeField, TimeSeries, UniformGrid
from kdv5half.propagator import PropagatorPlan, apply_group
from kdv5half.scenarios import Scenario, datum_from_profile
from kdv5half.spectral import band_mask, sobolev_norm, x_half_spectrum, x_half_values
from kdv5half.verification import (
    HarnessError,
    SeparableTestFunction,
    _simpson_weights,
    field_tail_slope,
    manufactured_data,
    oracle_distance,
    pde_residual,
    smoothing_report,
    spectral_tail_slope,
    weak_form_residual,
    weak_test_family,
    whole_line_oracle,
)

XG = UniformGrid(-20.0, 40.0 / 512, 512)


def gaussian(amp, width=3.0, center=0.0, grid=XG):
    vals = amp * np.exp(-(((grid.nodes - center) / width) ** 2))
    return GridFunction(grid, vals.astype(complex))


def physical_lawson(g: GridFunction, T: float, steps: int) -> np.ndarray:
    """Lawson's integrating-factor RK4 as the textbook writes it, on complex
    samples with full FFTs, shape (X, steps + 1): classical RK4 on
    w(tau) = W(-tau) v(tau) over each step, W(tau) the free group
    exp(-i tau xi^5), so that w' = W(-tau) N(W(tau) w).  The reference for
    the half-spectrum oracle, which folds the group factors into E and E^2."""
    xi = g.grid.frequencies
    dt = T / steps
    dealias = np.abs(xi) <= (2.0 / 3.0) * g.grid.nyquist
    deriv = 1j * xi * dealias

    def group(v, tau):
        return np.fft.ifft(np.exp(-1j * tau * xi**5) * np.fft.fft(v))

    def burgers_rate(v):
        v_d = np.fft.ifft(dealias * np.fft.fft(v))
        return np.fft.ifft(deriv * np.fft.fft(v_d * v_d)) * (-0.5)

    def rate(w, tau):
        return group(burgers_rate(group(w, tau)), -tau)

    out = np.empty((g.grid.count, steps + 1), dtype=complex)
    v = out[:, 0] = g.values
    for n in range(steps):
        k1 = rate(v, 0.0)
        k2 = rate(v + (dt / 2.0) * k1, dt / 2.0)
        k3 = rate(v + (dt / 2.0) * k2, dt / 2.0)
        k4 = rate(v + dt * k3, dt)
        v = group(v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), dt)
        out[:, n + 1] = v
    return out


def one_row_sweep(g: GridFunction, T: float, steps: int, final_only: bool = False) -> np.ndarray:
    """The half-spectrum Lawson run one at a time with one-row transforms,
    with E = exp(-i dt/2 xi^5): a = N(V), b = N(E(V + dt/2 a)),
    c = N(EV + dt/2 b), d = N(E^2 V + dt Ec), and
    V <- E^2 V + dt/6 (E^2 a + 2E(b + c) + d).  Every slice (X, steps + 1),
    or with `final_only` the last (X,).  The batched sweep must reproduce
    it bit for bit."""
    grid = g.grid
    xi = 2.0 * np.pi * np.fft.rfftfreq(grid.count, d=grid.step)
    dt = T / steps
    E = np.exp(-1j * (dt / 2.0) * xi**5)
    E2 = np.exp(-1j * dt * xi**5)
    dealias = np.abs(xi) <= (2.0 / 3.0) * grid.nyquist
    deriv = (-0.5j) * xi * dealias

    def burgers_rate(V):
        v_d = np.fft.irfft(dealias * V, n=grid.count)
        return deriv * np.fft.rfft(v_d * v_d)

    V = np.fft.rfft(g.values)
    slices = [V]
    for n in range(steps):
        a = burgers_rate(V)
        b = burgers_rate(E * (V + (dt / 2.0) * a))
        c = burgers_rate(E * V + (dt / 2.0) * b)
        d = burgers_rate(E2 * V + dt * (E * c))
        V = E2 * V + (dt / 6.0) * (E2 * a + 2.0 * E * (b + c) + d)
        if not final_only:
            slices.append(V)
    if final_only:
        return np.fft.irfft(V, n=grid.count)
    return np.fft.irfft(np.array(slices), n=grid.count, axis=1).T


def box_distance(a: np.ndarray, b: np.ndarray, grid: UniformGrid) -> float:
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2) * grid.step))


class TestOracle:
    def test_argument_validation(self):
        g = gaussian(0.1)
        with pytest.raises(ValueError, match="positive"):
            whole_line_oracle(g, -1.0, 8)
        with pytest.raises(ValueError, match="at least one step"):
            whole_line_oracle(g, 0.5, 0)

    def test_odd_steps_refused_with_the_check(self, monkeypatch):
        # The doubled run takes steps / 2 steps; an odd count is refused
        # before any step runs, and so is a stride that does not divide it.
        g = gaussian(0.1)

        def sweep_ran(*args):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(verification, "_lawson_sweep", sweep_ran)
        with pytest.raises(ValueError, match="even number of steps, got 7"):
            whole_line_oracle(g, 0.5, 7)
        for stride in (0, 3):
            with pytest.raises(ValueError, match=f"stride {stride} must divide the 8 steps"):
                whole_line_oracle(g, 0.5, 8, stride)

    def test_complex_datum_refused(self):
        # The oracle runs on the half spectrum of a real datum; the grid
        # type refuses a complex one before it gets there.
        with pytest.raises(PreconditionError, match="real"):
            GridFunction(XG, gaussian(0.1).values * (1.0 + 1e-3j))

    def test_matches_physical_space_scheme(self):
        g = gaussian(0.5, width=1.5, center=1.0)
        field = verification._lawson_sweep(g, 0.5, 64, 1)[0]
        reference = physical_lawson(g, 0.5, 64)
        assert np.max(np.abs(field - reference)) <= 1e-12 * np.max(np.abs(reference))

    def test_linear_limit(self):
        # At tiny amplitude the advection term is negligible and the oracle
        # must reproduce the exact free evolution.
        amp = 1e-6
        g = gaussian(amp)
        T = 0.5
        field = verification._lawson_sweep(g, T, 64, 1)[0]
        exact = apply_group(g, T, PropagatorPlan(XG))
        assert np.max(np.abs(field[:, -1] - exact.values)) < 1e-5 * amp

    def test_batched_sweep_matches_one_row_runs(self):
        # The doubled-step run rides along as a second row of the same
        # sweep on every other step; the trajectory and the coarse final
        # slice are bitwise those of separate one-row runs.
        g = gaussian(0.1, center=1.0)
        vals, coarse = verification._lawson_sweep(g, 0.25, 64, 1)
        want = one_row_sweep(g, 0.25, 64)
        assert np.array_equal(vals, want)
        field, diff = whole_line_oracle(g, 0.25, 64)
        assert np.array_equal(field.values, want)
        assert field.tgrid == UniformGrid(origin=0.0, step=0.25 / 64, count=65)
        # A stride keeps every 8th slice of the same run, bit for bit.
        kept, kept_diff = whole_line_oracle(g, 0.25, 64, 8)
        assert np.array_equal(kept.values, want[:, ::8]) and kept_diff == diff
        assert kept.tgrid == UniformGrid(origin=0.0, step=0.25 / 8, count=9)
        want_coarse = one_row_sweep(g, 0.25, 32, final_only=True)
        assert np.array_equal(coarse, want_coarse)
        assert diff == float(np.sqrt(np.sum((want[:, -1] - want_coarse) ** 2) * XG.step))
        assert 0.0 < diff < 1e-7

    def test_doubling_difference_bounds_the_error(self):
        # For a fourth-order scheme the doubling difference is about 15
        # (2^4 - 1) times the trajectory's error (measured here: 15.6), so
        # it must not fall below the error measured against a run at an
        # eighth of the step.
        g = gaussian(0.1, center=1.0)
        field, diff = whole_line_oracle(g, 0.25, 64)
        reference = one_row_sweep(g, 0.25, 512, final_only=True)
        error = box_distance(field.values[:, -1], reference, XG)
        assert 0.0 < error <= diff

    def test_doubling_difference_bounds_the_error_on_a_wave_packet(self):
        # A packet with carrier k = 1.4 centred at x = -8 on the bundled
        # 1024-point grid, one step per solver node of the bundled 1/256:
        # more high modes than the bundled Gaussian, where Lawson's scheme
        # loses order (measured: doubling 2.4e-8 against an error of
        # 4.1e-10).  The reference is the same scheme at 32 times the steps.
        grid = UniformGrid(-40.0, 0.078125, 1024)
        x = grid.nodes + 8.0
        g = GridFunction(grid, 0.01 * np.exp(-((x / 5.0) ** 2)) * np.cos(1.4 * x))
        field, diff = whole_line_oracle(g, 1.0, 256)
        reference = one_row_sweep(g, 1.0, 32 * 256, final_only=True)
        error = box_distance(field.values[:, -1], reference, grid)
        assert 0.0 < error <= diff < verification._DOUBLING_TOL

    def test_transform_count(self, monkeypatch):
        # 8 transforms per step (an irfft and an rfft per stage), the
        # doubled run sharing the trajectory's calls, plus the datum's rfft
        # and the final inverse transforms.
        calls = []
        for name in ("rfft", "irfft"):
            original = getattr(np.fft, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        whole_line_oracle(gaussian(0.01), 0.25, 16)
        assert len(calls) == 8 * 16 + 3

    def test_self_check_catches_coarse_steps(self):
        g = gaussian(5.0, width=1.5)
        with pytest.raises(AccuracyError, match="doubling the step changes .* > 1e-07"):
            whole_line_oracle(g, 1.0, 2)
        # A run that overflows reads a NaN difference, which fails the check too.
        with np.errstate(all="ignore"), pytest.raises(AccuracyError, match="slice by nan"):
            whole_line_oracle(gaussian(1e3, width=1.5), 1.0, 2)

    def test_convergence_order(self):
        # Lawson's scheme is fourth order on smooth non-stiff content; on
        # this datum the observed order sits lower (measured: 3.2 over 16,
        # 32 and 64 steps, 2.7 one doubling further), so the window asks
        # only for convergence clearly faster than first order.
        g = gaussian(0.5, width=2.0)
        finals = [
            verification._lawson_sweep(g, 0.5, steps, steps)[0][:, -1] for steps in (16, 32, 64)
        ]
        e1, e2 = (box_distance(a, b, XG) for a, b in zip(finals, finals[1:]))
        assert e2 < e1
        order = np.log2(e1 / e2)
        assert 1.5 < order < 5.0

    def test_field_layout(self):
        # One column per step from the datum on; the oracle's time grid is
        # checked against the same layout in the batched-sweep test.
        g = gaussian(0.1)
        field = verification._lawson_sweep(g, 0.25, 8, 1)[0]
        assert field.shape == (XG.count, 9)
        assert np.allclose(field[:, 0], g.values)


class TestManufacturedData:
    def test_horizon_must_align(self, solver_config):
        g = gaussian(0.01, grid=solver_config.xgrid)
        with pytest.raises(ValueError, match="multiple of the solver time step"):
            manufactured_data(g, solver_config, horizon=1.0001)

    def test_horizon_must_end_on_the_time_grid(self, small_config, monkeypatch):
        cfg = small_config
        g = gaussian(0.01, grid=cfg.xgrid)
        data, _, _ = manufactured_data(g, cfg, horizon=cfg.tgrid.nodes[-1])
        assert data.h1.values[-1] == 0.0  # the taper ends on the last node

        # One step further the series would not fit: refused before the oracle runs.
        def oracle_ran(*args):
            raise AssertionError("the oracle ran")

        monkeypatch.setattr(verification, "whole_line_oracle", oracle_ran)
        with pytest.raises(ValueError, match=r"horizon 1 passes the last time node 0\.96875"):
            manufactured_data(g, cfg)

    def test_steps_per_node_are_the_fewest_that_pass(self, small_config, monkeypatch):
        # On the 64^2 grid (dt = 1/32) one step per node reads a doubling
        # difference of 1.2e-7 on this datum, over the 1e-7 tolerance, so
        # the oracle runs at two; a horizon of 31 nodes skips the odd total
        # of one step per node; a datum no count up to 8 resolves is refused.
        cfg = small_config
        runs = []
        oracle = verification.whole_line_oracle

        def recorded(g_l, T, steps, stride):
            runs.append((steps, stride))
            return oracle(g_l, T, steps, stride)

        monkeypatch.setattr(verification, "whole_line_oracle", recorded)
        g = GridFunction(cfg.xgrid, 0.01 * np.exp(-(((cfg.xgrid.nodes - 2.0) / 2.0) ** 2)))
        _, field, doubling = manufactured_data(g, cfg, horizon=0.75)
        assert runs == [(24, 1), (48, 2)]
        want, want_doubling = oracle(g, 0.75, 48, 2)
        assert np.array_equal(field.values, want.values) and doubling == want_doubling
        runs.clear()
        manufactured_data(g, cfg, horizon=0.96875)
        assert runs[0] == (62, 2)
        runs.clear()
        loud = GridFunction(cfg.xgrid, 50.0 * g.values)
        with pytest.raises(AccuracyError, match="at 8 oracle steps per solver time step"):
            manufactured_data(loud, cfg, horizon=0.75)
        assert runs == [(24, 1), (48, 2), (96, 4), (192, 8)]

    def test_taper_clearance(self, solver_config):
        from dataclasses import replace

        g = gaussian(0.01, grid=solver_config.xgrid)
        cfg = replace(solver_config, T=0.5)
        with pytest.raises(ValueError, match="taper"):
            manufactured_data(g, cfg, taper_start=0.7)

    def test_data_shape(self, manufactured_case, solver_config):
        data, oracle, _ = manufactured_case
        tg = solver_config.tgrid
        before = tg.nodes < -1e-12
        for h in data.boundary_series:
            assert np.max(np.abs(h.values[before])) == 0.0
        # order-0 trace at t = 0 equals the datum's origin value
        i0 = solver_config.xgrid.index_of(0.0)
        assert data.h1.values[tg.index_of(0.0)] == pytest.approx(
            data.g_l.values[i0], rel=1e-10, abs=0.0
        )
        # The oracle holds the solver's nodes of [0, horizon] and no others.
        start = tg.index_of(0.0)
        assert oracle.tgrid.origin == 0.0 and oracle.tgrid.step == tg.step
        assert np.array_equal(oracle.tgrid.nodes, tg.nodes[start : start + oracle.tgrid.count])

    def test_traces_are_oracle_derivative_rows(self, manufactured_case, solver_config):
        # Before the taper (t < 0.7) h_{j+1} is the x = 0 row of d^j/dx^j of
        # the oracle field, here by full complex FFTs of each column.  The
        # two sums differ by rounding of the spectrum amplified by |xi|^j:
        # at most eps * max|V| * sum |xi|^j / X per column.
        data, oracle, _ = manufactured_case
        tg, xg = solver_config.tgrid, solver_config.xgrid
        nodes = np.arange(0, int(round(0.6 / tg.step)) + 1)
        cols = np.fft.fft(oracle.values[:, nodes], axis=0)
        xi = xg.frequencies[:, None]
        for j, h in enumerate(data.boundary_series):
            rows = np.fft.ifft((1j * xi) ** j * cols, axis=0)[xg.index_of(0.0)].real
            got = h.values[tg.index_of(0.0) + nodes]
            floor = np.finfo(float).eps * np.max(np.abs(cols), axis=0) * np.sum(np.abs(xi) ** j)
            assert np.all(np.abs(got - rows) <= floor / xg.count)


class TestOracleDistance:
    def test_is_the_box_l2_of_the_difference(self, manufactured_case, solver_config):
        _, oracle, result = manufactured_case
        xg, tg, T = solver_config.xgrid, solver_config.tgrid, solver_config.T
        xs = xg.nodes >= 0.0
        ts = np.flatnonzero((tg.nodes >= 0.0) & (tg.nodes <= T))
        cols = ts - tg.index_of(0.0)
        diff = result.u.values[xs][:, ts] - oracle.values[xs][:, cols]
        want = np.sqrt(np.sum(diff**2) * xg.step * tg.step)
        assert oracle_distance(result.u, oracle, T) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_vanishes_on_the_oracle_itself(self, manufactured_case, solver_config):
        _, oracle, result = manufactured_case
        tg = solver_config.tgrid
        vals = np.zeros_like(result.u.values)
        i0 = tg.index_of(0.0)
        vals[:, i0 : i0 + oracle.tgrid.count] = oracle.values
        u = SpaceTimeField(result.u.xgrid, tg, vals)
        assert oracle_distance(u, oracle, solver_config.T) == 0.0


def stencil_residual(u, fifth_x=None, x_range=None, t_range=None) -> float:
    """Reference for `pde_residual`, measured on the samples: the centered
    sixth-order time difference at every x node, plus (i xi)^5 on the band
    rows of the half spectrum, transformed back (or the given fifth_x),
    squared and summed over the window's nodes.  The band-row derivative
    goes through the same rfft pair as `pde_residual`'s, because on the
    bundled free field the residual is that pair's rounding amplified by
    xi^5: the tests' complex pair reads it 6% lower."""
    stencil = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
    nt = u.tgrid.count
    res = np.zeros(u.values.shape)
    for k, c in enumerate(stencil):
        res[:, 3 : nt - 3] += c * u.values[:, k : nt - 6 + k]
    res /= u.tgrid.step
    if fifth_x is None:
        rows = int(np.count_nonzero(band_mask(u.xgrid)[: u.xgrid.count // 2 + 1]))
        spec = x_half_spectrum(u.values, u.xgrid)[:rows]
        res += x_half_values((1j * u.xgrid.frequencies[:rows, None]) ** 5 * spec, u.xgrid)
    else:
        res += fifth_x.values
    xn, tn = u.xgrid.nodes, u.tgrid.nodes
    x_mask = np.ones(u.xgrid.count, dtype=bool)
    if x_range is not None:
        x_mask = (xn >= x_range[0]) & (xn <= x_range[1])
    t_mask = np.zeros(nt, dtype=bool)
    t_mask[3 : nt - 3] = True
    if t_range is not None:
        t_mask &= (tn >= t_range[0]) & (tn <= t_range[1])
    return float(np.sqrt(np.sum(res[np.ix_(x_mask, t_mask)] ** 2) * u.xgrid.step * u.tgrid.step))


class TestPdeResidual:
    # A box wide enough that the width-4 Gaussian decays to rounding at the
    # edges; on narrower boxes the truncated spectral tail, amplified by the
    # xi^5 multiplier, floors the residual near 1e-7.
    WIDE = UniformGrid(-40.0, 80.0 / 1024, 1024)
    NOISE_T = UniformGrid(-1.0, 2.0 / 128, 128)

    def noise(self, seed: int, xg: UniformGrid = XG) -> SpaceTimeField:
        values = np.random.default_rng(seed).standard_normal((xg.count, self.NOISE_T.count))
        return SpaceTimeField(xg, self.NOISE_T, values)

    @pytest.mark.parametrize("x_range", [None, (-7.3, 11.0), (15.0, 30.0)])
    @pytest.mark.parametrize("t_range", [None, (-0.5, 0.25), (0.9, 2.0)])
    @pytest.mark.parametrize("analytic", [False, True])
    def test_matches_the_stencil_on_the_samples(self, x_range, t_range, analytic):
        # O(1) residuals of noise fields, over every kind of window: the
        # whole box, an inner one, one the stencil's last columns cut.  The
        # odd count has no Nyquist row, the even one has.
        for xg in (XG, UniformGrid(-20.0, 40.0 / 511, 511)):
            u = self.noise(0, xg)
            fifth = self.noise(1, xg) if analytic else None
            want = stencil_residual(u, fifth, x_range, t_range)
            got = pde_residual(u, fifth_x=fifth, x_range=x_range, t_range=t_range)
            assert want > 1.0
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_empty_windows_read_zero(self):
        u = self.noise(0)
        assert pde_residual(u, t_range=(5.0, 6.0)) == 0.0
        assert pde_residual(u, x_range=(100.0, 200.0)) == 0.0

    def test_whole_box_equals_the_full_x_range(self):
        u = self.noise(0)
        whole = pde_residual(u)
        full_range = pde_residual(u, x_range=(XG.nodes[0], XG.nodes[-1]))
        assert full_range == pytest.approx(whole, rel=1e-12, abs=0.0)

    def test_matches_the_stencil_on_a_boundary_potential(self):
        # The analytic fifth derivative of a potential that is not box-periodic,
        # on test_acceptance's window.  The residual, the potential's quadrature
        # error (1.7e-6), is a difference of terms of norm 3.2, so the two sums
        # round apart relative to those: measured 2.4e-18 of the time
        # difference's norm (4.4e-12 of the residual).
        xg, tg = UniformGrid(-40.0, 80.0 / 1024, 1024), UniformGrid(-4.0, 8.0 / 1024, 1024)
        field, fifth = boundary_potential_with_fifth_x(xg, tg)
        window = dict(x_range=(0.5, 39.0), t_range=(-3.5, 3.5))
        want = stencil_residual(field, fifth, **window)
        zero = SpaceTimeField(xg, tg, np.zeros(field.values.shape))
        scale = stencil_residual(field, zero, **window)
        assert want < 1e-5 < 1.0 < scale
        assert abs(pde_residual(field, fifth_x=fifth, **window) - want) <= 1e-12 * scale

    def test_matches_the_stencil_on_the_bundled_free_field(self):
        # `linear_diagnostics`' interior_residual_free: about 4e-10, rounding
        # of the band rows amplified by xi^5 <= 2.4e7, so the spectral and the
        # sample sums agree only to the rounding's own digits (9e-8 measured).
        scenario_dir = Path(__file__).resolve().parent.parent / "scenarios"
        sc = Scenario.from_file(scenario_dir / "linear_diagnostics.json")
        g = datum_from_profile(sc.data["g"], sc.xgrid, sc.indices["s"], 0)
        field = evolved_field(g, sc.tgrid, PropagatorPlan(sc.xgrid))
        want = stencil_residual(field)
        assert want < 1e-8
        assert pde_residual(field) == pytest.approx(want, rel=1e-6, abs=0.0)

    def test_whole_box_takes_one_forward_transform(self, monkeypatch):
        # Parseval over the half spectrum: one rfft of the field, no inverse.
        calls = []
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2"):
            original = getattr(np.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        pde_residual(self.noise(0))
        assert calls == ["rfft"]
        calls.clear()
        pde_residual(self.noise(0), x_range=(-5.0, 5.0))
        assert calls == ["rfft", "irfft"]

    def test_free_field_satisfies_linear_equation(self):
        tg = UniformGrid(-1.0, 2.0 / 512, 512)
        g = gaussian(0.05, width=4.0, grid=self.WIDE)
        F = evolved_field(g, tg, PropagatorPlan(self.WIDE))
        res = pde_residual(F, x_range=(-10.0, 10.0), t_range=(-0.5, 0.5))
        assert res < 1e-8

    def test_negative_control(self):
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        g = gaussian(0.05, width=4.0, grid=self.WIDE)
        F = evolved_field(g, tg, PropagatorPlan(self.WIDE))
        bad = SpaceTimeField(
            F.xgrid, F.tgrid, F.values * (1.0 + 0.1 * np.sin(F.xgrid.nodes)[:, None])
        )
        res = pde_residual(bad, x_range=(-10.0, 10.0), t_range=(-0.5, 0.5))
        assert res > 1e-1 * np.max(np.abs(F.values))

    @pytest.mark.parametrize("k, inside", [(300, True), (383, True), (384, False), (450, False)])
    def test_fifth_derivative_stops_at_the_band_cap(self, k, inside):
        # A static mode solves the equation only if its fifth derivative is
        # dropped: the spectral derivative keeps the 384 band rows of 1024.
        # Inside, the residual is about 6e7 to 2e8; outside only rounding of
        # the band rows is left (measured 4.0e-6 and 2.7e-6).
        tg = UniformGrid(-1.0, 2.0 / 64, 64)
        wave = np.cos(k * self.WIDE.freq_step * self.WIDE.nodes)
        F = SpaceTimeField(self.WIDE, tg, np.repeat(wave[:, None], tg.count, axis=1))
        res = pde_residual(F)
        assert (res > 1e6) if inside else (res < 1e-4)

    def test_validation(self):
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        F = evolved_field(gaussian(0.05), tg, PropagatorPlan(XG))
        short = SpaceTimeField(XG, UniformGrid(0.0, 0.1, 4), np.zeros((XG.count, 4), complex))
        with pytest.raises(ValueError, match="too short"):
            pde_residual(short)
        other = evolved_field(gaussian(0.05), UniformGrid(-1.0, 2.0 / 128, 128), PropagatorPlan(XG))
        with pytest.raises(ValueError, match="share the field's grids"):
            pde_residual(F, fifth_x=other)
        # Both are checked before the field is transformed, which would refuse
        # complex samples.
        complex_field = SpaceTimeField(XG, tg, np.full((XG.count, tg.count), 1j))
        with pytest.raises(ValueError, match="share the field's grids"):
            pde_residual(complex_field, fifth_x=other)


class TestTestFunctions:
    def test_build_validation(self):
        with pytest.raises(HarnessError, match="p >= 2"):
            SeparableTestFunction.build(0.25, 1, 3.0, 2.0, 1)
        with pytest.raises(HarnessError, match="q >= 1"):
            SeparableTestFunction.build(0.25, 2, 3.0, 2.0, 0)

    def test_constraints_hold(self):
        phi = SeparableTestFunction.build(0.25, 2, 3.0, 2.0, 1)
        phi.check_constraints()
        assert float(phi.x_part(np.array([0.0]), 0)[0]) == 0.0
        assert float(phi.x_part(np.array([0.0]), 1)[0]) == 0.0
        assert float(phi.theta(0.25)) == 0.0

    def test_derivative_recursion_consistent(self):
        phi = SeparableTestFunction.build(0.25, 3, 3.0, 2.0, 1)
        xs = np.linspace(0.5, 10.0, 200)
        h = 1e-5
        for order in range(5):
            numeric = (phi.x_part(xs + h, order) - phi.x_part(xs - h, order)) / (2 * h)
            analytic = phi.x_part(xs, order + 1)
            scale = np.max(np.abs(analytic)) + 1e-30
            assert np.max(np.abs(numeric - analytic)) < 1e-5 * scale

    def test_family_size(self):
        family = weak_test_family(0.25)
        assert len(family) == 12
        for phi in family:
            phi.check_constraints()


class TestSimpsonWeights:
    # The bundled x and t steps and two others, all powers of two times a
    # small integer, so scipy's node differences are exactly h.
    STEPS = (80.0 / 1024, 4.0 / 1024, 0.375, 3.0)

    def test_match_scipy_simpson(self):
        # Odd and even counts 3..600 (x >= 0 of a 1024-node grid is 512),
        # against simpson with the spacing and with the nodes.  The distance
        # is relative to h * sum |y|; measured worst 2.6e-16, a margin of 7
        # under 2e-15.
        rng = np.random.default_rng(12)
        worst = 0.0
        for n in range(3, 601):
            y = rng.standard_normal(n)
            for h in self.STEPS:
                ours = _simpson_weights(n, h) @ y
                nodes = h * (np.arange(n) - 5)
                scale = h * np.sum(np.abs(y))
                for theirs in (simpson(y, dx=h), simpson(y, x=nodes)):
                    worst = max(worst, abs(ours - theirs) / scale)
        assert worst < 2e-15

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_needs_three_samples(self, n):
        with pytest.raises(ValueError, match="at least 3 samples"):
            _simpson_weights(n, 0.5)


class TestWeakForm:
    def test_solution_satisfies_identity(self, manufactured_case, solver_config):
        data, _, result = manufactured_case
        worst = weak_form_residual(
            result.u, data.g_l, data.h1, data.h2, data.h3, solver_config.T
        )
        assert len(weak_test_family(solver_config.T)) == 12
        assert worst < 1e-4

    def test_perturbation_detected(self, manufactured_case, solver_config):
        data, _, result = manufactured_case
        base = weak_form_residual(
            result.u, data.g_l, data.h1, data.h2, data.h3, solver_config.T
        )
        xg, tg = solver_config.xgrid, solver_config.tgrid
        bump = np.outer(
            xg.nodes**2 * np.exp(-(((xg.nodes - 3.0) / 1.5) ** 2)),
            np.exp(-((tg.nodes - 0.1) ** 2) / 0.01),
        )
        perturbed = SpaceTimeField(xg, tg, result.u.values + 1e-2 * bump)
        worse = weak_form_residual(
            perturbed, data.g_l, data.h1, data.h2, data.h3, solver_config.T
        )
        assert worse >= 10.0 * base


class TestTailSlopes:
    def test_power_law_spectrum(self):
        freqs = XG.frequencies
        coeffs = (1.0 + np.abs(freqs)) ** (-2.0)
        f = GridFunction(XG, full_values(coeffs, XG).real)
        slope = spectral_tail_slope(f, (2.0, 20.0))
        assert slope == pytest.approx(-2.0, abs=0.05)

    def test_band_needs_enough_modes(self):
        f = gaussian(1.0)
        with pytest.raises(ValueError, match="too few resolved modes"):
            spectral_tail_slope(f, (5.0, 5.01))

    def test_field_envelope_slope(self):
        tg = UniformGrid(0.0, 0.05, 9)
        freqs = XG.frequencies
        coeffs = (1.0 + np.abs(freqs)) ** (-1.5)
        f = GridFunction(XG, full_values(coeffs, XG).real)
        F = evolved_field(f, tg, PropagatorPlan(XG))
        slope = field_tail_slope(F, (2.0, 20.0), range(9))
        assert slope == pytest.approx(-1.5, abs=0.05)


class TestSmoothingReport:
    def test_rows_complete_and_flagged(self, manufactured_case, solver_config):
        _, _, result = manufactured_case
        rows = [smoothing_report(result, solver_config, a) for a in (0.0, 0.15)]
        keys = {
            "a",
            "admissible",
            "sup_halfline_norm",
            "tail_slope_nonlinear",
            "tail_slope_reference",
            "slope_gain",
            "band_caps",
            "band_norms_linear",
            "band_norms_nonlinear",
            "band_growth_linear",
            "band_growth_nonlinear",
        }
        for row in rows:
            assert keys <= set(row)
        # the session config runs b = 0.42, below the smoothing window b > 0.45
        assert not rows[1]["admissible"]

    def test_linear_band_norms_read_the_free_field(self, manufactured_case, solver_config):
        # The free evolution is built on the 9 sample times only; its band
        # norms must equal those of the same columns of the whole free field.
        _, _, result = manufactured_case
        cfg = solver_config
        row = smoothing_report(result, cfg, 0.15)
        tnodes = cfg.tgrid.nodes
        t_sel = np.where((tnodes >= -1e-14) & (tnodes <= cfg.T + 1e-14))[0]
        samples = t_sel[np.linspace(0, len(t_sel) - 1, 9).round().astype(int)]
        free = evolved_field(result.workspace.data.g_l, cfg.tgrid, PropagatorPlan(cfg.xgrid)).values
        want = [
            max(
                sobolev_norm(GridFunction(cfg.xgrid, free[:, n]), cfg.s + 0.15, band=cap)
                for n in samples
            )
            for cap in row["band_caps"]
        ]
        assert row["band_norms_linear"] == want

    def test_random_rough_datum_has_shallow_slope(self):
        rng = np.random.default_rng(21)
        f = random_band_limited(XG, band=15.0, rng=rng, decay=0.2)
        slope = spectral_tail_slope(f, (2.0, 12.0))
        assert slope > -1.0
