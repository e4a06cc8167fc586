"""Root systems, Cramer solves, oscillatory quadrature, boundary field."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdv5half.boundary import (
    AccuracyError,
    BoundaryPotential,
    BoundaryQuadrature,
    PreconditionError,
    RootTriple,
    assemble_boundary_potential,
    boundary_potential_traces,
    gamma_panel_edges,
    oscillatory_quadrature,
    panel_nodes_weights,
    roots_of_symbol,
    solve_coefficients,
    solve_coefficients_batch,
    stable_root_array,
    truncation_radius,
    vandermonde_det,
)
from kdv5half.cutoffs import rho, right_bump
from kdv5half.grids import TimeSeries, UniformGrid
from kdv5half.scenarios import Scenario, _build_boundary, run_scenario
from kdv5half.spectral import nonuniform_transform

TG = UniformGrid(-2.0, 4.0 / 1024, 1024)


def beta_scan():
    mags = np.logspace(-3.0, 3.0, 100)
    return np.concatenate([-mags, mags])


class TestRoots:
    def test_symbol_and_half_plane(self):
        for beta in beta_scan():
            triple = roots_of_symbol(float(beta))
            for r in triple.as_array:
                assert abs(1j * beta + r**5) < 1e-12 * max(1.0, abs(beta))
                assert r.real <= 1e-14

    def test_phases_at_unit_beta(self):
        neg = roots_of_symbol(-1.0).as_array
        pos = roots_of_symbol(1.0).as_array
        assert np.allclose(np.angle(neg) / np.pi, [0.5, 0.9, -0.7], atol=1e-15)
        assert np.allclose(np.angle(pos) / np.pi, [0.7, -0.9, -0.5], atol=1e-15)

    def test_oscillatory_root_is_imaginary(self):
        for beta in (-17.0, -1.0, -1e-3, 1e-3, 1.0, 17.0):
            triple = roots_of_symbol(beta)
            osc = triple.as_array[triple.oscillatory_index]
            assert abs(osc.real) < 1e-14 * max(1.0, abs(osc))
            others = [r for i, r in enumerate(triple.as_array) if i != triple.oscillatory_index]
            assert all(r.real < -0.1 * abs(r) for r in others)

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            roots_of_symbol(0.0)
        with pytest.raises(ValueError, match="excluded"):
            stable_root_array(np.array([1.0, 0.0]))

    def test_batch_matches_scalar(self):
        betas = beta_scan()
        batch = stable_root_array(betas)
        for i, beta in enumerate(betas):
            assert np.allclose(batch[i], roots_of_symbol(float(beta)).as_array, rtol=1e-14, atol=0)


class TestCoefficientSolve:
    def test_cramer_vs_library_solve(self):
        rng = np.random.default_rng(3)
        for beta in beta_scan():
            roots = stable_root_array(np.array([beta]))[0]
            V = np.vander(roots, 3, increasing=True).T  # rows 1, r, r^2
            for _ in range(20):
                rhs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
                ours = solve_coefficients_batch(roots, rhs)
                ref = np.linalg.solve(V, rhs)
                assert np.max(np.abs(ours - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_scalar_interface_residual(self):
        triple = roots_of_symbol(2.5)
        c = solve_coefficients(triple, [1.0 + 0.5j, -0.25, 0.75j])
        r = triple.as_array
        arr = c.as_array
        assert abs(arr.sum() - (1.0 + 0.5j)) < 1e-12
        assert abs((arr * r).sum() - (-0.25)) < 1e-12
        assert abs((arr * r * r).sum() - 0.75j) < 1e-12

    def test_degenerate_system_rejected(self):
        fake = RootTriple(beta=1.0, r1=-1.0 + 0j, r2=-1.0 + 0j, r3=-2.0 + 0j)
        assert vandermonde_det(fake) == 0.0
        with pytest.raises(ArithmeticError, match="near-degenerate"):
            solve_coefficients(fake, [1.0, 0.0, 0.0])


class TestQuadratureNodes:
    def test_edges_cover_interval(self):
        edges = gamma_panel_edges(3.0, depth=1, t_scale=2.0, x_scale=40.0)
        assert edges[0] == 0.0
        assert edges[-1] == pytest.approx(3.0)
        assert np.all(np.diff(edges) > 0)

    def test_depth_roughly_doubles_panels(self):
        n0 = len(gamma_panel_edges(3.0, 0, t_scale=2.0, x_scale=40.0))
        n1 = len(gamma_panel_edges(3.0, 1, t_scale=2.0, x_scale=40.0))
        assert n1 >= 1.8 * n0

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="positive"):
            gamma_panel_edges(0.0, 0)
        with pytest.raises(ValueError, match="depth"):
            gamma_panel_edges(1.0, -1)

    def test_polynomial_exactness(self):
        edges = gamma_panel_edges(1.0, 0)
        nodes, weights = panel_nodes_weights(edges, nodes_per_panel=8)
        assert np.sum(weights * nodes**6) == pytest.approx(1.0 / 7.0, rel=1e-13)


class TestOscillatoryQuadrature:
    def test_exponential_integral(self):
        # integral over beta in [0, R] of e^(-beta), via the gamma substitution.
        gamma_max = 2.0
        R = gamma_max**5
        result = oscillatory_quadrature(lambda b: np.exp(-b), sign=+1, gamma_max=gamma_max)
        assert result.value.real == pytest.approx(1.0 - np.exp(-R), rel=1e-10)
        assert abs(result.value.imag) < 1e-12

    def test_oscillatory_phase_integral(self):
        # integral of e^(i*beta*t) over [0, R]: closed form (e^{iRt} - 1)/(i t).
        t = 0.8
        gamma_max = 2.0
        R = gamma_max**5
        result = oscillatory_quadrature(
            lambda b: np.exp(1j * b * t), sign=+1, gamma_max=gamma_max, t_scale=t
        )
        exact = (np.exp(1j * R * t) - 1.0) / (1j * t)
        assert abs(result.value - exact) < 1e-9 * abs(exact)

    def test_sign_validation(self):
        with pytest.raises(ValueError, match="sign"):
            oscillatory_quadrature(lambda b: b, sign=0, gamma_max=1.0)

    def test_estimate_shrinks_with_depth(self):
        res = oscillatory_quadrature(
            lambda b: np.exp(1j * b * 0.5) / (1.0 + b), sign=+1, gamma_max=2.5, t_scale=0.5
        )
        assert res.estimate < 1e-8


class TestBoundaryQuadratureTable:
    def test_structure(self):
        quad = BoundaryQuadrature.build(100.0, depth=1, t_span=2.0, x_span=40.0)
        assert quad.node_count == len(quad.betas) == len(quad.weights) == len(quad.gammas)
        assert quad.roots.shape == (quad.node_count, 3)
        neg = quad.betas < 0
        assert np.all(quad.osc_index[neg] == 0)
        assert np.all(quad.osc_index[~neg] == 2)
        # every tabulated root satisfies the quintic symbol equation
        sym = 1j * quad.betas[:, None] + quad.roots**5
        assert np.max(np.abs(sym) / np.maximum(1.0, np.abs(quad.betas))[:, None]) < 1e-12


def bump_series(grid=TG):
    vals = right_bump(grid.nodes, 0.1, 0.6, 1.4, 1.9)
    return TimeSeries(grid, vals.astype(complex))


def zero_series(grid=TG):
    return TimeSeries(grid, np.zeros(grid.count, dtype=complex))


class TestTruncationRadius:
    def test_smooth_data_fits_in_band(self):
        radius, tail, ok = truncation_radius([bump_series()], 1e-8, cap=0.75 * TG.nyquist)
        assert ok and tail == 0.0
        assert 1.0 <= radius < 0.75 * TG.nyquist

    def test_rough_data_flagged(self):
        rng = np.random.default_rng(0)
        noisy = TimeSeries(TG, rng.standard_normal(TG.count).astype(complex))
        radius, tail, ok = truncation_radius([noisy], 1e-8, cap=0.75 * TG.nyquist)
        assert not ok
        assert tail > 0.0


class TestBoundaryField:
    def test_trace_reproduces_data(self):
        h1 = bump_series()
        for j, target in ((0, h1.values), (1, None), (2, None)):
            trace = boundary_potential_traces(
                h1, zero_series(), zero_series(), TG, j, t_window=(0.0, 2.0)
            )
            window = (TG.nodes >= 0.0) & (TG.nodes <= 2.0)
            got = trace.values[window]
            want = target[window] if target is not None else 0.0
            err = np.max(np.abs(got - want))
            assert err < 1e-6 * np.max(np.abs(h1.values))

    def test_channel_permutation(self):
        # driving h2 instead of h1 moves the reproduced profile to the j = 1 trace
        h = bump_series()
        trace0 = boundary_potential_traces(zero_series(), h, zero_series(), TG, 0, t_window=(0.0, 2.0))
        trace1 = boundary_potential_traces(zero_series(), h, zero_series(), TG, 1, t_window=(0.0, 2.0))
        window = (TG.nodes >= 0.0) & (TG.nodes <= 2.0)
        scale = np.max(np.abs(h.values))
        assert np.max(np.abs(trace1.values[window] - h.values[window])) < 1e-6 * scale
        assert np.max(np.abs(trace0.values[window])) < 1e-6 * scale

    def test_invalid_trace_order(self):
        with pytest.raises(ValueError, match="0, 1, or 2"):
            boundary_potential_traces(bump_series(), zero_series(), zero_series(), TG, 5)

    def test_zero_data_short_circuit(self):
        xg = UniformGrid(-10.0, 20.0 / 64, 64)
        out = assemble_boundary_potential(zero_series(), zero_series(), zero_series(), xg, TG)
        assert np.all(out.field.values == 0)
        assert out.potential is None
        assert out.diagnostics["node_count"] == 0

    def test_rough_data_precondition(self):
        rng = np.random.default_rng(1)
        noisy = TimeSeries(TG, rng.standard_normal(TG.count).astype(complex))
        xg = UniformGrid(-10.0, 20.0 / 64, 64)
        with pytest.raises(PreconditionError, match="decay"):
            assemble_boundary_potential(noisy, zero_series(), zero_series(), xg, TG)

    def test_grid_mismatch(self):
        other = UniformGrid(-2.0, 4.0 / 512, 512)
        xg = UniformGrid(-10.0, 20.0 / 64, 64)
        with pytest.raises(ValueError, match="time grid"):
            assemble_boundary_potential(
                bump_series(), zero_series(other), zero_series(other), xg, TG
            )

    def test_left_halfline_stays_bounded(self):
        # The decaying-root exponentials grow like e^(|Re r| |x|) for x < 0;
        # without the collar cutoff (applied in the scaled variable gamma * x)
        # they would overflow by x = -40.  With it, the whole left half-line
        # stays within a modest multiple of the data amplitude.
        xg = UniformGrid(-40.0, 40.0 / 128, 128)  # covers [-40, 0]
        out = assemble_boundary_potential(
            bump_series(), zero_series(), zero_series(), xg, TG,
            depth=1, t_window=(0.0, 2.0),
        )
        sup = np.max(np.abs(out.field.values))
        assert np.isfinite(sup)
        assert sup < 10.0 * np.max(np.abs(bump_series().values))


def direct_field(pot, xs, ts, root_power=0, rhs=None):
    """Independent oracle: (2 pi)^(-1/2) sum_q w_q e^{i beta_q t}
    sum_m c_m r_m^root_power e^{r_m x} taper over every node of pot.quad,
    with the coefficients from a library solve of the Vandermonde systems
    against `rhs` (default pot.rhs) and e^{r x} evaluated only where the
    taper is nonzero."""
    quad = pot.quad
    rhs = pot.rhs if rhs is None else rhs
    vander = quad.roots[:, None, :] ** np.arange(3)[None, :, None]  # rows 1, r, r^2
    coeffs = np.linalg.solve(vander, rhs[:, :, None])[:, :, 0]
    taper = rho(np.outer(quad.gammas, xs), quad.collar)
    phases = np.exp(1j * np.outer(ts, quad.betas))
    out = np.zeros((len(xs), len(ts)), dtype=complex)
    for m in range(3):
        osc = quad.osc_index == m
        c = quad.weights * coeffs[:, m] * quad.roots[:, m] ** root_power
        tap = np.where(osc[:, None], 1.0, taper)
        z = np.where(tap > 0, np.outer(quad.roots[:, m], xs), 0.0)
        out += (phases @ (c[:, None] * np.exp(z) * tap)).T
    return out / np.sqrt(2.0 * np.pi)


def three_channel_series(h2_factor=0.5j):
    # The imaginary h2 of the default keeps these potentials on the full rule.
    h1 = bump_series()
    h2 = TimeSeries(TG, h2_factor * right_bump(TG.nodes, 0.2, 0.5, 0.9, 1.5).astype(complex))
    h3 = TimeSeries(TG, -0.3 * right_bump(TG.nodes, 0.3, 0.8, 1.0, 1.7).astype(complex))
    return h1, h2, h3


def three_channel_potential(t_sel=None, x_span=5.0, h2_factor=0.5j):
    series = three_channel_series(h2_factor)
    radius, _, ok = truncation_radius(series, 1e-8, 0.75 * TG.nyquist)
    assert ok
    quad = BoundaryQuadrature.build(radius, depth=1, t_span=2.0, x_span=x_span)
    return BoundaryPotential(quad, *series, t_sel=t_sel)


def rel_max_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBoundaryPotentialTables:
    # Non-uniform targets, several inside the collar (x < 0, taper in (0, 1)).
    XS = np.array([-0.9, -0.41, -0.2, -0.05, 0.0, 0.13, 0.6, 1.7, 2.2, 4.9])
    TS = np.array([-0.3, 0.0, 0.25, 0.8, 1.3, 1.95])

    def test_field_values_match_direct_sum(self):
        pot = three_channel_potential()
        for kwargs in ({}, {"root_power": 5}):
            got = pot.field_values(self.XS, self.TS, **kwargs)
            want = direct_field(pot, self.XS, self.TS, **kwargs)
            assert rel_max_error(got, want) <= 1e-13, kwargs
        shuffled = pot.field_values(self.XS[::-1], self.TS)
        assert rel_max_error(shuffled[::-1], direct_field(pot, self.XS, self.TS)) <= 1e-13

    def test_field_on_grid_matches_direct_sum(self):
        # Three x-blocks crossing x = 0, the last one short; only the rows
        # t_sel are evaluated and the rest stay zero.  The uniform grid comes
        # twice (stored block tables reused), then a graded grid whose blocks
        # have offsets of their own.
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 2.0))[0]
        pot = three_channel_potential(t_sel=t_sel, x_span=6.0)
        uniform = np.linspace(-3.0, 6.0, 300)
        graded = -3.0 + 9.0 * np.linspace(0.0, 1.0, 300) ** 1.5
        for xs in (uniform, uniform, graded):
            values = pot.field_on_grid(xs)
            assert values.shape == (len(xs), TG.count)
            assert not np.any(np.delete(values, t_sel, axis=1))
            want = direct_field(pot, xs, TG.nodes[t_sel])
            assert rel_max_error(values[:, t_sel], want) <= 1e-13

    def test_table_transform_matches_nonuniform_transform(self):
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 2.0))[0]
        pot = three_channel_potential(t_sel=t_sel)
        series = (bump_series(), zero_series(), TimeSeries(TG, 2j * bump_series().values))
        pot.update_data(*series)
        want = np.stack([nonuniform_transform(h, pot.quad.betas) for h in series], axis=-1)
        assert rel_max_error(pot.rhs, want) <= 1e-13

    def test_transform_falls_back_when_data_leave_the_rows(self):
        # Rows cover t in [0, 1] only; the bump reaches t = 1.9.
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 1.0))[0]
        pot = three_channel_potential(t_sel=t_sel)
        series = (bump_series(), zero_series(), zero_series())
        pot.update_data(*series)
        want = np.stack([nonuniform_transform(h, pot.quad.betas) for h in series], axis=-1)
        assert rel_max_error(pot.rhs, want) <= 1e-13

    def test_trace_on_grid_matches_unbound_trace_values(self):
        # Bound to every row, the trace comes from the stored table; unbound,
        # trace_values uses fresh exponentials and the nonuniform data transform.
        bound = three_channel_potential(t_sel=np.arange(TG.count))
        unbound = three_channel_potential()
        for j in range(3):
            got = bound.trace_on_grid(j)
            assert got.grid == TG
            assert rel_max_error(got.values, unbound.trace_values(j, TG.nodes)) <= 1e-13
        with pytest.raises(ValueError, match="t_sel"):
            unbound.trace_on_grid(0)

    def test_far_left_field_stays_finite(self):
        # e^{Re r x_b} overflows for most nodes this far left; the taper is
        # zero there and must not turn inf into NaN.
        pot = three_channel_potential()
        xs = np.linspace(-2000.0, -1990.0, 16)
        assert np.max(np.real(pot.quad.roots) * xs[0]) > 710.0
        with np.errstate(over="raise", invalid="raise"):
            got = pot.field_values(xs, self.TS)
        assert np.all(np.isfinite(got))
        # The phases r x themselves carry rounding of order eps * |r x| here.
        phase_rounding = np.finfo(float).eps * np.max(np.abs(pot.quad.roots)) * 2000.0
        assert rel_max_error(got, direct_field(pot, xs, self.TS)) <= 4.0 * phase_rounding


class TestFromData:
    KNOBS = dict(depth=1, x_span=5.0)

    def test_zero_data_gives_none(self):
        zero = zero_series()
        assert BoundaryPotential.from_data(zero, zero, zero, **self.KNOBS) is None

    def test_strict_raises_lenient_reports_the_tail(self):
        rng = np.random.default_rng(2)
        noisy = TimeSeries(TG, rng.standard_normal(TG.count).astype(complex))
        with pytest.raises(PreconditionError, match="decay"):
            BoundaryPotential.from_data(noisy, zero_series(), zero_series(), **self.KNOBS)
        pot = BoundaryPotential.from_data(
            noisy, zero_series(), zero_series(), strict=False, **self.KNOBS
        )
        assert pot.diagnostics["spectrum_within_band"] is False
        assert pot.diagnostics["tail_mass"] > 0.0
        assert pot.diagnostics["beta_radius"] == pytest.approx(0.75 * TG.nyquist)
        assert pot.diagnostics["node_count"] == pot.quad.node_count

    def test_mismatched_time_grids_rejected(self):
        other = UniformGrid(-2.0, 4.0 / 512, 512)
        with pytest.raises(ValueError, match="one time grid"):
            BoundaryPotential.from_data(
                bump_series(), zero_series(other), zero_series(), **self.KNOBS
            )

    def test_boundary_only_traces_equal_the_wrapper(self, tmp_path):
        # One potential serves all three trace orders of the pipeline; each
        # must equal the wrapper's own build bit for bit.  256 time nodes
        # with ramps of about 90 nodes keep the spectra inside the band.
        payload = {
            "name": "traces",
            "pipeline": "boundary-only",
            "grids": {
                "x": {"origin": -10.0, "step": 20.0 / 64, "count": 64},
                "t": {"origin": -0.5, "step": 2.5 / 256, "count": 256},
            },
            "indices": {"s": 1.0, "b": 0.42, "bstar": 0.46, "alpha": 0.52},
            "depth": 1,
            "data": {
                "h1": {"profile": "bump", "t0": 0.02, "t1": 0.9, "t2": 1.1, "t3": 1.98},
                "h2": {"profile": "bump", "amplitude": 0.5, "t0": 0.02, "t1": 0.98, "t2": 1.02, "t3": 1.98},
            },
            # The bundled boundary_traces tolerances; the second runs the probe
            # after the trace potential is released.
            "checks": {"trace_error": 1e-6, "initial_vanishing_ratio": 4.0},
        }
        path = tmp_path / "traces.json"
        path.write_text(json.dumps(payload))
        code, _ = run_scenario(path, out_dir=tmp_path / "out")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        scenario = Scenario.from_file(path)
        series = _build_boundary(scenario)
        tnodes = scenario.tgrid.nodes
        plateau = (tnodes >= 0.0) & (tnodes <= 1.0)
        for j in range(3):
            want = boundary_potential_traces(*series, scenario.tgrid, j, depth=1).values[plateau]
            got = report["traces"][f"j{j}"]
            assert np.array_equal(got["re"], want.real) and np.array_equal(got["im"], want.imag)


def real_three_channel(**kwargs):
    """Potential of real three-channel data, with the data transforms on every
    node of its symmetric rule by direct summation (the oracle's rhs)."""
    pot = three_channel_potential(h2_factor=0.5, **kwargs)
    series = three_channel_series(0.5)
    return pot, np.stack([nonuniform_transform(h, pot.quad.betas) for h in series], axis=-1)


class TestRealDataHalfRule:
    # Real data on all three channels; the oracle sums the full symmetric rule.
    XS = TestBoundaryPotentialTables.XS
    TS = TestBoundaryPotentialTables.TS

    def test_field_values_match_the_full_rule(self):
        pot, rhs = real_three_channel()
        assert len(pot.coeffs) == pot.quad.node_count // 2
        for kwargs in ({}, {"root_power": 5}):
            got = pot.field_values(self.XS, self.TS, **kwargs)
            assert not np.any(np.imag(got))
            want = direct_field(pot, self.XS, self.TS, rhs=rhs, **kwargs)
            assert rel_max_error(got, want) <= 1e-13, kwargs

    def test_field_and_traces_on_grid_match_the_full_rule(self):
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 2.0))[0]
        pot, rhs = real_three_channel(t_sel=t_sel, x_span=6.0)
        xs = np.linspace(-3.0, 6.0, 300)
        values = pot.field_on_grid(xs)
        assert not np.any(values.imag)
        assert not np.any(np.delete(values, t_sel, axis=1))
        want = direct_field(pot, xs, TG.nodes[t_sel], rhs=rhs)
        assert rel_max_error(values[:, t_sel], want) <= 1e-13
        for j in range(3):
            trace = pot.trace_on_grid(j).values
            assert not np.any(trace.imag)
            want = direct_field(pot, [0.0], TG.nodes[t_sel], root_power=j, rhs=rhs)[0]
            assert rel_max_error(trace[t_sel], want) <= 1e-13, j

    def test_far_left_field_stays_finite(self):
        pot, rhs = real_three_channel()
        xs = np.linspace(-2000.0, -1990.0, 16)
        with np.errstate(over="raise", invalid="raise"):
            got = pot.field_values(xs, self.TS)
        assert np.all(np.isfinite(got))
        phase_rounding = np.finfo(float).eps * np.max(np.abs(pot.quad.roots)) * 2000.0
        assert rel_max_error(got, direct_field(pot, xs, self.TS, rhs=rhs)) <= 4.0 * phase_rounding

    def test_from_data_reports_the_full_rule(self):
        pot = BoundaryPotential.from_data(*three_channel_series(0.5), depth=1, x_span=5.0)
        quad = pot.quad
        assert pot.diagnostics["node_count"] == quad.node_count
        assert np.array_equal(quad.betas[quad.betas < 0], -quad.betas[quad.betas > 0])
        assert len(pot.rhs) == quad.node_count // 2

    def test_complex_data_refused(self):
        pot = three_channel_potential(h2_factor=0.5)
        h1, h2, h3 = three_channel_series(0.5)
        with pytest.raises(ValueError, match="complex boundary data"):
            pot.update_data(h1, TimeSeries(TG, h2.values + 1e-20j), h3)


class TestConjugateSymmetry:
    # beta -> -beta conjugates the data transform of real data; the roots and
    # Cramer coefficients must follow, which is what the half rule relies on.
    @settings(max_examples=200, deadline=None)
    @given(
        log_beta=st.floats(min_value=-8.0, max_value=8.0),
        rhs=st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=6, max_size=6),
    )
    def test_roots_and_coefficients_conjugate(self, log_beta, rhs):
        beta = 10.0**log_beta
        pos = stable_root_array(np.array([beta]))[0]
        neg = stable_root_array(np.array([-beta]))[0]
        assert np.max(np.abs(neg - np.conj(pos)[::-1])) <= 1e-15 * beta**0.2
        assert roots_of_symbol(beta).oscillatory_index == 2
        assert roots_of_symbol(-beta).oscillatory_index == 0
        b = np.array(rhs[:3]) + 1j * np.array(rhs[3:])
        c_pos = solve_coefficients_batch(pos, b)
        c_neg = solve_coefficients_batch(neg, np.conj(b))
        scale = np.max(np.abs(c_pos))
        if scale > 0.0:
            assert np.max(np.abs(c_neg - np.conj(c_pos)[::-1])) <= 1e-13 * scale
