"""Root systems, Cramer solves, the gamma quadrature rule, boundary field."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import potential_field

from kdv5half.boundary import (
    X_BLOCK,
    BoundaryPotential,
    BoundaryQuadrature,
    PreconditionError,
    _FoldedTable,
    boundary_potential_traces,
    gamma_panel_edges,
    panel_nodes_weights,
    solve_coefficients_batch,
    stable_root_array,
    truncation_radius,
)
from kdv5half.cutoffs import rho, right_bump
from kdv5half.grids import TimeSeries, UniformGrid
from kdv5half.scenarios import Scenario, _build_boundary, run_scenario
from kdv5half.spectral import nonuniform_transform

TG = UniformGrid(-2.0, 4.0 / 1024, 1024)


def beta_scan():
    mags = np.logspace(-3.0, 3.0, 100)
    return np.concatenate([-mags, mags])


def oscillatory_index(beta):
    """Column of the purely oscillatory root in `stable_root_array`."""
    return 0 if beta < 0 else 2


class TestRoots:
    def test_symbol_and_half_plane(self):
        betas = beta_scan()
        for beta, roots in zip(betas, stable_root_array(betas)):
            for r in roots:
                assert abs(1j * beta + r**5) < 1e-12 * max(1.0, abs(beta))
                assert r.real <= 1e-14

    def test_phases_at_unit_beta(self):
        neg, pos = stable_root_array(np.array([-1.0, 1.0]))
        assert np.allclose(np.angle(neg) / np.pi, [0.5, 0.9, -0.7], atol=1e-15)
        assert np.allclose(np.angle(pos) / np.pi, [0.7, -0.9, -0.5], atol=1e-15)

    def test_oscillatory_root_is_imaginary(self):
        betas = np.array([-17.0, -1.0, -1e-3, 1e-3, 1.0, 17.0])
        for beta, roots in zip(betas, stable_root_array(betas)):
            k = oscillatory_index(beta)
            assert abs(roots[k].real) < 1e-14 * max(1.0, abs(roots[k]))
            assert all(r.real < -0.1 * abs(r) for r in np.delete(roots, k))

    def test_zero_beta_rejected(self):
        with pytest.raises(ValueError, match="excluded"):
            stable_root_array(np.array([0.0]))
        with pytest.raises(ValueError, match="excluded"):
            stable_root_array(np.array([1.0, 0.0]))

    def test_batch_matches_scalar(self):
        # A row does not depend on the batch it is computed in.
        betas = beta_scan()
        batch = stable_root_array(betas)
        for i, beta in enumerate(betas):
            assert np.array_equal(batch[i], stable_root_array(np.array([beta]))[0])


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
        # One root triple and one right-hand side, without batch axes.
        r = stable_root_array(np.array([2.5]))[0]
        c = solve_coefficients_batch(r, np.array([1.0 + 0.5j, -0.25, 0.75j]))
        assert c.shape == (3,)
        assert abs(c.sum() - (1.0 + 0.5j)) < 1e-12
        assert abs((c * r).sum() - (-0.25)) < 1e-12
        assert abs((c * r * r).sum() - 0.75j) < 1e-12

    # Componentwise backward error of the Cramer solve, in units of the
    # float64 epsilon: 200,000 draws over |beta| in [1e-8, 1e8] and rhs
    # scales 1e-6..1e6 gave at most 1.74, so 16 leaves a margin of 9.
    CRAMER_BACKWARD_ERROR = 16 * np.finfo(float).eps

    @settings(max_examples=200, deadline=None)
    @given(
        log_beta=st.floats(-8.0, 8.0),
        negative=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
        log_scale=st.floats(-6.0, 6.0),
    )
    def test_cramer_residual_over_beta_decades(self, log_beta, negative, seed, log_scale):
        beta = -(10.0**log_beta) if negative else 10.0**log_beta
        roots = stable_root_array(np.array([beta]))[0]
        rng = np.random.default_rng(seed)
        rhs = 10.0**log_scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        c = solve_coefficients_batch(roots, rhs)
        powers = roots[None, :] ** np.arange(3)[:, None]  # row k holds r_m^k
        residual = np.abs(powers @ c - rhs)
        scale = np.abs(powers) @ np.abs(c) + np.abs(rhs)
        assert np.all(residual <= self.CRAMER_BACKWARD_ERROR * scale)


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


def gamma_rule(integrand, gamma_max, depth, t_scale=0.0):
    """integral_0^{gamma_max^5} integrand(beta) dbeta on the panel rule in
    gamma, with beta = gamma^5 and dbeta = 5 gamma^4 dgamma."""
    gam, w = panel_nodes_weights(gamma_panel_edges(gamma_max, depth, t_scale=t_scale))
    return complex(np.sum(5.0 * gam**4 * w * integrand(gam**5)))


class TestOscillatoryQuadrature:
    # The rule BoundaryQuadrature.build tabulates, on integrals with known values.
    def test_exponential_integral(self):
        gamma_max = 2.0
        R = gamma_max**5
        value = gamma_rule(lambda b: np.exp(-b), gamma_max, depth=4)
        assert value.real == pytest.approx(1.0 - np.exp(-R), rel=1e-10)
        assert abs(value.imag) < 1e-12

    def test_oscillatory_phase_integral(self):
        # integral of e^(i*beta*t) over [0, R]: closed form (e^{iRt} - 1)/(i t).
        t = 0.8
        gamma_max = 2.0
        R = gamma_max**5
        value = gamma_rule(lambda b: np.exp(1j * b * t), gamma_max, depth=4, t_scale=t)
        exact = (np.exp(1j * R * t) - 1.0) / (1j * t)
        assert abs(value - exact) < 1e-9 * abs(exact)

    def test_estimate_shrinks_with_depth(self):
        # The change under one depth doubling falls below 1e-8.
        f = lambda b: np.exp(1j * b * 0.5) / (1.0 + b)
        v3, v4 = (gamma_rule(f, 2.5, depth=d, t_scale=0.5) for d in (3, 4))
        assert abs(v4 - v3) < 1e-8


class TestBoundaryQuadratureTable:
    def test_structure(self):
        quad = BoundaryQuadrature.build(100.0, depth=1, t_span=2.0, x_span=40.0)
        assert quad.node_count == 2 * len(quad.betas)
        assert len(quad.betas) == len(quad.weights) == len(quad.gammas)
        assert np.all(quad.betas > 0)
        assert np.array_equal(quad.betas, quad.gammas**5)
        assert quad.roots.shape == (len(quad.betas), 3)
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
        traces = boundary_potential_traces(h1, zero_series(), zero_series())
        for trace, target in zip(traces, (h1.values, None, None)):
            window = (TG.nodes >= 0.0) & (TG.nodes <= 2.0)
            got = trace.values[window]
            want = target[window] if target is not None else 0.0
            err = np.max(np.abs(got - want))
            assert err < 1e-6 * np.max(np.abs(h1.values))

    def test_channel_permutation(self):
        # driving h2 instead of h1 moves the reproduced profile to the j = 1 trace
        h = bump_series()
        trace0, trace1, _ = boundary_potential_traces(zero_series(), h, zero_series())
        window = (TG.nodes >= 0.0) & (TG.nodes <= 2.0)
        scale = np.max(np.abs(h.values))
        assert np.max(np.abs(trace1.values[window] - h.values[window])) < 1e-6 * scale
        assert np.max(np.abs(trace0.values[window])) < 1e-6 * scale

    def test_zero_data_short_circuit(self):
        traces = boundary_potential_traces(zero_series(), zero_series(), zero_series())
        assert len(traces) == 3
        for out in traces:
            assert out.grid == TG
            assert not np.any(out.values)

    def test_rough_data_precondition(self):
        rng = np.random.default_rng(1)
        noisy = TimeSeries(TG, rng.standard_normal(TG.count).astype(complex))
        with pytest.raises(PreconditionError, match="decay"):
            boundary_potential_traces(noisy, zero_series(), zero_series())

    def test_grid_mismatch(self):
        other = UniformGrid(-2.0, 4.0 / 512, 512)
        with pytest.raises(ValueError, match="time grid"):
            boundary_potential_traces(bump_series(), zero_series(other), zero_series(other))

    def test_left_halfline_stays_bounded(self):
        # The decaying-root exponentials grow like e^(|Re r| |x|) for x < 0;
        # without the collar cutoff (applied in the scaled variable gamma * x)
        # they would overflow by x = -40.  With it, the whole left half-line
        # stays within a modest multiple of the data amplitude.
        xg = UniformGrid(-40.0, 40.0 / 128, 128)  # covers [-40, 0]
        pot = BoundaryPotential.from_data(
            bump_series(), zero_series(), zero_series(),
            depth=1, x_span=40.0, t_window=(0.0, 2.0),
        )
        sup = np.max(np.abs(potential_field(pot, xg.nodes)))
        assert np.isfinite(sup)
        assert sup < 10.0 * np.max(np.abs(bump_series().values))


def direct_field(pot, series, xs, ts, root_power=0):
    """Independent oracle over the symmetric rule that pot.quad halves: the
    beta > 0 nodes of pot.quad and their mirrors -beta (roots from
    stable_root_array(-beta), oscillatory at index 0 there; same gammas and
    weights).  (2 pi)^(-1/2) sum_q w_q e^{i beta_q t} sum_m c_m r_m^root_power
    e^{r_m x} taper, with the data transforms of `series` by direct
    summation at every node, coefficients from a library solve of the
    Vandermonde systems, and e^{r x} evaluated only where the taper is
    nonzero."""
    quad = pot.quad
    betas = np.concatenate([-quad.betas, quad.betas])
    gammas = np.concatenate([quad.gammas, quad.gammas])
    weights = np.concatenate([quad.weights, quad.weights])
    roots = stable_root_array(betas)
    rhs = np.stack([nonuniform_transform(h, betas) for h in series], axis=-1)
    vander = roots[:, None, :] ** np.arange(3)[None, :, None]  # rows 1, r, r^2
    coeffs = np.linalg.solve(vander, rhs[:, :, None])[:, :, 0]
    taper = rho(np.outer(gammas, xs), quad.collar)
    phases = np.exp(1j * np.outer(ts, betas))
    osc_index = np.where(betas < 0, 0, 2)
    out = np.zeros((len(xs), len(ts)), dtype=complex)
    for m in range(3):
        osc = osc_index == m
        c = weights * coeffs[:, m] * roots[:, m] ** root_power
        tap = np.where(osc[:, None], 1.0, taper)
        z = np.where(tap > 0, np.outer(roots[:, m], xs), 0.0)
        out += (phases @ (c[:, None] * np.exp(z) * tap)).T
    return out / np.sqrt(2.0 * np.pi)


def three_channel_series():
    h1 = bump_series()
    h2 = TimeSeries(TG, 0.5 * right_bump(TG.nodes, 0.2, 0.5, 0.9, 1.5).astype(complex))
    h3 = TimeSeries(TG, -0.3 * right_bump(TG.nodes, 0.3, 0.8, 1.0, 1.7).astype(complex))
    return h1, h2, h3


ALL_ROWS = np.arange(TG.count)


def three_channel_potential(t_sel=ALL_ROWS, x_span=5.0, series=None):
    series = three_channel_series() if series is None else series
    radius, _, ok = truncation_radius(series, 1e-8, 0.75 * TG.nyquist)
    assert ok
    quad = BoundaryQuadrature.build(radius, depth=1, t_span=2.0, x_span=x_span)
    return BoundaryPotential(quad, *series, t_sel=t_sel)


def fifth_derivative(pot):
    """pot with coefficients c_m r_m^5: on x >= 0, where the collar cutoff is
    1, its field is the analytic fifth x-derivative of pot's field."""
    fifth = copy.copy(pot)
    fifth.coeffs = pot.coeffs * pot.quad.roots**5
    return fifth


def rel_max_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestBoundaryPotentialTables:
    # Real data on all three channels against the oracle over the full rule.
    # Non-uniform targets, several inside the collar (x < 0, taper in (0, 1)).
    XS = np.array([-0.9, -0.41, -0.2, -0.05, 0.0, 0.13, 0.6, 1.7, 2.2, 4.9])
    TS = np.array([-0.3, 0.0, 0.25, 0.8, 1.3, 1.95])

    def test_field_values_match_direct_sum(self):
        pot = three_channel_potential()
        series = three_channel_series()
        assert len(pot.coeffs) == len(pot.quad.betas)
        for root_power, evaluated in ((0, pot), (5, fifth_derivative(pot))):
            got = evaluated.field_values(self.XS, self.TS)
            assert not np.any(np.imag(got))
            want = direct_field(pot, series, self.XS, self.TS, root_power=root_power)
            assert rel_max_error(got, want) <= 1e-13, root_power
        shuffled = pot.field_values(self.XS[::-1], self.TS)
        assert rel_max_error(shuffled[::-1], direct_field(pot, series, self.XS, self.TS)) <= 1e-13

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
            values = potential_field(pot, xs)
            assert values.shape == (len(xs), TG.count)
            assert not np.any(values.imag)
            assert not np.any(np.delete(values, t_sel, axis=1))
            want = direct_field(pot, three_channel_series(), xs, TG.nodes[t_sel])
            assert rel_max_error(values[:, t_sel], want) <= 1e-13

    def test_table_transform_matches_nonuniform_transform(self):
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 2.0))[0]
        pot = three_channel_potential(t_sel=t_sel)
        series = (bump_series(), zero_series(), TimeSeries(TG, -2.0 * bump_series().values))
        pot.update_data(*series)
        want = np.stack([nonuniform_transform(h, pot.quad.betas) for h in series], axis=-1)
        assert rel_max_error(pot.rhs, want) <= 1e-13

    def test_data_off_the_rows_refused(self):
        # Rows cover t in [0, 1] only; the bump reaches t = 1.9.  The stored
        # table is the only data transform, so such data have none.
        rows = np.where((TG.nodes >= 0.0) & (TG.nodes <= 1.0))[0]
        series = (bump_series(), zero_series(), zero_series())
        quad = three_channel_potential().quad
        with pytest.raises(ValueError, match="t_sel"):
            BoundaryPotential(quad, *series, t_sel=rows)
        pot = BoundaryPotential(quad, zero_series(), zero_series(), zero_series(), t_sel=rows)
        with pytest.raises(ValueError, match="t_sel"):
            pot.update_data(*series)
        # A window that misses part of the data, or all of it (no rows).
        for window in ((0.0, 1.0), (2.5, 3.0)):
            with pytest.raises(ValueError, match="t_sel"):
                BoundaryPotential.from_data(*series, depth=1, x_span=5.0, t_window=window)

    def test_trace_values_on_other_times_match_trace_on_grid(self):
        # trace_on_grid evaluates on the stored table of the bound rows;
        # trace_values on the reversed times builds a fresh table.  Both
        # match the oracle's analytic x-derivatives at x = 0.
        pot = three_channel_potential()
        fresh = pot.trace_values(TG.nodes[::-1])[:, ::-1]
        assert fresh.shape == (3, TG.count)
        for j, got in enumerate(pot.trace_on_grid()):
            assert got.grid == TG
            assert not np.any(got.values.imag)
            assert rel_max_error(got.values, fresh[j]) <= 1e-13
            want = direct_field(pot, three_channel_series(), [0.0], TG.nodes, root_power=j)[0]
            assert rel_max_error(got.values, want) <= 1e-13, j

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
        want = direct_field(pot, three_channel_series(), xs, self.TS)
        assert rel_max_error(got, want) <= 4.0 * phase_rounding


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
        # The three traces in report.json must be the wrapper's, bit for bit,
        # through the pipeline and the JSON round trip.  256 time nodes
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
        for j, trace in enumerate(boundary_potential_traces(*series, depth=1)):
            want = trace.values[plateau]
            got = report["traces"][f"j{j}"]
            assert np.array_equal(got["re"], want.real) and np.array_equal(got["im"], want.imag)


def permuted_series():
    """The channels of `three_channel_series` permuted and rescaled, so the
    half-rule tests below run on other real data than the table tests."""
    h1, h2, h3 = three_channel_series()
    return h3, TimeSeries(TG, -2.0 * h1.values), h2


class TestRealDataHalfRule:
    # The potential sums the beta > 0 half and takes 2 Re; the oracle sums
    # the full symmetric rule.
    XS = TestBoundaryPotentialTables.XS
    TS = TestBoundaryPotentialTables.TS

    def test_field_values_match_the_full_rule(self):
        series = permuted_series()
        pot = three_channel_potential(series=series)
        assert len(pot.coeffs) == pot.quad.node_count // 2
        for root_power, evaluated in ((0, pot), (5, fifth_derivative(pot))):
            got = evaluated.field_values(self.XS, self.TS)
            assert not np.any(np.imag(got))
            want = direct_field(pot, series, self.XS, self.TS, root_power=root_power)
            assert rel_max_error(got, want) <= 1e-13, root_power

    def test_field_and_traces_on_grid_match_the_full_rule(self):
        t_sel = np.where((TG.nodes >= 0.0) & (TG.nodes <= 2.0))[0]
        series = permuted_series()
        pot = three_channel_potential(t_sel=t_sel, x_span=6.0, series=series)
        xs = np.linspace(-3.0, 6.0, 300)
        values = potential_field(pot, xs)
        assert not np.any(values.imag)
        assert not np.any(np.delete(values, t_sel, axis=1))
        want = direct_field(pot, series, xs, TG.nodes[t_sel])
        assert rel_max_error(values[:, t_sel], want) <= 1e-13
        for j, trace in enumerate(pot.trace_on_grid()):
            trace = trace.values
            assert not np.any(trace.imag)
            assert not np.any(np.delete(trace, t_sel))
            want = direct_field(pot, series, [0.0], TG.nodes[t_sel], root_power=j)[0]
            assert rel_max_error(trace[t_sel], want) <= 1e-13, j

    def test_far_left_field_stays_finite(self):
        series = permuted_series()
        pot = three_channel_potential(series=series)
        xs = np.linspace(-2000.0, -1990.0, 16)
        with np.errstate(over="raise", invalid="raise"):
            got = pot.field_values(xs, self.TS)
        assert np.all(np.isfinite(got))
        phase_rounding = np.finfo(float).eps * np.max(np.abs(pot.quad.roots)) * 2000.0
        want = direct_field(pot, series, xs, self.TS)
        assert rel_max_error(got, want) <= 4.0 * phase_rounding

    def test_from_data_reports_the_full_rule(self):
        pot = BoundaryPotential.from_data(*three_channel_series(), depth=1, x_span=5.0)
        quad = pot.quad
        assert np.all(quad.betas > 0)
        assert pot.diagnostics["node_count"] == quad.node_count == 2 * len(quad.betas)
        assert len(pot.rhs) == len(pot.coeffs) == len(quad.betas)

    def test_complex_data_refused(self):
        # The half rule needs real data; a TimeSeries holds real samples only,
        # so even a 1e-20 imaginary part is refused before any potential
        # (from_data, __init__ or update_data) can see it.
        _, h2, _ = three_channel_series()
        with pytest.raises(PreconditionError, match="must be real"):
            TimeSeries(TG, h2.values + 1e-20j)


def rows_in(lo, hi):
    return np.flatnonzero((TG.nodes >= lo) & (TG.nodes <= hi))


# The solver's window (-1 - dt, 1 + dt) on the 1024-node time grid, the rows
# t >= 0 of the initial-vanishing probe, the single row t = 0, and a window
# whose |t| pair on (-0.3, 0.3) only.
FOLD_ROWS = {
    "symmetric": rows_in(-1.0 - TG.step, 1.0 + TG.step),
    "one_sided": rows_in(0.0, 2.0),
    "origin": rows_in(0.0, 0.0),
    "partly_paired": rows_in(-0.3, 1.9),
}


class TestFoldedTimeTable:
    # The table folded about t = 0 against the dense e^{i beta t} product.

    @pytest.mark.parametrize("name", sorted(FOLD_ROWS))
    def test_node_sum_matches_the_dense_table(self, name):
        t = TG.nodes[FOLD_ROWS[name]]
        betas = three_channel_potential().quad.betas
        rng = np.random.default_rng(3)
        planes = rng.standard_normal((len(betas), 2, 5))  # Re K and Im K
        got = _FoldedTable.build(t, betas).node_sum(planes)
        kernel = planes[:, 0] + 1j * planes[:, 1]
        want = 2.0 * (np.exp(1j * np.outer(t, betas)) @ kernel).real
        assert got.shape == (len(t), 5)
        assert rel_max_error(got, want) <= 1e-13

    @pytest.mark.parametrize("name", sorted(FOLD_ROWS))
    def test_data_transform_matches_the_dense_table(self, name):
        rows = FOLD_ROWS[name]
        rng = np.random.default_rng(4)
        series = []
        for _ in range(3):
            values = np.zeros(TG.count)
            values[rows] = rng.standard_normal(len(rows))
            series.append(TimeSeries(TG, values))
        pot = BoundaryPotential(three_channel_potential().quad, *series, t_sel=rows)
        data = np.stack([h.values[rows] for h in series], axis=-1)
        dense = np.exp(-1j * np.outer(pot.quad.betas, TG.nodes[rows]))
        want = TG.step / np.sqrt(2.0 * np.pi) * (dense @ data)
        assert rel_max_error(pot.rhs, want) <= 1e-13

    def test_rows_pair_by_exact_equality_of_abs_t(self):
        quad = three_channel_potential().quad
        distinct = {"symmetric": 258, "one_sided": 512, "origin": 1, "partly_paired": 487}
        for name, rows in FOLD_ROWS.items():
            values = np.zeros(TG.count)
            pot = BoundaryPotential(quad, *(TimeSeries(TG, values),) * 3, t_sel=rows)
            assert pot._ttable.cos.shape == pot._ttable.sin.shape == (distinct[name], len(quad.betas))
        # The 76 rows t < 0 of the partly paired window fold onto t > 0.
        assert [len(FOLD_ROWS[k]) for k in ("symmetric", "partly_paired")] == [515, 563]

    def test_add_field_on_grid_adds_in_place_in_either_layout(self):
        # values += weight(t) * field in the caller's own array and layout:
        # each x-block adds its weighted `field_values` on the rows t_sel, bit
        # for bit, and the columns off t_sel keep their values.  Two blocks,
        # the second one short.
        t_sel = rows_in(0.0, 2.0)
        pot = three_channel_potential(t_sel=t_sel)
        xs = np.linspace(-1.0, 3.0, X_BLOCK + 72)
        rng = np.random.default_rng(5)
        weight = rng.uniform(0.5, 1.5, TG.count)
        start = rng.standard_normal((len(xs), TG.count))
        added = []
        for order in "CF":
            values = np.array(start, order=order)
            pot.add_field_on_grid(values, xs, weight)
            added.append(values)
        want = start.copy()
        for b in range(0, len(xs), X_BLOCK):
            block = pot.field_values(xs[b : b + X_BLOCK], TG.nodes[t_sel])
            want[b : b + X_BLOCK, t_sel] += block * weight[t_sel]
        for values in added:
            assert np.array_equal(values, want)


def dense_half_sum(pot, xs, ts):
    """2 Re sum_q e^{i beta_q t} sum_m c_m e^{r_m x} rho_m(gamma_q x) on the
    potential's own nodes and coefficients, as one complex sum per target,
    with rho_m = 1 for the oscillatory root (column 2) and the collar taper
    for the decaying ones; e^{r x} only where the taper is nonzero."""
    quad = pot.quad
    taper = rho(np.outer(quad.gammas, xs), quad.collar)
    kernel = np.zeros((len(quad.betas), len(xs)), dtype=complex)
    for m in range(3):
        tap = np.ones_like(taper) if m == 2 else taper
        z = np.where(tap > 0, np.outer(quad.roots[:, m], xs), 0.0)
        kernel += pot.coeffs[:, m, None] * np.exp(z) * tap
    return 2.0 * (np.exp(1j * np.outer(ts, quad.betas)) @ kernel).real.T


class TestKernelPlanes:
    # field_values against the dense half sum on the same coefficients, so
    # only the kernel planes and the node sum are under test.
    TS = TestBoundaryPotentialTables.TS
    BLOCKS = {
        "x >= 0": np.linspace(0.1, 4.9, 40),
        "x < 0, touching 0": np.linspace(-0.9, 0.0, 40),
        "far x < 0": np.linspace(-6.0, -3.0, 40),
    }

    @pytest.mark.parametrize("name", sorted(BLOCKS))
    def test_field_values_match_the_dense_half_sum(self, name):
        pot = three_channel_potential()
        xs = self.BLOCKS[name]
        q = len(pot.quad.betas)
        _, table, _, live, taper = pot._x_block_tables(xs)
        assert table.shape == (q, 6, len(xs)) and table.dtype == np.float64
        if name == "x >= 0":
            assert live is None and taper is None
        elif name == "far x < 0":
            assert 0 < live < q  # a strict prefix of the nodes
        else:
            assert live == q
        got = pot.field_values(xs, self.TS)
        assert got.shape == (len(xs), len(self.TS))
        assert rel_max_error(got, dense_half_sum(pot, xs, self.TS)) <= 1e-13

    def test_one_target_call_of_the_initial_vanishing_probe(self):
        # The probe evaluates blocks of x > 0.5 at t = 0 alone, bound to the
        # rows t >= 0.  The data start after t = 0, so the field there is a
        # cancellation about 1e-9 of its size at t = 0.8, the scale that both
        # one-target calls are judged on.
        pot = three_channel_potential(t_sel=rows_in(0.0, 2.0))
        xs = np.linspace(0.5, 4.9, 50)
        scale = np.max(np.abs(dense_half_sum(pot, xs, [0.8])))
        for t in (0.0, 0.8):
            got = pot.field_values(xs, [t])
            assert got.shape == (len(xs), 1)
            assert np.max(np.abs(got - dense_half_sum(pot, xs, [t]))) <= 1e-13 * scale, t

    def test_stored_taper_is_a_compact_live_prefix(self):
        # The live nodes of an x < 0 block are a prefix (the gammas ascend);
        # the taper keeps its rows as an owned (live, B) array, not a view
        # that holds the whole (Q, B) taper alive.
        pot = three_channel_potential(x_span=40.0)
        xs = np.linspace(-40.0, 6.0, 400)
        potential_field(pot, xs)
        gammas, q = pot.quad.gammas, len(pot.quad.betas)
        lives = []
        for key, (_, _, _, live, taper) in pot._blocks.items():
            if live is None:
                continue
            block = np.frombuffer(key)
            full = rho(np.outer(gammas, block), pot.quad.collar)
            assert taper.shape == (live, len(block))
            assert taper.base is None  # owns its data
            assert np.array_equal(taper, full[:live])
            assert np.all(np.any(full[:live], axis=1)) and not np.any(full[live:])
            lives.append(live)
        assert min(lives) < q and max(lives) == q


class TestFieldMemory:
    # Allocation guard for the field assembly, in MiB of tracemalloc: the
    # tables a bound potential keeps after `add_field_on_grid` (offset planes
    # (Q, 6, B) plus the compact tapers), the peak of the first call (tables
    # built) and of a repeat call (kernel planes and node sums of one block).
    # The (X, T) target is the caller's and is allocated before tracing.
    # Measured 18.67, 31.98 and 13.56 with numpy 2.4; the 5% margin is 0.9
    # MiB of the tables, below one more (Q, B) taper (2.6 MiB) or (Q, 2, B)
    # kernel temporary (5.1 MiB) left alive.
    HELD, FIRST_PEAK, REPEAT_PEAK = 18.67, 31.98, 13.56
    MARGIN = 1.05

    def test_field_on_grid_allocations(self):
        pot = three_channel_potential(t_sel=rows_in(0.0, 2.0), x_span=12.0)
        xs = np.linspace(-12.0, 12.0, 512)
        values, weight = np.zeros((len(xs), TG.count), order="F"), np.ones(TG.count)
        mib = 2.0**20
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            pot.add_field_on_grid(values, xs, weight)
            first_peak = (tracemalloc.get_traced_memory()[1] - start) / mib
            held = (tracemalloc.get_traced_memory()[0] - start) / mib
            tracemalloc.reset_peak()
            pot.add_field_on_grid(values, xs, weight)
            repeat_peak = (tracemalloc.get_traced_memory()[1] - start) / mib - held
        finally:
            tracemalloc.stop()
        assert held <= self.MARGIN * self.HELD, held
        assert first_peak <= self.MARGIN * self.FIRST_PEAK, first_peak
        assert repeat_peak <= self.MARGIN * self.REPEAT_PEAK, repeat_peak


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
        assert np.argmin(np.abs(pos.real)) == oscillatory_index(beta) == 2
        assert np.argmin(np.abs(neg.real)) == oscillatory_index(-beta) == 0
        b = np.array(rhs[:3]) + 1j * np.array(rhs[3:])
        c_pos = solve_coefficients_batch(pos, b)
        c_neg = solve_coefficients_batch(neg, np.conj(b))
        scale = np.max(np.abs(c_pos))
        if scale > 0.0:
            assert np.max(np.abs(c_neg - np.conj(c_pos)[::-1])) <= 1e-13 * scale
