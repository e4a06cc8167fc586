"""End-to-end acceptance checks for the half-line solver.

Each test pins one user-visible guarantee of the package at its stated
tolerance: the root system and coefficient solves behind the boundary
potential, the unitary free propagator, trace reproduction and interior
decay of the boundary field, interior residuals of the differential
equation, trace-gain ratios of the free evolution, contraction of the
Picard iteration against a whole-line oracle, independence from the
datum extension, the distributional form of the equation, regularity
gain of the nonlinear remainder, and refinement stability of the
bilinear ratio probes.  The expensive shared solve comes from the
session-scoped ``manufactured_case`` fixture.
"""

import numpy as np
import pytest

from conftest import (
    boundary_potential_with_fifth_x,
    evolved_field,
    kato_ratios,
    random_band_limited,
)
from kdv5half import (
    BoundaryPotential,
    BoundaryQuadrature,
    GridFunction,
    PropagatorPlan,
    SolverConfig,
    SolverData,
    SpaceTimeField,
    TimeSeries,
    UniformGrid,
    apply_group,
    bilinear_ratio,
    boundary_potential_traces,
    picard_solve,
    right_bump,
    seeded_band_limited_field,
    smoothing_report,
    weak_form_residual,
    weak_test_family,
)
from kdv5half.boundary import solve_coefficients_batch, stable_root_array, truncation_radius
from kdv5half.spectral import sobolev_norm
from kdv5half.verification import pde_residual

BETA_SWEEP = np.concatenate(
    [-np.logspace(-3.0, 3.0, 100), np.logspace(-3.0, 3.0, 100)]
)


def zero_series(tgrid: UniformGrid) -> TimeSeries:
    return TimeSeries(tgrid, np.zeros(tgrid.count))


class TestRootSystem:
    def test_stable_roots_solve_the_symbol_across_the_sweep(self):
        for beta, roots in zip(BETA_SWEEP, stable_root_array(BETA_SWEEP)):
            residual = np.max(np.abs(1j * beta + roots**5))
            assert residual < 1e-12 * max(1.0, abs(beta))
            assert np.max(np.real(roots)) <= 1e-14

    def test_unit_beta_phase_lists(self):
        neg, pos = stable_root_array(np.array([-1.0, 1.0]))
        np.testing.assert_allclose(
            np.angle(neg) / np.pi, [0.5, 0.9, -0.7], rtol=0, atol=1e-15
        )
        np.testing.assert_allclose(
            np.angle(pos) / np.pi, [0.7, -0.9, -0.5], rtol=0, atol=1e-15
        )

    def test_cramer_matches_dense_elimination_on_the_sweep(self):
        rng = np.random.default_rng(42)
        for roots in stable_root_array(BETA_SWEEP):
            vander = np.vander(roots, 3, increasing=True).T
            rhs_block = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
            for rhs in rhs_block:
                cramer = solve_coefficients_batch(roots, rhs)
                dense = np.linalg.solve(vander, rhs)
                assert np.max(np.abs(cramer - dense)) < 1e-12 * np.max(np.abs(dense))


class TestPropagatorGroup:
    def test_group_law_identity_and_isometry(self, xgrid):
        plan = PropagatorPlan(xgrid)
        g = random_band_limited(xgrid, 6.0, rng=np.random.default_rng(5))
        ident = apply_group(g, 0.0, plan)
        assert np.max(np.abs(ident.values - g.values)) < 1e-12

        two_step = apply_group(apply_group(g, 0.3, plan), 0.5, plan)
        one_step = apply_group(g, 0.8, plan)
        assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12

        for s in (0.0, 0.3, 1.0, 2.6):
            before = sobolev_norm(g, s)
            after = sobolev_norm(apply_group(g, 0.7, plan), s)
            assert abs(after - before) < 1e-12 * before


class TestBoundaryPotential:
    TG = UniformGrid(-2.0, 4.0 / 1024, 1024)

    def test_traces_reproduce_each_data_channel(self):
        bump_vals = right_bump(self.TG.nodes, 0.1, 0.6, 1.4, 1.9)
        bump = TimeSeries(self.TG, bump_vals)
        window = (self.TG.nodes >= 0.0) & (self.TG.nodes <= 2.0)
        for channel in range(3):
            series = [zero_series(self.TG)] * 3
            series[channel] = bump
            for j, trace in enumerate(boundary_potential_traces(*series)):
                expected = bump_vals[window] if j == channel else 0.0
                assert np.max(np.abs(trace.values[window] - expected)) < 1e-6

    def test_interior_maxima_shrink_under_depth_doubling(self):
        tg = UniformGrid(-4.0, 8.0 / 1024, 1024)
        h1 = TimeSeries(tg, 0.3 * right_bump(tg.nodes, 0.1, 0.6, 1.4, 1.9))
        z = zero_series(tg)
        radius, _, ok = truncation_radius((h1, z, z), 1e-8, 0.75 * tg.nyquist)
        assert ok
        xs = np.linspace(0.5, 40.0, 160)
        rows = np.flatnonzero(tg.nodes >= 0.0)
        maxima = []
        for depth in range(5):
            quad = BoundaryQuadrature.build(
                radius, depth, t_span=4.0, x_span=40.0, nodes_per_panel=2
            )
            pot = BoundaryPotential(quad, h1, z, z, t_sel=rows)
            maxima.append(float(np.max(np.abs(pot.field_values(xs, np.array([0.0]))))))
        for coarse, fine in zip(maxima, maxima[1:]):
            assert coarse / fine >= 4.0


class TestInteriorResidual:
    XG = UniformGrid(-40.0, 80.0 / 1024, 1024)
    TG = UniformGrid(-4.0, 8.0 / 1024, 1024)

    def test_free_fields_satisfy_the_equation(self):
        plan = PropagatorPlan(self.XG)
        # Widths chosen so the spectrum dies before xi^5 oscillations outrun
        # the time stencil at this step; a width-2 Gaussian already fails.
        for width in (4.0, 6.0):
            g = GridFunction(self.XG, 0.05 * np.exp(-((self.XG.nodes / width) ** 2)))
            field = evolved_field(g, self.TG, plan)
            residual = pde_residual(field, x_range=(-10.0, 10.0), t_range=(-0.5, 0.5))
            assert residual < 1e-8

    def test_boundary_potential_satisfies_the_equation(self):
        # The fifth x-derivative is analytic, so only the time derivative is
        # discretized and the residual isolates the potential's quadrature error.
        field, fifth = boundary_potential_with_fifth_x(self.XG, self.TG)
        residual = pde_residual(field, fifth_x=fifth, x_range=(0.5, 39.0), t_range=(-3.5, 3.5))
        assert residual < 1e-5

    def test_random_field_fails_the_equation(self):
        rng = np.random.default_rng(0)
        noise = SpaceTimeField(
            self.XG, self.TG, 0.05 * rng.standard_normal((self.XG.count, self.TG.count))
        )
        assert pde_residual(noise) >= 1e-1


class TestTraceGain:
    def test_ensemble_maxima_stable_under_refinement(self):
        # Data are band-limited to |xi| <= 3 so the origin trace oscillates
        # no faster than 3^5 = 243 rad per unit time, inside the coarse
        # grid's resolvable band (pi/step ~ 402); otherwise the sampled
        # trace aliases and the ratio drifts under refinement.
        coarse_x = UniformGrid(-40.0, 80.0 / 512, 512)
        coarse_t = UniformGrid(-2.0, 4.0 / 512, 512)
        fine_x = UniformGrid(-40.0, 80.0 / 1024, 1024)
        fine_t = UniformGrid(-2.0, 4.0 / 1024, 1024)
        coarse_plan, fine_plan = PropagatorPlan(coarse_x), PropagatorPlan(fine_x)
        for s in (0.0, 1.0, 2.6):
            # Each datum is drawn once per s; the maxima run over the
            # ensemble for each order j separately.
            coarse_max = np.max(
                [
                    kato_ratios(
                        random_band_limited(coarse_x, 3.0, rng=np.random.default_rng(1000 + k)),
                        s, coarse_t, coarse_plan,
                    )
                    for k in range(50)
                ],
                axis=0,
            )
            fine_max = np.max(
                [
                    kato_ratios(
                        random_band_limited(fine_x, 3.0, rng=np.random.default_rng(1000 + k)),
                        s, fine_t, fine_plan,
                    )
                    for k in range(50)
                ],
                axis=0,
            )
            assert coarse_max.shape == (3,)
            for j in range(3):
                assert abs(fine_max[j] - coarse_max[j]) <= 0.10 * coarse_max[j], j


class TestSmallDataSolve:
    def test_iteration_contracts_and_residual_is_tiny(self, manufactured_case):
        _, _, result = manufactured_case
        trace = result.trace
        assert trace.converged
        assert trace.iterations >= 2
        assert all(f < 1.0 for f in trace.factors[1:])
        assert trace.residual < 2e-9

    def test_halfline_restriction_matches_the_oracle(
        self, manufactured_case, solver_config
    ):
        _, oracle, result = manufactured_case
        xg, tg = solver_config.xgrid, solver_config.tgrid
        pos = xg.nodes >= 0.0
        i0 = tg.index_of(0.0)
        t_sel = np.where((tg.nodes >= -1e-14) & (tg.nodes <= solver_config.T + 1e-14))[0]
        for i in t_sel:
            col = i - i0
            ours = result.u.values[pos, i]
            ref = oracle.values[pos, col]
            rel = np.linalg.norm(ours - ref) / np.linalg.norm(ref)
            assert rel < 1e-5


class TestExtensionIndependence:
    @pytest.mark.parametrize("s", [0.3, 1.0])
    def test_solution_blind_to_the_datum_extension(self, s):
        from kdv5half import extension_independence

        xg = UniformGrid(-40.0, 80.0 / 1024, 1024)
        tg = UniformGrid(-2.0, 4.0 / 1024, 1024)
        x = xg.nodes
        datum = GridFunction(xg, np.where(x >= 0, 0.005 * x**3 * np.exp(-((x / 2.0) ** 2)), 0.0))
        z = zero_series(tg)
        cfg = SolverConfig(
            xgrid=xg, tgrid=tg, s=s, b=0.42, bstar=0.46, alpha=0.52, T=0.25
        )
        report = extension_independence(datum, (z, z, z), cfg)
        assert report["runs"] == [
            "zero/collar=2", "zero/collar=3", "reflection/collar=2", "reflection/collar=3"
        ]
        assert report["max_distance"] < 1e-4


class TestWeakForm:
    def test_solution_satisfies_the_identity_and_perturbation_is_flagged(
        self, manufactured_case, solver_config
    ):
        data, _, result = manufactured_case
        base = weak_form_residual(
            result.u, data.g_l, data.h1, data.h2, data.h3, solver_config.T
        )
        assert len(weak_test_family(solver_config.T)) == 12
        assert base < 1e-4

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


class TestNonlinearSmoothing:
    XG = UniformGrid(-40.0, 80.0 / 1024, 1024)
    TG = UniformGrid(-2.0, 4.0 / 1024, 1024)

    def rough_datum(self, amp: float, s: float = 0.3) -> GridFunction:
        rng = np.random.default_rng(7)
        freqs = self.XG.frequencies
        mags = (1.0 + np.abs(freqs)) ** (-s - 0.55)
        spec = mags * np.exp(2j * np.pi * rng.random(self.XG.count))
        spec[np.abs(freqs) > 0.75 * self.XG.nyquist] = 0.0
        vals = np.real(np.fft.ifft(spec))
        vals = vals / np.max(np.abs(vals)) * amp
        return GridFunction(self.XG, vals)

    def test_nonlinear_part_gains_regularity_and_scales_quadratically(self):
        cfg = SolverConfig(
            xgrid=self.XG, tgrid=self.TG, s=0.3, b=0.46, bstar=0.48, alpha=0.51, T=0.25
        )
        z = zero_series(self.TG)
        sup_norms = {}
        for amp in (0.01, 0.02):
            data = SolverData(g_l=self.rough_datum(amp), h1=z, h2=z, h3=z)
            result = picard_solve(data, cfg)
            row = smoothing_report(result, cfg, 0.15)
            sup_norms[amp] = row["sup_halfline_norm"]
            assert row["admissible"]
            assert row["slope_gain"] >= 0.8 * 0.15
            assert np.isfinite(row["sup_halfline_norm"])
            # Extending the measurement band must leave the nonlinear part's
            # partial norm essentially unchanged while the rough datum's
            # free evolution keeps absorbing mass.
            assert row["band_growth_nonlinear"] <= 0.02
            assert row["band_growth_linear"] >= 0.10
        exponent = np.log(sup_norms[0.02] / sup_norms[0.01]) / np.log(2.0)
        assert abs(exponent - 2.0) <= 0.2


class TestBilinearProbe:
    COARSE_X = UniformGrid(-20.0, 40.0 / 256, 256)
    COARSE_T = UniformGrid(-2.0, 4.0 / 256, 256)
    FINE_X = UniformGrid(-20.0, 40.0 / 512, 512)
    FINE_T = UniformGrid(-2.0, 4.0 / 512, 512)

    def ensemble_max(self, xg, tg, s, b, a, mode):
        worst = 0.0
        for k in range(100):
            v = seeded_band_limited_field(xg, tg, 3.0, 15.0, 1000 + 2 * k)
            w = seeded_band_limited_field(xg, tg, 3.0, 15.0, 1000 + 2 * k + 1)
            worst = max(worst, bilinear_ratio(v, w, s, b, a, mode=mode))
        return worst

    @pytest.mark.parametrize(
        "s,b,a,mode",
        [(0.0, 0.45, 0.0, "gain"), (1.0, 0.46, 0.2, "auxiliary")],
        ids=["derivative-gain", "auxiliary"],
    )
    def test_ratio_maxima_stable_under_refinement(self, s, b, a, mode):
        coarse = self.ensemble_max(self.COARSE_X, self.COARSE_T, s, b, a, mode)
        fine = self.ensemble_max(self.FINE_X, self.FINE_T, s, b, a, mode)
        assert coarse > 0
        assert abs(fine - coarse) <= 0.15 * coarse

    def test_inadmissible_indices_rejected_with_the_window(self):
        v = seeded_band_limited_field(self.COARSE_X, self.COARSE_T, 3.0, 15.0, 1)
        w = seeded_band_limited_field(self.COARSE_X, self.COARSE_T, 3.0, 15.0, 2)
        with pytest.raises(ValueError, match=r"derivative-gain.*2/5 <= b < 1/2"):
            bilinear_ratio(v, w, 0.0, 0.3, 0.0, mode="gain")
        with pytest.raises(ValueError, match=r"auxiliary.*1/2 < s < 11/4"):
            bilinear_ratio(v, w, 0.4, 0.46, 0.2, mode="auxiliary")
