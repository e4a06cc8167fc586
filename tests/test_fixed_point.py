"""Solver configuration, the nonlinearity, and the Picard iteration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import full_spectrum, full_values, random_band_limited
from kdv5half import bourgain, fixed_point
from kdv5half.grids import PreconditionError
from kdv5half.cutoffs import eta, extend_initial_datum
from kdv5half.fixed_point import (
    IterationTrace,
    NonContractionError,
    SolverConfig,
    SolverData,
    nonlinearity_FT,
    picard_solve,
)
from kdv5half.grids import GridFunction, TimeSeries, UniformGrid
from kdv5half.propagator import PropagatorPlan, duhamel_trajectory, trace_at_origin
from kdv5half.bourgain import xsba_norm
from kdv5half.spectral import band_mask, x_half_spectrum, x_half_values
from kdv5half.verification import manufactured_data


class TestSolverConfig:
    def make(self, **over):
        base = dict(
            xgrid=UniformGrid(-20.0, 40.0 / 256, 256),
            tgrid=UniformGrid(-1.0, 2.0 / 256, 256),
            s=1.0,
            b=0.42,
            bstar=0.46,
            alpha=0.52,
            T=0.25,
        )
        base.update(over)
        return SolverConfig(**base)

    def test_valid(self):
        cfg = self.make()
        assert cfg.s == 1.0 and cfg.T == 0.25

    def test_regularity_range(self):
        with pytest.raises(ValueError, match=r"lie in \[0, 11/4\)"):
            self.make(s=3.0)
        with pytest.raises(ValueError, match="excluded transition"):
            self.make(s=0.5)
        with pytest.raises(ValueError, match="excluded transition"):
            self.make(s=1.5)
        with pytest.raises(ValueError, match="excluded transition"):
            self.make(s=2.5)

    def test_contraction_window(self):
        with pytest.raises(ValueError, match="contraction window"):
            self.make(b=0.38)
        with pytest.raises(ValueError, match="contraction window"):
            self.make(b=0.47, bstar=0.46)  # b >= bstar
        with pytest.raises(ValueError, match="contraction window"):
            self.make(bstar=0.55)  # bstar >= 1/2
        # at s = 2.6 the lower edge moves to s/5 - 1/20 = 0.47
        with pytest.raises(ValueError, match="contraction window"):
            self.make(s=2.6, b=0.45, bstar=0.49, alpha=0.505)

    def test_alpha_window(self):
        with pytest.raises(ValueError, match="1/2 < alpha"):
            self.make(alpha=0.4)
        with pytest.raises(ValueError, match="1/2 < alpha"):
            self.make(alpha=0.6)  # above 1 - bstar = 0.54

    def test_horizon_window(self):
        with pytest.raises(ValueError, match=r"horizon T"):
            self.make(T=0.0)
        with pytest.raises(ValueError, match=r"horizon T"):
            self.make(T=0.75)


def in_stated_windows(s, b, bstar, alpha, T):
    """The windows of the SolverConfig docstring, with s in [0, 11/4) and at
    least 1e-9 away from each transition value 1/2, 3/2, 5/2."""
    return (
        0.0 <= s < 2.75
        and all(abs(s - e) >= 1e-9 for e in (0.5, 1.5, 2.5))
        and max(s / 5.0 - 0.05, 0.4) < b < bstar < 0.5
        and 0.5 < alpha < 1.0 - bstar
        and 0.0 < T <= 0.5
    )


# Values on and next to the window edges, mixed with free draws.
def near(*edges, spread=0.1):
    return st.one_of(
        st.sampled_from(edges),
        st.sampled_from(edges).flatmap(lambda e: st.floats(-1e-8, 1e-8).map(lambda d: e + d)),
        st.floats(min(edges) - spread, max(edges) + spread),
    )


S_VALUES = near(0.0, 0.5, 1.0, 1.5, 2.5, 2.75)
# Position inside a window: 0 and 1 are its ends.
FRACTIONS = st.floats(-0.1, 1.1) | st.sampled_from([0.0, 1.0, -1e-9, 1e-9, 1.0 - 1e-9, 1.0 + 1e-9])


class TestSolverConfigProperties:
    # Validation only: no solve runs.  b, bstar, alpha and T are drawn as
    # positions inside their windows, on the ends and up to 0.1 beyond.
    @settings(max_examples=300, deadline=None)
    @given(s=S_VALUES, fb=FRACTIONS, fbstar=FRACTIONS, falpha=FRACTIONS, fT=FRACTIONS)
    def test_accepts_exactly_the_stated_windows(self, s, fb, fbstar, falpha, fT):
        lower = max(s / 5.0 - 0.05, 0.4)
        b = lower + fb * (0.5 - lower)
        bstar = b + fbstar * (0.5 - b)
        alpha = 0.5 + falpha * (0.5 - bstar)
        T = 0.5 * fT
        try:
            TestSolverConfig().make(s=s, b=b, bstar=bstar, alpha=alpha, T=T)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == in_stated_windows(s, b, bstar, alpha, T)

    @settings(max_examples=300, deadline=None)
    @given(s=S_VALUES)
    @example(s=0.5 + 5e-10)
    @example(s=1.5 - 5e-10)
    def test_same_regularity_as_the_extension(self, s):
        xg = UniformGrid(-10.0, 20.0 / 64, 64)
        g = GridFunction(xg, np.exp(-(xg.nodes**2)) * (xg.nodes >= 0))
        try:
            extend_initial_datum(g, s)
            extension_accepts = True
        except ValueError:
            extension_accepts = False
        try:
            TestSolverConfig().make(s=s)
            config_accepts_s = True
        except ValueError as err:
            config_accepts_s = not str(err).startswith("regularity s")
        assert config_accepts_s == extension_accepts


class TestNonlinearity:
    def test_matches_pointwise_formula(self):
        xg = UniformGrid(-20.0, 40.0 / 512, 512)
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        profile = np.exp(-((xg.nodes / 3.0) ** 2))
        u = np.outer(profile, np.ones(tg.count))
        T = 0.25
        plan = PropagatorPlan(xg)
        spec = nonlinearity_FT(u, tg, plan, T)
        # The band-capped rows 0 <= xi <= 0.75 * nyquist of the half spectrum.
        assert spec.dtype == np.complex128 and spec.shape == (plan.band_rows, tg.count)
        out = x_half_values(spec, xg)
        ux = full_values(np.where(band_mask(xg), 1j * xg.frequencies, 0.0) * full_spectrum(profile, xg), xg)
        expected = eta(tg.nodes / (2 * T))[None, :] * (-(profile * ux))[:, None]
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(out - expected)) < 1e-8 * scale

    def test_requires_positive_horizon(self):
        xg = UniformGrid(-20.0, 40.0 / 64, 64)
        tg = UniformGrid(-1.0, 2.0 / 64, 64)
        with pytest.raises(ValueError, match="positive"):
            nonlinearity_FT(np.zeros((64, 64)), tg, PropagatorPlan(xg), 0.0)


class TestIterationTrace:
    def test_factors_and_payload(self):
        tr = IterationTrace()
        tr.record(1.0, 1.0)
        tr.record(1.1, 0.5)
        tr.record(1.11, 0.1)
        assert tr.factors == [pytest.approx(0.5), pytest.approx(0.2)]
        payload = tr.to_payload()
        assert payload["iterations"] == 3
        assert payload["contraction_factors"] == tr.factors
        assert {"norms", "diffs", "residual", "converged"} <= set(payload)


class TestPicard:
    def test_converges_on_small_data(self, manufactured_case, solver_config):
        _, _, result = manufactured_case
        assert result.trace.converged
        assert result.trace.residual is not None
        assert result.trace.residual < 2e-9

    def test_contracting_from_second_step(self, manufactured_case):
        _, _, result = manufactured_case
        assert all(f < 1.0 for f in result.trace.factors[1:])

    def test_linear_plus_nonlinear(self, manufactured_case):
        # Every iterate is summed as L + N(u), so the split of the result is exact.
        _, _, result = manufactured_case
        assert np.array_equal(result.u.values, result.workspace.linear + result.nonlinear.values)

    def test_first_iterate_is_linear_part(self, manufactured_case, solver_config):
        _, _, result = manufactured_case
        cfg = solver_config
        ws = result.workspace
        first, nonlinear, r = ws.apply(np.zeros((cfg.xgrid.count, cfg.tgrid.count)))
        # Gamma(0) carries no Duhamel forcing: its nonlinear part is zero and
        # Gamma(0) is exactly the linear part L of the map, as real arrays.
        assert first.dtype == nonlinear.dtype == r.dtype == np.float64
        assert first.shape == nonlinear.shape == (cfg.xgrid.count, cfg.tgrid.count)
        assert not np.any(nonlinear) and not np.any(r)
        assert np.array_equal(first, ws.linear)

    def test_traces_are_free_plus_duhamel(self, manufactured_case, solver_config):
        # q is the trace of the datum's free evolution; r, read off the
        # Duhamel spectrum, matches the trace of the Duhamel field
        # re-transformed (measured: 5e-16, 1.6e-14 and 1.5e-13 relative for
        # j = 0, 1, 2); both are real, and so is p = q + r.
        _, _, result = manufactured_case
        cfg = solver_config
        ws = result.workspace
        plan = PropagatorPlan(cfg.xgrid)
        free = plan.free_spectrum(ws.data.g_l.values, cfg.tgrid)
        assert np.array_equal(ws.q, trace_at_origin(free, cfg.tgrid, plan))
        u = result.u.values
        _, _, r = ws.apply(u)
        forcing = nonlinearity_FT(u, cfg.tgrid, plan, cfg.T)
        spec = duhamel_trajectory(forcing, cfg.tgrid, plan, t_window=ws.t_window)
        duhamel = x_half_values(spec, cfg.xgrid)
        from_field = trace_at_origin(x_half_spectrum(duhamel, cfg.xgrid), cfg.tgrid, plan)
        for j in range(3):
            scale = np.max(np.abs(from_field[j]))
            assert np.max(np.abs(r[j] - from_field[j])) <= 1e-12 * scale, j
        assert result.traces.dtype == np.float64
        assert result.traces.shape == (3, cfg.tgrid.count)

    def test_free_phase_table_released(self, manufactured_case):
        # q and L are built with the workspace; the (T, X) table of
        # e^{-i t xi^5} is not kept through the Picard loop.
        _, _, result = manufactured_case
        assert "_free_phases" not in vars(result.workspace.plan)

    def test_bands_reported(self, manufactured_case):
        # The time grid carries |xi| <= (0.75 pi / dt)^(1/5); the Gaussian
        # datum's band at spectrum_tol, by the truncation radius rule, lies
        # inside it.
        diag = manufactured_case[2].diagnostics
        assert diag["resolved_band"] == pytest.approx(3.598240771993113, rel=1e-12)
        assert diag["data_band"] == pytest.approx(3.5342917352885173, rel=1e-12)

    def test_rough_datum_band_beyond_the_resolved_band(self, solver_config):
        # A datum with content up to |xi| = 30 on the same grids: reported
        # beyond the resolved band, and nothing refuses it.
        cfg = solver_config
        rough = random_band_limited(cfg.xgrid, band=30.0, rng=np.random.default_rng(3))
        zeros = TimeSeries(cfg.tgrid, np.zeros(cfg.tgrid.count))
        g = GridFunction(cfg.xgrid, 0.01 * rough.values)
        diag = fixed_point.GammaWorkspace(SolverData(g, zeros, zeros, zeros), cfg).diagnostics
        assert diag["data_band"] > 29.0 and diag["resolved_band"] < 3.6

    def test_diagnostics_payload(self, manufactured_case):
        _, _, result = manufactured_case
        diag = result.diagnostics
        assert "zero_extension_flags" in diag
        assert diag["T"] == 0.25

    @pytest.mark.parametrize("channel", ["g_l", "h2"])
    def test_complex_data_refused(self, channel):
        # The grid types hold real samples only, so a complex datum or
        # boundary series is refused before it can reach a solve.
        xg = UniformGrid(-20.0, 40.0 / 64, 64)
        tg = UniformGrid(-1.0, 2.0 / 64, 64)
        with pytest.raises(PreconditionError, match="must be real"):
            if channel == "g_l":
                GridFunction(xg, 0.01j * np.exp(-(xg.nodes**2)))
            else:
                TimeSeries(tg, np.zeros(tg.count) + 1e-3j)

    def test_complex_typed_real_data_solve_alike(self, small_config):
        # Complex-typed samples whose imaginary parts are exactly zero are
        # stored as float64 and give bit for bit the solve of the float64
        # samples.
        cfg = small_config
        xg, tg = cfg.xgrid, cfg.tgrid
        g = GridFunction(xg, 0.01 * np.exp(-(((xg.nodes - 2.0) / 2.0) ** 2)))
        data, _, _ = manufactured_data(g, cfg, horizon=0.75)
        h1, h2, h3 = (TimeSeries(tg, h.values.astype(complex)) for h in data.boundary_series)
        typed = SolverData(g_l=GridFunction(xg, g.values.astype(complex)), h1=h1, h2=h2, h3=h3)
        assert all(f.values.dtype == np.float64 for f in (typed.g_l, *typed.boundary_series))
        real, cplx = picard_solve(data, cfg), picard_solve(typed, cfg)
        assert np.array_equal(real.u.values, cplx.u.values)
        assert np.array_equal(real.traces, cplx.traces)

    def test_large_data_fails_to_contract(self):
        xg = UniformGrid(-20.0, 40.0 / 256, 256)
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        g = GridFunction(xg, 60.0 * np.exp(-(((xg.nodes - 2.0) / 1.5) ** 2)).astype(complex))
        zeros = TimeSeries(tg, np.zeros(tg.count, dtype=complex))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(xgrid=xg, tgrid=tg, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.5)
        with pytest.raises(NonContractionError, match="3 consecutive steps") as err:
            picard_solve(data, cfg)
        assert 3 <= err.value.trace.iterations < fixed_point.MAX_ITER


class TestPicardLoop:
    XG = UniformGrid(-20.0, 40.0 / 256, 256)
    TG = UniformGrid(-1.0, 2.0 / 256, 256)

    def problem(self, amplitude):
        g = GridFunction(self.XG, amplitude * np.exp(-(((self.XG.nodes - 2.0) / 3.0) ** 2)))
        zeros = TimeSeries(self.TG, np.zeros(self.TG.count))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(xgrid=self.XG, tgrid=self.TG, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25)
        return data, cfg

    def solve(self, amplitude):
        return picard_solve(*self.problem(amplitude))

    def test_data_window_starts_after_the_zero_node(self):
        # On origin -2.3, step 0.1 the zero node is 4.4e-16, a rounding off 0:
        # it is t = 0 for `index_of` and for the half-line box, so the data
        # window w = eta(t/2T) chi_{t>0} vanishes there and is eta(t/2T) after.
        tg = UniformGrid(-2.3, 0.1, 48)
        zeros = TimeSeries(tg, np.zeros(tg.count))
        g = GridFunction(self.XG, np.zeros(self.XG.count))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(xgrid=self.XG, tgrid=tg, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25)
        window = fixed_point.GammaWorkspace(data, cfg).data_window
        i0 = tg.index_of(0.0)
        assert 0.0 < tg.nodes[i0] < 1e-15
        assert not np.any(window[: i0 + 1])
        assert np.array_equal(window[i0 + 1 :], eta(tg.nodes[i0 + 1 :] / (2.0 * cfg.T)))

    def test_starts_from_the_linear_part(self, monkeypatch):
        # u_1 = L costs no application: F_T and the Duhamel sweep run once per
        # later iterate and once for the residual, i.e. `iterations` times,
        # while `applications` counts L as the first one.
        calls = {"nonlinearity_FT": 0, "duhamel_trajectory": 0}
        for name in calls:
            original = getattr(fixed_point, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(fixed_point, name, counted)
        result = self.solve(0.01)
        iterations = result.trace.iterations
        assert result.trace.converged and iterations >= 3
        assert calls == {"nonlinearity_FT": iterations, "duhamel_trajectory": iterations}
        assert result.diagnostics["applications"] == iterations + 1
        assert result.trace.norms[0] == result.trace.diffs[0]
        assert np.array_equal(result.u.values, result.workspace.linear + result.nonlinear.values)

    def test_one_application_runs_four_x_transforms(self, monkeypatch):
        # Every x transform is a real one: nonlinearity_FT runs rfft(u),
        # irfft of its capped rows and rfft(u^2); the forcing rows go to the
        # Duhamel sweep as they are, and one irfft gives N.  The boundary
        # potential runs no FFT, and the norm of the iterate is one rfft2.
        # No complex transform runs.
        data, cfg = self.problem(0.01)
        ws = fixed_point.GammaWorkspace(data, cfg)
        calls = dict.fromkeys(("rfft", "irfft", "rfft2", "fft", "ifft", "fft2", "ifft2"), 0)
        for name in calls:
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                calls[_name] += np.ndim(a) == 2
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        u = ws.apply(ws.linear)[0]
        xsba_norm(u, cfg.xgrid, cfg.tgrid, cfg.s, cfg.b, cfg.alpha)
        real = {"rfft": 2, "irfft": 2, "rfft2": 1}
        assert calls == {**dict.fromkeys(("fft", "ifft", "fft2", "ifft2"), 0), **real}

    def test_free_table_released_before_the_potential(self, monkeypatch):
        # The workspace reads q and L's free term off one spectrum and drops
        # the (T, X) table of e^{-i t xi^5} before the potential's tables.
        plans, held = [], []
        make_plan = fixed_point.PropagatorPlan
        from_data = fixed_point.BoundaryPotential.from_data

        def recorded_plan(xgrid):
            plans.append(make_plan(xgrid))
            return plans[-1]

        def checked_from_data(*args, **kwargs):
            held.append("_free_phases" in vars(plans[-1]))
            return from_data(*args, **kwargs)

        monkeypatch.setattr(fixed_point, "PropagatorPlan", recorded_plan)
        monkeypatch.setattr(fixed_point.BoundaryPotential, "from_data", checked_from_data)
        self.solve(0.01)
        assert held == [False]

    def test_zero_data_give_zero_without_a_potential(self):
        result = self.solve(0.0)
        assert not np.any(result.u.values) and not np.any(result.nonlinear.values)
        assert result.trace.converged and result.trace.iterations == 1
        assert result.trace.residual == 0.0
        assert result.diagnostics["applications"] == 2
        assert result.workspace._pot is None
        assert "quadrature_nodes" not in result.diagnostics
        assert not np.any(result.traces)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_a_non_finite_iterate_is_refused(self, monkeypatch):
        # The loop measures its iterates where they lie, with no
        # SpaceTimeField copy to check them: a NaN that enters an iterate
        # stops the solve at that iterate's norm.
        apply = fixed_point.GammaWorkspace.apply

        def poisoned(self, u):
            u_next, nonlinear, r = apply(self, u)
            u_next[3, 5] = np.nan
            return u_next, nonlinear, r

        monkeypatch.setattr(fixed_point.GammaWorkspace, "apply", poisoned)
        with pytest.raises(ValueError, match="non-finite"):
            self.solve(0.01)

    def test_no_convergence_within_the_cap(self, monkeypatch):
        # The same solve converges at its third iterate or later; capped at
        # one, the loop gives up with the trace of that one iterate.
        monkeypatch.setattr(fixed_point, "MAX_ITER", 1)
        with pytest.raises(NonContractionError, match="no convergence within 1 iterations") as err:
            self.solve(0.01)
        assert err.value.trace.iterations == 1 and not err.value.trace.converged

    @pytest.mark.parametrize(
        "s, b, bstar, alpha",
        [(0.3, 0.42, 0.46, 0.52), (1.0, 0.42, 0.46, 0.52), (2.0, 0.42, 0.46, 0.52), (2.6, 0.48, 0.49, 0.505)],
    )
    def test_zero_extension_flags_require_the_binding_corner_conditions(self, s, b, bstar, alpha):
        # Channel j must vanish at t = 0+ exactly when s > 1/2 + j, the
        # corner conditions that check_compatibility counts.
        data, _ = self.problem(0.0)
        cfg = SolverConfig(xgrid=self.XG, tgrid=self.TG, s=s, b=b, bstar=bstar, alpha=alpha, T=0.25)
        flags = fixed_point.GammaWorkspace(data, cfg).zero_extension_flags(np.zeros((3, self.TG.count)))
        assert [flag["required"] for flag in flags] == [s > 0.5 + j for j in range(3)]


class TestSolveMemory:
    # Allocation guard for one whole solve, in MiB of tracemalloc: the
    # workspace, the potential's tables at depth 0 and the loop's fields on
    # a 1024 x 256 grid (2 MiB per (X, T) field), with the folded norm weight
    # built afresh.  Measured 21.45 with numpy 2.4; the 5% margin is 1.1 MiB,
    # below one more (X, T) field left alive, such as the previous N(u)
    # during `apply`, a copy of a normed field or the potential's field.
    PEAK = 21.45
    MARGIN = 1.05

    def test_solve_allocations(self):
        xg = UniformGrid(-20.0, 40.0 / 1024, 1024)
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        g = GridFunction(xg, 0.01 * np.exp(-(((xg.nodes - 2.0) / 3.0) ** 2)))
        zeros = TimeSeries(tg, np.zeros(tg.count))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(
            xgrid=xg, tgrid=tg, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25, depth=0
        )
        bourgain._folded_xsba_weight.cache_clear()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = picard_solve(data, cfg)
            peak = (tracemalloc.get_traced_memory()[1] - start) / 2.0**20
        finally:
            tracemalloc.stop()
        assert result.trace.converged
        assert peak <= self.MARGIN * self.PEAK, peak
