"""Solver configuration, the nonlinearity, and the Picard iteration."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdv5half import fixed_point
from kdv5half.boundary import PreconditionError
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
from kdv5half.spectral import band_mask, x_spectrum, x_values


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

    def test_max_iter(self):
        with pytest.raises(ValueError, match="max_iter"):
            self.make(max_iter=0)


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
        out = nonlinearity_FT(u, tg, PropagatorPlan(xg), T)
        assert out.dtype == np.float64 and out.shape == u.shape
        ux = x_values(np.where(band_mask(xg), 1j * xg.frequencies, 0.0) * x_spectrum(profile, xg), xg)
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
        _, _, _, result = manufactured_case
        assert result.trace.converged
        assert result.trace.residual is not None
        assert result.trace.residual < 2e-9

    def test_contracting_from_second_step(self, manufactured_case):
        _, _, _, result = manufactured_case
        assert all(f < 1.0 for f in result.trace.factors[1:])

    def test_linear_plus_nonlinear(self, manufactured_case):
        # Every iterate is summed as L + N(u), so the split of the result is exact.
        _, _, _, result = manufactured_case
        assert np.array_equal(result.u.values, result.linear.values + result.nonlinear.values)

    def test_first_iterate_is_linear_part(self, manufactured_case, solver_config):
        _, _, _, result = manufactured_case
        cfg = solver_config
        ws = result.workspace
        first, nonlinear, r = ws.apply(np.zeros((cfg.xgrid.count, cfg.tgrid.count)))
        # Gamma(0) carries no Duhamel forcing: its nonlinear part is zero and
        # Gamma(0) is exactly the linear part L of the map, as real arrays.
        assert first.dtype == nonlinear.dtype == r.dtype == np.float64
        assert first.shape == nonlinear.shape == (cfg.xgrid.count, cfg.tgrid.count)
        assert not np.any(nonlinear) and not np.any(r)
        assert np.array_equal(first, ws.linear)
        assert np.array_equal(first, result.linear.values)

    def test_traces_are_free_plus_duhamel(self, manufactured_case, solver_config):
        # q is the trace of the datum's free evolution; r, read off the
        # Duhamel spectrum, matches the trace of the Duhamel field
        # re-transformed (measured: 5e-16, 1.6e-14 and 1.5e-13 relative for
        # j = 0, 1, 2); both are real, and so is p = q + r.
        _, _, _, result = manufactured_case
        cfg = solver_config
        ws = result.workspace
        plan = PropagatorPlan(cfg.xgrid)
        assert np.array_equal(ws.q, trace_at_origin(ws.data.g_l, cfg.tgrid, plan).real)
        u = result.u.values.real
        _, _, r = ws.apply(u)
        forcing = nonlinearity_FT(u, cfg.tgrid, plan, cfg.T)
        spec = duhamel_trajectory(forcing, cfg.tgrid, plan, t_window=ws.t_window)
        duhamel = x_values(spec, cfg.xgrid)
        from_field = trace_at_origin(x_spectrum(duhamel, cfg.xgrid), cfg.tgrid, plan)
        for j in range(3):
            scale = np.max(np.abs(from_field[j]))
            assert np.max(np.abs(r[j] - from_field[j])) <= 1e-12 * scale, j
        assert result.traces.dtype == np.float64
        assert result.traces.shape == (3, cfg.tgrid.count)

    def test_free_phase_table_released(self, manufactured_case):
        # q and L are built with the workspace; the (T, X) table of
        # e^{-i t xi^5} is not kept through the Picard loop.
        _, _, _, result = manufactured_case
        assert "_free_phases" not in vars(result.workspace.plan)

    def test_diagnostics_payload(self, manufactured_case):
        _, _, _, result = manufactured_case
        diag = result.diagnostics
        assert "zero_extension_flags" in diag
        assert diag["T"] == 0.25

    @pytest.mark.parametrize("channel", ["g_l", "h2"])
    def test_complex_data_refused(self, channel):
        xg = UniformGrid(-20.0, 40.0 / 64, 64)
        tg = UniformGrid(-1.0, 2.0 / 64, 64)
        g = GridFunction(xg, 0.01 * np.exp(-(xg.nodes**2)).astype(complex))
        zeros = TimeSeries(tg, np.zeros(tg.count, dtype=complex))
        if channel == "g_l":
            data = SolverData(g_l=GridFunction(xg, 1j * g.values), h1=zeros, h2=zeros, h3=zeros)
        else:
            data = SolverData(g_l=g, h1=zeros, h2=TimeSeries(tg, zeros.values + 1e-3j), h3=zeros)
        cfg = SolverConfig(xgrid=xg, tgrid=tg, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25)
        with pytest.raises(PreconditionError, match="must be real"):
            picard_solve(data, cfg)

    def test_large_data_fails_to_contract(self):
        xg = UniformGrid(-20.0, 40.0 / 256, 256)
        tg = UniformGrid(-1.0, 2.0 / 256, 256)
        g = GridFunction(xg, 60.0 * np.exp(-(((xg.nodes - 2.0) / 1.5) ** 2)).astype(complex))
        zeros = TimeSeries(tg, np.zeros(tg.count, dtype=complex))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(
            xgrid=xg, tgrid=tg, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.5, max_iter=12
        )
        with pytest.raises(NonContractionError) as err:
            picard_solve(data, cfg)
        assert err.value.trace.iterations >= 3


class TestPicardLoop:
    XG = UniformGrid(-20.0, 40.0 / 256, 256)
    TG = UniformGrid(-1.0, 2.0 / 256, 256)

    def solve(self, amplitude):
        g = GridFunction(self.XG, amplitude * np.exp(-(((self.XG.nodes - 2.0) / 3.0) ** 2)))
        zeros = TimeSeries(self.TG, np.zeros(self.TG.count))
        data = SolverData(g_l=g, h1=zeros, h2=zeros, h3=zeros)
        cfg = SolverConfig(xgrid=self.XG, tgrid=self.TG, s=1.0, b=0.42, bstar=0.46, alpha=0.52, T=0.25)
        return picard_solve(data, cfg)

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
        assert np.array_equal(result.u.values, result.linear.values + result.nonlinear.values)

    def test_zero_data_give_zero_without_a_potential(self):
        result = self.solve(0.0)
        assert not np.any(result.u.values) and not np.any(result.nonlinear.values)
        assert result.trace.converged and result.trace.iterations == 1
        assert result.trace.residual == 0.0
        assert result.diagnostics["applications"] == 2
        assert result.workspace._pot is None
        assert "quadrature_nodes" not in result.diagnostics
        assert not np.any(result.traces)
