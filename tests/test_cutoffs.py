"""Smooth cutoffs, half-line extensions, and compatibility checks."""

import numpy as np
import pytest

from kdv5half.cutoffs import (
    EXCLUDED_REGULARITY,
    check_compatibility,
    corner_conditions,
    eta,
    extend_initial_datum,
    rho,
    right_bump,
    smooth_transition,
    zero_extend_time,
)
from kdv5half.grids import GridFunction, TimeSeries, UniformGrid
from kdv5half.spectral import sobolev_norm

XG = UniformGrid(origin=-40.0, step=80.0 / 1024, count=1024)
TG = UniformGrid(origin=-2.0, step=4.0 / 1024, count=1024)


class TestSmoothTransition:
    def test_endpoints_and_range(self):
        y = np.linspace(-1.0, 2.0, 301)
        v = smooth_transition(y)
        assert np.all(v[y <= 0] == 0.0)
        assert np.all(v[y >= 1] == 1.0)
        assert np.all((v >= 0) & (v <= 1))
        assert smooth_transition(0.5) == pytest.approx(0.5)

    def test_monotone(self):
        y = np.linspace(0.0, 1.0, 500)
        v = smooth_transition(y)
        assert np.all(np.diff(v) >= 0)


class TestEta:
    def test_plateau_and_support(self):
        t = np.linspace(-2.0, 2.0, 801)
        v = eta(t)
        assert np.all(v[np.abs(t) <= 0.5] == 1.0)
        assert np.all(v[np.abs(t) >= 1.0] == 0.0)
        assert 0.0 < eta(0.75) < 1.0

    def test_finite_differences_bounded_near_edges(self):
        # smoothness proxy: high-order finite differences stay O(1) near the
        # transition edges rather than blowing up
        h = 1e-3
        for center in (-1.0, -0.5, 0.5, 1.0):
            t = center + h * np.arange(-4, 5)
            v = eta(t)
            for order in range(1, 5):
                d = np.diff(v, n=order) / h**order
                assert np.all(np.isfinite(d))
                assert np.max(np.abs(d)) < 1e6

    def test_even(self):
        t = np.linspace(0.0, 1.5, 101)
        assert np.allclose(eta(t), eta(-t))


class TestRho:
    def test_one_sided_cutoff(self):
        x = np.linspace(-5.0, 5.0, 401)
        v = rho(x, collar=2.0)
        assert np.all(v[x >= 0] == 1.0)
        assert np.all(v[x <= -2.0] == 0.0)

    def test_collar_scales_support(self):
        assert rho(-2.5, collar=3.0) > 0.0
        assert rho(-2.5, collar=2.0) == 0.0
        with pytest.raises(ValueError):
            rho(0.0, collar=-1.0)


class TestRightBump:
    def test_support_and_plateau(self):
        t = np.linspace(-1.0, 3.0, 2001)
        v = right_bump(t, 0.1, 0.6, 1.4, 1.9)
        assert np.all(v[(t <= 0.1) | (t >= 1.9)] == 0.0)
        assert np.allclose(v[(t >= 0.6) & (t <= 1.4)], 1.0)

    def test_bad_knots_rejected(self):
        with pytest.raises(ValueError):
            right_bump(np.array([0.0]), 0.5, 0.4, 0.6, 0.7)


def halfline_samples(fn):
    vals = np.where(XG.nodes >= 0, fn(XG.nodes), 0.0).astype(complex)
    return GridFunction(XG, vals)


class TestExtensions:
    def test_zero_extension_leaves_halfline_untouched(self):
        g = halfline_samples(lambda x: np.exp(-(((x - 3.0) / 1.5) ** 2)))
        ext = extend_initial_datum(g, 0.3, method="zero")
        pos = XG.nodes >= 0
        assert np.array_equal(ext.values[pos], g.values[pos])
        assert np.all(ext.values[~pos] == 0.0)

    def test_reflection_matches_derivatives_at_join(self):
        # datum with a rich jet at 0: the collar extension must continue
        # value and derivatives smoothly across x = 0
        g = halfline_samples(lambda x: (0.3 + x - 0.2 * x**2) * np.exp(-((x / 3.0) ** 2)))
        # g(0) = 0.3, g'(0) = 1, g''(0) = -0.4 - 0.6 / 9
        ext = extend_initial_datum(g, 1.0, method="reflection")
        i0 = XG.index_of(0.0)
        h = XG.step
        # centered finite differences across the join, orders 1..4
        window = ext.values[i0 - 5 : i0 + 6].real
        d1 = (window[6] - window[4]) / (2 * h)
        d2 = (window[6] - 2 * window[5] + window[4]) / h**2
        d3 = (window[7] - 2 * window[6] + 2 * window[4] - window[3]) / (2 * h**3)
        d4 = (window[7] - 4 * window[6] + 6 * window[5] - 4 * window[4] + window[3]) / h**4
        assert window[5] == pytest.approx(0.3, abs=1e-10)
        assert d1 == pytest.approx(1.0, rel=2e-3, abs=1e-4)
        assert d2 == pytest.approx(-0.4 - 0.6 / 9.0, rel=2e-2, abs=1e-3)
        assert np.isfinite(d3) and np.isfinite(d4)

    def test_reflection_of_real_datum_is_real(self):
        # Complex-typed samples with a zero imaginary part are stored as
        # float64, so their extension is the real samples' bit for bit.
        x = XG.nodes
        vals = np.where(x >= 0, (0.3 + x - 0.2 * x**2) * np.exp(-((x / 3.0) ** 2)), 0.0)
        real = extend_initial_datum(GridFunction(XG, vals), 1.0, method="reflection").values
        typed = extend_initial_datum(
            GridFunction(XG, vals.astype(complex)), 1.0, method="reflection"
        ).values
        assert real.dtype == typed.dtype == np.float64
        assert np.array_equal(real, typed)

    def test_reflection_vanishes_far_left(self):
        g = halfline_samples(lambda x: np.exp(-(((x - 3.0) / 1.5) ** 2)))
        ext = extend_initial_datum(g, 1.0, method="reflection")
        far = XG.nodes < -30.0
        assert np.max(np.abs(ext.values[far])) < 1e-10

    def test_auto_dispatch(self):
        g = halfline_samples(lambda x: np.exp(-(((x - 3.0) / 1.5) ** 2)))
        low = extend_initial_datum(g, 0.3, method="auto")
        high = extend_initial_datum(g, 1.0, method="auto")
        assert np.array_equal(low.values, extend_initial_datum(g, 0.3, method="zero").values)
        assert np.array_equal(high.values, extend_initial_datum(g, 1.0, method="reflection").values)
        assert not np.array_equal(low.values, high.values)

    def test_norm_ratio_bounded_for_smooth_datum(self):
        # whole-line Gaussian restricted to the half line: the chosen
        # extension's H^2 norm stays within 4x of the cheaper candidate
        g = halfline_samples(lambda x: np.exp(-(((x - 3.0) / 1.5) ** 2)))
        chosen = sobolev_norm(extend_initial_datum(g, 2.0, method="reflection"), 2.0)
        candidates = [
            sobolev_norm(extend_initial_datum(g, 2.0, method=m), 2.0) for m in ("zero", "reflection")
        ]
        assert chosen / min(candidates) <= 4.0

    def test_excluded_regularity_rejected(self):
        g = halfline_samples(lambda x: np.exp(-(x**2)))
        for s in EXCLUDED_REGULARITY:
            with pytest.raises(ValueError, match="excluded"):
                extend_initial_datum(g, s)
        with pytest.raises(ValueError):
            extend_initial_datum(g, 2.8)

    def test_unknown_method_rejected(self):
        g = halfline_samples(lambda x: np.exp(-(x**2)))
        with pytest.raises(ValueError, match="unknown extension method"):
            extend_initial_datum(g, 1.0, method="mirror")


class TestZeroExtendTime:
    def test_zeroes_negative_times(self):
        h = TimeSeries(TG, np.ones(TG.count, dtype=complex))
        out = zero_extend_time(h)
        assert np.all(out.values[TG.nodes < -1e-14] == 0.0)
        assert np.all(out.values[TG.nodes >= 0.0] == 1.0)


class TestCompatibility:
    """The report holds the measured gaps; each test judges them itself."""

    # A value match (g(0) = h1(0)) is judged at 1e-8.  The one-sided jet
    # of the reflection extension is off by 7.4e-5 for g'(0) and 3.3e-3 for
    # g''(0) of exp(-x^2) at dx = 0.078, so derivative matches are judged
    # at 1e-2, above that floor.
    VALUE_MATCH = 1e-8
    DERIVATIVE_MATCH = 1e-2

    @staticmethod
    def constant_series(c):
        return TimeSeries(TG, np.full(TG.count, c, dtype=complex))

    def test_no_conditions_below_half(self):
        g = halfline_samples(lambda x: 1.0 + 0.0 * x)  # g(0) = 1
        rep = check_compatibility(g, self.constant_series(0.0), self.constant_series(0.0), self.constant_series(0.0), 0.3)
        assert rep["measured_gaps"] == []
        assert len(rep["required"]) == 0

    def test_rank_one_between_half_and_three_halves(self):
        g = halfline_samples(lambda x: np.exp(-(x**2)))  # g(0) = 1
        match = check_compatibility(g, self.constant_series(1.0), self.constant_series(0.0), self.constant_series(0.0), 1.0)
        assert len(match["required"]) == 1 and len(match["measured_gaps"]) == 1
        assert match["measured_gaps"][0] <= self.VALUE_MATCH
        mismatch = check_compatibility(g, self.constant_series(0.0), self.constant_series(0.0), self.constant_series(0.0), 1.0)
        assert mismatch["measured_gaps"][0] > self.VALUE_MATCH

    def test_rank_grows_with_s(self):
        g = halfline_samples(lambda x: np.exp(-(x**2)))
        rep2 = check_compatibility(g, self.constant_series(1.0), self.constant_series(0.0), self.constant_series(0.0), 2.0)
        assert len(rep2["required"]) == 2 and len(rep2["measured_gaps"]) == 2
        # g''(0) = -2 for the Gaussian.
        rep3 = check_compatibility(
            g, self.constant_series(1.0), self.constant_series(0.0), self.constant_series(-2.0), 2.6
        )
        assert len(rep3["required"]) == 3
        assert max(rep3["measured_gaps"]) <= self.DERIVATIVE_MATCH
        wrong = check_compatibility(
            g, self.constant_series(1.0), self.constant_series(0.0), self.constant_series(0.0), 2.6
        )
        assert wrong["measured_gaps"][2] > self.DERIVATIVE_MATCH

    def test_jet_matches_analytic_derivatives(self):
        # The gaps of data equal to the exact corner values are the jet's
        # own errors: 8.4e-8 (g') and 3.7e-6 (g'') on this Gaussian.
        f = lambda x: np.exp(-(((x - 1.0) / 2.0) ** 2))
        fp = lambda x: -2 * (x - 1.0) / 4.0 * f(x)
        fpp = lambda x: (-0.5 + (x - 1.0) ** 2 / 4.0) * f(x)
        g = halfline_samples(f)
        rep = check_compatibility(
            g,
            self.constant_series(f(0.0)),
            self.constant_series(fp(0.0)),
            self.constant_series(fpp(0.0)),
            2.6,
        )
        assert rep["measured_gaps"][0] <= 1e-12
        assert rep["measured_gaps"][1] <= 1e-5
        assert rep["measured_gaps"][2] <= 1e-3

    @pytest.mark.parametrize("s, count", [(0.0, 0), (0.49, 0), (0.51, 1), (1.49, 1), (1.51, 2), (2.6, 3)])
    def test_one_rule_counts_the_conditions(self, s, count):
        g = halfline_samples(lambda x: np.exp(-(x**2)))
        zero = self.constant_series(0.0)
        assert corner_conditions(s) == count
        assert len(check_compatibility(g, zero, zero, zero, s)["required"]) == count

    def test_payload_shape(self):
        g = halfline_samples(lambda x: np.exp(-(x**2)))
        zero = self.constant_series(0.0)
        payload = check_compatibility(g, self.constant_series(1.0), zero, zero, 1.0)
        assert list(payload) == ["s", "required", "measured_gaps"]
        assert payload["s"] == 1.0 and payload["required"] == ["g(0)=h1(0)"]
        assert [type(gap) for gap in payload["measured_gaps"]] == [float]
