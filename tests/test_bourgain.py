"""Dispersive space-time norms, admissibility windows, bilinear monitors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kdv5half import bourgain
from kdv5half.bourgain import (
    NormIndices,
    bilinear_ratio,
    seeded_band_limited_field,
    xsb_norm,
    xsba_norm,
)
from kdv5half.grids import SpaceTimeField, UniformGrid
from kdv5half.spectral import field_l2_norm

XG = UniformGrid(-20.0, 40.0 / 128, 128)
TG = UniformGrid(-2.0, 4.0 / 128, 128)
BOX = np.sqrt(XG.length * TG.length)


def lattice_mode(kx, kt, amp=1.0):
    xi = kx * XG.freq_step
    tau = kt * TG.freq_step
    vals = amp * np.exp(1j * (xi * XG.nodes[:, None] + tau * TG.nodes[None, :]))
    return SpaceTimeField(XG, TG, vals), xi, tau


def real_part(u: SpaceTimeField) -> SpaceTimeField:
    return SpaceTimeField(u.xgrid, u.tgrid, u.values.real)


def field_xsba_norm(u: SpaceTimeField, s, b, alpha) -> float:
    return xsba_norm(u.values, u.xgrid, u.tgrid, s, b, alpha)


def unfolded_xsba_norm(u: SpaceTimeField, s, b, alpha) -> float:
    """Oracle: the weight of `xsba_norm` on every (xi, tau) of a full fft2."""
    xi = u.xgrid.frequencies[:, None]
    tau = u.tgrid.frequencies[None, :]
    weight = (1 + np.abs(xi)) ** s * (1 + np.abs(tau + xi**5)) ** b
    weight = weight + (np.abs(xi) <= 1) * (1 + np.abs(tau)) ** alpha
    spec = (u.xgrid.step * u.tgrid.step / (2 * np.pi)) * np.fft.fft2(u.values)
    measure = u.xgrid.freq_step * u.tgrid.freq_step
    return float(np.sqrt(np.sum((weight * np.abs(spec)) ** 2) * measure))


class TestNorms:
    def test_xsb_weight_is_built_once_per_grids_and_indices(self):
        # The cached weight gives the formula's norm bit for bit, in its
        # expression order; a second call at the same (grids, s, b) builds
        # nothing.
        u = real_part(lattice_mode(3, -5)[0])
        xi, tau = XG.frequencies[:, None], TG.frequencies[None, :]
        spec = bourgain.spectrum_matrix(u)
        weight = (1.0 + np.abs(xi)) ** 0.7 * (1.0 + np.abs(tau + xi**5)) ** 0.45
        measure = XG.freq_step * TG.freq_step
        want = float(np.sqrt(np.sum((weight * np.abs(spec)) ** 2) * measure))
        bourgain._cached_xsb_weight.cache_clear()
        assert xsb_norm(u, 0.7, 0.45) == want
        assert xsb_norm(u, 0.7, 0.45) == want
        info = bourgain._cached_xsb_weight.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_zero_indices_reduce_to_l2(self):
        u, _, _ = lattice_mode(3, -5, amp=0.7)
        assert xsb_norm(u, 0.0, 0.0) == pytest.approx(field_l2_norm(u), rel=1e-12)

    def test_single_mode_closed_form(self):
        amp = 0.37
        u, xi, tau = lattice_mode(4, 7, amp)
        for s, b in ((0.0, 0.0), (1.0, 0.3), (2.6, -0.45)):
            expected = amp * (1 + abs(xi)) ** s * (1 + abs(tau + xi**5)) ** b * BOX
            assert xsb_norm(u, s, b) == pytest.approx(expected, rel=1e-10)

    def test_homogeneity(self):
        u = real_part(seeded_band_limited_field(XG, TG, 3.0, 10.0, seed=2))
        scaled = SpaceTimeField(XG, TG, 3.5 * u.values)
        assert xsb_norm(scaled, 1.0, 0.4) == pytest.approx(3.5 * xsb_norm(u, 1.0, 0.4), rel=1e-12)
        assert field_xsba_norm(scaled, 1.0, 0.4, 0.52) == pytest.approx(
            3.5 * field_xsba_norm(u, 1.0, 0.4, 0.52), rel=1e-12
        )

    def test_low_frequency_weight_dominates(self):
        u = real_part(seeded_band_limited_field(XG, TG, 2.0, 8.0, seed=3))
        assert field_xsba_norm(u, 0.3, 0.46, 0.51) > xsb_norm(u, 0.3, 0.46)

    def test_xsba_single_mode_closed_form(self):
        # amp cos(xi x + tau t) is two modes of amplitude amp / 2 at (xi, tau)
        # and (-xi, -tau), which share the weight here.
        amp = 0.5
        _, xi, tau = lattice_mode(1, 6)  # |xi| <= 1 so the extra weight is live
        u = SpaceTimeField(XG, TG, amp * np.cos(xi * XG.nodes[:, None] + tau * TG.nodes[None, :]))
        s, b, alpha = 0.3, 0.46, 0.51
        weight = (1 + abs(xi)) ** s * (1 + abs(tau + xi**5)) ** b + (1 + abs(tau)) ** alpha
        expected = amp * weight * BOX / np.sqrt(2.0)
        assert field_xsba_norm(u, s, b, alpha) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("nx, nt", [(64, 64), (63, 64), (64, 65), (65, 63)])
    def test_xsba_folded_weight_matches_the_full_sum(self, nx, nt):
        # White noise has content on both Nyquist lines; the self-paired
        # columns tau = 0 and tau = Nyquist keep w^2 alone.  Measured: at
        # most 2.1e-16 relative.
        xg = UniformGrid(-20.0, 40.0 / nx, nx)
        tg = UniformGrid(-1.0, 2.0 / nt, nt)
        u = SpaceTimeField(xg, tg, np.random.default_rng(nx * nt).standard_normal((nx, nt)))
        for s, b, alpha in ((1.0, 0.42, 0.52), (0.3, 0.46, 0.51), (2.6, 0.49, 0.505)):
            expected = unfolded_xsba_norm(u, s, b, alpha)
            assert field_xsba_norm(u, s, b, alpha) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("nx, nt", [(64, 64), (63, 65)])
    def test_xsba_is_blind_to_the_memory_layout(self, nx, nt):
        # Solver iterates are column-major and summed in place; a row-major
        # array pays one copy and sums in the same order.  Either one, read
        # where it lies, gives bit for bit the norm of its frozen
        # SpaceTimeField copy.
        xg = UniformGrid(-20.0, 40.0 / nx, nx)
        tg = UniformGrid(-1.0, 2.0 / nt, nt)
        vals = np.random.default_rng(nx + nt).standard_normal((nx, nt))
        for layout in (np.ascontiguousarray, np.asfortranarray):
            arranged = layout(vals)
            frozen = SpaceTimeField(xg, tg, arranged)
            assert xsba_norm(arranged, xg, tg, 1.0, 0.42, 0.52) == field_xsba_norm(
                frozen, 1.0, 0.42, 0.52
            )
        assert xsba_norm(np.ascontiguousarray(vals), xg, tg, 1.0, 0.42, 0.52) == xsba_norm(
            np.asfortranarray(vals), xg, tg, 1.0, 0.42, 0.52
        )

    def test_xsba_refuses_a_complex_field(self):
        u, _, _ = lattice_mode(1, 6)
        with pytest.raises(ValueError, match="real field"):
            field_xsba_norm(u, 0.3, 0.46, 0.51)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_xsba_refuses_non_finite_values(self, bad):
        # The samples are not copied into a SpaceTimeField, so its
        # finiteness check does not run: the norm refuses them itself.
        vals = np.random.default_rng(1).standard_normal((XG.count, TG.count))
        vals[17, 40] = bad
        with pytest.raises(ValueError, match="non-finite"):
            xsba_norm(vals, XG, TG, 1.0, 0.42, 0.52)

    def test_xsba_refuses_a_shape_off_the_grids(self):
        with pytest.raises(ValueError, match="does not match grid shape"):
            xsba_norm(np.zeros((XG.count, TG.count - 1)), XG, TG, 1.0, 0.42, 0.52)

    @pytest.mark.parametrize("nx, nt", [(64, 64), (63, 64), (64, 65), (65, 63), (1024, 1024)])
    def test_folded_weight_is_the_full_square_mirror(self, nx, nt):
        # Built on the kept columns only, the folded weight is bit for bit
        # the fold of the full (X, T) square with its mirror gathered by
        # index, including the Nyquist row of an even X.
        xg = UniformGrid(-20.0, 40.0 / nx, nx)
        tg = UniformGrid(-1.0, 2.0 / nt, nt)
        for s, b, alpha in ((1.0, 0.42, 0.52), (2.6, 0.49, 0.505)):
            xi, tau = xg.frequencies[:, None], tg.frequencies[None, :]
            weight = (1.0 + np.abs(xi)) ** s * (1.0 + np.abs(tau + xi**5)) ** b
            square = (weight + (np.abs(xi) <= 1.0) * (1.0 + np.abs(tau)) ** alpha) ** 2
            half = nt // 2 + 1
            mirror = square[(-np.arange(nx)) % nx][:, (-np.arange(half)) % nt]
            self_paired = (np.arange(half) == 0) | (2 * np.arange(half) == nt)
            want = square[:, :half] + np.where(self_paired, 0.0, mirror)
            got = bourgain._folded_xsba_weight(xg, tg, s, b, alpha)
            assert got.shape == (nx, half) and got.flags.f_contiguous
            assert not got.flags.writeable
            assert np.array_equal(got, want)


class TestAdmissibility:
    def test_gain_window(self):
        assert not NormIndices(0.0, 0.45).gain_violations()
        assert not NormIndices(1.0, 0.45, a=0.5).gain_violations()
        assert NormIndices(0.0, 0.38).gain_violations()
        assert NormIndices(0.0, 0.5).gain_violations()  # b must stay below 1/2
        assert NormIndices(0.0, 0.45, a=0.6).gain_violations()  # a > 10b-4

    def test_auxiliary_window(self):
        assert not NormIndices(1.0, 0.46, a=0.2).auxiliary_violations()
        assert NormIndices(0.3, 0.46).auxiliary_violations()  # s <= 1/2
        assert NormIndices(2.8, 0.46).auxiliary_violations()  # s >= 11/4
        assert NormIndices(1.0, 0.46, a=1.8).auxiliary_violations()  # a >= 11/4 - s
        assert NormIndices(2.6, 0.46, a=0.1).auxiliary_violations()  # b below (s+a)/5 - 1/20

    def test_violation_messages_name_the_ranges(self):
        msgs = NormIndices(0.0, 0.38).gain_violations()
        assert any("2/5 <= b < 1/2" in m and "b=0.38" in m for m in msgs)
        msgs = NormIndices(0.3, 0.46).auxiliary_violations()
        assert any("1/2 < s < 11/4" in m and "s=0.3" in m for m in msgs)

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.sampled_from([0.0, 0.5, 1.0, 2.6, 2.75]) | st.floats(0.0, 3.0),
        b=st.sampled_from([0.4, 0.42, 0.45, 0.47, 0.48, 0.5]) | st.floats(0.35, 0.55),
        a=st.sampled_from([0.0, 0.2, 0.5, 1.8]) | st.floats(0.0, 3.0),
    )
    @example(s=0.0, b=0.4, a=0.0)
    @example(s=1.0, b=0.45, a=0.5)
    @example(s=2.6, b=0.47, a=0.0)
    @example(s=2.6, b=0.48, a=0.1)
    def test_flags_are_exactly_the_stated_windows(self, s, b, a):
        idx = NormIndices(s, b, a=a)
        assert (not idx.gain_violations()) == (2 / 5 <= b < 1 / 2 and a <= 10 * b - 4)
        assert (not idx.auxiliary_violations()) == (
            1 / 2 < s < 11 / 4 and a < 11 / 4 - s and max((s + a) / 5 - 1 / 20, 2 / 5) < b < 1 / 2
        )

    def test_invalid_indices_rejected(self):
        with pytest.raises(ValueError, match="s must be >= 0"):
            NormIndices(-0.1, 0.45)
        with pytest.raises(ValueError, match="a must be >= 0"):
            NormIndices(0.0, 0.45, a=-0.1)


class TestBilinearRatio:
    def fields(self):
        v = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=11)
        w = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=12)
        return v, w

    def test_frozen_gain_value(self):
        v, w = self.fields()
        r = bilinear_ratio(v, w, 0.0, 0.45, 0.0, mode="gain")
        assert r == pytest.approx(1.537686164972e-03, rel=1e-9)

    def test_frozen_auxiliary_value(self):
        v, w = self.fields()
        r = bilinear_ratio(v, w, 1.0, 0.46, 0.2, mode="auxiliary")
        assert r == pytest.approx(3.038538434261e-04, rel=1e-9)

    def test_scale_invariance(self):
        v, w = self.fields()
        base = bilinear_ratio(v, w, 0.0, 0.45, mode="gain")
        v2 = SpaceTimeField(XG, TG, 7.0 * v.values)
        w2 = SpaceTimeField(XG, TG, 0.01 * w.values)
        assert bilinear_ratio(v2, w2, 0.0, 0.45, mode="gain") == pytest.approx(base, rel=1e-12)

    def test_inadmissible_rejected_with_range(self):
        v, w = self.fields()
        with pytest.raises(ValueError, match=r"inadmissible indices.*derivative-gain.*2/5 <= b < 1/2"):
            bilinear_ratio(v, w, 0.0, 0.38, mode="gain")
        with pytest.raises(ValueError, match=r"inadmissible indices.*auxiliary.*1/2 < s < 11/4"):
            bilinear_ratio(v, w, 0.3, 0.46, mode="auxiliary")

    def test_unknown_mode(self):
        v, w = self.fields()
        with pytest.raises(ValueError, match="mode"):
            bilinear_ratio(v, w, 0.0, 0.45, mode="quadratic")

    def test_grid_mismatch(self):
        v, _ = self.fields()
        other = UniformGrid(-20.0, 40.0 / 64, 64)
        w = seeded_band_limited_field(other, TG, 3.0, 15.0, seed=12)
        with pytest.raises(ValueError, match="share grids"):
            bilinear_ratio(v, w, 0.0, 0.45, mode="gain")

    def test_zero_factor(self):
        v, _ = self.fields()
        zero = SpaceTimeField(XG, TG, np.zeros((XG.count, TG.count), dtype=complex))
        with pytest.raises(ValueError, match="zero factors"):
            bilinear_ratio(v, zero, 0.0, 0.45, mode="gain")


def loop_placed_field(xgrid, tgrid, band_x, band_t, seed) -> np.ndarray:
    """Oracle: `seeded_band_limited_field`'s draws placed one lattice mode at a time."""
    rng = np.random.default_rng(seed)
    kx_max = int(np.floor(band_x / xgrid.freq_step))
    kt_max = int(np.floor(band_t / tgrid.freq_step))
    envelope_x = np.exp(-0.5 * (np.arange(-kx_max, kx_max + 1) / max(kx_max, 1)) ** 2)
    envelope_t = np.exp(-0.5 * (np.arange(-kt_max, kt_max + 1) / max(kt_max, 1)) ** 2)
    draws = rng.standard_normal((2 * kx_max + 1, 2 * kt_max + 1, 2))
    block = (draws[..., 0] + 1j * draws[..., 1]) * envelope_x[:, None] * envelope_t[None, :]
    spec = np.zeros((xgrid.count, tgrid.count), dtype=np.complex128)
    for i, kx in enumerate(range(-kx_max, kx_max + 1)):
        for j, kt in enumerate(range(-kt_max, kt_max + 1)):
            spec[kx % xgrid.count, kt % tgrid.count] = block[i, j]
    values = bourgain.values_from_spectrum_matrix(spec, xgrid, tgrid).values
    return values / np.max(np.abs(values))


class TestSeededField:
    @pytest.mark.parametrize("seed", [1000, 1001, 1009])
    def test_block_placement_matches_the_mode_loop(self, seed):
        got = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed).values
        assert np.array_equal(got, loop_placed_field(XG, TG, 3.0, 15.0, seed))

    def test_deterministic(self):
        a = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=42)
        b = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=42)
        assert np.array_equal(a.values, b.values)
        c = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_sup_normalized(self):
        u = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=9)
        assert np.max(np.abs(u.values)) == pytest.approx(1.0, rel=1e-12)

    def test_band_limited(self):
        from kdv5half.spectral import spectrum_matrix

        u = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=9)
        spec = spectrum_matrix(u)
        outside = (np.abs(XG.frequencies)[:, None] > 3.0) | (np.abs(TG.frequencies)[None, :] > 15.0)
        assert np.max(np.abs(spec[outside])) < 1e-12 * np.max(np.abs(spec))

    def test_exact_under_refinement(self):
        coarse = seeded_band_limited_field(XG, TG, 3.0, 15.0, seed=5)
        fx = UniformGrid(XG.origin, XG.step / 2.0, XG.count * 2)
        ft = UniformGrid(TG.origin, TG.step / 2.0, TG.count * 2)
        fine = seeded_band_limited_field(fx, ft, 3.0, 15.0, seed=5)
        # Each field is sup-normalized on its own grid, so the restrictions
        # agree up to one scalar; compare after renormalizing both.
        a = fine.values[::2, ::2]
        b = coarse.values
        assert np.max(np.abs(a / np.max(np.abs(a)) - b / np.max(np.abs(b)))) < 1e-10

    def test_band_exceeding_lattice(self):
        with pytest.raises(ValueError, match="band exceeds"):
            seeded_band_limited_field(XG, TG, 1e4, 15.0, seed=1)
