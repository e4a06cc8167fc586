"""Grid containers, immutability, and deterministic serialization."""

import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdv5half
from kdv5half import boundary
from kdv5half.boundary import boundary_potential_traces
from kdv5half.grids import (
    GridFunction,
    PreconditionError,
    SpaceTimeField,
    TimeSeries,
    UniformGrid,
    canonical_json,
    field_to_csv,
)
from kdv5half.scenarios import boundary_from_profile, datum_from_profile
from kdv5half.verification import manufactured_data


def small_grid():
    return UniformGrid(origin=-1.0, step=0.25, count=8)


class TestUniformGrid:
    def test_nodes_and_length(self):
        g = small_grid()
        assert g.length == pytest.approx(2.0)
        assert g.nodes[0] == -1.0
        assert g.nodes[-1] == pytest.approx(-1.0 + 7 * 0.25)

    def test_frequency_lattice(self):
        g = small_grid()
        assert g.freq_step == pytest.approx(2.0 * np.pi / g.length)
        assert g.nyquist == pytest.approx(np.pi / g.step)
        assert set(np.round(g.frequencies / g.freq_step).astype(int)) == {
            0, 1, 2, 3, -4, -3, -2, -1,
        }

    def test_index_of_hits_nodes(self):
        g = small_grid()
        for k in range(g.count):
            assert g.index_of(g.nodes[k]) == k

    def test_index_of_rejects_off_node(self):
        with pytest.raises(ValueError, match="does not lie on a grid node"):
            small_grid().index_of(0.1)

    @settings(max_examples=300, deadline=None)
    @given(
        origin=st.sampled_from([-2.0, -40.0, 0.0, -2.3, -0.9, 1.7]),
        step=st.sampled_from([0.25, 0.078125, 2.0**-8, 0.1, 0.03, 0.00375]),
        count=st.integers(2, 64),
        lo_node=st.integers(-5, 70),
        span=st.integers(-5, 70),
        nudges=st.lists(
            st.sampled_from([0.0, 5e-15, 1e-14, 2e-14, -5e-15, -1e-14, -2e-14, 0.3]),
            min_size=2,
            max_size=2,
        ),
    )
    @example(origin=-2.3, step=0.1, count=48, lo_node=23, span=10, nudges=[0.0, 0.0])
    @example(origin=-2.0, step=0.25, count=16, lo_node=10, span=-3, nudges=[0.0, 0.0])
    def test_window_is_the_mask_with_slack(self, origin, step, count, lo_node, span, nudges):
        # Bounds on (or a rounding off) a node, between nodes, outside the
        # grid, reversed (span < 0) or empty: the window is the slice of the
        # nodes that miss [lo, hi] by at most 1e-14.
        g = UniformGrid(origin=origin, step=step, count=count)
        lo = origin + lo_node * step + nudges[0]
        hi = origin + (lo_node + span) * step + nudges[1]
        window = g.window(lo, hi)
        nodes = g.nodes
        want = np.flatnonzero((nodes >= lo - 1e-14) & (nodes <= hi + 1e-14))
        assert isinstance(window, slice) and window.step is None
        assert 0 <= window.start <= window.stop <= count
        assert np.array_equal(np.arange(count)[window], want)

    def test_window_takes_infinite_bounds(self):
        g = small_grid()
        assert g.window(-np.inf, np.inf) == slice(0, g.count)
        assert g.window(0.0, np.inf) == slice(4, g.count)
        assert g.window(-np.inf, -1e-15) == slice(0, 5)  # 0 misses by 1e-15
        assert g.window(np.inf, -np.inf) == slice(g.count, g.count)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            UniformGrid(origin=0.0, step=0.0, count=8)
        with pytest.raises(ValueError):
            UniformGrid(origin=0.0, step=1.0, count=1)


class TestGridFunction:
    def test_values_are_frozen(self):
        f = GridFunction(small_grid(), np.ones(8, dtype=complex))
        with pytest.raises(ValueError):
            f.values[0] = 5.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(small_grid(), np.ones(7, dtype=complex))


class TestRealness:
    """GridFunction and TimeSeries hold float64 only: this is the one place
    that decides the data are real."""

    @pytest.mark.parametrize("kind", [GridFunction, TimeSeries])
    @pytest.mark.parametrize("imag", [1.0, 1e-20, -1e-300])
    def test_nonzero_imaginary_part_refused(self, kind, imag):
        values = np.linspace(-1.0, 1.0, 8).astype(complex)
        values[3] += 1j * imag
        with pytest.raises(PreconditionError, match="must be real"):
            kind(small_grid(), values)

    @pytest.mark.parametrize("kind", [GridFunction, TimeSeries])
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    def test_zero_imaginary_part_stored_as_float64(self, kind, dtype):
        real = np.linspace(-1.0, 1.0, 8) ** 3
        values = (real - 0.0j).astype(dtype)
        f = kind(small_grid(), values)
        assert f.values.dtype == np.float64
        assert np.array_equal(f.values, values.real.astype(np.float64))
        assert f.values.flags.c_contiguous and not f.values.flags.writeable

    def test_space_time_field_keeps_complex(self):
        values = np.ones((8, 2)) * (1.0 + 2.0j)
        f = SpaceTimeField(small_grid(), UniformGrid(origin=0.0, step=0.5, count=2), values)
        assert f.values.dtype == np.complex128 and np.array_equal(f.values, values)

    def test_one_precondition_error_class(self):
        assert boundary.PreconditionError is kdv5half.PreconditionError is PreconditionError
        assert issubclass(PreconditionError, ValueError)


class TestStorageRule:
    @pytest.mark.parametrize(
        "source, dtype",
        [
            (np.linspace(-1.0, 1.0, 8), np.float64),
            (np.arange(8), np.float64),
            (np.arange(8) % 3 == 0, np.float64),
            (np.linspace(-1.0, 1.0, 8) * (0.5 - 2j), np.complex128),
        ],
        ids=["float", "int", "bool", "complex"],
    )
    @pytest.mark.parametrize("two_d", [False, True], ids=["grid_function", "space_time_field"])
    def test_values_keep_the_given_kind(self, source, dtype, two_d):
        def make(values):
            if values.ndim == 1:
                return GridFunction(small_grid(), values)
            return SpaceTimeField(small_grid(), UniformGrid(origin=0.0, step=0.5, count=2), values)

        source = np.stack([source, source[::-1]], axis=1) if two_d else source.copy()
        if not two_d and dtype == np.complex128:
            # A GridFunction holds real samples: complex-typed ones with a
            # zero imaginary part are stored as float64 (see TestRealness).
            source, dtype = source.real + 0j, np.float64
        expected = (source if dtype == np.complex128 else source.real).astype(dtype)
        f = make(source)
        assert f.values.dtype == dtype
        source[...] = 0
        assert np.array_equal(f.values, expected)
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1
        for bad in (np.nan, np.inf, -np.inf):
            values = expected.copy()
            values.flat[1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                make(values)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_copy_keeps_the_memory_layout(self, order):
        # The solver's iterates are column-major; wrapping one must not
        # transpose it in memory.
        source = np.array(np.arange(16.0).reshape(8, 2), order=order)
        f = SpaceTimeField(small_grid(), UniformGrid(origin=0.0, step=0.5, count=2), source)
        assert f.values.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(f.values, source) and not np.shares_memory(f.values, source)

    def test_real_data_producers_emit_float64(self, small_config):
        xg, tg = small_config.xgrid, small_config.tgrid
        datum_specs = [
            {"profile": "zero"},
            {"profile": "gaussian", "amplitude": 0.01},
            {"profile": "rough_tail", "amplitude": 0.01},
        ]
        data = [datum_from_profile(spec, xg, 1.0, seed=3) for spec in datum_specs]
        for profile in ("zero", "bump", "gaussian_pulse"):
            data.append(boundary_from_profile({"profile": profile}, tg, "h1"))
        manufactured, oracle, _ = manufactured_data(data[1], small_config, horizon=0.75)
        data += [*manufactured.boundary_series, oracle]
        # a bump wide enough for the band cap of this grid
        wide = UniformGrid(origin=-2.0, step=4.0 / 1024, count=1024)
        h = boundary_from_profile(
            {"profile": "bump", "t0": 0.1, "t1": 0.6, "t2": 1.4, "t3": 1.9}, wide, "h1"
        )
        zero = TimeSeries(wide, np.zeros(wide.count))
        data += [*boundary_potential_traces(h, h, h), *boundary_potential_traces(zero, zero, zero)]
        assert [f.values.dtype for f in data] == [np.float64] * len(data)


class TestCanonicalJson:
    def test_deterministic_and_parseable(self):
        payload = {"b": 1.0 / 3.0, "a": [1e-300, 2.5, 0.1], "c": {"x": True, "y": None}}
        first = canonical_json(payload, indent=2)
        second = canonical_json(json.loads(first), indent=2)
        assert first == second
        assert json.loads(first)["b"] == pytest.approx(1.0 / 3.0, rel=0, abs=0)

    def test_17_digit_round_trip(self):
        x = 0.1 + 0.2
        text = canonical_json({"v": x})
        assert json.loads(text)["v"] == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json({"v": float("nan")})



def loop_csv(u: SpaceTimeField) -> str:
    """One formatted line per node: the reference writer for `field_to_csv`."""
    buf = io.StringIO()
    buf.write("x,t,re,im\n")
    for i, x in enumerate(u.xgrid.nodes):
        for n, t in enumerate(u.tgrid.nodes):
            v = u.values[i, n]
            buf.write(f"{x:.17g},{t:.17g},{v.real:.17g},{v.imag:.17g}\n")
    return buf.getvalue()


class TestFieldCsv:
    def field(self):
        xg, tg = small_grid(), UniformGrid(origin=-0.5, step=0.125, count=5)
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        vals[0, 0] = complex(-0.0, -0.0)
        vals[1, 2] = complex(0.0, -0.0)
        vals[2, 3] = complex(3e-310, -1e-305)
        vals[7, 4] = complex(-2.5e-308, 1e300)
        return SpaceTimeField(xg, tg, vals)

    def test_matches_line_by_line_writer(self):
        u = self.field()
        stream = io.StringIO()
        assert field_to_csv(u, stream) is None
        assert stream.getvalue() == loop_csv(u)

    def test_stream_receives_same_bytes(self, tmp_path):
        # A text file, as `run_scenario` writes solution.csv, gets the same bytes.
        u = self.field()
        with open(tmp_path / "field.csv", "w") as stream:
            field_to_csv(u, stream)
        assert (tmp_path / "field.csv").read_text() == loop_csv(u)
