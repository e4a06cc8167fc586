"""Scenario schema validation, pipeline execution, artifacts, CLI exit codes."""

import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import full_spectrum, full_values
from kdv5half import scenarios
from kdv5half.cli import main
from kdv5half.fixed_point import SolverData, picard_solve
from kdv5half.grids import TimeSeries, UniformGrid, field_to_csv
from kdv5half.verification import halfline_box, manufactured_data
from kdv5half.scenarios import (
    _CHECKS,
    Scenario,
    ScenarioError,
    boundary_from_profile,
    datum_from_profile,
    run_scenario,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SMALL_GRIDS = {
    "x": {"origin": -10.0, "step": 20.0 / 64, "count": 64},
    "t": {"origin": -1.0, "step": 2.0 / 64, "count": 64},
}
INDICES = {"s": 1.0, "b": 0.42, "bstar": 0.46, "alpha": 0.52}


def _no_pipeline(*args):
    raise AssertionError("the pipeline ran")


def minimal_payload(**over):
    payload = {
        "name": "unit",
        "pipeline": "linear-only",
        "grids": SMALL_GRIDS,
        "indices": INDICES,
        "checks": {},
    }
    payload.update(over)
    return payload


class TestSchema:
    def test_minimal_accepted(self):
        sc = Scenario.from_payload(minimal_payload())
        assert sc.name == "unit"
        assert sc.xgrid.count == 64
        assert sc.seed == 0 and sc.depth == 2 and sc.T == 0.25

    def test_missing_required(self):
        bad = minimal_payload()
        del bad["indices"]
        with pytest.raises(ScenarioError, match=r"scenario: missing keys.*indices"):
            Scenario.from_payload(bad)

    def test_unknown_top_level_key(self):
        with pytest.raises(ScenarioError, match=r"scenario: unknown keys.*extra"):
            Scenario.from_payload(minimal_payload(extra=1))

    def test_unknown_pipeline(self):
        with pytest.raises(ScenarioError, match="not one of"):
            Scenario.from_payload(minimal_payload(pipeline="warp-drive"))

    def test_grid_subkeys(self):
        bad = minimal_payload(grids={"x": {"origin": 0.0, "step": 0.1}, "t": SMALL_GRIDS["t"]})
        with pytest.raises(ScenarioError, match=r"scenario\.grids\.x: missing keys.*count"):
            Scenario.from_payload(bad)

    def test_indices_subkeys(self):
        bad = minimal_payload(indices={"s": 1.0, "b": 0.42})
        with pytest.raises(ScenarioError, match=r"scenario\.indices: missing keys"):
            Scenario.from_payload(bad)

    def test_checks_must_be_numeric(self):
        with pytest.raises(ScenarioError, match=r"scenario\.checks\.trace_error: expected a number"):
            Scenario.from_payload(minimal_payload(checks={"trace_error": "tight"}))
        with pytest.raises(ScenarioError, match="expected an object"):
            Scenario.from_payload(minimal_payload(checks=[1, 2]))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), True, "1e-6", None])
    def test_tolerance_is_a_finite_number(self, value):
        with pytest.raises(ScenarioError, match=r"^scenario\.checks\.group_isometry: expected a number"):
            Scenario.from_payload(minimal_payload(checks={"group_isometry": value}))

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("count", 1024.7, r"grids\.x\.count: expected a positive whole number"),
            ("count", "1024", r"grids\.x\.count: expected a positive whole number"),
            ("count", 0, r"grids\.x\.count: expected a positive whole number"),
            ("count", True, r"grids\.x\.count: expected a positive whole number"),
            ("count", 1, r"grids\.x: grid count must be >= 2"),
            ("step", "0.078125", r"grids\.x\.step: expected a positive number"),
            ("step", 0.0, r"grids\.x\.step: expected a positive number"),
            ("step", float("inf"), r"grids\.x\.step: expected a positive number"),
            ("origin", float("nan"), r"grids\.x\.origin: expected a number"),
            ("origin", "-10", r"grids\.x\.origin: expected a number"),
        ],
    )
    def test_grid_values_named_by_their_path(self, key, value, message):
        grids = {"x": {**SMALL_GRIDS["x"], key: value}, "t": SMALL_GRIDS["t"]}
        with pytest.raises(ScenarioError, match=rf"^scenario\.{message}"):
            Scenario.from_payload(minimal_payload(grids=grids))

    def test_whole_float_count_is_an_int(self):
        grids = {"x": {**SMALL_GRIDS["x"], "count": 64.0}, "t": SMALL_GRIDS["t"]}
        sc = Scenario.from_payload(minimal_payload(grids=grids))
        assert sc.xgrid.count == 64 and isinstance(sc.xgrid.count, int)

    @pytest.mark.parametrize("key", ["seed", "depth"])
    def test_negative_seed_or_depth_named_by_its_path(self, key):
        with pytest.raises(ScenarioError, match=rf"^scenario\.{key}: expected a non-negative"):
            Scenario.from_payload(minimal_payload(**{key: -1}))

    def test_negative_seed_exits_2_before_the_run(self, tmp_path, capsys, monkeypatch):
        # A rough_tail datum used to reach numpy's default_rng(-1) mid-run.
        monkeypatch.setitem(scenarios._RUNNERS, "linear-only", _no_pipeline)
        g_spec = {"profile": "rough_tail", "amplitude": 0.1, "band_fraction": 0.5}
        file = tmp_path / "seed.json"
        file.write_text(json.dumps(minimal_payload(seed=-1, data={"g": g_spec})))
        assert main(["solve", str(file)]) == 2
        assert "scenario error: scenario.seed" in capsys.readouterr().err

    def test_nan_tolerance_exits_2_before_the_run(self, tmp_path, capsys):
        # json writes and reads NaN; a NaN tolerance used to pass validation,
        # run the pipeline and end in a traceback from the summary writer.
        file = tmp_path / "nan.json"
        file.write_text(json.dumps(minimal_payload(checks={"group_isometry": float("nan")})))
        assert "NaN" in file.read_text()
        assert main(["solve", str(file)]) == 2
        assert "scenario.checks.group_isometry" in capsys.readouterr().err

    def test_manufactured_exclusive_with_h(self):
        data = {"manufactured": {}, "h1": {"profile": "zero"}}
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            Scenario.from_payload(minimal_payload(data=data))

    def test_solver_config_reports_index_errors(self):
        sc = Scenario.from_payload(minimal_payload(indices={**INDICES, "b": 0.3}))
        with pytest.raises(ScenarioError, match=r"scenario\.indices: .*contraction window"):
            sc.solver_config(sc.depth)

    @pytest.mark.parametrize(
        "h1, message",
        [
            ({"profile": "sqaure"}, r"scenario\.data\.h1\.profile: unknown profile 'sqaure'"),
            ({"profile": "bump", "tO": 0.1}, r"scenario\.data\.h1: unknown keys \['tO'\]"),
            ({"profile": "bump", "t0": "0.1"}, r"scenario\.data\.h1\.t0: expected a number"),
        ],
    )
    def test_profiles_validated_at_parse_time(self, h1, message):
        # linear-only never builds h1, so only the parser can catch these.
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_payload(minimal_payload(data={"h1": h1}))

    def test_manufactured_spec_validated_at_parse_time(self):
        with pytest.raises(ScenarioError, match=r"scenario\.data\.manufactured: unknown keys"):
            Scenario.from_payload(minimal_payload(data={"manufactured": {"steps": 8}}))
        bad = {"manufactured": {"horizon": [1]}}
        with pytest.raises(ScenarioError, match=r"manufactured\.horizon: expected a positive"):
            Scenario.from_payload(minimal_payload(data=bad))

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x", ')
        with pytest.raises(ScenarioError, match="invalid JSON at line"):
            Scenario.from_file(p)


class TestProfiles:
    XG = UniformGrid(-10.0, 20.0 / 64, 64)
    TG = UniformGrid(-1.0, 2.0 / 64, 64)

    def build(self, label, spec):
        if label == "g":
            return datum_from_profile(spec, self.XG, 1.0, seed=0).values
        return boundary_from_profile(spec, self.TG, label).values

    @pytest.mark.parametrize(
        "label, spec, unknown",
        [
            ("h1", {"profile": "bump", "center": 0.9, "width": 0.01}, ["center", "width"]),
            ("h2", {"profile": "gaussian_pulse", "t0": 0.1}, ["t0"]),
            ("h3", {"profile": "zero", "amplitude": 2.0}, ["amplitude"]),
            ("g", {"profile": "rough_tail", "center": 1.0, "width": 0.5}, ["center", "width"]),
            ("g", {"profile": "gaussian", "band_fraction": 0.5}, ["band_fraction"]),
            ("g", {"profile": "zero", "amplitude": 2.0}, ["amplitude"]),
        ],
    )
    def test_key_the_profile_does_not_read_is_refused(self, label, spec, unknown):
        # Each of these keys is read by another profile of the same slot; the
        # named profile would ignore it, so it is refused with its path.
        message = re.escape(f"scenario.data.{label}: unknown keys {unknown}")
        with pytest.raises(ScenarioError, match=message):
            Scenario.from_payload(minimal_payload(data={label: spec}))
        with pytest.raises(ScenarioError, match=message):
            self.build(label, spec)

    @pytest.mark.parametrize(
        "label, profile",
        [("g", p) for p in scenarios._PROFILES["g"]] + [("h1", p) for p in scenarios._PROFILES["h"]],
    )
    def test_every_key_the_profile_reads_is_accepted_and_read(self, label, profile):
        # The table's defaults are the values a left-out key takes, and
        # moving any one key moves the built data.
        defaults = scenarios._PROFILES[label[0]][profile]
        bare = self.build(label, {"profile": profile})
        Scenario.from_payload(minimal_payload(data={label: {"profile": profile, **defaults}}))
        assert np.array_equal(self.build(label, {"profile": profile, **defaults}), bare)
        for key, default in defaults.items():
            moved = self.build(label, {"profile": profile, key: 1.1 * default + 0.01})
            assert not np.array_equal(moved, bare), key

    def test_datum_profiles(self):
        zero = datum_from_profile({"profile": "zero"}, self.XG, 1.0, seed=0)
        assert np.all(zero.values == 0)
        gauss = datum_from_profile(
            {"profile": "gaussian", "amplitude": 0.5, "center": 1.0, "width": 2.0},
            self.XG,
            1.0,
            seed=0,
        )
        assert np.max(np.abs(gauss.values)) == pytest.approx(0.5, rel=1e-2)
        rough = datum_from_profile(
            {"profile": "rough_tail", "amplitude": 0.1, "band_fraction": 0.5},
            self.XG,
            0.3,
            seed=7,
        )
        assert np.max(np.abs(rough.values)) == pytest.approx(0.1, rel=1e-12)

    def test_datum_unknown_profile(self):
        with pytest.raises(ScenarioError, match="unknown profile"):
            datum_from_profile({"profile": "sawtooth"}, self.XG, 1.0, seed=0)

    def test_rough_tail_spectrum_decay(self):
        s = 0.3
        rough = datum_from_profile(
            {"profile": "rough_tail", "amplitude": 0.1, "band_fraction": 0.75},
            UniformGrid(-40.0, 80.0 / 1024, 1024),
            s,
            seed=7,
        )
        freqs, mags = np.abs(rough.grid.frequencies), np.abs(full_spectrum(rough.values, rough.grid))
        mask = (freqs > 2.0) & (freqs < 20.0) & (mags > 0)
        slope = np.polyfit(np.log1p(freqs[mask]), np.log(mags[mask]), 1)[0]
        assert slope == pytest.approx(-(s + 0.55), abs=0.1)

    @pytest.mark.parametrize("count", [64, 65])
    def test_rough_tail_is_its_conjugate_mirrored_spectrum(self, count):
        # The same draws on the whole spectrum, row -k the conjugate of row k,
        # give the same real datum (measured: 2.8e-16 of the peak at most).
        grid = UniformGrid(-10.0, 20.0 / count, count)
        s, band = 0.3, 0.6 * grid.nyquist
        rng = np.random.default_rng(7)
        coeffs = np.zeros(count, dtype=complex)
        coeffs[0] = 1.0
        for k in range(1, count // 2):
            xi = grid.frequencies[k]
            if xi <= band:
                coeffs[k] = (1.0 + xi) ** (-(s + 0.55)) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                coeffs[-k] = np.conj(coeffs[k])
        expected = full_values(coeffs, grid).real
        expected *= 0.1 / np.max(np.abs(expected))
        rough = datum_from_profile({"profile": "rough_tail", "amplitude": 0.1}, grid, s, seed=7)
        assert rough.values.dtype == np.float64
        assert np.max(np.abs(rough.values - expected)) <= 1e-14 * 0.1

    def test_boundary_profiles(self):
        bump = boundary_from_profile(
            {"profile": "bump", "t0": 0.05, "t1": 0.15, "t2": 0.45, "t3": 0.6},
            self.TG,
            "h1",
        )
        assert np.max(bump.values.real) == pytest.approx(1.0)
        assert np.all(bump.values[self.TG.nodes <= 0.05] == 0)
        pulse = boundary_from_profile(
            {"profile": "gaussian_pulse", "center": 0.3, "width": 0.1}, self.TG, "h2"
        )
        assert np.all(pulse.values[self.TG.nodes <= 0.0] == 0)
        with pytest.raises(ScenarioError, match="unknown profile"):
            boundary_from_profile({"profile": "square"}, self.TG, "h3")


class TestPipelines:
    def write(self, tmp_path, payload, name="case.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return p

    def linear_payload(self):
        return minimal_payload(
            data={"g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0}},
            checks={"group_isometry": 1e-12, "kato_ratio_max": 100.0},
        )

    def test_linear_only_passes(self, tmp_path):
        path = self.write(tmp_path, self.linear_payload())
        code, summary = run_scenario(path, out_dir=tmp_path / "out")
        assert code == 0
        assert summary["pass"] is True
        assert set(summary["checks"]) == {"group_isometry", "kato_ratio_max"}
        assert (tmp_path / "out" / "summary.json").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def assert_rerun_identical(self, path, tmp_path):
        run_scenario(path, out_dir=tmp_path / "a")
        run_scenario(path, out_dir=tmp_path / "b")
        a = (tmp_path / "a" / "summary.json").read_bytes()
        b = (tmp_path / "b" / "summary.json").read_bytes()
        assert a == b

    def test_summary_deterministic(self, tmp_path):
        self.assert_rerun_identical(self.write(tmp_path, self.linear_payload()), tmp_path)

    def test_bundled_linear_summary_deterministic(self, tmp_path):
        self.assert_rerun_identical(SCENARIO_DIR / "linear_diagnostics.json", tmp_path)

    @pytest.mark.parametrize("count", [64, 63])
    def test_linear_report_spectrum_keeps_the_fft_layout(self, tmp_path, count):
        # |g_hat| on all X rows in FFT order, read off the half spectrum
        # (row min(k, X - k)); measured 2.0e-16 of the peak from the full DFT.
        grids = dict(SMALL_GRIDS, x={"origin": -10.0, "step": 20.0 / count, "count": count})
        payload = self.linear_payload()
        payload["grids"] = grids
        run_scenario(self.write(tmp_path, payload), out_dir=tmp_path / "out")
        spectrum = json.loads((tmp_path / "out" / "report.json").read_text())["spectra"]["g"]
        grid = UniformGrid(**grids["x"])
        g = datum_from_profile(payload["data"]["g"], grid, 1.0, seed=0)
        want = np.abs(full_spectrum(g.values, grid))
        assert spectrum["xi"] == np.abs(grid.frequencies).tolist()
        assert len(spectrum["magnitude"]) == count
        assert np.max(np.abs(np.array(spectrum["magnitude"]) - want)) <= 1e-13 * np.max(want)

    def test_failing_check_sets_exit_code(self, tmp_path):
        payload = self.linear_payload()
        payload["checks"] = {"group_isometry": 0.0}  # nothing is below zero
        path = self.write(tmp_path, payload)
        code, summary = run_scenario(path)
        assert code == 1
        assert summary["pass"] is False

    def test_unknown_command_refused_before_the_run(self, monkeypatch):
        # "verfy" used to run the solve pipeline and exit 0 without weak_form.
        for pipeline in scenarios._RUNNERS:
            monkeypatch.setitem(scenarios._RUNNERS, pipeline, _no_pipeline)
        path = SCENARIO_DIR / "manufactured_small.json"
        known = r"\(known: solve, verify, probe-bilinear\)"
        with pytest.raises(ScenarioError, match=rf"^unknown command 'verfy' {known}$"):
            run_scenario(path, command="verfy")

    def test_probe_pipeline(self, tmp_path):
        payload = minimal_payload(
            pipeline="probe-bilinear",
            seed=100,
            indices={**INDICES, "b": 0.45, "a": 0.0, "s": 0.0},
            probe={"ensemble": 3, "mode": "gain", "band_x": 2.0, "band_t": 8.0},
            checks={"max_ratio_bound": 1.0},
        )
        path = self.write(tmp_path, payload)
        code, summary = run_scenario(path, out_dir=tmp_path / "out", command="probe-bilinear")
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["ensemble"] == 3
        assert report["max_ratio"] > 0
        assert report["argmax_seed"] in {100, 102, 104}

    def test_seed_and_depth_override(self, tmp_path):
        payload = minimal_payload(
            pipeline="probe-bilinear",
            seed=1,
            depth=2,
            indices={**INDICES, "b": 0.45, "s": 0.0},
            probe={"ensemble": 2, "mode": "gain", "band_x": 2.0, "band_t": 8.0},
            checks={},
        )
        path = self.write(tmp_path, payload)
        _, summary = run_scenario(path, seed=9, depth=4, command="probe-bilinear")
        assert summary["seed"] == 9
        assert summary["depth"] == 4

    def test_trace_rows_follow_the_box_rule(self, tmp_path):
        # On a t grid from -0.9 at step 0.03 the zero node is -1.1e-16, and on
        # one at step 0.00375 too; the traces keep it, as the checks' box
        # does, together with the node at T = 0.15 (0.15 + 2.8e-17).
        x = SMALL_GRIDS["x"]
        solve = minimal_payload(
            pipeline="full-solve",
            T=0.15,
            grids={"x": x, "t": {"origin": -0.9, "step": 0.03, "count": 60}},
            data={"g": {"profile": "gaussian", "amplitude": 0.01}},
        )
        bump = {"profile": "bump", "t0": 0.05, "t1": 0.45, "t2": 0.5, "t3": 0.9}
        boundary = minimal_payload(
            pipeline="boundary-only",
            grids={"x": x, "t": {"origin": -0.9, "step": 0.00375, "count": 480}},
            data={"h1": bump},
        )
        for payload, T in ((solve, 0.15), (boundary, 1.0)):
            run_scenario(self.write(tmp_path, payload), out_dir=tmp_path / "out")
            traces = json.loads((tmp_path / "out" / "report.json").read_text())["traces"]
            tgrid = UniformGrid(**payload["grids"]["t"])
            rows = halfline_box(UniformGrid(**x), tgrid, T)[1]
            assert -1e-15 < tgrid.nodes[rows[0]] < 0.0
            for trace in traces.values():
                assert trace["t"] == tgrid.nodes[rows].tolist()
                assert len(trace["re"]) == len(trace["im"]) == len(rows)
        assert len(rows) == 240

    def test_boundary_only_emits_trace_plots(self, tmp_path):
        # Ramps wide enough for the 512-node grid to resolve the spectrum
        # below the truncation tolerance inside the usable band.
        payload = minimal_payload(
            pipeline="boundary-only",
            grids={
                "x": SMALL_GRIDS["x"],
                "t": {"origin": -1.0, "step": 2.0 / 512, "count": 512},
            },
            data={"h1": {"profile": "bump", "t0": 0.05, "t1": 0.45, "t2": 0.55, "t3": 0.95}},
            checks={},
        )
        path = self.write(tmp_path, payload)
        code, _ = run_scenario(path, out_dir=tmp_path / "out")
        assert code == 0
        plots = sorted(p.name for p in (tmp_path / "out" / "plots").glob("*.dat"))
        assert plots == ["trace_j0.dat", "trace_j1.dat", "trace_j2.dat"]
        first = (tmp_path / "out" / "plots" / "trace_j0.dat").read_text().splitlines()
        assert first[0].startswith("#")
        assert len(first[1].split()) == 3

    def test_manufactured_report_carries_the_oracle_halving_difference(self, tmp_path):
        # The split-step oracle's step-doubling difference is numerical
        # health: it goes to report.json only, and summary.json reruns
        # byte-identical.
        g_spec = {"profile": "gaussian", "amplitude": 0.01, "center": 2.0, "width": 3.0}
        manufactured = {"horizon": 0.75, "taper_start": 0.6}
        payload = minimal_payload(
            pipeline="full-solve", T=0.25, data={"g": g_spec, "manufactured": manufactured},
            checks={"oracle_match": 1e-5},
        )
        path = self.write(tmp_path, payload)
        self.assert_rerun_identical(path, tmp_path)
        report = json.loads((tmp_path / "a" / "report.json").read_text())
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        sc = Scenario.from_file(path)
        g = datum_from_profile(g_spec, sc.xgrid, sc.indices["s"], seed=0)
        _, _, doubling = manufactured_data(g, sc.solver_config(sc.depth), **manufactured)
        assert report["oracle_doubling_difference"] == doubling
        assert 0.0 < doubling < 1e-7
        assert "oracle_doubling_difference" not in json.dumps(summary)
        assert "halving" not in json.dumps(report)

    def test_full_solve_writes_field_csv(self, tmp_path):
        g_spec = {"profile": "gaussian", "amplitude": 0.01, "width": 2.0}
        payload = minimal_payload(
            pipeline="full-solve", data={"g": g_spec}, emit={"field_csv": True}
        )
        path = self.write(tmp_path, payload)
        code, _ = run_scenario(path, out_dir=tmp_path / "out")
        assert code == 0
        text = (tmp_path / "out" / "solution.csv").read_text()
        lines = text.splitlines()
        assert len(lines) == 64 * 64 + 1
        assert lines[0] == "x,t,re,im"
        sc = Scenario.from_file(path)
        zero = TimeSeries(sc.tgrid, np.zeros(sc.tgrid.count, dtype=complex))
        g = datum_from_profile(g_spec, sc.xgrid, sc.indices["s"], seed=0)
        cfg = sc.solver_config(sc.depth)
        result = picard_solve(SolverData(g_l=g, h1=zero, h2=zero, h3=zero), cfg)
        stream = io.StringIO()
        field_to_csv(result.u, stream)
        assert text == stream.getvalue()

    def test_field_csv_false_writes_no_field(self, tmp_path):
        g_spec = {"profile": "gaussian", "amplitude": 0.01, "width": 2.0}
        payload = minimal_payload(
            pipeline="full-solve", data={"g": g_spec}, emit={"field_csv": False}
        )
        code, _ = run_scenario(self.write(tmp_path, payload), out_dir=tmp_path / "out")
        assert code == 0
        assert (tmp_path / "out" / "summary.json").exists()
        assert not (tmp_path / "out" / "solution.csv").exists()


class TestCheckTable:
    """`_CHECKS` is the one statement of which checks exist, which pipeline
    measures each, which way passes and which only `verify` measures."""

    SOLVE_NAMES = ["compatibility", "fixed_point_residual", "contraction", "oracle_match"]
    VERIFY_NAMES = ["weak_form", "extension_independence", "smoothing_slope_gain"]

    @staticmethod
    def payload(pipeline):
        """A small scenario of `pipeline` requesting every check of its rows,
        listed in the file against table order."""
        names = [n for n, row in _CHECKS.items() if pipeline in row.pipelines]
        over = {"pipeline": pipeline, "checks": {n: 1.0 for n in reversed(names)}}
        if pipeline == "boundary-only":
            t_grid = {"origin": -1.0, "step": 2.0 / 512, "count": 512}
            over["grids"] = {"x": SMALL_GRIDS["x"], "t": t_grid}
            bump = {"profile": "bump", "t0": 0.05, "t1": 0.45, "t2": 0.55, "t3": 0.95}
            over["data"] = {"h1": bump}
        elif pipeline == "linear-only":
            over["data"] = {"g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0}}
        elif pipeline == "probe-bilinear":
            over["indices"] = {**INDICES, "b": 0.45, "s": 0.0}
            over["probe"] = {"ensemble": 2, "mode": "gain", "band_x": 2.0, "band_t": 8.0}
        else:
            g_spec = {"profile": "gaussian", "amplitude": 0.01, "center": 2.0, "width": 3.0}
            over["data"] = {"g": g_spec, "manufactured": {"horizon": 0.75, "taper_start": 0.6}}
        return minimal_payload(**over), names

    def run(self, tmp_path, pipeline, command):
        payload, names = self.payload(pipeline)
        path = tmp_path / f"{pipeline}.json"
        path.write_text(json.dumps(payload))
        _, summary = run_scenario(path, command=command)
        return list(summary["checks"]), names

    @pytest.mark.parametrize("pipeline", list(scenarios._RUNNERS))
    def test_verify_judges_every_row_in_table_order(self, tmp_path, pipeline):
        got, names = self.run(tmp_path, pipeline, "verify")
        assert names and got == names

    def test_solve_skips_the_verify_only_checks_of_a_full_solve(self, tmp_path):
        got, _ = self.run(tmp_path, "full-solve", "solve")
        assert got == self.SOLVE_NAMES
        got, _ = self.run(tmp_path, "verify-all", "solve")
        assert got == self.SOLVE_NAMES + self.VERIFY_NAMES

    def test_a_requested_check_left_unmeasured_raises(self, tmp_path, monkeypatch):
        # A runner that forgets a measurement used to drop the check from the
        # summary and exit 0.
        monkeypatch.setitem(scenarios._RUNNERS, "linear-only", lambda *args: ({}, {}, None))
        path = tmp_path / "unmeasured.json"
        path.write_text(json.dumps(minimal_payload()))
        assert run_scenario(path)[0] == 0  # nothing requested, nothing missing
        path.write_text(json.dumps(minimal_payload(checks={"group_isometry": 1e-12})))
        with pytest.raises(RuntimeError, match="did not measure the requested 'group_isometry'"):
            run_scenario(path)

    def test_readme_table_is_the_check_table(self):
        # The table is found by its header and ends at its first non-row
        # line, so other tables in the README are not read.
        readme = (SCENARIO_DIR.parent / "README.md").read_text()
        lines = [line.strip() for line in readme.splitlines()]
        start = lines.index("| check | pipelines | passes when | verify only |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            name, pipelines, passes, verify_only = (c.strip() for c in line.strip("|").split("|"))
            rows.append((
                name.strip("`"),
                tuple(p.strip("` ") for p in pipelines.split(",")),
                {"value ≥ tolerance": True, "value < tolerance": False}[passes],
                {"yes": True, "no": False}[verify_only],
            ))
        assert rows == [(name, *row) for name, row in _CHECKS.items()]


class TestCli:
    def test_exit_zero_and_prints_summary(self, tmp_path, capsys):
        payload = minimal_payload(
            data={"g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0}},
            checks={"group_isometry": 1e-12},
        )
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(payload))
        code = main(["solve", str(path)])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True

    def test_exit_four_on_internal_error(self, tmp_path, capsys, monkeypatch):
        # A runner that leaves a requested check unmeasured is a fault of the
        # harness, not a failed check (1) or a bad scenario (2).
        monkeypatch.setitem(scenarios._RUNNERS, "linear-only", lambda *args: ({}, {}, None))
        path = tmp_path / "unmeasured.json"
        path.write_text(json.dumps(minimal_payload(checks={"group_isometry": 1e-12})))
        assert main(["solve", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("internal error: the linear-only pipeline did not measure")

    def test_exit_two_on_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"name": "x"}))
        code = main(["solve", str(path)])
        assert code == 2
        assert "scenario error" in capsys.readouterr().err
        # Keys no pipeline reads are refused, not accepted and ignored.
        for payload, message in (
            (minimal_payload(emit={"traces": True}), "scenario.emit: unknown keys ['traces']"),
            (minimal_payload(probe={"refine": 2}), "scenario.probe: unknown keys ['refine']"),
        ):
            path.write_text(json.dumps(payload))
            assert main(["solve", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_exit_one_on_failed_check(self, tmp_path, capsys):
        payload = minimal_payload(
            data={"g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0}},
            checks={"group_isometry": 0.0},
        )
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 1
        capsys.readouterr()

    def test_exit_two_when_boundary_only_gets_solver_keys(self, tmp_path, capsys):
        # No pipeline reads a `solver` object: it is an unknown key, named
        # explicitly since the property tests may never draw it.
        payload = minimal_payload(pipeline="boundary-only", solver={"spectrum_tol": 1e-8})
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 2
        assert "scenario: unknown keys ['solver']" in capsys.readouterr().err

    def test_exit_two_on_unknown_check_name(self, tmp_path, capsys):
        # A misspelt check, or one another pipeline evaluates, used to be
        # dropped silently and the run reported pass.
        checks = {"group_isometry": 1e-12, "grup_isometry_typo": 1e-30, "weak_form": 1e-30}
        payload = minimal_payload(
            data={"g": {"profile": "gaussian", "amplitude": 0.05, "width": 2.0}}, checks=checks
        )
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 2
        assert "scenario.checks.grup_isometry_typo" in capsys.readouterr().err
        # The probe-bilinear command forces its own pipeline and its own names.
        payload["checks"] = {"group_isometry": 1e-12}
        path.write_text(json.dumps(payload))
        assert main(["probe-bilinear", str(path)]) == 2
        assert "probe-bilinear pipeline evaluates no such check" in capsys.readouterr().err

    def test_exit_two_names_a_bad_horizon_by_its_path(self, tmp_path, capsys):
        path = tmp_path / "horizon.json"
        path.write_text(json.dumps(minimal_payload(pipeline="full-solve", T=0.7)))
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenario error: scenario.T: horizon T must lie in (0, 1/2], got 0.7" in err

    def test_exit_two_on_oracle_match_without_manufactured_data(self, tmp_path, capsys):
        payload = minimal_payload(pipeline="full-solve", checks={"oracle_match": 1e-5})
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 2
        assert "scenario.checks.oracle_match" in capsys.readouterr().err

    # Whatever the pipeline and the command, a `solver` object is refused
    # before any run.
    @pytest.mark.parametrize(
        "pipeline, command, runs",
        [("linear-only", "solve", "linear-only"), ("full-solve", "probe-bilinear", "probe-bilinear")],
    )
    def test_exit_two_when_a_fixed_pipeline_gets_solver_keys(
        self, tmp_path, capsys, monkeypatch, pipeline, command, runs
    ):
        payload = minimal_payload(pipeline=pipeline, solver={"max_iter": 3})
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(payload))
        monkeypatch.setitem(scenarios._RUNNERS, runs, _no_pipeline)
        assert main([command, str(path)]) == 2
        assert "scenario: unknown keys ['solver']" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seed", "--depth"])
    def test_negative_override_exits_2_before_the_run(self, capsys, monkeypatch, flag):
        # --depth -3 used to fail inside gamma_panel_edges after the
        # boundary-only pipeline had started.
        monkeypatch.setitem(scenarios._RUNNERS, "boundary-only", _no_pipeline)
        path = str(SCENARIO_DIR / "boundary_traces.json")
        assert main(["solve", path, flag, "-3"]) == 2
        assert f"scenario error: {flag}: expected a non-negative" in capsys.readouterr().err

    def test_seed_flag(self, tmp_path, capsys):
        payload = minimal_payload(
            pipeline="probe-bilinear",
            indices={**INDICES, "b": 0.45, "s": 0.0},
            probe={"ensemble": 2, "mode": "gain", "band_x": 2.0, "band_t": 8.0},
        )
        path = tmp_path / "probe.json"
        path.write_text(json.dumps(payload))
        code = main(["probe-bilinear", str(path), "--seed", "123"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 123


class TestBundledScenarios:
    def test_all_parse(self):
        files = sorted(SCENARIO_DIR.glob("*.json"))
        assert len(files) == 6
        for f in files:
            sc = Scenario.from_file(f)
            assert sc.pipeline in (
                "boundary-only",
                "linear-only",
                "full-solve",
                "verify-all",
                "probe-bilinear",
            )

    def test_checks_known_to_their_pipeline(self):
        for f in sorted(SCENARIO_DIR.glob("*.json")):
            sc = Scenario.from_file(f)
            assert all(sc.pipeline in _CHECKS[name].pipelines for name in sc.checks), f.name

    def test_initial_vanishing_probe_keeps_its_values(self, tmp_path):
        # Pins the probe's quadrature choices (t_span 1.0, 2 nodes per panel,
        # radius at 1e-12 of the peak, depths d and d + 1) against silent
        # drift.  The values were measured while the probe still transformed
        # its data by direct summation; moving it onto the stored table of
        # the rows t >= 0 moved them by at most 7.4e-11 relative (the ratio),
        # so rtol 1e-9 is about 13 times that move.
        code, _ = run_scenario(SCENARIO_DIR / "boundary_traces.json", out_dir=tmp_path)
        assert code == 0
        probe = json.loads((tmp_path / "report.json").read_text())["initial_vanishing"]
        np.testing.assert_allclose(
            probe["maxima"], [1.6160393392605324e-05, 8.4427148237492686e-07], rtol=1e-9, atol=0
        )
        np.testing.assert_allclose(probe["ratio"], 19.141228538415518, rtol=1e-9, atol=0)

    def test_solver_configs_valid(self):
        for f in sorted(SCENARIO_DIR.glob("*.json")):
            sc = Scenario.from_file(f)
            if sc.pipeline in ("full-solve", "verify-all"):
                cfg = sc.solver_config(sc.depth)
                assert cfg.T > 0
