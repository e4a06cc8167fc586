"""Scenario schema validation, pipeline execution, artifacts, CLI exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from kdv5half.cli import main
from kdv5half.fixed_point import SolverConfig, SolverData, picard_solve
from kdv5half.grids import TimeSeries, UniformGrid, field_to_csv
from kdv5half.scenarios import (
    _PIPELINE_CHECKS,
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
            sc.solver_config()

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
        bad = {"manufactured": {"steps_per_node": 2.5}}
        with pytest.raises(ScenarioError, match=r"manufactured\.steps_per_node: expected a positive"):
            Scenario.from_payload(minimal_payload(data=bad))

    @pytest.mark.parametrize(
        "solver, path",
        [({"fp_tol": "abc"}, "fp_tol"), ({"max_iter": [1]}, "max_iter"), ({"max_iter": 2.5}, "max_iter")],
    )
    def test_solver_values_named_by_their_path(self, tmp_path, capsys, solver, path):
        payload = minimal_payload(pipeline="full-solve", solver=solver)
        with pytest.raises(ScenarioError, match=rf"^scenario\.solver\.{path}: expected"):
            Scenario.from_payload(payload)
        # [1] used to escape as a raw TypeError, which the CLI maps to exit 1.
        file = tmp_path / "solver.json"
        file.write_text(json.dumps(payload))
        assert main(["solve", str(file)]) == 2
        assert f"scenario.solver.{path}" in capsys.readouterr().err

    def test_solver_config_takes_parsed_values_and_its_own_defaults(self):
        payload = minimal_payload(pipeline="full-solve", solver={"max_iter": 3.0, "collar": 3})
        cfg = Scenario.from_payload(payload).solver_config()
        assert cfg.max_iter == 3 and isinstance(cfg.max_iter, int)
        assert cfg.collar == 3.0 and isinstance(cfg.collar, float)
        defaults = SolverConfig(
            xgrid=cfg.xgrid, tgrid=cfg.tgrid, s=cfg.s, b=cfg.b, bstar=cfg.bstar, alpha=cfg.alpha, T=cfg.T
        )
        assert (cfg.fp_tol, cfg.spectrum_tol) == (defaults.fp_tol, defaults.spectrum_tol)

    def test_invalid_json_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"name": "x", ')
        with pytest.raises(ScenarioError, match="invalid JSON at line"):
            Scenario.from_file(p)


class TestProfiles:
    XG = UniformGrid(-10.0, 20.0 / 64, 64)
    TG = UniformGrid(-1.0, 2.0 / 64, 64)

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
        from kdv5half.spectral import x_spectrum

        s = 0.3
        rough = datum_from_profile(
            {"profile": "rough_tail", "amplitude": 0.1, "band_fraction": 0.75},
            UniformGrid(-40.0, 80.0 / 1024, 1024),
            s,
            seed=7,
        )
        freqs, mags = np.abs(rough.grid.frequencies), np.abs(x_spectrum(rough.values, rough.grid))
        mask = (freqs > 2.0) & (freqs < 20.0) & (mags > 0)
        slope = np.polyfit(np.log1p(freqs[mask]), np.log(mags[mask]), 1)[0]
        assert slope == pytest.approx(-(s + 0.55), abs=0.1)

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

    def test_failing_check_sets_exit_code(self, tmp_path):
        payload = self.linear_payload()
        payload["checks"] = {"group_isometry": 0.0}  # nothing is below zero
        path = self.write(tmp_path, payload)
        code, summary = run_scenario(path)
        assert code == 1
        assert summary["pass"] is False

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
        result = picard_solve(SolverData(g_l=g, h1=zero, h2=zero, h3=zero), sc.solver_config())
        assert text == field_to_csv(result.u)


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
        # Boundary-only thresholds are fixed; a solver key must be refused,
        # not silently ignored.
        payload = minimal_payload(pipeline="boundary-only", solver={"spectrum_tol": 1e-8})
        path = tmp_path / "capped.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 2
        assert "reads no solver keys" in capsys.readouterr().err

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

    def test_exit_two_on_oracle_match_without_manufactured_data(self, tmp_path, capsys):
        payload = minimal_payload(pipeline="full-solve", checks={"oracle_match": 1e-5})
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(payload))
        assert main(["solve", str(path)]) == 2
        assert "scenario.checks.oracle_match" in capsys.readouterr().err

    # The probe-bilinear command runs the probe whatever the file's pipeline,
    # so a full-solve file's solver keys would go unread there too.
    @pytest.mark.parametrize(
        "pipeline, command, runs",
        [("linear-only", "solve", "linear-only"), ("full-solve", "probe-bilinear", "probe-bilinear")],
    )
    def test_exit_two_when_a_fixed_pipeline_gets_solver_keys(
        self, tmp_path, capsys, pipeline, command, runs
    ):
        payload = minimal_payload(pipeline=pipeline, solver={"max_iter": 3})
        path = tmp_path / "solver.json"
        path.write_text(json.dumps(payload))
        assert main([command, str(path)]) == 2
        assert f"{runs} pipeline reads no solver keys" in capsys.readouterr().err

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
            assert set(sc.checks) <= set(_PIPELINE_CHECKS[sc.pipeline]), f.name

    def test_solver_configs_valid(self):
        for f in sorted(SCENARIO_DIR.glob("*.json")):
            sc = Scenario.from_file(f)
            if sc.pipeline in ("full-solve", "verify-all"):
                cfg = sc.solver_config()
                assert cfg.T > 0
