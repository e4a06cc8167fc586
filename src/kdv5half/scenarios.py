"""Scenario files: a single JSON document drives every pipeline run.

A scenario names its grids, norm indices, data profiles, quadrature depth,
and the checks (with tolerances) it wants evaluated; the runner never applies
a threshold that is not spelled out in the file.  Unknown keys anywhere in
the document, malformed values and check names the pipeline does not
evaluate are rejected with the offending path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boundary import (
    _X_BLOCK,
    BoundaryPotential,
    BoundaryQuadrature,
    boundary_potential_traces,
    truncation_radius,
)
from .bourgain import bilinear_ratio, seeded_band_limited_field
from .cutoffs import check_compatibility, extend_initial_datum, right_bump, zero_extend_time
from .fixed_point import SolverConfig, SolverData, picard_solve
from .grids import GridFunction, TimeSeries, UniformGrid, canonical_json, field_to_csv
from .propagator import PropagatorPlan, apply_group, free_field, kato_smoothing_ratio
from .spectral import BAND_CAP, field_l2_norm, sobolev_norm, x_spectrum, x_values
from .verification import (
    _halfline_box,
    extension_independence,
    manufactured_data,
    pde_residual,
    smoothing_report,
    weak_form_residual,
)

__all__ = ["ScenarioError", "Scenario", "run_scenario", "emit_plots"]


class ScenarioError(ValueError):
    """Scenario file failed validation; the message carries the JSON path."""


def _check_keys(d: dict, path: str, required: tuple, optional: tuple = ()) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(d) - set(required) - set(optional))
    if unknown:
        raise ScenarioError(f"{path}: unknown keys {unknown}")
    missing = sorted(set(required) - set(d))
    if missing:
        raise ScenarioError(f"{path}: missing keys {missing}")


def _number(value, path: str, integral: bool = False, positive: bool = False):
    """A finite JSON number (a whole one when `integral`), else ScenarioError at `path`."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    ok = ok and (not integral or float(value).is_integer()) and (not positive or value > 0)
    if not ok:
        want = ("a positive " if positive else "a ") + ("whole number" if integral else "number")
        raise ScenarioError(f"{path}: expected {want}, got {value!r}")
    return int(value) if integral else float(value)


def _positive_numbers(d: dict, path: str, kinds: dict) -> dict:
    """The entries of d named in `kinds` (key -> integral), cast as positive numbers."""
    return {
        k: _number(v, f"{path}.{k}", kinds[k], positive=True) for k, v in d.items() if k in kinds
    }


def _grid_from(d: dict, path: str) -> UniformGrid:
    _check_keys(d, path, required=("origin", "step", "count"))
    origin = _number(d["origin"], f"{path}.origin")
    step = _number(d["step"], f"{path}.step", positive=True)
    count = _number(d["count"], f"{path}.count", integral=True, positive=True)
    try:
        return UniformGrid(origin=origin, step=step, count=count)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# Profile names and numeric keys of the datum g and of the boundary series h1-h3.
_PROFILES = {
    "g": (("zero", "gaussian", "rough_tail"), ("amplitude", "center", "width", "band_fraction")),
    "h": (
        ("zero", "bump", "gaussian_pulse"),
        ("amplitude", "t0", "t1", "t2", "t3", "center", "width"),
    ),
}
_EXTENSIONS = ("none", "auto", "zero", "reflection")


def _check_profile(spec, label: str) -> None:
    """Validate the profile spec of data.g or data.h1-h3."""
    path = f"scenario.data.{label}"
    profiles, numeric = _PROFILES[label[0]]
    extra = ("extension",) if label == "g" else ()
    _check_keys(spec, path, required=("profile",), optional=numeric + extra)
    if spec["profile"] not in profiles:
        raise ScenarioError(f"{path}.profile: unknown profile {spec['profile']!r}")
    for key in numeric:
        if key in spec:
            _number(spec[key], f"{path}.{key}")
    if spec.get("extension", "none") not in _EXTENSIONS:
        raise ScenarioError(f"{path}.extension: {spec['extension']!r} not one of {_EXTENSIONS}")


# Numeric keys of three scenario objects, each mapped to whether it is a whole
# number; SolverConfig holds the solver defaults.
_SOLVER_KEYS = {"fp_tol": False, "max_iter": True, "collar": False, "spectrum_tol": False}
_MANUFACTURED_KEYS = {"steps_per_node": True, "horizon": False, "taper_start": False}
_PROBE_KEYS = {"ensemble": True, "band_x": False, "band_t": False}
_SOLVE_CHECKS = ("compatibility", "fixed_point_residual", "contraction", "oracle_match",
                 "weak_form", "extension_independence", "smoothing_slope_gain")
# The check names each pipeline evaluates (the verification-only ones of a
# full-solve are skipped under `solve`); any other name is refused.
_PIPELINE_CHECKS = {
    "boundary-only": ("trace_error", "initial_vanishing_ratio"),
    "linear-only": ("group_isometry", "interior_residual_free", "kato_ratio_max"),
    "full-solve": _SOLVE_CHECKS,
    "verify-all": _SOLVE_CHECKS,
    "probe-bilinear": ("max_ratio_bound",),
}
_PIPELINES = tuple(_PIPELINE_CHECKS)


@dataclass(frozen=True)
class Scenario:
    name: str
    pipeline: str
    seed: int
    xgrid: UniformGrid
    tgrid: UniformGrid
    indices: dict
    T: float
    depth: int
    solver: dict
    data: dict
    checks: dict
    probe: dict
    emit: dict = field(default_factory=dict)

    @classmethod
    def from_payload(cls, payload: dict) -> "Scenario":
        _check_keys(
            payload,
            "scenario",
            required=("name", "pipeline", "grids", "indices", "checks"),
            optional=("seed", "T", "depth", "solver", "data", "probe", "emit"),
        )
        if payload["pipeline"] not in _PIPELINES:
            raise ScenarioError(
                f"scenario.pipeline: {payload['pipeline']!r} not one of {_PIPELINES}"
            )
        _check_keys(payload["grids"], "scenario.grids", required=("x", "t"))
        xgrid = _grid_from(payload["grids"]["x"], "scenario.grids.x")
        tgrid = _grid_from(payload["grids"]["t"], "scenario.grids.t")
        _check_keys(
            payload["indices"],
            "scenario.indices",
            required=("s", "b", "bstar", "alpha"),
            optional=("a",),
        )
        indices = {k: _number(v, f"scenario.indices.{k}") for k, v in payload["indices"].items()}
        solver = payload.get("solver", {})
        _check_keys(solver, "scenario.solver", required=(), optional=tuple(_SOLVER_KEYS))
        solver = _positive_numbers(solver, "scenario.solver", _SOLVER_KEYS)
        checks = payload.get("checks", {})
        if not isinstance(checks, dict):
            raise ScenarioError("scenario.checks: expected an object of name -> tolerance")
        checks = {k: _number(v, f"scenario.checks.{k}") for k, v in checks.items()}
        data = payload.get("data", {})
        _check_keys(
            data,
            "scenario.data",
            required=(),
            optional=("g", "h1", "h2", "h3", "manufactured"),
        )
        if "manufactured" in data and any(k in data for k in ("h1", "h2", "h3")):
            raise ScenarioError(
                "scenario.data: manufactured data and explicit h profiles are mutually exclusive"
            )
        for label in ("g", "h1", "h2", "h3"):
            if label in data:
                _check_profile(data[label], label)
        if "manufactured" in data:
            path = "scenario.data.manufactured"
            _check_keys(data["manufactured"], path, required=(), optional=tuple(_MANUFACTURED_KEYS))
            # Kept as cast for _run_solve; a key left out takes manufactured_data's default.
            manufactured = _positive_numbers(data["manufactured"], path, _MANUFACTURED_KEYS)
            data = {**data, "manufactured": manufactured}
        probe = payload.get("probe", {})
        _check_keys(
            probe,
            "scenario.probe",
            required=(),
            optional=("ensemble", "mode", "band_x", "band_t"),
        )
        _positive_numbers(probe, "scenario.probe", _PROBE_KEYS)
        if probe.get("mode", "gain") not in ("gain", "auxiliary"):
            raise ScenarioError(f"scenario.probe.mode: {probe['mode']!r} is not gain or auxiliary")
        emit = payload.get("emit", {})
        _check_keys(emit, "scenario.emit", required=(), optional=("field_csv",))
        return cls(
            name=str(payload["name"]),
            pipeline=payload["pipeline"],
            seed=_number(payload.get("seed", 0), "scenario.seed", integral=True),
            xgrid=xgrid,
            tgrid=tgrid,
            indices=indices,
            T=_number(payload.get("T", 0.25), "scenario.T"),
            depth=_number(payload.get("depth", 2), "scenario.depth", integral=True),
            solver=solver,
            data=dict(data),
            checks=checks,
            probe=dict(probe),
            emit=dict(emit),
        )

    @classmethod
    def from_file(cls, path) -> "Scenario":
        try:
            payload = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        return cls.from_payload(payload)

    def solver_config(self, depth: int | None = None) -> SolverConfig:
        try:
            return SolverConfig(
                xgrid=self.xgrid,
                tgrid=self.tgrid,
                s=self.indices["s"],
                b=self.indices["b"],
                bstar=self.indices["bstar"],
                alpha=self.indices["alpha"],
                T=self.T,
                depth=depth if depth is not None else self.depth,
                **self.solver,
            )
        except ValueError as exc:
            raise ScenarioError(f"scenario.indices: {exc}") from exc


# ---------------------------------------------------------------------------
# Data profile builders.
# ---------------------------------------------------------------------------

def _rough_tail_datum(grid: UniformGrid, s: float, amplitude: float, seed: int, band_fraction: float) -> GridFunction:
    """Real datum with |g_hat(xi)| proportional to <xi>^-(s+0.55): in H^s, barely."""
    rng = np.random.default_rng(seed)
    n = grid.count
    freqs = grid.frequencies
    band = band_fraction * grid.nyquist
    coeffs = np.zeros(n, dtype=np.complex128)
    half = n // 2
    for k in range(1, half):
        if abs(freqs[k]) > band:
            continue
        mag = (1.0 + abs(freqs[k])) ** (-(s + 0.55))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeffs[k] = mag * np.exp(1j * phase)
        coeffs[n - k] = np.conj(coeffs[k])
    coeffs[0] = 1.0
    vals = x_values(coeffs, grid).real.astype(np.complex128)
    peak = float(np.max(np.abs(vals)))
    return GridFunction(grid, vals * (amplitude / peak))


def datum_from_profile(spec: dict, grid: UniformGrid, s: float, seed: int) -> GridFunction:
    _check_profile(spec, "g")
    profile = spec["profile"]
    amplitude = float(spec.get("amplitude", 1.0))
    nodes = grid.nodes
    if profile == "zero":
        vals = np.zeros(grid.count, dtype=np.complex128)
    elif profile == "gaussian":
        center = float(spec.get("center", 0.0))
        width = float(spec.get("width", 2.0))
        vals = amplitude * np.exp(-(((nodes - center) / width) ** 2)).astype(np.complex128)
    else:  # rough_tail
        return _rough_tail_datum(grid, s, amplitude, seed, float(spec.get("band_fraction", 0.6)))
    return GridFunction(grid, vals)


def boundary_from_profile(spec: dict, tgrid: UniformGrid, label: str) -> TimeSeries:
    _check_profile(spec, label)
    profile = spec["profile"]
    amplitude = float(spec.get("amplitude", 1.0))
    nodes = tgrid.nodes
    if profile == "zero":
        vals = np.zeros(tgrid.count, dtype=np.complex128)
    elif profile == "bump":
        t0 = float(spec.get("t0", 0.05))
        t1 = float(spec.get("t1", 0.15))
        t2 = float(spec.get("t2", 0.45))
        t3 = float(spec.get("t3", 0.6))
        vals = amplitude * right_bump(nodes, t0, t1, t2, t3).astype(np.complex128)
    else:  # gaussian_pulse
        center = float(spec.get("center", 0.3))
        width = float(spec.get("width", 0.08))
        vals = amplitude * np.exp(-(((nodes - center) / width) ** 2))
        vals = (vals * (nodes > 0)).astype(np.complex128)
    return TimeSeries(tgrid, vals)


def _build_datum(scenario: Scenario, seed: int) -> GridFunction:
    g_spec = scenario.data.get("g", {"profile": "zero"})
    g = datum_from_profile(g_spec, scenario.xgrid, scenario.indices["s"], seed)
    extension = g_spec.get("extension", "none")
    if extension == "none":
        return g
    return extend_initial_datum(g, scenario.indices["s"], method=extension)


def _build_boundary(scenario: Scenario) -> tuple:
    out = []
    for label in ("h1", "h2", "h3"):
        spec = scenario.data.get(label, {"profile": "zero"})
        out.append(zero_extend_time(boundary_from_profile(spec, scenario.tgrid, label)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Pipelines.
# ---------------------------------------------------------------------------

def _summary_entry(value: float, tolerance: float, larger_is_better: bool = False) -> dict:
    ok = value >= tolerance if larger_is_better else value < tolerance
    return {"value": float(value), "tolerance": float(tolerance), "pass": bool(ok)}


def _run_boundary_only(scenario: Scenario, seed: int, depth: int) -> dict:
    h1, h2, h3 = _build_boundary(scenario)
    report: dict = {"traces": {}}
    trace_error = 0.0
    data_series = (h1, h2, h3)
    tnodes = scenario.tgrid.nodes
    plateau = (tnodes >= 0.0) & (tnodes <= 1.0)
    # One scale for all three channels: zero channels are judged against the
    # driving channel's amplitude, not against themselves.
    scale = max(max(float(np.max(np.abs(d.values))) for d in data_series), 1e-300)
    traces = boundary_potential_traces(h1, h2, h3, depth=depth)
    for j, (tr, h) in enumerate(zip(traces, data_series)):
        err = float(np.max(np.abs(tr.values[plateau] - h.values[plateau]))) / scale
        trace_error = max(trace_error, err)
        report["traces"][f"j{j}"] = {
            "t": tnodes[plateau].tolist(),
            "re": tr.values[plateau].real.tolist(),
            "im": tr.values[plateau].imag.tolist(),
            "relative_error": err,
        }
    checks = {}
    if "trace_error" in scenario.checks:
        checks["trace_error"] = _summary_entry(trace_error, scenario.checks["trace_error"])
    if "initial_vanishing_ratio" in scenario.checks:
        cap = BAND_CAP * scenario.tgrid.nyquist
        radius, _, _ = truncation_radius((h1, h2, h3), 1e-12, cap)
        xs = scenario.xgrid.nodes[scenario.xgrid.nodes > 0.5]
        maxima = []
        # Coarse panels (2 Gauss-Legendre nodes) expose the per-depth decay;
        # at the default 8 the quadrature is already converged at depth 0 and
        # the maxima sit on the spectral-tail floor with no room to fall.
        for d in (depth, depth + 1):
            quad = BoundaryQuadrature.build(
                radius, d, t_span=1.0, x_span=float(xs.max()), nodes_per_panel=2
            )
            pot = BoundaryPotential(quad, h1, h2, h3)
            maxima.append(
                max(
                    float(np.max(np.abs(pot.field_values(xs[i : i + _X_BLOCK], [0.0]))))
                    for i in range(0, len(xs), _X_BLOCK)
                )
            )
        ratio = maxima[0] / max(maxima[1], 1e-300)
        report["initial_vanishing"] = {"maxima": maxima, "ratio": ratio}
        checks["initial_vanishing_ratio"] = _summary_entry(
            ratio, scenario.checks["initial_vanishing_ratio"], larger_is_better=True
        )
    report["checks"] = checks
    return report


def _run_linear_only(scenario: Scenario, seed: int, depth: int) -> dict:
    g = _build_datum(scenario, seed)
    plan = PropagatorPlan(scenario.xgrid)
    s = scenario.indices["s"]
    report: dict = {}
    checks = {}
    if "group_isometry" in scenario.checks:
        evolved = apply_group(g, 0.37, plan)
        base = sobolev_norm(g, s)
        drift = abs(sobolev_norm(evolved, s) - base) / max(base, 1e-300)
        checks["group_isometry"] = _summary_entry(drift, scenario.checks["group_isometry"])
        report["group_isometry_drift"] = drift
    if "interior_residual_free" in scenario.checks:
        field_ = free_field(g, scenario.tgrid, plan)
        value = pde_residual(field_, stencil_order=6)
        checks["interior_residual_free"] = _summary_entry(
            value, scenario.checks["interior_residual_free"]
        )
        report["interior_residual_free"] = value
    if "kato_ratio_max" in scenario.checks:
        ratios = {
            f"s={s:g},j={j}": ratio
            for j, ratio in enumerate(kato_smoothing_ratio(g, s, scenario.tgrid, plan))
        }
        worst = max(ratios.values())
        checks["kato_ratio_max"] = _summary_entry(worst, scenario.checks["kato_ratio_max"])
        report["kato_ratios"] = ratios
    report["spectra"] = {
        "g": {
            "xi": np.abs(g.grid.frequencies).tolist(),
            "magnitude": np.abs(x_spectrum(g.values, g.grid)).tolist(),
        }
    }
    report["checks"] = checks
    return report


def _run_solve(scenario: Scenario, seed: int, depth: int, with_verification: bool) -> dict:
    cfg = scenario.solver_config(depth)
    report: dict = {}
    checks: dict = {}
    oracle = None
    if "manufactured" in scenario.data:
        g_l = _build_datum(scenario, seed)
        data, oracle, stride = manufactured_data(g_l, cfg, **scenario.data["manufactured"])
    else:
        g_l = _build_datum(scenario, seed)
        h1, h2, h3 = _build_boundary(scenario)
        data, stride = SolverData(g_l=g_l, h1=h1, h2=h2, h3=h3), None

    compat = check_compatibility(data.g_l, data.h1, data.h2, data.h3, cfg.s)
    report["compatibility"] = compat.to_payload()
    if "compatibility" in scenario.checks:
        worst_gap = max(compat.measured_gaps) if compat.measured_gaps else 0.0
        checks["compatibility"] = _summary_entry(worst_gap, scenario.checks["compatibility"])

    result = picard_solve(data, cfg)
    report["iteration"] = result.trace.to_payload()
    report["diagnostics"] = {
        k: v for k, v in result.diagnostics.items() if not isinstance(v, np.ndarray)
    }
    if "fixed_point_residual" in scenario.checks:
        checks["fixed_point_residual"] = _summary_entry(
            result.trace.residual, scenario.checks["fixed_point_residual"]
        )
    if "contraction" in scenario.checks:
        late = result.trace.factors[1:] or [0.0]
        checks["contraction"] = _summary_entry(max(late), scenario.checks["contraction"])
    if "oracle_match" in scenario.checks:
        x_sel, t_sel = _halfline_box(scenario.xgrid, scenario.tgrid, cfg.T)
        i0 = scenario.tgrid.index_of(0.0)
        oracle_cols = (t_sel - i0) * stride
        diff = result.u.values[np.ix_(x_sel, t_sel)] - oracle.values[np.ix_(x_sel, oracle_cols)]
        dist = float(
            np.sqrt(np.sum(np.abs(diff) ** 2) * scenario.xgrid.step * scenario.tgrid.step)
        )
        report["oracle_distance"] = dist
        checks["oracle_match"] = _summary_entry(dist, scenario.checks["oracle_match"])
    if with_verification and "weak_form" in scenario.checks:
        value = weak_form_residual(
            result.u, data.g_l, data.h1, data.h2, data.h3, cfg.T
        )
        report["weak_form_residual"] = value
        checks["weak_form"] = _summary_entry(value, scenario.checks["weak_form"])
    if with_verification and "extension_independence" in scenario.checks:
        ext = extension_independence(
            _build_datum(scenario, seed), (data.h1, data.h2, data.h3), cfg
        )
        report["extension_independence"] = {
            "runs": list(ext.runs),
            "max_distance": ext.max_distance,
        }
        checks["extension_independence"] = _summary_entry(
            ext.max_distance, scenario.checks["extension_independence"]
        )
    if with_verification and "smoothing_slope_gain" in scenario.checks:
        a = scenario.indices.get("a", 0.0)
        rows = smoothing_report(result, cfg, [a])
        report["smoothing"] = rows
        gain = rows[0]["slope_gain"]
        checks["smoothing_slope_gain"] = _summary_entry(
            gain, scenario.checks["smoothing_slope_gain"], larger_is_better=True
        )
    report["norms"] = {
        "solution_l2": field_l2_norm(result.u),
        "nonlinear_l2": field_l2_norm(result.nonlinear),
    }
    report["traces"] = {}
    tnodes = scenario.tgrid.nodes
    window = (tnodes >= 0.0) & (tnodes <= cfg.T)
    for p, label in zip(result.traces, ("j0", "j1", "j2")):
        # The traces of the real problem are real; `im` stays, all zeros, so
        # readers of the trace format keep working.
        report["traces"][label] = {
            "t": tnodes[window].tolist(),
            "re": p[window].tolist(),
            "im": np.zeros(int(window.sum())).tolist(),
        }
    report["checks"] = checks
    report["_solution"] = result
    return report


def _run_probe(scenario: Scenario, seed: int, depth: int) -> dict:
    probe = scenario.probe
    ensemble = int(probe.get("ensemble", 100))
    mode = probe.get("mode", "gain")
    band_x = float(probe.get("band_x", 0.3 * scenario.xgrid.nyquist))
    band_t = float(probe.get("band_t", 0.3 * scenario.tgrid.nyquist))
    s, b = scenario.indices["s"], scenario.indices["b"]
    a = scenario.indices.get("a", 0.0)
    ratios = []
    for i in range(ensemble):
        v = seeded_band_limited_field(scenario.xgrid, scenario.tgrid, band_x, band_t, seed + 2 * i)
        w = seeded_band_limited_field(
            scenario.xgrid, scenario.tgrid, band_x, band_t, seed + 2 * i + 1
        )
        ratios.append(bilinear_ratio(v, w, s, b, a, mode=mode))
    ratios = np.asarray(ratios)
    argmax = int(np.argmax(ratios))
    report = {
        "indices": {"s": s, "b": b, "a": a},
        "mode": mode,
        "ensemble": ensemble,
        "band_x": band_x,
        "band_t": band_t,
        "max_ratio": float(ratios.max()),
        "mean_ratio": float(ratios.mean()),
        "argmax_seed": seed + 2 * argmax,
        "grids": {
            "x": {"origin": scenario.xgrid.origin, "step": scenario.xgrid.step, "count": scenario.xgrid.count},
            "t": {"origin": scenario.tgrid.origin, "step": scenario.tgrid.step, "count": scenario.tgrid.count},
        },
    }
    checks = {}
    if "max_ratio_bound" in scenario.checks:
        checks["max_ratio_bound"] = _summary_entry(
            float(ratios.max()), scenario.checks["max_ratio_bound"]
        )
    report["checks"] = checks
    return report


def emit_plots(report: dict, outdir: Path) -> list:
    """Write gnuplot-ready whitespace-column .dat files for report sections."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for label, tr in report.get("traces", {}).items():
        path = outdir / f"trace_{label}.dat"
        lines = ["# t re im"]
        for t, re_v, im_v in zip(tr["t"], tr["re"], tr["im"]):
            lines.append(f"{t:.17g} {re_v:.17g} {im_v:.17g}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    for label, sp in report.get("spectra", {}).items():
        path = outdir / f"spectrum_{label}.dat"
        lines = ["# xi magnitude"]
        for xi, mag in zip(sp["xi"], sp["magnitude"]):
            lines.append(f"{xi:.17g} {mag:.17g}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    for row in report.get("smoothing", []):
        path = outdir / f"smoothing_a{row['a']:g}.dat"
        lines = ["# band_cap linear_norm nonlinear_norm"]
        for cap, lin, nl in zip(
            row["band_caps"], row["band_norms_linear"], row["band_norms_nonlinear"]
        ):
            lines.append(f"{cap:.17g} {lin:.17g} {nl:.17g}")
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written


def run_scenario(
    path,
    out_dir=None,
    seed: int | None = None,
    depth: int | None = None,
    command: str = "solve",
) -> tuple:
    """Execute a scenario file; returns (exit_code, summary dict).

    exit code 0 iff validation passed and every requested check passed.
    Artifacts (summary.json, report.json, plot data, CSV fields) go to
    out_dir when given.
    """
    scenario = Scenario.from_file(path)
    run_seed = scenario.seed if seed is None else int(seed)
    run_depth = scenario.depth if depth is None else int(depth)
    pipeline = scenario.pipeline
    if command == "probe-bilinear":
        pipeline = "probe-bilinear"
    if scenario.solver and pipeline in ("boundary-only", "linear-only", "probe-bilinear"):
        # These pipelines have fixed thresholds; a solver key would be silently ignored.
        raise ScenarioError(f"scenario.solver: the {pipeline} pipeline reads no solver keys")
    # A check the pipeline does not evaluate would otherwise be dropped silently.
    for name in scenario.checks:
        if name not in _PIPELINE_CHECKS[pipeline]:
            raise ScenarioError(
                f"scenario.checks.{name}: the {pipeline} pipeline evaluates no such check "
                f"(known: {', '.join(_PIPELINE_CHECKS[pipeline])})"
            )
    if "oracle_match" in scenario.checks and "manufactured" not in scenario.data:
        raise ScenarioError("scenario.checks.oracle_match: needs data.manufactured for its oracle")
    if pipeline == "boundary-only":
        report = _run_boundary_only(scenario, run_seed, run_depth)
    elif pipeline == "linear-only":
        report = _run_linear_only(scenario, run_seed, run_depth)
    elif pipeline == "full-solve":
        report = _run_solve(scenario, run_seed, run_depth, with_verification=command == "verify")
    elif pipeline == "verify-all":
        report = _run_solve(scenario, run_seed, run_depth, with_verification=True)
    elif pipeline == "probe-bilinear":
        report = _run_probe(scenario, run_seed, run_depth)
    else:  # pragma: no cover - from_payload already rejects
        raise ScenarioError(f"unknown pipeline {pipeline!r}")

    solution = report.pop("_solution", None)
    checks = report.get("checks", {})
    summary = {
        "name": scenario.name,
        "pipeline": pipeline,
        "seed": run_seed,
        "depth": run_depth,
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks.values()) if checks else True,
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(canonical_json(summary, indent=2) + "\n")
        (out / "report.json").write_text(canonical_json(report, indent=2) + "\n")
        emit_plots(report, out / "plots")
        if solution is not None and scenario.emit.get("field_csv", False):
            with open(out / "solution.csv", "w") as stream:
                field_to_csv(solution.u, stream)
    return (0 if summary["pass"] else 1), summary
