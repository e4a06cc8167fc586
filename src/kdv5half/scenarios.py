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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .boundary import (
    BoundaryPotential,
    BoundaryQuadrature,
    boundary_potential_traces,
    truncation_radius,
)
from .bourgain import bilinear_ratio, seeded_band_limited_field
from .cutoffs import check_compatibility, extend_initial_datum, right_bump, zero_extend_time
from .fixed_point import SPECTRUM_TOL, SolverConfig, SolverData, picard_solve
from .grids import GridFunction, TimeSeries, UniformGrid, canonical_json, field_to_csv
from .propagator import PropagatorPlan, apply_group, free_field, kato_smoothing_ratio
from .spectral import BAND_CAP, field_l2_norm, sobolev_norm, x_half_spectrum, x_half_values
from .verification import (
    HarnessError,
    extension_independence,
    manufactured_data,
    oracle_distance,
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


def _count(value, path: str) -> int:
    """A non-negative whole number (a seed or a quadrature depth), else ScenarioError at `path`."""
    n = _number(value, path, integral=True)
    if n < 0:
        raise ScenarioError(f"{path}: expected a non-negative whole number, got {value!r}")
    return n


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


# The numeric keys each profile reads, with their defaults: data.g names a
# datum profile, data.h1-h3 a boundary profile.
_PROFILES = {
    "g": {
        "zero": {},
        "gaussian": {"amplitude": 1.0, "center": 0.0, "width": 2.0},
        "rough_tail": {"amplitude": 1.0, "band_fraction": 0.6},
    },
    "h": {
        "zero": {},
        "bump": {"amplitude": 1.0, "t0": 0.05, "t1": 0.15, "t2": 0.45, "t3": 0.6},
        "gaussian_pulse": {"amplitude": 1.0, "center": 0.3, "width": 0.08},
    },
}
_EXTENSIONS = ("none", "auto", "zero", "reflection")


def _parse_profile(spec, label: str) -> tuple:
    """(profile name, its numeric keys with the defaults filled in) of the
    profile spec of data.g or data.h1-h3; a key the profile does not read is
    refused.  data.g also takes `extension`."""
    path = f"scenario.data.{label}"
    profiles = _PROFILES[label[0]]
    if not isinstance(spec, dict):
        raise ScenarioError(f"{path}: expected an object")
    if "profile" not in spec:
        raise ScenarioError(f"{path}: missing keys ['profile']")
    name = spec["profile"]
    if not (isinstance(name, str) and name in profiles):
        raise ScenarioError(f"{path}.profile: unknown profile {name!r}")
    extra = ("extension",) if label == "g" else ()
    _check_keys(spec, path, required=("profile",), optional=tuple(profiles[name]) + extra)
    if spec.get("extension", "none") not in _EXTENSIONS:
        raise ScenarioError(f"{path}.extension: {spec['extension']!r} not one of {_EXTENSIONS}")
    values = {
        key: _number(spec.get(key, default), f"{path}.{key}")
        for key, default in profiles[name].items()
    }
    return name, values


# Numeric keys of two scenario objects, each mapped to whether it is a whole
# number.
_MANUFACTURED_KEYS = {"horizon": False, "taper_start": False}
_PROBE_KEYS = {"ensemble": True, "band_x": False, "band_t": False}
_COMMANDS = ("solve", "verify", "probe-bilinear")
_SOLVES = ("full-solve", "verify-all")


class _Check(NamedTuple):
    pipelines: tuple  # the pipelines that measure the check; the others refuse it
    at_least: bool  # a value at or above the tolerance passes, else one below it
    verify_only: bool  # measured under `verify` or in a verify-all file only


# Every check a scenario may request, in summary order.
_CHECKS = {
    "trace_error": _Check(("boundary-only",), False, False),
    "initial_vanishing_ratio": _Check(("boundary-only",), True, False),
    "group_isometry": _Check(("linear-only",), False, False),
    "interior_residual_free": _Check(("linear-only",), False, False),
    "kato_ratio_max": _Check(("linear-only",), False, False),
    "compatibility": _Check(_SOLVES, False, False),
    "fixed_point_residual": _Check(_SOLVES, False, False),
    "contraction": _Check(_SOLVES, False, False),
    "oracle_match": _Check(_SOLVES, False, False),
    "weak_form": _Check(_SOLVES, False, True),
    "extension_independence": _Check(_SOLVES, False, True),
    "smoothing_slope_gain": _Check(_SOLVES, True, True),
    "max_ratio_bound": _Check(("probe-bilinear",), False, False),
}


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
            optional=("seed", "T", "depth", "data", "probe", "emit"),
        )
        if payload["pipeline"] not in _RUNNERS:
            raise ScenarioError(
                f"scenario.pipeline: {payload['pipeline']!r} not one of {tuple(_RUNNERS)}"
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
                _parse_profile(data[label], label)
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
        if not isinstance(emit.get("field_csv", False), bool):
            raise ScenarioError(
                f"scenario.emit.field_csv: expected true or false, got {emit['field_csv']!r}"
            )
        return cls(
            name=str(payload["name"]),
            pipeline=payload["pipeline"],
            seed=_count(payload.get("seed", 0), "scenario.seed"),
            xgrid=xgrid,
            tgrid=tgrid,
            indices=indices,
            T=_number(payload.get("T", 0.25), "scenario.T"),
            depth=_count(payload.get("depth", 2), "scenario.depth"),
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

    def solver_config(self, depth: int) -> SolverConfig:
        try:
            return SolverConfig(
                xgrid=self.xgrid,
                tgrid=self.tgrid,
                s=self.indices["s"],
                b=self.indices["b"],
                bstar=self.indices["bstar"],
                alpha=self.indices["alpha"],
                T=self.T,
                depth=depth,
            )
        except ValueError as exc:
            # SolverConfig checks the indices and the horizon T; name the key that failed.
            path = "scenario.T" if str(exc).startswith("horizon T") else "scenario.indices"
            raise ScenarioError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Data profile builders.
# ---------------------------------------------------------------------------

def _rough_tail_datum(grid: UniformGrid, s: float, amplitude: float, seed: int, band_fraction: float) -> GridFunction:
    """Real datum with |g_hat(xi)| proportional to <xi>^-(s+0.55): in H^s, barely.

    Its half spectrum is 1 at xi = 0 and carries a random phase on the rows
    0 < xi <= band below count // 2."""
    rng = np.random.default_rng(seed)
    freqs = grid.frequencies
    band = band_fraction * grid.nyquist
    coeffs = np.zeros(grid.count // 2, dtype=np.complex128)
    for k in range(1, len(coeffs)):
        if freqs[k] > band:
            continue
        mag = (1.0 + freqs[k]) ** (-(s + 0.55))
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coeffs[k] = mag * np.exp(1j * phase)
    coeffs[0] = 1.0
    vals = x_half_values(coeffs, grid)
    peak = float(np.max(np.abs(vals)))
    return GridFunction(grid, vals * (amplitude / peak))


def datum_from_profile(spec: dict, grid: UniformGrid, s: float, seed: int) -> GridFunction:
    profile, p = _parse_profile(spec, "g")
    nodes = grid.nodes
    if profile == "zero":
        vals = np.zeros(grid.count)
    elif profile == "gaussian":
        vals = p["amplitude"] * np.exp(-(((nodes - p["center"]) / p["width"]) ** 2))
    else:  # rough_tail
        return _rough_tail_datum(grid, s, p["amplitude"], seed, p["band_fraction"])
    return GridFunction(grid, vals)


def boundary_from_profile(spec: dict, tgrid: UniformGrid, label: str) -> TimeSeries:
    profile, p = _parse_profile(spec, label)
    nodes = tgrid.nodes
    if profile == "zero":
        vals = np.zeros(tgrid.count)
    elif profile == "bump":
        vals = p["amplitude"] * right_bump(nodes, p["t0"], p["t1"], p["t2"], p["t3"])
    else:  # gaussian_pulse, zero up to the zero node by the `UniformGrid.window` rule
        vals = p["amplitude"] * np.exp(-(((nodes - p["center"]) / p["width"]) ** 2))
        vals[: tgrid.window(-np.inf, 0.0).stop] = 0.0
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
# Pipelines.  Each runner takes (scenario, seed, depth, command) and returns
# (report, measured, solution): the report sections, the value of each check
# it measured by name, and the SolveResult of a solve (else None).
# ---------------------------------------------------------------------------

def _due(scenario: Scenario, command: str) -> list:
    """The requested checks this run measures, in table order: `solve` skips
    the verify-only ones of a full-solve file."""
    verifying = command == "verify" or scenario.pipeline == "verify-all"
    return [
        name for name, row in _CHECKS.items()
        if name in scenario.checks and (verifying or not row.verify_only)
    ]


def _trace_row(tgrid: UniformGrid, trace: np.ndarray, window: slice) -> dict:
    """Report row of a real x = 0 trace on the nodes of `window`; `im` stays,
    all zeros, so readers of the trace format keep working."""
    t = tgrid.nodes[window].tolist()
    return {"t": t, "re": trace[window].tolist(), "im": [0.0] * len(t)}


def _run_boundary_only(scenario: Scenario, _seed: int, depth: int, command: str) -> tuple:
    h1, h2, h3 = _build_boundary(scenario)
    report: dict = {"traces": {}}
    data_series = (h1, h2, h3)
    tgrid = scenario.tgrid
    plateau = tgrid.window(0.0, 1.0)
    # One scale for all three channels: zero channels are judged against the
    # driving channel's amplitude, not against themselves.
    scale = max(max(float(np.max(np.abs(d.values))) for d in data_series), 1e-300)
    traces = boundary_potential_traces(h1, h2, h3, depth=depth)
    for j, (tr, h) in enumerate(zip(traces, data_series)):
        err = float(np.max(np.abs(tr.values[plateau] - h.values[plateau]))) / scale
        report["traces"][f"j{j}"] = {**_trace_row(tgrid, tr.values, plateau), "relative_error": err}
    measured = {"trace_error": max(tr["relative_error"] for tr in report["traces"].values())}
    if "initial_vanishing_ratio" in _due(scenario, command):
        cap = BAND_CAP * scenario.tgrid.nyquist
        radius, _, _ = truncation_radius((h1, h2, h3), SPECTRUM_TOL, cap)
        xs = scenario.xgrid.nodes[scenario.xgrid.window(0.5, np.inf)]
        rows = tgrid.window(0.0, np.inf)  # the zero-extended data vanish before t = 0
        maxima = []
        # Coarse panels (2 Gauss-Legendre nodes) expose the per-depth decay;
        # at the default 8 the quadrature is already converged at depth 0 and
        # the maxima sit on the spectral-tail floor with no room to fall.
        for d in (depth, depth + 1):
            quad = BoundaryQuadrature.build(
                radius, d, t_span=1.0, x_span=float(xs.max()), nodes_per_panel=2
            )
            pot = BoundaryPotential(quad, h1, h2, h3, rows)
            maxima.append(float(np.max(np.abs(pot.field_values(xs, [0.0])))))
            del pot  # its tables, before the next depth builds its own
        ratio = maxima[0] / max(maxima[1], 1e-300)
        report["initial_vanishing"] = {"maxima": maxima, "ratio": ratio}
        measured["initial_vanishing_ratio"] = ratio
    return report, measured, None


def _run_linear_only(scenario: Scenario, seed: int, _depth: int, command: str) -> tuple:
    g = _build_datum(scenario, seed)
    plan = PropagatorPlan(scenario.xgrid)
    s = scenario.indices["s"]
    due = _due(scenario, command)
    report: dict = {}
    measured = {}
    if "group_isometry" in due:
        evolved = apply_group(g, 0.37, plan)
        base = sobolev_norm(g, s)
        drift = abs(sobolev_norm(evolved, s) - base) / max(base, 1e-300)
        report["group_isometry_drift"] = measured["group_isometry"] = drift
    # One free spectrum serves the field and the traces; it is freed before
    # `pde_residual`, which holds the field's half spectrum and the residual's.
    field = gains = None
    if "interior_residual_free" in due or "kato_ratio_max" in due:
        spec = plan.free_spectrum(g.values, scenario.tgrid)
        if "interior_residual_free" in due:
            field = free_field(spec, scenario.tgrid, plan)
        if "kato_ratio_max" in due:
            gains = kato_smoothing_ratio(g, s, spec, scenario.tgrid, plan)
        del spec
    if field is not None:
        value = pde_residual(field)
        report["interior_residual_free"] = measured["interior_residual_free"] = value
    if gains is not None:
        ratios = {f"s={s:g},j={j}": ratio for j, ratio in enumerate(gains)}
        measured["kato_ratio_max"] = max(ratios.values())
        report["kato_ratios"] = ratios
    # |g_hat| on the whole FFT-ordered spectrum: row min(k, X - k) of the
    # half spectrum, as |g_hat(-xi)| = |g_hat(xi)| for a real g.
    k = np.arange(g.grid.count)
    magnitude = np.abs(x_half_spectrum(g.values, g.grid))[np.minimum(k, g.grid.count - k)]
    report["spectra"] = {
        "g": {"xi": np.abs(g.grid.frequencies).tolist(), "magnitude": magnitude.tolist()}
    }
    return report, measured, None


def _run_solve(scenario: Scenario, seed: int, depth: int, command: str) -> tuple:
    cfg = scenario.solver_config(depth)
    due = _due(scenario, command)
    report: dict = {}
    g_l = _build_datum(scenario, seed)
    if "manufactured" in scenario.data:
        data, oracle, doubling = manufactured_data(g_l, cfg, **scenario.data["manufactured"])
        report["oracle_doubling_difference"] = doubling
    else:
        h1, h2, h3 = _build_boundary(scenario)
        data = SolverData(g_l=g_l, h1=h1, h2=h2, h3=h3)

    report["compatibility"] = check_compatibility(data.g_l, data.h1, data.h2, data.h3, cfg.s)
    result = picard_solve(data, cfg)
    report["iteration"] = result.trace.to_payload()
    report["diagnostics"] = result.diagnostics
    measured = {
        "compatibility": max(report["compatibility"]["measured_gaps"], default=0.0),
        "fixed_point_residual": result.trace.residual,
        "contraction": max(result.trace.factors[1:], default=0.0),
    }
    if "oracle_match" in due:
        dist = oracle_distance(result.u, oracle, cfg.T)
        report["oracle_distance"] = measured["oracle_match"] = dist
    if "weak_form" in due:
        value = weak_form_residual(result.u, data.g_l, data.h1, data.h2, data.h3, cfg.T)
        report["weak_form_residual"] = measured["weak_form"] = value
    if "extension_independence" in due:
        ext = extension_independence(g_l, (data.h1, data.h2, data.h3), cfg)
        report["extension_independence"] = ext
        measured["extension_independence"] = ext["max_distance"]
    if "smoothing_slope_gain" in due:
        row = smoothing_report(result, cfg, scenario.indices.get("a", 0.0))
        report["smoothing"] = [row]
        measured["smoothing_slope_gain"] = row["slope_gain"]
    report["norms"] = {
        "solution_l2": field_l2_norm(result.u.values, cfg.xgrid, cfg.tgrid),
        "nonlinear_l2": field_l2_norm(result.nonlinear.values, cfg.xgrid, cfg.tgrid),
    }
    window = cfg.tgrid.window(0.0, cfg.T)
    report["traces"] = {
        f"j{j}": _trace_row(cfg.tgrid, p, window) for j, p in enumerate(result.traces)
    }
    return report, measured, result


def _run_probe(scenario: Scenario, seed: int, _depth: int, _command: str) -> tuple:
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
        "grids": {"x": asdict(scenario.xgrid), "t": asdict(scenario.tgrid)},
    }
    return report, {"max_ratio_bound": report["max_ratio"]}, None


_RUNNERS = {
    "boundary-only": _run_boundary_only,
    "linear-only": _run_linear_only,
    "full-solve": _run_solve,
    "verify-all": _run_solve,
    "probe-bilinear": _run_probe,
}


def emit_plots(report: dict, outdir: Path) -> list:
    """Write gnuplot-ready whitespace-column .dat files for report sections."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tables = [
        (f"trace_{label}", "t re im", (tr["t"], tr["re"], tr["im"]))
        for label, tr in report.get("traces", {}).items()
    ] + [
        (f"spectrum_{label}", "xi magnitude", (sp["xi"], sp["magnitude"]))
        for label, sp in report.get("spectra", {}).items()
    ] + [
        (
            f"smoothing_a{row['a']:g}",
            "band_cap linear_norm nonlinear_norm",
            (row["band_caps"], row["band_norms_linear"], row["band_norms_nonlinear"]),
        )
        for row in report.get("smoothing", [])
    ]
    written = []
    for stem, header, columns in tables:
        path = outdir / f"{stem}.dat"
        lines = [" ".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
        path.write_text("\n".join([f"# {header}", *lines]) + "\n")
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

    `command` is "solve", "verify" or "probe-bilinear"; any other is a
    ScenarioError before the file is read.  The requested checks are judged
    by their `_CHECKS` rows in table order; one the runner did not measure
    is a HarnessError.  exit code 0 iff validation
    passed and every requested check passed.  Artifacts (summary.json,
    report.json, plot data, CSV fields) go to out_dir when given.
    """
    if command not in _COMMANDS:
        raise ScenarioError(f"unknown command {command!r} (known: {', '.join(_COMMANDS)})")
    scenario = Scenario.from_file(path)
    run_seed = scenario.seed if seed is None else _count(seed, "--seed")
    run_depth = scenario.depth if depth is None else _count(depth, "--depth")
    pipeline = "probe-bilinear" if command == "probe-bilinear" else scenario.pipeline
    # A check the pipeline does not evaluate would otherwise be dropped silently.
    known = [name for name, row in _CHECKS.items() if pipeline in row.pipelines]
    for name in scenario.checks:
        if name not in known:
            raise ScenarioError(
                f"scenario.checks.{name}: the {pipeline} pipeline evaluates no such check "
                f"(known: {', '.join(known)})"
            )
    if "oracle_match" in scenario.checks and "manufactured" not in scenario.data:
        raise ScenarioError("scenario.checks.oracle_match: needs data.manufactured for its oracle")
    report, measured, solution = _RUNNERS[pipeline](scenario, run_seed, run_depth, command)

    checks = {}
    for name in _due(scenario, command):
        if name not in measured:
            raise HarnessError(f"the {pipeline} pipeline did not measure the requested {name!r}")
        value, tolerance = float(measured[name]), float(scenario.checks[name])
        ok = value >= tolerance if _CHECKS[name].at_least else value < tolerance
        checks[name] = {"value": value, "tolerance": tolerance, "pass": bool(ok)}
    report["checks"] = checks
    summary = {
        "name": scenario.name,
        "pipeline": pipeline,
        "seed": run_seed,
        "depth": run_depth,
        "checks": checks,
        "pass": all(entry["pass"] for entry in checks.values()),
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
