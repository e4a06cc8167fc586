"""Span recorder that wraps the public entry points of the kdv5half modules.

Nothing under src/ is edited: `instrument` replaces each entry point, in its
defining module and in every kdv5half module that imported it by name, with
a wrapper that records one span per call (name, start, end, parent span, run
id).  Spans stay in memory until the run ends.  `self_times` turns them into
per-name self time: a span's duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc

# (span name, module, attribute path, peak-allocation tracking)
ENTRY_POINTS = (
    ("scenarios.run_scenario", "scenarios", "run_scenario", False),
    ("grids.canonical_json", "grids", "canonical_json", False),
    ("fixed_point.picard_solve", "fixed_point", "picard_solve", False),
    ("fixed_point.GammaWorkspace.init", "fixed_point", "GammaWorkspace.__init__", False),
    ("fixed_point.apply", "fixed_point", "GammaWorkspace.apply", True),
    ("fixed_point.nonlinearity_FT", "fixed_point", "nonlinearity_FT", False),
    ("boundary.BoundaryQuadrature.build", "boundary", "BoundaryQuadrature.build", False),
    ("boundary.truncation_radius", "boundary", "truncation_radius", False),
    ("boundary.BoundaryPotential.init", "boundary", "BoundaryPotential.__init__", False),
    ("boundary.update_data", "boundary", "BoundaryPotential.update_data", False),
    ("boundary.solve_coefficients_batch", "boundary", "solve_coefficients_batch", False),
    ("boundary.field_values", "boundary", "BoundaryPotential.field_values", True),
    ("boundary.trace_values", "boundary", "BoundaryPotential.trace_values", False),
    ("boundary.boundary_potential_traces", "boundary", "boundary_potential_traces", False),
    ("spectral.nonuniform_transform", "spectral", "nonuniform_transform", False),
    ("spectral.spectrum_matrix", "spectral", "spectrum_matrix", False),
    ("spectral.values_from_spectrum_matrix", "spectral", "values_from_spectrum_matrix", False),
    ("propagator.duhamel_trajectory", "propagator", "duhamel_trajectory", False),
    ("propagator.trace_at_origin", "propagator", "trace_at_origin", False),
    ("propagator.free_field", "propagator", "free_field", False),
    ("propagator.kato_smoothing_ratio", "propagator", "kato_smoothing_ratio", False),
    ("propagator.apply_group", "propagator", "apply_group", False),
    ("bourgain.xsb_norm", "bourgain", "xsb_norm", False),
    ("bourgain.xsba_norm", "bourgain", "xsba_norm", False),
    ("bourgain.bilinear_ratio", "bourgain", "bilinear_ratio", False),
    ("bourgain.seeded_band_limited_field", "bourgain", "seeded_band_limited_field", False),
    ("verification.manufactured_data", "verification", "manufactured_data", False),
    ("verification.whole_line_oracle", "verification", "whole_line_oracle", False),
    ("verification.weak_form_residual", "verification", "weak_form_residual", False),
    ("verification.pde_residual", "verification", "pde_residual", False),
    ("cutoffs.check_compatibility", "cutoffs", "check_compatibility", False),
    ("cutoffs.zero_extend_time", "cutoffs", "zero_extend_time", False),
)


class Tracer:
    """In-memory span list plus the counters derived from call arguments."""

    def __init__(self):
        self.spans: list = []
        self.run_id = ""
        self.alloc_peak: dict = {}  # name -> largest peak allocation of one call, bytes
        self.kernel_table_bytes = 0
        self.contract_flops = 0
        self.quadrature_nodes = 0
        self._stack: list = []
        self._mem_stack: list = []  # [entry_bytes, peak_seen] per open tracked span

    def wrap(self, name: str, fn, track_alloc: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            if track_alloc:
                tracer._mem_enter()
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": parent, "run": tracer.run_id}
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                if track_alloc:
                    tracer._mem_exit(name)
            tracer._count(name, args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _mem_enter(self) -> None:
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        tracemalloc.reset_peak()
        self._mem_stack.append([current, current])

    def _mem_exit(self, name: str) -> None:
        entry, seen = self._mem_stack.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak - entry)
        if self._mem_stack:
            outer = self._mem_stack[-1]
            outer[1] = max(outer[1], peak)
        else:
            tracemalloc.stop()

    def _count(self, name: str, args, kwargs, result) -> None:
        """Computed, not measured: sizes read off the arguments and results."""
        if name == "boundary.field_values":
            call = dict(zip(("self", "xtargets", "ttargets"), args), **kwargs)
            q = call["self"].quad.node_count
            x, t = len(call["xtargets"]), len(call["ttargets"])
            self.kernel_table_bytes += 3 * q * x * 16
            self.contract_flops += 8 * q * x * t
        elif name == "boundary.BoundaryQuadrature.build":
            self.quadrature_nodes = max(self.quadrature_nodes, result.node_count)


def _resolve(owner, path: str):
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


def instrument(package: str = "kdv5half") -> Tracer:
    """Wrap every entry point of ENTRY_POINTS; returns the recording tracer."""
    tracer = Tracer()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == package or key.startswith(package + "."))]
    for name, module_name, path, track_alloc in ENTRY_POINTS:
        module = sys.modules[f"{package}.{module_name}"]
        owner, leaf = _resolve(module, path)
        raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        if isinstance(raw, classmethod):
            setattr(owner, leaf, classmethod(tracer.wrap(name, raw.__func__, track_alloc)))
            continue
        wrapped = tracer.wrap(name, raw, track_alloc)
        if isinstance(owner, type):
            setattr(owner, leaf, wrapped)
            continue
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is raw:
                    setattr(mod, attr, wrapped)
    return tracer


def self_times(spans: list) -> dict:
    """Per-name self time: each span's duration minus the union of its children."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    out: dict = {}
    for index, span in enumerate(spans):
        start, end = span["start"], span["end"]
        covered, cursor = 0.0, start
        for lo, hi in sorted((spans[c]["start"], spans[c]["end"]) for c in children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span["name"]] = out.get(span["name"], 0.0) + (end - start) - covered
    return out


def call_counts(spans: list) -> dict:
    out: dict = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0) + 1
    return out


def root_wall(spans: list) -> float:
    """Summed duration of the top-level spans, which the self times add up to."""
    return sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
