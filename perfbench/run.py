"""kdv5half benchmark runner.

    python3 perfbench/run.py --workload {manufactured,linear,probe} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout.  The runner writes the workload's
scenario files (drawn from --seed), then starts one fresh interpreter per
repetition (perfbench/worker.py), one at a time, for about --seconds: a
repetition starts while at least half of it is predicted to fit.  Each repetition runs the scenarios through kdv5half's own
`run_scenario(..., command=..., out_dir=...)`, the path behind
`kdv5half verify|probe-bilinear --out`, and its outputs are checked against
the recorded answers (workloads.gate).  A repetition fails if it raises,
exits nonzero, fails a scenario check or breaks the answer gate.

--trace 0 reports the end-to-end metrics (medians over repetitions, times
scaled by the machine's speed as calibrate.py measures it);
--trace 1 runs one repetition with every module entry point wrapped in spans
and reports per-layer self times and counts.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5  # setup_s is the median of at least this many interpreter starts
# Median calibrate.py time on the reference machine (2-vCPU Intel Xeon VM,
# numpy 2.4.6 with OpenBLAS, 2 threads; 1.01 s over 106 samples).  A run
# scales its times by this over its own median calibration, so wall_ref_s and
# cpu_ref_s read in seconds at the reference machine's speed.  The same
# constant serves every commit.
CALIBRATION_REF_S = 1.0
WORKER_TIMEOUT_S = 170.0


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# Environment record.
# ---------------------------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count as the loaded library reports it, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
            "threads": _blas_threads(),
        },
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "seed": seed,
        "workloads": list(workloads.WORKLOADS),
    }


# ---------------------------------------------------------------------------
# Repetitions.
# ---------------------------------------------------------------------------

def _calibrate(env: dict) -> float:
    """One calibrate.py run in a fresh interpreter: the machine's current speed."""
    proc = subprocess.run([sys.executable, str(HERE / "calibrate.py")], capture_output=True,
                          text=True, timeout=60, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchmarkError(f"calibration failed: {proc.stderr[-2000:].strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["calibration_s"]


def _spawn(spec_path: Path, extra: list, env: dict, timeout: float):
    """Run one worker to completion; returns (result dict or None, stderr tail)."""
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path), repr(spawned_at)] + extra,
            capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr[-2000:]
    return json.loads(lines[-1]), proc.stderr[-2000:]


def _check_outputs(items, reference) -> tuple:
    """Gate every scenario's summary/report; returns (problems, report facts)."""
    problems, facts = [], {"iterations": 0, "quadrature_nodes": 0, "report_bytes": 0}
    for key, _command, _scenario, out in items:
        try:
            summary = json.loads((out / "summary.json").read_text())
            report_text = (out / "report.json").read_text()
            report = json.loads(report_text)
            fingerprint = workloads.fingerprint(summary, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"{key}: output missing or without a gated field ({exc!r})")
            continue
        problems += [f"{key}: {p}" for p in workloads.gate(fingerprint, reference[key])]
        facts["report_bytes"] += len(report_text.encode())
        if "iteration" in report:
            facts["iterations"] += report["iteration"]["iterations"]
            facts["quadrature_nodes"] = max(facts["quadrature_nodes"],
                                            report["diagnostics"]["quadrature_nodes"])
    return problems, facts


def run_repetition(run_dir: Path, items, reference, env, deadline, trace=False) -> dict:
    """One worker; returns its measurements plus ok/problems/facts/trace data."""
    rep_dir = run_dir / "out"
    shutil.rmtree(rep_dir, ignore_errors=True)
    spans_path = run_dir / "spans.json"
    extra = ["--trace", str(spans_path)] if trace else []
    timeout = max(10.0, deadline - time.perf_counter())
    result, stderr = _spawn(run_dir / "spec.json", extra, env, timeout)
    if result is None:
        return {"ok": False, "problems": [f"worker failed: {stderr.strip()}"]}
    problems = [f"{key}: exit code {code}"
                for (key, *_), code in zip(items, result["codes"]) if code != 0]
    gate_problems, facts = _check_outputs(items, reference)
    result.update(ok=not problems and not gate_problems,
                  problems=problems + gate_problems, facts=facts)
    if trace:
        result["trace"] = json.loads(spans_path.read_text())
    shutil.rmtree(rep_dir, ignore_errors=True)
    return result


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------

# Per-layer counts derived from reports and array sizes, not measured.
COMPUTED = ("fixed_point.iterations", "boundary.quadrature_nodes", "boundary.kernel_table_bytes",
            "boundary.contract_flops", "scenarios.report_bytes")


def end_to_end_metrics(reps: list, setups: list, calibrations: list) -> dict:
    timed = [r for r in reps if "wall_s" in r]
    failed = sum(1 for r in reps if not r["ok"])
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    return {
        "wall_ref_s": [r["wall_s"] * scale for r in timed],
        "cpu_ref_s": [r["cpu_s"] * scale for r in timed],
        "peak_rss_mb": [r["peak_rss_mb"] for r in timed],
        "setup_s": setups,
        "pass_ratio": [(len(reps) - failed) / len(reps)],
    }


def per_layer_metrics(traced: dict, untraced_walls: list) -> dict:
    data = traced["trace"]
    spans = data["spans"]
    self_s = tracing.self_times(spans)
    calls = tracing.call_counts(spans)
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name, *_ in tracing.ENTRY_POINTS}
    for name in ("fixed_point.apply", "boundary.field_values", "spectral.nonuniform_transform",
                 "propagator.duhamel_trajectory", "propagator.trace_at_origin",
                 "bourgain.xsba_norm"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("fixed_point.apply", "boundary.field_values"):
        out[f"{name}.alloc_peak_mb"] = data["alloc_peak"].get(name, 0) / 2**20
    facts = traced["facts"]
    out["fixed_point.iterations"] = facts["iterations"]
    out["boundary.quadrature_nodes"] = facts["quadrature_nodes"] or data["quadrature_nodes"]
    out["boundary.kernel_table_bytes"] = data["kernel_table_bytes"]
    out["boundary.contract_flops"] = data["contract_flops"]
    out["scenarios.report_bytes"] = facts["report_bytes"]
    out["trace.wall_s"] = tracing.root_wall(spans)
    out["trace.overhead_s"] = traced["wall_s"] - statistics.median(untraced_walls)
    return out


# ---------------------------------------------------------------------------
# Runner.
# ---------------------------------------------------------------------------

def _require_checkout():
    missing = [p for p in ("src/kdv5half/__init__.py", "src/kdv5half/scenarios.py",
                           "scenarios/manufactured_small.json", "BENCHMARK.json")
               if not (ROOT / p).is_file()]
    if missing:
        raise BenchmarkError(f"not a kdv5half source checkout, missing: {', '.join(missing)}")


def _worker_env(env_record: dict) -> dict:
    env = dict(os.environ)
    threads = env_record["blas"]["threads"]
    if threads is not None and threads > env_record["nproc"]:
        env["OPENBLAS_NUM_THREADS"] = str(env_record["nproc"])
        env_record["blas"]["threads"] = env_record["nproc"]
        env_record["blas"]["capped_to_nproc"] = True
    return env


def _describe(name: str, values: list, unit: str) -> str:
    med = statistics.median(values)
    spread = f" min {min(values):.6g} max {max(values):.6g}" if len(values) > 1 else ""
    return f"# {name:<40} {med:>14.6g} {unit:<6} n={len(values)}{spread}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _require_checkout()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    reference = workloads.load_reference()

    env_record = environment(seed)
    env = _worker_env(env_record)
    print(f"# workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)}")
    print(f"# environment {json.dumps(env_record, sort_keys=True)}")
    if workload == "manufactured":
        print("# manufactured is seed-independent: its fixed Gaussian datum defines the reference solve")

    run_dir = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "inputs").mkdir(parents=True)
    items = []
    for index, (key, command, payload) in enumerate(workloads.inputs_for(workload, seed, ROOT)):
        path = run_dir / "inputs" / f"{index:02d}.json"
        path.write_text(json.dumps(payload, indent=2))
        items.append((key, command, path, run_dir / "out" / f"{index:02d}"))
        print(f"# input {index:02d}: {command} {key}")
    (run_dir / "spec.json").write_text(json.dumps(
        [{"command": c, "scenario": str(p), "out": str(o)} for _k, c, p, o in items]))

    try:
        start = time.perf_counter()
        deadline = start + seconds
        hard_deadline = start + WORKER_TIMEOUT_S
        reps, calibrations, traced = [], [], None
        if trace:
            traced = run_repetition(run_dir, items, reference, env, hard_deadline, trace=True)
        while True:
            t0 = time.perf_counter()
            if not trace:
                calibrations.append(_calibrate(env))
            reps.append(run_repetition(run_dir, items, reference, env, hard_deadline))
            last = time.perf_counter() - t0
            # Another repetition runs if at least half of it fits, so every run of a
            # workload gets the same count and ends within half a repetition of --seconds.
            if time.perf_counter() + last / 2 > deadline:
                break
        if not trace:
            calibrations.append(_calibrate(env))
        setups = [r["setup_s"] for r in reps if "setup_s" in r]
        while not trace and len(setups) < SETUP_SAMPLES:
            result, stderr = _spawn(run_dir / "spec.json", ["--setup-only"], env,
                                    max(10.0, hard_deadline - time.perf_counter()))
            if result is None:
                raise BenchmarkError(f"setup-only worker failed: {stderr.strip()}")
            setups.append(result["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run is using it
            pass

    everything = reps + ([traced] if traced else [])
    for index, rep in enumerate(everything):
        label = "traced" if rep is traced else f"rep {index + 1}"
        if "wall_s" in rep:
            print(f"# {label}: wall {rep['wall_s']:.4f} s cpu {rep['cpu_s']:.4f} s "
                  f"rss {rep['peak_rss_mb']:.1f} MB setup {rep['setup_s']:.4f} s "
                  f"{'ok' if rep['ok'] else 'FAILED'}")
        for problem in rep["problems"]:
            print(f"#   {problem}")
    failed = sum(1 for r in everything if not r["ok"])
    untraced_walls = [r["wall_s"] for r in reps if "wall_s" in r]
    if not untraced_walls or (trace and "wall_s" not in traced):
        raise BenchmarkError("no repetition produced timings")

    if trace:
        samples = {k: [v] for k, v in per_layer_metrics(traced, untraced_walls).items()}
        print(f"# traced wall_s {traced['wall_s']:.6f} s; self times sum to "
              f"{sum(tracing.self_times(traced['trace']['spans']).values()):.6f} s "
              f"over the pipeline spans ({samples['trace.wall_s'][0]:.6f} s)")
    else:
        raw = {"wall_s": untraced_walls, "cpu_s": [r["cpu_s"] for r in reps if "cpu_s" in r],
               "calibration_s": calibrations}
        print("\n".join(_describe(name, values, "s") for name, values in raw.items()))
        print(f"# calibration samples: {' '.join(f'{c:.4f}' for c in calibrations)}")
        samples = end_to_end_metrics(reps, setups, calibrations)
    lines, result = summarize(samples, units, failed, len(everything))
    print("\n".join(lines))
    return result


def summarize(samples: dict, units: dict, failed: int, attempted: int) -> tuple:
    """Human-readable metric lines (name, median, unit, sample count) and the result object."""
    lines = [f"# {'fail_ratio':<40} {failed / attempted:>14.6g} {'ratio':<6} "
             f"n={attempted} ({failed} failed)"]
    for name, values in samples.items():
        tag = " (computed)" if name in COMPUTED else ""
        lines.append(_describe(name, values, units[name]) + tag)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": units[name]}
                    for name, values in samples.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
