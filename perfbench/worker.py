"""One measured repetition in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json SPAWNED_AT [--setup-only] [--trace SPANS.json]

SPEC.json lists the scenario files to run ({"command", "scenario", "out"}).
SPAWNED_AT is the runner's time.perf_counter() just before it started this
process; on Linux that clock is system-wide, so setup_s covers interpreter
start, the kdv5half import and validation of every scenario file.  The
result is one JSON line on stdout.
"""

import time  # first, so nothing precedes the clock

import json
import resource
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    spawned_at = float(argv[2])
    setup_only = "--setup-only" in argv
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None

    sys.path.insert(0, str(ROOT / "src"))
    from kdv5half import scenarios

    for item in spec:
        scenarios.Scenario.from_file(item["scenario"])
    setup_s = time.perf_counter() - spawned_at
    result = {"setup_s": setup_s}
    if setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if spans_path is not None:
        sys.path.insert(0, str(ROOT / "perfbench"))
        import tracing

        tracer = tracing.instrument()

    codes = []
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    for item in spec:
        if tracer is not None:
            tracer.run_id = item["scenario"]
        try:
            code, _ = scenarios.run_scenario(
                item["scenario"], out_dir=item["out"], command=item["command"]
            )
        except Exception:  # a raising pipeline is a failed run, not a crashed benchmark
            traceback.print_exc()
            code = "raised"
        codes.append(code)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    result.update(
        wall_s=wall_s,
        cpu_s=cpu_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        codes=codes,
    )
    if tracer is not None:
        Path(spans_path).write_text(json.dumps({
            "spans": tracer.spans,
            "alloc_peak": tracer.alloc_peak,
            "kernel_table_bytes": tracer.kernel_table_bytes,
            "contract_flops": tracer.contract_flops,
            "quadrature_nodes": tracer.quadrature_nodes,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
