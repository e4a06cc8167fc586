"""Record the answer-gate fingerprints into perfbench/reference.json.

    python3 perfbench/record_reference.py

Runs every input any seed can draw (workloads.inputs_for) through
run_scenario and stores its fingerprint.  Run it only at a commit whose
answers are known good; every recorded scenario must pass its own checks.
Takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from kdv5half.scenarios import run_scenario  # noqa: E402


def all_inputs() -> list:
    root = ROOT
    out = list(workloads.inputs_for("manufactured", 0, root))
    out.append(("boundary_traces", "verify", workloads.bundled_scenario(root, "boundary_traces")))
    for index, params in enumerate(workloads.linear_pool()):
        out.append((f"linear/{index}", "verify", workloads.linear_variant(root, index, params)))
    for name in ("probe_gain", "probe_auxiliary"):
        for base in workloads.PROBE_BASE_SEEDS:
            out.append((f"{name}/{base}", "probe-bilinear",
                        workloads.probe_variant(root, name, base)))
    return out


def main() -> int:
    scratch = ROOT / ".perfbench_out" / "record"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    reference = {}
    try:
        for key, command, payload in all_inputs():
            path = scratch / "scenario.json"
            path.write_text(json.dumps(payload))
            code, _ = run_scenario(path, out_dir=scratch / "out", command=command)
            summary = json.loads((scratch / "out" / "summary.json").read_text())
            report = json.loads((scratch / "out" / "report.json").read_text())
            if code != 0:
                raise SystemExit(f"{key}: checks fail at this commit: {summary['checks']}")
            reference[key] = workloads.fingerprint(summary, report)
            print(f"recorded {key}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
