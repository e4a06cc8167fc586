"""Workload inputs drawn from the seed, and the answer gate.

Every input a workload can draw has a fingerprint recorded in
reference.json (see record_reference.py), so each run is gated against
known-good answers whatever the seed:

- `manufactured`: the bundled manufactured_small verify.  Its datum is a
  fixed Gaussian and the oracle-consistent boundary data are built from it,
  so the seed cannot vary it without a new reference solve: the workload is
  seed-independent.
- `linear`: the bundled boundary_traces run plus LINEAR_FAMILY_SIZE
  linear-only variants of linear_diagnostics, chosen by the seed from a
  recorded pool of Gaussian datum parameters.
- `probe`: probe_gain and probe_auxiliary, each with an ensemble base seed
  chosen by the seed from a recorded pool.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

WORKLOADS = ("manufactured", "linear", "probe")
LINEAR_FAMILY_SIZE = 6

# Relative tolerance for gated values and for x = 0 traces (scaled by the
# largest reference trace magnitude of the scenario).  Loose enough for
# reordered floating-point sums, tight enough to catch a wrong answer.
GATE_RTOL = 1e-9

LINEAR_POOL_SIZE = 32
PROBE_POOL_SIZE = 16
PROBE_BASE_SEEDS = tuple(1000 + 200 * k for k in range(PROBE_POOL_SIZE))


def linear_pool() -> list:
    """Gaussian datum parameters for the linear family, fixed once for all seeds.

    Ranges keep every linear_diagnostics check passing: widths >= 3 keep the
    datum band well under the time grid's resolved band.
    """
    rng = random.Random(20240514)
    return [
        {
            "amplitude": round(rng.uniform(0.02, 0.08), 6),
            "center": round(rng.uniform(-2.0, 2.0), 6),
            "width": round(rng.uniform(3.0, 5.0), 6),
        }
        for _ in range(LINEAR_POOL_SIZE)
    ]


def bundled_scenario(root: Path, name: str) -> dict:
    return json.loads((root / "scenarios" / f"{name}.json").read_text())


def linear_variant(root: Path, index: int, params: dict) -> dict:
    payload = bundled_scenario(root, "linear_diagnostics")
    payload["name"] = f"linear-family-{index:02d}"
    payload["data"]["g"] = {"profile": "gaussian", **params}
    payload["emit"] = {}
    return payload


def probe_variant(root: Path, name: str, base_seed: int) -> dict:
    payload = bundled_scenario(root, name)
    payload["seed"] = base_seed
    return payload


def inputs_for(workload: str, seed: int, root: Path) -> list:
    """[(key, command, scenario payload)] for one run; key indexes reference.json."""
    rng = random.Random(seed)
    if workload == "manufactured":
        return [("manufactured_small", "verify", bundled_scenario(root, "manufactured_small"))]
    if workload == "linear":
        out = [("boundary_traces", "verify", bundled_scenario(root, "boundary_traces"))]
        pool = linear_pool()
        for index in sorted(rng.sample(range(LINEAR_POOL_SIZE), LINEAR_FAMILY_SIZE)):
            out.append((f"linear/{index}", "verify", linear_variant(root, index, pool[index])))
        return out
    if workload == "probe":
        out = []
        for name in ("probe_gain", "probe_auxiliary"):
            base = rng.choice(PROBE_BASE_SEEDS)
            out.append((f"{name}/{base}", "probe-bilinear", probe_variant(root, name, base)))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(summary: dict, report: dict) -> dict:
    """The gated part of one scenario's output."""
    fp: dict = {
        "checks": {name: entry["pass"] for name, entry in summary["checks"].items()},
        "pass": summary["pass"],
        "counts": {},
        "values": {},
        "traces": {},
    }
    if "iteration" in report:
        fp["counts"]["iterations"] = report["iteration"]["iterations"]
        fp["counts"]["applications"] = report["diagnostics"]["applications"]
        fp["counts"]["quadrature_nodes"] = report["diagnostics"]["quadrature_nodes"]
        fp["values"].update(report["norms"])
    if "kato_ratios" in report:
        fp["values"].update({f"kato {k}": v for k, v in report["kato_ratios"].items()})
    if "max_ratio" in report:
        fp["values"]["max_ratio"] = report["max_ratio"]
        fp["values"]["mean_ratio"] = report["mean_ratio"]
        fp["counts"]["argmax_seed"] = report["argmax_seed"]
        fp["counts"]["ensemble"] = report["ensemble"]
    for label, tr in report.get("traces", {}).items():
        fp["traces"][label] = {"re": tr["re"], "im": tr["im"]}
    return fp


def gate(fp: dict, ref: dict) -> list:
    """Differences between a fingerprint and its reference; empty means pass."""
    problems = []
    for key in ("checks", "pass", "counts"):
        if fp[key] != ref[key]:
            problems.append(f"{key}: {fp[key]} != reference {ref[key]}")
    if set(fp["values"]) != set(ref["values"]):
        problems.append(f"values: keys {sorted(fp['values'])} != {sorted(ref['values'])}")
    for name, want in ref["values"].items():
        got = fp["values"].get(name)
        if got is None or abs(got - want) > GATE_RTOL * abs(want):
            problems.append(f"{name}: {got} differs from reference {want}")
    if set(fp["traces"]) != set(ref["traces"]):
        problems.append(f"traces: {sorted(fp['traces'])} != {sorted(ref['traces'])}")
        return problems
    scale = max(
        (abs(v) for tr in ref["traces"].values() for part in tr.values() for v in part),
        default=0.0,
    )
    for label, tr in ref["traces"].items():
        for part, want in tr.items():
            got = fp["traces"][label][part]
            if len(got) != len(want):
                problems.append(f"trace {label}.{part}: length {len(got)} != {len(want)}")
                continue
            worst = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if worst > GATE_RTOL * scale:
                problems.append(f"trace {label}.{part}: off by {worst:.3e} (scale {scale:.3e})")
    return problems


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())
