"""The runtime needs numpy only: no module of `src/kdv5half` imports scipy,
and the package imports and runs a manufactured `verify` with scipy blocked.
scipy stays a test dependency, as the independent oracle of the spline and
Simpson kernels.  Nor does a verify import `numpy.ma`, which `np.unique`
pulls in on its first call."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE_FILES = sorted((ROOT / "src" / "kdv5half").glob("*.py"))


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_source_file_imports_scipy():
    importers = [path.name for path in SOURCE_FILES if "scipy" in _imported_roots(path)]
    assert importers == []


# A 64^2 manufactured solve with the bundled scenario's checks and
# tolerances; the oracle horizon is shortened to fit the 2-unit time grid.
SCENARIO = {
    "name": "numpy-only",
    "pipeline": "full-solve",
    "T": 0.25,
    "grids": {
        "x": {"origin": -10.0, "step": 20.0 / 64, "count": 64},
        "t": {"origin": -1.0, "step": 2.0 / 64, "count": 64},
    },
    "indices": {"s": 1.0, "b": 0.42, "bstar": 0.46, "alpha": 0.52},
    "data": {
        "g": {"profile": "gaussian", "amplitude": 0.01, "center": 2.0, "width": 3.0},
        "manufactured": {"horizon": 0.75, "taper_start": 0.6},
    },
    "checks": {
        "compatibility": 1e-6,
        "fixed_point_residual": 2e-9,
        "contraction": 1.0,
        "oracle_match": 1e-5,
        "weak_form": 1e-4,
    },
}

BLOCKED_RUN = """
import importlib, json, pkgutil, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"scipy is blocked: {name}")
        return None

sys.meta_path.insert(0, RefuseScipy())
import kdv5half
for module in pkgutil.iter_modules(kdv5half.__path__):
    importlib.import_module(f"kdv5half.{module.name}")
from kdv5half.scenarios import run_scenario
code, summary = run_scenario(sys.argv[1], command="verify")
print(json.dumps({"code": code, "checks": sorted(summary["checks"]),
                  "scipy_loaded": any(m.split(".")[0] == "scipy" for m in sys.modules)}))
"""


def test_runs_with_scipy_blocked(tmp_path):
    scenario = tmp_path / "numpy_only.json"
    scenario.write_text(json.dumps(SCENARIO))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, str(scenario)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"code": 0, "checks": sorted(SCENARIO["checks"]), "scipy_loaded": False}


MASKED_RUN = """
import sys
from kdv5half.scenarios import run_scenario
code, _ = run_scenario(sys.argv[1], command="verify")
print(code, "numpy.ma" in sys.modules)
"""


def test_boundary_traces_verify_leaves_numpy_ma_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", MASKED_RUN, str(ROOT / "scenarios" / "boundary_traces.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]
