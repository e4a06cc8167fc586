"""Self-test of the benchmark machinery; runs no 1024x1024 solve.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on synthetic nested spans, that entry points
are wrapped where they are imported by name, that a forced failing scenario
check and a broken answer are both counted as failures, and that every metric
BENCHMARK.json declares is printed with its unit.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}


def span(name, start, end, parent=None):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r"}


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            span("root", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("leaf", 2.0, 3.0, parent=1),
            span("b", 5.0, 9.0, parent=0),
            span("leaf", 6.0, 6.5, parent=3),
            span("root", 20.0, 22.0),
        ]
        self_s = tracing.self_times(spans)
        self.assertAlmostEqual(self_s["root"], 10.0 - 3.0 - 4.0 + 2.0)
        self.assertAlmostEqual(self_s["a"], 2.0)
        self.assertAlmostEqual(self_s["b"], 3.5)
        self.assertAlmostEqual(self_s["leaf"], 1.5)
        self.assertAlmostEqual(sum(self_s.values()), tracing.root_wall(spans))
        self.assertEqual(tracing.call_counts(spans), {"root": 2, "a": 1, "leaf": 2, "b": 1})

    def test_overlapping_children_are_counted_once(self):
        spans = [span("p", 0.0, 4.0), span("c", 1.0, 3.0, 0), span("c", 2.0, 5.0, 0)]
        self.assertAlmostEqual(tracing.self_times(spans)["p"], 1.0)

    def test_wrapping_reaches_importing_modules(self):
        import numpy as np

        from kdv5half import bourgain, grids, spectral

        tracer = tracing.instrument()
        self.assertIs(bourgain.spectrum_matrix, spectral.spectrum_matrix)
        g = grids.UniformGrid(origin=-4.0, step=0.25, count=32)
        field = grids.SpaceTimeField(g, g, np.ones((32, 32), dtype=np.complex128))
        bourgain.xsb_norm(field, 0.0, 0.0)
        names = [s["name"] for s in tracer.spans]
        self.assertEqual(names[0], "bourgain.xsb_norm")
        self.assertIn("spectral.spectrum_matrix", names)
        self.assertTrue(all(s["parent"] == 0 for s in tracer.spans[1:]))


class FailureAccounting(unittest.TestCase):
    def setUp(self):
        self.run_dir = ROOT / ".perfbench_out" / f"selftest-{time.monotonic_ns()}"
        (self.run_dir / "inputs").mkdir(parents=True)

    def tearDown(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            self.run_dir.parent.rmdir()
        except OSError:
            pass

    def _repetition(self, payload, key):
        path = self.run_dir / "inputs" / "00.json"
        path.write_text(json.dumps(payload))
        items = [(key, "verify", path, self.run_dir / "out" / "00")]
        (self.run_dir / "spec.json").write_text(json.dumps(
            [{"command": "verify", "scenario": str(path), "out": str(items[0][3])}]))
        return run.run_repetition(self.run_dir, items, workloads.load_reference(),
                                  run._worker_env(run.environment(0)),
                                  time.perf_counter() + 120.0)

    def test_forced_failing_check_is_counted(self):
        params = workloads.linear_pool()[0]
        payload = workloads.linear_variant(ROOT, 0, params)
        payload["checks"]["kato_ratio_max"] = 1e-6  # no datum meets this
        rep = self._repetition(payload, "linear/0")
        self.assertFalse(rep["ok"])
        self.assertTrue(any("exit code 1" in p for p in rep["problems"]))
        good = dict(rep, ok=True)
        samples = run.end_to_end_metrics([rep, good], [0.5], [0.6])
        self.assertEqual(samples["pass_ratio"], [0.5])
        lines, result = run.summarize(samples, UNITS, failed=1, attempted=2)
        self.assertEqual((result["failed"], result["attempted"], result["correct"]), (1, 2, False))
        self.assertIn("0.5", lines[0])

    def test_output_without_gated_fields_is_a_failure(self):
        out = self.run_dir / "out" / "00"
        out.mkdir(parents=True)
        (out / "summary.json").write_text('{"checks": {}, "pass": true}')
        (out / "report.json").write_text('{"iteration": {}}')
        items = [("manufactured_small", "verify", None, out)]
        problems, _ = run._check_outputs(items, workloads.load_reference())
        self.assertEqual(len(problems), 1)
        self.assertIn("without a gated field", problems[0])

    def test_wrong_answer_breaks_the_gate(self):
        ref = workloads.load_reference()["manufactured_small"]
        wrong = json.loads(json.dumps(ref))
        wrong["values"]["solution_l2"] *= 1 + 1e-6
        wrong["traces"]["j0"]["re"][5] += 1e-6
        wrong["counts"]["iterations"] += 1
        problems = workloads.gate(wrong, ref)
        self.assertEqual(len(problems), 3, problems)
        self.assertEqual(workloads.gate(ref, ref), [])


class MetricsPrinted(unittest.TestCase):
    def _check(self, samples, declared):
        self.assertEqual(list(samples), [m["name"] for m in declared])
        lines, result = run.summarize(samples, UNITS, failed=0, attempted=3)
        self.assertIn("fail_ratio", lines[0])
        for metric, line in zip(declared, lines[1:]):
            self.assertRegex(line, rf"^# {metric['name']}\s+\S+\s+{metric['unit']}\s+n=")
            self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})

    def test_end_to_end(self):
        rep = {"ok": True, "wall_s": 1.0, "cpu_s": 1.5, "peak_rss_mb": 90.0, "setup_s": 0.7}
        self._check(run.end_to_end_metrics([rep, rep], [0.7] * 5, [0.6] * 3), DECLARED["end_to_end"])

    def test_per_layer(self):
        traced = {
            "wall_s": 3.0,
            "facts": {"iterations": 4, "quadrature_nodes": 8960, "report_bytes": 100},
            "trace": {
                "spans": [span("scenarios.run_scenario", 0.0, 3.0),
                          span("boundary.field_values", 1.0, 2.0, 0)],
                "alloc_peak": {"boundary.field_values": 2**20},
                "kernel_table_bytes": 1, "contract_flops": 1, "quadrature_nodes": 8960,
            },
        }
        samples = {k: [v] for k, v in run.per_layer_metrics(traced, [2.5]).items()}
        self._check(samples, DECLARED["per_layer"])
        self.assertAlmostEqual(samples["trace.overhead_s"][0], 0.5)
        self.assertAlmostEqual(samples["boundary.field_values.alloc_peak_mb"][0], 1.0)


if __name__ == "__main__":
    unittest.main()
