"""The benchmark tracer's entry points resolve on the package.

`perfbench/tracing.py` wraps functions and methods by dotted name; a rename
or deletion here would otherwise surface only in a traced benchmark run.
The module is loaded from its file and nothing is instrumented.  The
benchmark's own self-test runs too, in a fresh interpreter, as it is run
by hand.
"""

import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("name, module_name, path, _alloc", tracing.ENTRY_POINTS)
def test_entry_point_resolves(name, module_name, path, _alloc):
    module = importlib.import_module(f"kdv5half.{module_name}")
    owner, leaf = tracing._resolve(module, path)
    raw = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
    if isinstance(raw, classmethod):
        raw = raw.__func__
    assert callable(raw), name


def test_field_values_arguments_the_counter_reads():
    from kdv5half.boundary import BoundaryPotential

    params = list(inspect.signature(BoundaryPotential.field_values).parameters)
    assert params[:3] == ["self", "xtargets", "ttargets"]


def test_add_field_on_grid_is_one_counted_field_values_call(monkeypatch):
    # The benchmark counts `field_values` calls and sizes each from its
    # positional arguments: one call per application, on every x node and
    # the bound rows, keeps `kernel_table_bytes` and `contract_flops` at
    # their totals over the x nodes.
    from kdv5half.boundary import BoundaryPotential
    from kdv5half.grids import TimeSeries, UniformGrid

    tgrid = UniformGrid(-1.0, 2.0 / 128, 128)
    bump = np.exp(-(((tgrid.nodes - 0.5) / 0.1) ** 2)) * (tgrid.nodes > 0.0)
    zero = TimeSeries(tgrid, np.zeros(tgrid.count))
    pot = BoundaryPotential.from_data(
        TimeSeries(tgrid, bump), zero, zero, depth=0, x_span=4.0, t_window=(0.0, 1.0)
    )
    xnodes = np.linspace(-4.0, 4.0, 300)
    tracer = tracing.Tracer()
    calls = []
    original = BoundaryPotential.field_values

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    wrapped = tracer.wrap("boundary.field_values", recording, False)
    monkeypatch.setattr(BoundaryPotential, "field_values", wrapped)
    values = np.zeros((len(xnodes), tgrid.count))
    pot.add_field_on_grid(values, xnodes, np.ones(tgrid.count))
    assert tracing.call_counts(tracer.spans) == {"boundary.field_values": 1}
    (args, kwargs), = calls
    assert kwargs == {} and len(args) == 3 and args[0] is pot
    assert np.array_equal(args[1], xnodes) and np.array_equal(args[2], pot.ttargets)
    q, x, t = pot.quad.node_count, len(xnodes), len(pot.ttargets)
    assert tracer.kernel_table_bytes == 3 * q * x * 16
    assert tracer.contract_flops == 8 * q * x * t


def test_benchmark_selftest_passes():
    # Span arithmetic, wrapping where entry points are imported by name,
    # failure accounting and the declared metrics; about a second, and it
    # removes the run directories it makes.
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
