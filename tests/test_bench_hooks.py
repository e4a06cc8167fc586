"""The benchmark tracer's entry points resolve on the package.

`perfbench/tracing.py` wraps functions and methods by dotted name; a rename
or deletion here would otherwise surface only in a traced benchmark run.
The module is loaded from its file and nothing is instrumented.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
