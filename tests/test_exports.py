"""Every name a module exports resolves, so `from kdv5half.<module> import *` works."""

import importlib
import pkgutil

import pytest

import kdv5half

MODULES = ["kdv5half"] + [f"kdv5half.{m.name}" for m in pkgutil.iter_modules(kdv5half.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
