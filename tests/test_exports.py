"""Every name a module exports resolves, so `from kdv5half.<module> import *`
works, and is used somewhere in the program; so is every public method,
property and field of a class in `src/kdv5half`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import kdv5half

MODULES = ["kdv5half"] + [f"kdv5half.{m.name}" for m in pkgutil.iter_modules(kdv5half.__path__)]

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted(
    p for p in (ROOT / "src" / "kdv5half").glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "perfbench").glob("*.py"))

SOURCE_FILES = sorted((ROOT / "src" / "kdv5half").glob("*.py"))

# Deliberate public helpers that the program itself never calls.
UNUSED_EXPORTS_ALLOWED = {
    "random_band_limited",  # seeded test-data generator
    "nonuniform_transform",  # independent oracle of the boundary potential's data transform
}


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exports_and_loads(path: Path) -> tuple:
    exported: list = []
    loaded: set = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = [ast.literal_eval(elt) for elt in node.value.elts]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return exported, loaded


def _program_loads() -> set:
    loaded: set = set()
    for path in PROGRAM_FILES:
        loaded |= _exports_and_loads(path)[1]
    return loaded


def _public_members(path: Path):
    """(class, member) for every public method, property and annotated field
    of a public class defined in `path`."""
    for node in ast.walk(_parse(path)):
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                name = item.name
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                name = item.target.id
            else:
                continue
            if not name.startswith("_"):
                yield node.name, name


def test_no_export_only_for_the_tests():
    """No public helper exists only for the tests: every name in a module's
    `__all__` is loaded somewhere in `src/kdv5half` or `perfbench`."""
    exports = {path.stem: _exports_and_loads(path)[0] for path in PROGRAM_FILES}
    loaded = _program_loads()
    unused = sorted(
        f"{module}.{name}"
        for module, names in exports.items()
        for name in names
        if name not in loaded and name not in UNUSED_EXPORTS_ALLOWED
    )
    assert unused == []


def test_no_class_member_only_for_the_tests():
    """Every public method, property and field of a `src/kdv5half` class is
    loaded, by name, somewhere in `src/kdv5half` or `perfbench`."""
    loaded = _program_loads()
    unused = sorted(
        f"{path.stem}.{cls}.{name}"
        for path in SOURCE_FILES
        for cls, name in _public_members(path)
        if name not in loaded and name not in UNUSED_EXPORTS_ALLOWED
    )
    assert unused == []


def test_allowed_unused_exports_stay_unused():
    """A helper on the allow-list is an oracle or a test-data generator only
    while the package never loads it; one that `src/kdv5half` calls would no
    longer be independent of the numerics it checks."""
    loaded: set = set()
    for path in SOURCE_FILES:
        loaded |= _exports_and_loads(path)[1]
    assert sorted(UNUSED_EXPORTS_ALLOWED & loaded) == []


def _private_imports(path: Path) -> list:
    """`module.name` for every underscore name that `path` imports from
    another module of the package."""
    found = []
    for node in ast.walk(_parse(path)):
        internal = isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("kdv5half")
        )
        if internal:
            found += [f"{node.module}.{a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_private_name_crosses_modules():
    """A module of `src/kdv5half` uses another one through its public names
    only; a private helper that two modules need belongs public in one."""
    crossing = sorted(
        f"{path.stem} imports {name}" for path in SOURCE_FILES for name in _private_imports(path)
    )
    assert crossing == []
