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


# Defaulted parameters that only the tests set, each kept for a reason.
TEST_SET_PARAMETERS_ALLOWED = {
    # The acceptance test takes the interior residual of the boundary
    # potential, which is not box-periodic: it must supply the analytic
    # fifth x-derivative and the interior window.
    "pde_residual.fifth_x",
    "pde_residual.x_range",
    "pde_residual.t_range",
    # The tests' 64-node time grids on [-1, 1) end at 0.96875, before the
    # default horizon of 1, so their manufactured data end (and taper) sooner.
    "manufactured_data.horizon",
    "manufactured_data.taper_start",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _init_fields(cls: ast.ClassDef, field_names: set):
    """(field, position, whether it has a default) for every `__init__`
    field of a dataclass, in order; a `field(init=False, ...)` is skipped.
    `field_names` are the names the module imports `dataclasses.field` as."""
    position = 0
    for item in cls.body:
        if not (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)):
            continue
        value = item.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) in field_names:
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            has_default = "default" in keywords or "default_factory" in keywords
        else:
            has_default = value is not None
        yield item.target.id, position, has_default
        position += 1


def _defaulted_parameters(path: Path):
    """(callable name, parameter, position, is a dataclass field) for every
    parameter with a default of a function defined in `path`, and every
    `__init__` field with a default of a dataclass defined there; `position`
    counts the call's positional arguments (after `self`/`cls`), None for a
    keyword-only one.  A class's `__init__` is called by the class's name."""
    body = _parse(path).body
    classes = [cls for cls in body if isinstance(cls, ast.ClassDef)]
    field_names = {
        alias.asname or alias.name
        for node in body
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        for alias in node.names
        if alias.name == "field"
    }
    owned = [(None, fn) for fn in body if isinstance(fn, ast.FunctionDef)] + [
        (cls.name, fn) for cls in classes for fn in cls.body if isinstance(fn, ast.FunctionDef)
    ]
    for cls, fn in owned:
        name = cls if fn.name == "__init__" else fn.name
        args = fn.args
        positional = args.posonlyargs + args.args
        skip = int(cls is not None and bool(positional) and positional[0].arg in ("self", "cls"))
        first_default = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first_default:], start=first_default):
            yield name, arg.arg, i - skip, False
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None, False
    for cls in filter(_is_dataclass, classes):
        for name, position, has_default in _init_fields(cls, field_names):
            if has_default:
                yield cls.name, name, position, True


def _calls(node: ast.AST, cls: str | None = None):
    """(callable name, call) for every call under `node`; a `cls(...)` call
    inside a class is named by that class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            yield (cls if name == "cls" else name), child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _program_settings() -> dict:
    """Callable name -> (keywords set by name, most positional arguments,
    whether some call unpacks `*`) over every call in the program.  A `**`
    unpacking sets nothing that can be read off the call."""
    settings: dict = {}
    for path in PROGRAM_FILES:
        for name, node in _calls(_parse(path)):
            if name is None:
                continue
            keywords, count, star = settings.get(name, (set(), 0, False))
            keywords |= {k.arg for k in node.keywords if k.arg is not None}
            star |= any(isinstance(a, ast.Starred) for a in node.args)
            count = max(count, sum(not isinstance(a, ast.Starred) for a in node.args))
            settings[name] = (keywords, count, star)
    return settings


def test_no_parameter_only_for_the_tests():
    """Every defaulted parameter of a `src/kdv5half` function, and every
    defaulted `__init__` field of a dataclass there, is set by some call in
    `src/kdv5half` or `perfbench` to a callable of that name: by keyword, by
    position, or through `*` unpacking; a field also by
    `dataclasses.replace(obj, field=...)`.  A value that only the tests pass
    is a constant, and its branch a test-only path."""
    settings = _program_settings()
    replaced = settings.get("replace", (set(), 0, False))[0]
    unset = []
    for path in SOURCE_FILES:
        for name, param, position, is_field in _defaulted_parameters(path):
            keywords, count, star = settings.get(name, (set(), 0, False))
            set_by_position = position is not None and (position < count or star)
            if not (param in keywords or set_by_position or (is_field and param in replaced)):
                unset.append(f"{name}.{param}")
    assert sorted(set(unset) - TEST_SET_PARAMETERS_ALLOWED) == []


def _defined_once() -> dict:
    """Name -> definition of every function, method and nested function
    that `src/kdv5half` defines exactly once under that name."""
    defs: dict = {}
    for path in SOURCE_FILES:
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.FunctionDef):
                defs.setdefault(node.name, []).append(node)
    return {name: fns[0] for name, fns in defs.items() if len(fns) == 1}


def _passed(call: ast.Call, position: int, param: str):
    """The argument node `call` passes for the parameter, None if it leaves
    the parameter out."""
    if position < len(call.args):
        return call.args[position]
    return next((k.value for k in call.keywords if k.arg == param), None)


def _literal(node) -> str | None:
    """The dump of `node` when it is a literal (a constant, or a signed or
    container one), else None; a left-out argument (None) is no literal."""
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return None
    return ast.dump(node)


def _unpacks(call: ast.Call) -> bool:
    return any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None for k in call.keywords
    )


def test_no_parameter_takes_one_constant():
    """No positional parameter of a function that `src/kdv5half` defines
    once by name is passed the same literal by every call in `src/kdv5half`
    and `perfbench`: such a parameter is that constant, and belongs in the
    body.  A call that leaves the parameter out, or that unpacks `*` or
    `**`, counts as a different value."""
    calls: dict = {}
    for path in PROGRAM_FILES:
        for name, call in _calls(_parse(path)):
            calls.setdefault(name, []).append(call)
    constant = []
    for name, fn in _defined_once().items():
        sites = calls.get(name, [])
        if not sites or any(map(_unpacks, sites)):
            continue
        positional = fn.args.posonlyargs + fn.args.args
        skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
        for position, arg in enumerate(positional[skip:]):
            passed = {_literal(_passed(call, position, arg.arg)) for call in sites}
            if len(passed) == 1 and None not in passed:
                constant.append(f"{name}.{arg.arg}")
    assert sorted(constant) == []


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


ORDERING = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _is_ordering(node: ast.AST) -> bool:
    return isinstance(node, ast.Compare) and any(isinstance(op, ORDERING) for op in node.ops)


def _is_nodes(node: ast.AST) -> bool:
    """`<expr>.nodes` or a name `nodes`."""
    return (isinstance(node, ast.Attribute) and node.attr == "nodes") or (
        isinstance(node, ast.Name) and node.id == "nodes"
    )


def _ordering_windows(path: Path) -> list:
    """By line, in `path`: every `np.flatnonzero(...)` and one-argument
    `np.where(...)` call whose argument holds an ordering comparison (<, <=,
    >, >=), and every ordering comparison with `.nodes` or `nodes` as an
    operand."""
    found = []
    for node in ast.walk(_parse(path)):
        if _is_ordering(node) and any(map(_is_nodes, [node.left, *node.comparators])):
            found.append(f"{path.stem}:{node.lineno}")
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        name = node.func.attr
        if not (name == "flatnonzero" or (name == "where" and len(node.args) == 1)):
            continue
        if any(_is_ordering(sub) for arg in node.args for sub in ast.walk(arg)):
            found.append(f"{path.stem}:{node.lineno}")
    return found


def test_node_windows_come_from_the_grid():
    """The nodes of an interval are selected by `UniformGrid.window` alone,
    so every check reads one rounding rule: no module but `grids` compares
    nodes by order, or turns an ordering comparison into indices."""
    found = sorted(
        hit for path in SOURCE_FILES if path.name != "grids.py" for hit in _ordering_windows(path)
    )
    assert found == []
