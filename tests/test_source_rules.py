"""Rules about the package source that no behavioural test can see."""

import ast
import importlib
import pkgutil
from pathlib import Path

import stirlingexp


def _package_nodes():
    """(file name, node) for every AST node of the package source."""
    paths = sorted(Path(stirlingexp.__file__).parent.rglob("*.py"))
    assert len(paths) >= 6
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.name, node


def test_no_assert_statement_in_the_package():
    # python -O strips assert, so it cannot serve as a runtime guard
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_modules(node):
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [node.module]
    return []


# module -> the package files that may import it.  The exact layers
# start without mpmath; only the numeric validation needs it.  No file
# imports dataclasses, which with inspect would cost every command's
# start-up about 12-15 ms, or typing: the annotations take their ABCs
# from collections.abc
RESTRICTED_IMPORTS = {
    "mpmath": {"asymptotic.py"},
    "dataclasses": set(),
    "typing": set(),
}


def test_restricted_modules_are_imported_only_where_allowed():
    importers = {module: set() for module in RESTRICTED_IMPORTS}
    for name, node in _package_nodes():
        for module in _imported_modules(node):
            top = module.split(".")[0]
            if top in importers:
                importers[top].add(name)
    assert importers == RESTRICTED_IMPORTS


def _is_fraction_call(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Fraction"
    )


def test_no_term_by_term_fraction_sum():
    # sum(..., Fraction(0)) reduces every partial sum by a gcd; the sums
    # add integer numerators over a common denominator instead
    found = [
        f"{name}:{node.lineno}"
        for name, node in _package_nodes()
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and any(
            _is_fraction_call(start)
            for start in node.args[1:]
            + [kw.value for kw in node.keywords if kw.arg == "start"]
        )
    ]
    assert found == []


def _top_level_definitions(path):
    """Names a module binds by a top-level def, class or assignment."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {
                leaf.id
                for target in targets
                for leaf in ast.walk(target)
                if isinstance(leaf, ast.Name)
            }
    return names


def test_every_exported_name_is_bound():
    # a deleted function cannot stay behind in an export list: each name
    # in a module's __all__ resolves there, so its star import succeeds.
    # A layer exports only what it defines itself, so every name has one
    # home
    root = Path(stirlingexp.__file__).parent
    for info in pkgutil.iter_modules(stirlingexp.__path__):
        name = f"stirlingexp.{info.name}"
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert [n for n in exported if not hasattr(module, n)] == [], name
        namespace = {}
        exec(f"from {name} import *", namespace)
        assert set(exported) <= set(namespace), name
        defined = _top_level_definitions(root / f"{info.name}.py")
        assert [n for n in exported if n not in defined] == [], name


def test_every_name_taken_from_another_module_is_exported():
    # __all__ is a layer's one list of its public names, so a public name
    # that one module of the package imports from another is on its
    # home's list; submodules (from . import x) and _private names are not
    found = []
    for name, node in _package_nodes():
        if isinstance(node, ast.ImportFrom) and node.level and node.module:
            home = importlib.import_module(f"stirlingexp.{node.module}")
            found += [
                f"{name}:{node.lineno} {alias.name}"
                for alias in node.names
                if not alias.name.startswith("_") and alias.name not in home.__all__
            ]
    assert found == []


def test_no_function_calls_itself():
    # no recursion where a loop would do: a recursive call costs a frame
    # per level and stops at the interpreter's recursion limit
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in _package_nodes()
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == node.name
            for call in ast.walk(node)
        )
    ]
    assert found == []


# TruncatedSeries methods that are one first-order recurrence, solved by
# the shared loop in _first_order; none keeps a loop of its own
ONE_RECURRENCE = ("inverse", "exp", "log1p", "power_rational")


def test_the_first_order_recurrences_share_one_loop():
    path = Path(stirlingexp.__file__).parent / "series.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (series_class,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "TruncatedSeries"
    ]
    methods = {
        node.name: node
        for node in series_class.body
        if isinstance(node, ast.FunctionDef) and node.name in ONE_RECURRENCE
    }
    assert sorted(methods) == sorted(ONE_RECURRENCE)
    found = [
        f"{name}: {type(node).__name__}"
        for name, method in methods.items()
        for node in ast.walk(method)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
        or (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_Running"
        )
    ]
    assert found == []


def test_benchmark_names_the_package_coefficient_methods():
    # bench/run.py keeps its own copy of the method names, from which it
    # builds the coeffs deck and the per-route metric names
    from stirlingexp.coefficients import COEFF_METHODS

    path = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["COEFF_METHODS"]
    ]
    assert ast.literal_eval(value) == COEFF_METHODS
