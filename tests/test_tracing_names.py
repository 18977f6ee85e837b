"""The benchmark's tracer wraps covlang functions by name, so every name it
lists must exist: a deleted or renamed function would otherwise break
``perfbench/run.py --trace 1`` without any tier-1 test noticing.  The same
holds for every name the rest of the benchmark reads from a covlang module,
or patches on one: its own self-tests are not part of this suite."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _listed_names():
    tracing = _tracing()
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module_name, names in table.items():
            for name in names:
                yield module_name, name
    for name in tracing.PROCEDURES + tracing.PRODUCT_STARTS:
        yield "sre_inclusion", name


@pytest.mark.parametrize("module_name, name", sorted(set(_listed_names())))
def test_traced_name_is_a_covlang_function(module_name, name):
    module = importlib.import_module(f"covlang.{module_name}")
    assert callable(getattr(module, name, None)), f"covlang.{module_name}.{name}"


def _used_names(path):
    """(module, name) for each name that the file imports from a covlang
    module, reads as ``<module>.<name>`` after ``from covlang import
    <module>``, or patches with ``setattr(<module>, "<name>", ...)``."""
    tree = ast.parse(path.read_text(), str(path))
    modules = {}  # local name -> covlang module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "covlang":
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("covlang."):
            for alias in node.names:
                yield node.module.removeprefix("covlang."), alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                yield modules[node.value.id], node.attr
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func, (target, name) = node.func, node.args[:2]
            if (
                (getattr(func, "id", None) or getattr(func, "attr", None)) == "setattr"
                and isinstance(target, ast.Name)
                and target.id in modules
                and isinstance(name, ast.Constant)
            ):
                yield modules[target.id], name.value


def _benchmark_uses():
    for path in sorted(PERFBENCH.glob("*.py")):
        for module_name, name in _used_names(path):
            yield path.name, module_name, name


@pytest.mark.parametrize("file, module_name, name", sorted(set(_benchmark_uses())))
def test_benchmark_name_exists_in_covlang(file, module_name, name):
    module = importlib.import_module(f"covlang.{module_name}")
    assert hasattr(module, name), f"{file}: covlang.{module_name}.{name}"
