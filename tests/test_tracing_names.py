"""The benchmark's tracer wraps covlang functions by name, so every name it
lists must exist: a deleted or renamed function would otherwise break
``perfbench/run.py --trace 1`` without any tier-1 test noticing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
