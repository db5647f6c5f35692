"""Every package name the traced benchmark wraps must still exist.

``bench/tracing.py`` patches functions and methods by name; a rename or
removal in the package would only surface when the traced benchmark runs.
This test reads that file's tables and resolves each entry.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING_MODULE = _tracing_module()


@pytest.mark.parametrize(
    "mod_name, attr",
    [(entry[0], entry[1]) for entry in TRACING_MODULE.MODULE_FUNCTIONS],
)
def test_traced_function_resolves(mod_name, attr):
    module = importlib.import_module(f"{TRACING_MODULE.PACKAGE}.{mod_name}")
    assert callable(getattr(module, attr))


@pytest.mark.parametrize(
    "mod_name, cls_name, meth",
    [(entry[0], entry[1], entry[2]) for entry in TRACING_MODULE.METHODS],
)
def test_traced_method_resolves(mod_name, cls_name, meth):
    module = importlib.import_module(f"{TRACING_MODULE.PACKAGE}.{mod_name}")
    assert callable(vars(getattr(module, cls_name))[meth])
