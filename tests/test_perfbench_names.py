"""Every name the benchmark's tracer rebinds exists in the library.

perfbench/tracing.py wraps each function of its FUNCTIONS table and each
Polynomial method of its METHODS table with a bare getattr, so a deleted or
renamed one breaks a traced run while the rest of the tests pass.  The
tables are read from the source, without importing the tracer.
"""

import ast
import importlib
from pathlib import Path

from polyaut.polycore import Polynomial

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _table(name: str) -> dict:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING.name} has no table {name}")


def test_traced_functions_resolve():
    missing = [f"{module}.{attr}" for module, attr in _table("FUNCTIONS").values()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


def test_traced_polynomial_methods_resolve():
    missing = [attr for attrs in _table("METHODS").values() for attr in attrs
               if not callable(getattr(Polynomial, attr, None))]
    assert missing == []
