"""The documented work budgets are the ones the library enforces.

Every budget is a MAX_* module constant named in the message of a raise
ResourceCapExceeded(...).  ResourceCapExceeded's docstring lists the
budgets, and README describes each, so a budget added to or dropped from
the code without both documents fails here.  The raises are read from the
source with ast.
"""

import ast
import re
from pathlib import Path

from polyaut.polycore import ResourceCapExceeded

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "polyaut").glob("*.py"))
README = ROOT / "README.md"


def _enforced_budgets() -> set:
    """Every MAX_* name used inside a raise ResourceCapExceeded(...)."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id == "ResourceCapExceeded"):
                continue
            for sub in ast.walk(node.exc):
                name = (sub.id if isinstance(sub, ast.Name)
                        else sub.attr if isinstance(sub, ast.Attribute) else "")
                if name.startswith("MAX_"):
                    names.add(name)
    return names


def test_the_budgets_are_found():
    assert {"MAX_S_PAIRS", "MAX_DET_STEPS"} <= _enforced_budgets()


def test_the_docstring_names_exactly_the_enforced_budgets():
    assert set(re.findall(r"\bMAX_\w+", ResourceCapExceeded.__doc__)) == _enforced_budgets()


def test_readme_names_every_enforced_budget():
    text = README.read_text()
    assert [name for name in sorted(_enforced_budgets())
            if not re.search(rf"\b{name}\b", text)] == []
