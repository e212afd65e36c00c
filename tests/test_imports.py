"""Every name a module of the package imports is used in that module.

In each src/polyaut module other than __init__.py (whose imports are the
package's exports, see test_exports.py), every name an import statement
binds must be read elsewhere in the module, as a Name (an Attribute's base
is one).  An import nothing reads is left over from code that was removed.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "polyaut"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import():
    source = "from operator import add, sub\nimport os.path\nx = add(1, 2)\n"
    assert _unused_imports(source) == ["os", "sub"]
    assert _unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
