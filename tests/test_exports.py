"""Every name the package exports has a caller outside the tests.

A name that polyaut/__init__.py imports must be referenced (as a Name, an
Attribute or an imported name) in src/polyaut outside its own definition
and outside __init__.py, or anywhere in demos/ or perfbench/.  An export
that only tests use is dead library surface: delete it or give it a caller.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyaut"


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def _references(path: Path) -> set:
    """The names referenced in a file, each except inside the top-level
    function or class of the same name."""
    found = set()
    for stmt in ast.parse(path.read_text()).body:
        owner = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name != owner:
                found.add(name)
    return found


def test_every_export_has_a_caller_outside_the_tests():
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    referenced = set().union(*(_references(p) for p in files))
    assert sorted(_exports() - referenced) == []
