"""The documented exit status names every error that cli.main maps to 1.

cli.main catches a tuple of exceptions and returns DOMAIN (exit 1) for
them.  README's "Exit status" paragraph and the cli module docstring list
them by name, so an exception added to that clause without a line in both
documents fails here.  The clause is read from the source with ast.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLI = ROOT / "src" / "polyaut" / "cli.py"
README = ROOT / "README.md"


def _domain_errors(tree: ast.Module) -> list:
    """The exception names of main's except clauses that return DOMAIN."""
    main = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "main")
    names = []
    for handler in ast.walk(main):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        returns = [node.value for node in handler.body if isinstance(node, ast.Return)]
        if any(isinstance(v, ast.Name) and v.id == "DOMAIN" for v in returns):
            caught = handler.type
            elts = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            names += [e.id for e in elts]
    return names


def _exit_status_paragraph(text: str) -> str:
    match = re.search(r"^Exit status:.*?(?=\n\s*\n|\Z)", text, re.M | re.S)
    assert match, "no Exit status paragraph"
    return match.group(0)


def _missing(names, text):
    return [name for name in names if not re.search(rf"\b{name}\b", text)]


def test_cli_main_maps_domain_errors():
    names = _domain_errors(ast.parse(CLI.read_text()))
    assert "ResourceCapExceeded" in names and "InverseMismatch" in names


def test_readme_exit_status_names_every_domain_error():
    names = _domain_errors(ast.parse(CLI.read_text()))
    assert _missing(names, _exit_status_paragraph(README.read_text())) == []


def test_cli_docstring_exit_status_names_every_domain_error():
    tree = ast.parse(CLI.read_text())
    names = _domain_errors(tree)
    assert _missing(names, _exit_status_paragraph(ast.get_docstring(tree))) == []
