"""Fixtures shared by the test modules."""

import sys

import pytest

from polyaut import autmap, cli, verify  # noqa: F401 - load the modules to patch


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function module.name wherever a
    polyaut module holds it by name (its own module and every module that
    imported it), and returns the list of first arguments, one entry per
    call.  The wrapper calls the function captured before patching."""

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0] if args else None)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").split(".")[0] == "polyaut"
                    and getattr(mod, name, None) is original):
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install


@pytest.fixture
def expand_calls(count_calls):
    """The words passed to autmap.expand, one entry per call."""
    return count_calls(autmap, "expand")
