"""Fixtures shared by the test modules."""

import sys
from fractions import Fraction

import pytest

from polyaut import autmap, cli, verify  # noqa: F401 - load the modules to patch
from polyaut.polycore import Polynomial


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps the function module.name wherever a
    polyaut module holds it by name (its own module and every module that
    imported it), and returns the list of first arguments, one entry per
    call; with every_arg=True an entry is the tuple of all the positional
    arguments.  The wrapper calls the function captured before patching."""

    def install(module, name, every_arg=False):
        original = getattr(module, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args if every_arg else args[0] if args else None)
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


@pytest.fixture
def count_products(monkeypatch):
    """count_products() counts, from then on, every Polynomial * (on either
    side) and returns the list that gets one entry per product."""

    def install():
        calls = []
        mul = Polynomial.__mul__

        def counting(*args):
            calls.append(None)
            return mul(*args)

        monkeypatch.setattr(Polynomial, "__mul__", counting)
        monkeypatch.setattr(Polynomial, "__rmul__", counting)
        return calls

    return install


@pytest.fixture
def count_fractions(monkeypatch):
    """count_fractions() counts, from then on, every Fraction that polyaut
    code constructs by calling Fraction(...), and returns the list of the
    calling functions' names, one entry per construction.  The results of
    Fraction arithmetic are not counted: the fractions module builds them
    differently from one Python version to the next."""

    def install():
        made = []
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals.get("__name__", "").split(".")[0] == "polyaut":
                made.append(caller.f_code.co_name)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        return made

    return install
