"""Fixtures shared by the test modules."""

import pytest

from polyaut import autmap, cli, derivation, relations


@pytest.fixture
def expand_calls(monkeypatch):
    """The words passed to autmap.expand through the relations, derivation
    and cli modules, one entry per call."""
    calls = []

    def counting_expand(word):
        calls.append(word)
        return autmap.expand(word)

    for module in (relations, derivation, cli):
        monkeypatch.setattr(module, "expand", counting_expand)
    return calls
