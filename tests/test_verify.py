"""The seeded verify suites reuse what each word already certifies."""

import pytest

from polyaut import polycore
from polyaut.verify import run_suite


@pytest.mark.parametrize("suite", ["lnd-witness", "lnd01"])
def test_witness_suites_read_the_certified_jacobian(count_calls, suite):
    # Each word's Jacobian constant is the product of its generators'
    # determinants; delta_derivation's Laplace check j(G) = 1/mu still
    # catches a wrong mu, so no suite computes a Jacobian determinant.
    calls = count_calls(polycore, "jacobian")
    assert run_suite(suite, 20260810, 25).passed
    assert calls == []


def test_parachute_suite_passes_the_word(count_calls, expand_calls):
    # Each word is certified once, from its generators' determinants, and
    # its queries share the certified pair: 5 words serve the 25 cases.
    calls = count_calls(polycore, "jacobian")
    assert run_suite("parachute", 20260810, 25).passed
    assert calls == []
    assert len(expand_calls) == 5
