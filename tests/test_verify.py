"""The seeded verify suites reuse what each word already certifies, keep
their case-count contract and are listed where the docs name them."""

import re
from pathlib import Path

import pytest

from polyaut import polycore, verify
from polyaut.verify import SUITES, run_suite


@pytest.mark.parametrize("suite", ["lnd-witness", "lnd01"])
def test_witness_suites_read_the_certified_jacobian(count_calls, suite):
    # Each word's Jacobian constant is the product of its generators'
    # determinants, and no suite computes a Jacobian determinant: the check
    # sum_j dg_i/dx_j * C_ij = 1/mu of both the chain-rule route
    # (lnd_witness) and the Laplace route (delta_derivation) still catches
    # a wrong mu.
    calls = count_calls(polycore, "jacobian")
    assert run_suite(suite, 20260810, 25).passed
    assert calls == []


def test_parachute_suite_passes_the_word(count_calls, expand_calls):
    # Each word is certified once, from its generators' determinants, and
    # its queries share its Certified: 5 words serve the 25 cases.  The other
    # 12 expansions are random_tame_word's, one per prefix it draws.
    calls = count_calls(polycore, "jacobian")
    assert run_suite("parachute", 20260810, 25).passed
    assert calls == []
    assert len(expand_calls) == 5 + 12


def test_parachute_suite_takes_the_weights_once_per_word(count_calls):
    # The word's Certified computes d once for its 5 queries.
    from polyaut import autmap

    calls = count_calls(autmap, "deg2_weights")
    assert run_suite("parachute", 20260810, 25).passed
    assert len(calls) == 5


def test_lnd_witness_suite_certifies_each_word_once(count_calls):
    # 30 words (25 plane, 5 principal n = 3): one inverse word and one
    # inverse expansion each, shared by the chain rule and the Laplace
    # reference, and one forward expansion and d each, shared by the report
    # and the witness.  Drawing the 5 principal words computes 6 reports
    # (one draw is rejected), hence 36 forward expansions and 36 d's.
    # random_tame_word expands each prefix it draws: 127 more expansions.
    from polyaut import autmap, verify

    verify.plane_corpus.cache_clear()
    verify.space_corpus_principal.cache_clear()
    inverts = count_calls(autmap, "invert_word")
    expands = count_calls(autmap, "expand")
    expansions = count_calls(autmap, "expansion")
    weights = count_calls(autmap, "deg2_weights")
    assert run_suite("lnd-witness", 20260810, 25).passed
    assert (len(inverts), len(expands), len(expansions), len(weights)) == (
        30, 36 + 127, 66 + 127, 36)


def test_lnd01_suite_builds_the_derivations_once_per_word(count_calls):
    # 13 words, with n summing to 34, serve the 25 cases: one Delta_i per
    # word and index, shared by the word's cases.
    from polyaut import derivation

    calls = count_calls(derivation, "delta_derivation")
    assert run_suite("lnd01", 20260810, 25).passed
    assert len(calls) == 34


def test_lnd_witness_suite_compares_the_two_routes(monkeypatch):
    # A doubled leading derivation is still locally nilpotent and still
    # kills R; only the comparison with the Laplace route rejects it.
    from polyaut import verify
    from polyaut.derivation import Derivation

    witness = verify.lnd_witness

    def doubled(*args, **kwargs):
        i, dbar = witness(*args, **kwargs)
        return i, Derivation(dbar.n, tuple(c * 2 for c in dbar.coeffs))

    monkeypatch.setattr(verify, "lnd_witness", doubled)
    result = run_suite("lnd-witness", 20260810, 5)
    assert result.failures
    assert {c.detail for c in result.failures} == {
        "leading derivation differs from the Laplace route"}


def test_a_suite_result_is_its_name_seed_and_cases():
    # The case count is len(cases): a mixed suite holds more cases than
    # the count it was asked for, so no separate count is kept.
    from dataclasses import fields

    from polyaut.verify import SuiteResult

    assert [f.name for f in fields(SuiteResult)] == ["name", "seed", "cases"]
    result = run_suite("lnd-witness", 20260810, 5)
    assert len(result.cases) == 6 and result.passed


#: The suites whose plane corpus is followed by max(1, count // 5) n = 3 words.
MIXED = {"lnd-witness", "degree-bound", "oracle-agreement"}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_suite_numbers_its_cases_in_order(suite):
    count = 7
    result = run_suite(suite, 20260810, count)
    assert result.name == ("lemma-1<2" if suite == "lemma-1-2" else suite)
    assert [c.index for c in result.cases] == list(range(len(result.cases)))
    assert len(result.cases) == count + (max(1, count // 5) if suite in MIXED else 0)


def test_oracle_agreement_names_an_error_that_is_not_a_mismatch(monkeypatch):
    # A budget error fails the case under its own type, not as a mismatch.
    from polyaut import groebner

    monkeypatch.setattr(groebner, "MAX_ORACLE_MONOMIALS", 1)
    result = run_suite("oracle-agreement", 20260810, 3)
    assert [(c.ok, c.detail) for c in result.cases] == [
        (False, "ResourceCapExceeded: graded oracle exceeded 1 monomials")] * 4


def test_oracle_agreement_reports_a_mismatch(monkeypatch):
    from polyaut.relations import OracleMismatch

    def mismatch(report):
        raise OracleMismatch("planted")

    monkeypatch.setattr(verify, "_shadow_check", mismatch)
    result = run_suite("oracle-agreement", 20260810, 3)
    assert [(c.ok, c.detail) for c in result.cases] == [
        (False, "oracle mismatch: planted")] * 4


def _paragraph(text, marker):
    return next(p for p in text.split("\n\n") if marker in p)


def test_the_docs_list_exactly_the_suites():
    # README's list (up to the sentence's full stop) and the table in the
    # module docstring name every suite and alias, and nothing else.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = _paragraph(readme, "Available `verify` suites:").split(":", 1)[1]
    listed = re.findall(r"`([^`]+)`", sentence.split(".", 1)[0])
    table = _paragraph(verify.__doc__, "jvdk-roundtrip")
    tabled = re.findall(r"^  ([a-z]\S*)", table, re.M) + re.findall(r"\(alias (\S+)\)", table)
    assert sorted(listed) == sorted(SUITES)
    assert sorted(tabled) == sorted(SUITES)
