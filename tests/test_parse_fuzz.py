"""Fuzzing the two text parsers, parse_poly and parse_word.

Formatted polynomials parse back to themselves, and random text over the
grammar's alphabet, with non-ASCII digits, '_' and '+' among it, either
parses or raises a PolyParseError (parse_poly) or another ValueError
(parse_word) - never any other exception - and a PolyParseError points
inside the text.  Word text is read with n given and
with n inferred.  Exponents in the random text are cut to one digit and at
most two powers: polycore.MAX_COEFFICIENT_BITS refuses 3^4000000, but
(x1 + 1)^4000000 would be computed in full, since no degree or term budget
bounds it yet.
"""

import re

from hypothesis import given, settings, strategies as st

from polyaut.autmap import parse_word
from polyaut.polycore import (
    MAX_EXPONENT,
    PolyParseError,
    Polynomial,
    format_poly,
    parse_poly,
)


@st.composite
def wide_polynomials(draw):
    """Polynomials in 1..12 variables (multi-digit indices from x10 on),
    with exponents up to MAX_EXPONENT and coefficients of many digits."""
    n = draw(st.integers(1, 12))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_EXPONENT))
    coeff = st.fractions(max_denominator=10**12)
    terms = draw(st.dictionaries(st.tuples(*[exponent] * n), coeff, max_size=5))
    return Polynomial(n, terms)


@settings(max_examples=200, deadline=None)
@given(wide_polynomials())
def test_format_then_parse_is_identity(p):
    assert parse_poly(format_poly(p), p.n) == p


_POLY_ALPHABET = "x0123456789+-*^/() .e\t²٣_"
_WORD_ALPHABET = _POLY_ALPHABET + "ETA|\n;"


def _bound_powers(text):
    """text with every exponent cut to its first digit and every '^' after
    the second dropped, so that no power is large."""
    text = re.sub(r"\^(\s*[0-9])[0-9]+", r"^\1", text)
    head, *rest = text.split("^")
    return head + "".join(("^" if i < 2 else "") + part for i, part in enumerate(rest))


def _check_parse(parse, text, others=ValueError):
    """parse(text) returns or raises a PolyParseError inside the text or one
    of others."""
    try:
        parse(text)
    except PolyParseError as err:
        assert 0 <= err.position <= len(text)
    except others:
        pass


@settings(max_examples=500, deadline=None)
@given(st.text(_POLY_ALPHABET, max_size=40).map(_bound_powers), st.integers(1, 3))
def test_random_text_parses_or_raises_a_value_error(text, n):
    # With powers bounded, every error of parse_poly is a PolyParseError.
    _check_parse(lambda t: parse_poly(t, n), text, others=())


@settings(max_examples=500, deadline=None)
@given(st.text(_WORD_ALPHABET, max_size=40).map(_bound_powers), st.integers(1, 3))
def test_random_word_text_parses_or_raises_a_value_error(text, n):
    _check_parse(lambda t: parse_word(t, n), text)


@settings(max_examples=500, deadline=None)
@given(st.text(_WORD_ALPHABET, max_size=40).map(_bound_powers))
def test_random_word_text_with_inferred_n_parses_or_raises_a_value_error(text):
    _check_parse(parse_word, text)
