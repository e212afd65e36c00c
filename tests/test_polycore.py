"""Polynomial core: parsing, arithmetic, weighted degrees, calculus, and
the exact row elimination."""

import random
import re
import sys
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from polyaut import polycore
from polyaut.autmap import Affine, AutWord, invert_generator, word_jacobian
from polyaut.verify import random_polynomial
from polyaut.polycore import (
    MAX_EXPONENT,
    MINUS_INFINITY,
    ExponentOverflow,
    Polynomial,
    PolyParseError,
    ResourceCapExceeded,
    WeightVector,
    compose,
    format_poly,
    is_homogeneous,
    jacobian,
    leading_term,
    linear_combination,
    parse_fraction,
    parse_poly,
    partial,
    wdeg,
    _pack,
    _rref,
    _scaled_degrees,
)


def P(text, n):
    return parse_poly(text, n)


def std(n):
    return WeightVector.standard(n)


# -- parsing and formatting --------------------------------------------------


def test_parse_simple_sum():
    p = P("x1 + x2", 2)
    assert p.terms == {(1, 0): 1, (0, 1): 1}


def test_parse_two_terms_with_powers():
    p = P("x3^2 + 5*x2^3", 3)
    assert p.terms == {(0, 0, 2): 1, (0, 3, 0): 5}


def test_parse_distributes_products():
    p = P("-2*x2*(x1*x3+x2^2)", 3)
    assert p == P("-2*x1*x2*x3 - 2*x2^3", 3)


def test_parse_rational_literals():
    p = P("1/2*x1 - 3/4", 1)
    assert p.coeff((1,)) == Fraction(1, 2)
    assert p.constant_value() == Fraction(-3, 4)


@pytest.mark.parametrize("text, value", [
    ("3", 3), ("-1/2", Fraction(-1, 2)), ("0.25", Fraction(1, 4)), ("+7", 7),
    ("1.", 1), (".5", Fraction(1, 2)), ("-0.125", Fraction(-1, 8)), ("12/16", Fraction(3, 4)),
])
def test_parse_fraction_reads_integers_ratios_and_decimals(text, value):
    assert parse_fraction(text) == value


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1_0", "1.5e2", "0x10", "1/2.5", "-", ".", ""])
def test_parse_fraction_refuses_other_text_naming_it(text):
    # Exponent notation would build its power of ten before any size check.
    with pytest.raises(ValueError, match=f"invalid rational literal {re.escape(repr(text))}"):
        parse_fraction(text)


def test_parse_reports_position():
    with pytest.raises(PolyParseError) as err:
        P("x1 + ", 2)
    assert err.value.position == 5


def test_parentheses_nest_up_to_the_bound():
    depth = polycore.MAX_PAREN_DEPTH
    assert P("(" * depth + "x1 + 1" + ")" * depth, 2) == P("x1 + 1", 2)
    text = "x2*" + "(" * (depth + 1) + "x1" + ")" * (depth + 1)
    with pytest.raises(PolyParseError, match=f"nested deeper than {depth}") as err:
        P(text, 2)
    # The error points at the first '(' past the bound.
    assert err.value.position == 3 + depth
    # Far past the bound the parse stops there too, with no RecursionError.
    with pytest.raises(PolyParseError):
        P("(" * 100_000 + "x1" + ")" * 100_000, 2)


def test_parse_rejects_out_of_range_variable():
    with pytest.raises(PolyParseError):
        P("x3", 2)
    with pytest.raises(PolyParseError):
        P("x0", 2)


def test_parse_multi_digit_variable_indices():
    p = P("x12^2", 12)
    assert p.terms == {(0,) * 11 + (2,): 1}


def test_numbers_past_the_digit_limit_are_parse_errors():
    # A literal, an exponent or a variable index of more digits than the
    # interpreter converts to an int is refused at its position; one of
    # exactly that many digits is read.
    limit = sys.get_int_max_str_digits()
    long = "1" * (limit + 1)
    for text, position in [(f"x1 + {long}", 5), (f"x1^{long}", 3), (f"2*x{long}", 2),
                           (f"(x1 + 3/{long})", 8), (f"x 0{long}", 0)]:
        with pytest.raises(PolyParseError) as err:
            P(text, 2)
        assert err.value.message == f"a number of more than {limit} digits"
        assert err.value.position == position
    assert P(f"{'0' * (limit - 1)}7*x1 + x1^{'0' * limit}", 1) == P("7*x1 + 1", 1)
    # The limit is read when the text is: with none, every number is read.
    sys.set_int_max_str_digits(0)
    try:
        assert P(f"x1 + {long}", 1) == P("x1", 1) + int(long)
    finally:
        sys.set_int_max_str_digits(limit)


def test_formatting_past_the_digit_limit_is_a_resource_cap():
    # 10^limit has one digit more than the interpreter prints, so
    # format_poly refuses it, naming the limit.
    limit = sys.get_int_max_str_digits()
    for p in [Polynomial.constant(10 ** limit, 1), P(f"x1 - 3/10^{limit}", 1)]:
        with pytest.raises(ResourceCapExceeded) as err:
            format_poly(p)
        assert str(err.value) == f"a coefficient past the limit of {limit} digits"


#: Every character str.isspace() accepts: the reader's whitespace.
_SPACES = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]


@st.composite
def _expressions(draw, n, depth=0):
    """(text, value): a random expression tree in n variables written in the
    grammar of parse_poly, with whitespace drawn between its tokens, and its
    value computed with Polynomial's +, -, * and **."""

    def space():
        return draw(st.text(st.sampled_from(_SPACES), max_size=2))

    def atom():
        kind = draw(st.sampled_from(("x", "int", "ratio", "group")[:4 if depth < 2 else 3]))
        if kind == "x":
            i = draw(st.integers(1, n))
            return f"x{space()}{i}", Polynomial.variable(i, n)
        if kind == "int":
            c = draw(st.integers(0, 10**20))
            return str(c), Polynomial.constant(c, n)
        if kind == "ratio":
            a, b = draw(st.integers(0, 99)), draw(st.integers(1, 99))
            return f"{a}{space()}/{space()}{b}", Polynomial.constant(Fraction(a, b), n)
        text, value = draw(_expressions(n, depth + 1))
        return f"({space()}{text}{space()})", value

    def factor():
        text, value = atom()
        if draw(st.booleans()):
            k = draw(st.integers(0, 2 if text.startswith("(") else 7))
            return f"{text}{space()}^{space()}{k}", value ** k
        return text, value

    def term():
        text, value = factor()
        for _ in range(draw(st.integers(0, 2))):
            more, other = factor()
            text, value = f"{text}{space()}*{space()}{more}", value * other
        return text, value

    text, value = term()
    if draw(st.booleans()):
        text, value = f"-{space()}{text}", -value
    for _ in range(draw(st.integers(0, 3))):
        more, other = term()
        if draw(st.booleans()):
            text, value = f"{text}{space()}+{space()}{more}", value + other
        else:
            text, value = f"{text}{space()}-{space()}{more}", value - other
    return f"{space()}{text}{space()}", value


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(_expressions))
def test_reader_matches_polynomial_arithmetic(tree):
    # The reader collects paren-free terms itself; its result is the one
    # that +, -, * and ** give on the same tree.
    text, value = tree
    p = parse_poly(text, value.n)
    assert p == value
    assert hash(p) == hash(value)


def test_reader_multiplies_no_polynomials_without_parentheses(count_calls):
    combinations = count_calls(polycore, "linear_combination")
    p = P("-2*x1^3*x2*3/4 + x2^2*x1 - 7 + 1/3*x3*x3 - x2^2*x1", 3)
    assert p == P("-3/2*x1^3*x2 + 1/3*x3^2 - 7", 3)
    assert combinations == []
    # A parenthesized group, and a power of one, is a polynomial.
    assert P("x1*(x2 + 1)^2 - x1", 2) == P("x1*x2^2 + 2*x1*x2", 2)
    assert combinations


def test_reader_checks_each_product_as_multiplication_does():
    # A term's running value times its next factor raises the message of
    # top * x1; a product that is already 0 multiplies without a check, as
    # Polynomial * does; and the coefficient budget still refuses 3^4000000.
    top = Polynomial.monomial((MAX_EXPONENT,), 1, 1)
    with pytest.raises(ExponentOverflow) as want:
        top * Polynomial.variable(1, 1)
    for text in [f"x1^{MAX_EXPONENT}*x1", "x1^2147483648*x1^2147483648",
                 f"x1^{MAX_EXPONENT}*(x1 + 1)", f"(x1 + 1)*2*x1^{MAX_EXPONENT}",
                 f"x1^{MAX_EXPONENT}*x1*0"]:
        with pytest.raises(ExponentOverflow) as got:
            parse_poly(text, 1)
        assert str(got.value) == str(want.value)
    # The check counts the term's monomial with its groups: the product of
    # x1 * x1^(MAX - 1) with x1^2 has the exponent MAX + 2, though the two
    # groups alone multiply to MAX + 1.
    with pytest.raises(ExponentOverflow, match=f"exponent {MAX_EXPONENT + 2} exceeds"):
        parse_poly(f"x1*(x1^{MAX_EXPONENT - 1})*(x1^2)", 1)
    assert parse_poly(f"0*x1^{MAX_EXPONENT}*x1", 1) == Polynomial.zero(1)
    assert parse_poly(f"(x1 - x1)*x1^{MAX_EXPONENT}*x1", 1) == Polynomial.zero(1)
    assert parse_poly(f"x1^{MAX_EXPONENT}*x2^{MAX_EXPONENT}", 2).terms == {
        (MAX_EXPONENT, MAX_EXPONENT): 1}
    with pytest.raises(ResourceCapExceeded):
        parse_poly("3^4000000", 1)


def test_reader_reads_a_group_power_off_its_base(count_calls):
    # The packed degrees of (..)^k are k times the base's: the reader and
    # ** each read the base's 4 keys, and none of the power's 84.
    joins = count_calls(polycore, "_join")
    assert len(P("(x1 + x2 + x3 + 1)^6", 3).terms) == 84
    assert sum(map(len, joins)) <= 8
    # The degrees it adds still bound the term: deg_x1 (x1^2 + x2)^3 = 6.
    assert len(P(f"(x1^2 + x2)^3*x1^{MAX_EXPONENT - 6}", 2).terms) == 4
    with pytest.raises(ExponentOverflow, match=f"exponent {MAX_EXPONENT + 1} exceeds"):
        P(f"(x1^2 + x2)^3*x1^{MAX_EXPONENT - 5}", 2)


def test_format_round_trips():
    for text, n in [
        ("x1^2*x2 - 2*x2^3 + 1/2", 2),
        ("-x1 + x2 - 1", 2),
        ("x1*x3^2 - 7/3*x2", 3),
        ("0", 2),
    ]:
        p = P(text, n)
        assert parse_poly(format_poly(p), n) == p


def test_format_zero():
    assert format_poly(Polynomial.zero(2)) == "0"


# -- ring operations ---------------------------------------------------------


def test_product_difference_of_squares():
    assert P("x1+x2", 2) * P("x1-x2", 2) == P("x1^2 - x2^2", 2)


def test_pow_zero_is_one():
    assert P("x1*x2 - 3", 2) ** 0 == Polynomial.constant(1, 2)


def test_scale_by_zero():
    assert (P("x1 - x2^2", 2) * 0).is_zero()


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        P("x1", 1) + P("x1", 2)


# -- weighted degrees --------------------------------------------------------


def test_wdeg_weighted_example():
    # weights (1, 3): the x2 term dominates x1 + x2
    assert wdeg(P("x1 + x2", 2), WeightVector((1, 3))) == 3


def test_wdeg_zero_polynomial():
    assert wdeg(Polynomial.zero(2), std(2)) is MINUS_INFINITY


def test_wdeg_standard():
    assert wdeg(P("x1^2*x2", 2), std(2)) == 3


@pytest.mark.parametrize("weights", [(1,), (1, 1, 1)])
@pytest.mark.parametrize("fn", [
    wdeg,
    leading_term,
    is_homogeneous,
], ids=["wdeg", "leading_term", "is_homogeneous"])
def test_weight_vector_length_must_match(fn, weights):
    # A mismatched weight vector is rejected, not truncated by zip.
    for p in (P("x1^2 + x2^5", 2), Polynomial.zero(2)):
        with pytest.raises(ValueError, match="weight vector length"):
            fn(p, WeightVector(weights))


def test_weight_vector_scales_itself_once(count_calls):
    from polyaut import polycore

    w = WeightVector((Fraction(1, 2), Fraction(2, 3)))
    calls = count_calls(polycore, "_int_weights")
    for k in range(10):
        assert wdeg(P(f"x1^{k} + x2", 2), w) == max(Fraction(k, 2), Fraction(2, 3))
    assert w.total() == Fraction(7, 6)
    assert calls == []
    # The cached integer form stays out of ==, hash and repr.
    same = WeightVector((Fraction(1, 2), Fraction(2, 3)))
    assert w == same and hash(w) == hash(same)
    assert repr(w) == "WeightVector(weights=(Fraction(1, 2), Fraction(2, 3)))"


def _reference_scaled_degrees(p, w):
    """The tuple route: s times each term's weighted degree, summed over
    its exponent tuple with the Fraction weights."""
    s = w._int_form[0]
    return s, {_pack(e, p.n): int(s * sum(a * wi for a, wi in zip(e, w.weights)))
               for e in p.support()}


_TOP = 1 << 31
_FIELD = st.one_of(st.integers(0, 6), st.integers(0, MAX_EXPONENT))
_DEGREE_WEIGHT = st.one_of(st.integers(1, 9), st.fractions(Fraction(1, 9), 9, max_denominator=9),
                           st.sampled_from([Fraction(1, 1000003), 1000003]))


@st.composite
def _wide_polynomials(draw):
    """(p, w): p with exponents up to MAX_EXPONENT, w weights on its variables."""
    n = draw(st.integers(1, 4))
    terms = draw(st.dictionaries(st.tuples(*[_FIELD] * n), st.integers(-9, 9).filter(bool),
                                 min_size=1, max_size=4))
    return Polynomial(n, terms), WeightVector(tuple(draw(_DEGREE_WEIGHT) for _ in range(n)))


@settings(max_examples=300, deadline=None)
@given(_wide_polynomials())
# Exponents at 2^31 - 1 = MAX // 2 and one past it for two unit weights, and
# at 4294 = MAX // 1000005 and one past it for the scaled ints (2, 1000003)
# of the weights (1/1000003, 1/2): every field of the multiply stays exact.
@example((Polynomial(2, {(_TOP - 1, 0): 1, (3, _TOP - 1): 2}), std(2)))
@example((Polynomial(2, {(_TOP, 0): 1, (3, _TOP - 1): 2}), std(2)))
@example((Polynomial(2, {(MAX_EXPONENT, 1): 1, (0, 5): 1}), std(2)))
@example((Polynomial(2, {(4294, 1): 1, (0, 4294): 1}),
          WeightVector((Fraction(1, 1000003), Fraction(1, 2)))))
@example((Polynomial(2, {(4294, 1): 1, (0, 4295): 1}),
          WeightVector((Fraction(1, 1000003), Fraction(1, 2)))))
def test_degrees_of_packed_exponents_match_the_tuple_route(case):
    # The multiply for weights whose scaled ints sum to at most 2^32 + 1, the
    # unpacking for larger ones (1/1000003 beside 1000003): both give the
    # tuple route's degrees.
    p, w = case
    s, degrees = _scaled_degrees(p, w)
    assert (s, degrees) == _reference_scaled_degrees(p, w)
    assert wdeg(p, w) == Fraction(max(degrees.values()), s)
    assert p.total_degree() == max(map(sum, p.support()))


def test_minus_infinity_ordering():
    assert MINUS_INFINITY < Fraction(-100)
    assert not (MINUS_INFINITY < MINUS_INFINITY)
    assert MINUS_INFINITY <= MINUS_INFINITY
    assert Fraction(0) > MINUS_INFINITY
    assert MINUS_INFINITY + Fraction(5) is MINUS_INFINITY


def test_leading_term_weighted_example():
    assert leading_term(P("x1 + x2", 2), WeightVector((1, 3))) == P("x2", 2)


def test_leading_term_idempotent_on_homogeneous():
    p = P("x1^3 + x1*x2^2", 2)
    assert leading_term(p, std(2)) == p


def _brute_leading(p, weights):
    """Independent oracle: filter terms at the maximal weighted degree."""
    degs = {m: sum(e * w for e, w in zip(m, weights)) for m in p.terms}
    top = max(degs.values())
    return Polynomial(p.n, {m: c for m, c in p.terms.items() if degs[m] == top})


def test_leading_term_of_nagata_first_coordinate():
    f1 = P("x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2", 3)
    expected = _brute_leading(f1, (1, 1, 1))
    assert leading_term(f1, std(3)) == expected
    assert expected == P("-(x3*(x1*x3+x2^2)^2)", 3)


# -- calculus ----------------------------------------------------------------


def test_partial_examples():
    assert partial(P("x1 - x2^2", 2), 2) == P("-2*x2", 2)
    assert partial(Polynomial.constant(7, 2), 1).is_zero()
    assert partial(P("x3^2 + x1*x2^2", 3), 3) == P("2*x3", 3)


def test_partial_index_out_of_range():
    with pytest.raises(IndexError):
        partial(P("x1", 2), 3)


def test_compose_projection_and_identity():
    f = [P("x1 + x2^2", 2), P("x2", 2)]
    assert compose(P("x1", 2), f) == f[0]
    p = P("x1^2*x2 - x2", 2)
    ident = [P("x1", 2), P("x2", 2)]
    assert compose(p, ident) == p


def test_compose_inverts_elementary():
    assert compose(P("x1 - x2^2", 2), [P("x1 + x2^2", 2), P("x2", 2)]) == P("x1", 2)


def test_jacobian_identity_and_alternating():
    n = 3
    ident = [Polynomial.variable(i, n) for i in range(1, n + 1)]
    assert jacobian(ident) == Polynomial.constant(1, n)
    assert jacobian([P("x2", 2), P("x1", 2)]) == Polynomial.constant(-1, 2)


def test_jacobian_elementary_map():
    assert jacobian([P("x1 + x2^2", 2), P("x2", 2)]) == Polynomial.constant(1, 2)


def test_jacobian_diagonal_affine():
    assert jacobian([P("2*x1", 2), P("x2", 2)]) == Polynomial.constant(2, 2)


# -- property tests ----------------------------------------------------------


@st.composite
def polynomials(draw, n=2, max_terms=4, max_exp=3, nonzero=False):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp) for _ in range(n)]),
            st.fractions(min_value=-9, max_value=9),
            max_size=max_terms,
        )
    )
    p = Polynomial(n, terms)
    if nonzero and p.is_zero():
        p = p + Polynomial.variable(1, n)
    return p


@st.composite
def weight_vectors(draw, n=2):
    ws = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    return WeightVector(tuple(Fraction(w) for w in ws))


@settings(max_examples=60, deadline=None)
@given(polynomials(nonzero=True), polynomials(nonzero=True), weight_vectors())
def test_wdeg_multiplicative(p, q, w):
    assert wdeg(p * q, w) == wdeg(p, w) + wdeg(q, w)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), weight_vectors())
def test_wdeg_subadditive(p, q, w):
    dp, dq = wdeg(p, w), wdeg(q, w)
    ds = wdeg(p + q, w)
    assert ds <= max(dp, dq)
    if dp != dq:
        assert ds == max(dp, dq)


@settings(max_examples=60, deadline=None)
@given(polynomials(nonzero=True), polynomials(nonzero=True), weight_vectors())
def test_leading_term_multiplicative(p, q, w):
    assert leading_term(p * q, w) == leading_term(p, w) * leading_term(q, w)


@settings(max_examples=60, deadline=None)
@given(polynomials(nonzero=True), weight_vectors())
def test_leading_term_is_homogeneous(p, w):
    lt = leading_term(p, w)
    assert is_homogeneous(lt, w)
    assert leading_term(lt, w) == lt


@settings(max_examples=60, deadline=None)
@given(polynomials(n=3, nonzero=True), weight_vectors(n=3))
def test_derivative_of_leading_term(p, w):
    # While d(leading)/dx_n is nonzero, it is the leading term of dp/dx_n
    # and the weighted degree drops by exactly w_n.
    lt = leading_term(p, w)
    dlt = partial(lt, 3)
    if dlt.is_zero():
        return
    dp = partial(p, 3)
    assert leading_term(dp, w) == dlt
    assert wdeg(dp, w) == wdeg(p, w) - w[3]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(polynomials(n=2, max_terms=3, max_exp=2), min_size=2, max_size=2),
)
def test_jacobian_degree_bound(ps):
    # Standard-degree bound: deg(j) <= sum deg(P_i) - n.
    j = jacobian(ps)
    if j.is_zero():
        return
    w = WeightVector.standard(2)
    bound = sum((wdeg(p, w) for p in ps), Fraction(0)) - 2
    assert wdeg(j, w) <= bound


# -- the integer core against {tuple: Fraction} reference arithmetic -----------
#
# The reference below is the dict-of-Fractions arithmetic the packed integer
# core replaced, kept here only as an independent model of the same ring.


def _ref_clean(a):
    return {m: c for m, c in a.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _ref_clean(out)


def _ref_neg(a):
    return {m: -c for m, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            out[m] = out.get(m, 0) + ca * cb
    return _ref_clean(out)


def _ref_one(n):
    return {(0,) * n: Fraction(1)}


def _ref_pow(a, k, n):
    out = _ref_one(n)
    for _ in range(k):
        out = _ref_mul(out, a)
    return out


def _ref_compose(a, coords, m):
    total = {}
    for mono, c in a.items():
        term = {(0,) * m: c}
        for coord, e in zip(coords, mono):
            for _ in range(e):
                term = _ref_mul(term, coord)
        total = _ref_add(total, term)
    return total


def _ref_partial(a, i):
    out = {}
    for mono, c in a.items():
        if mono[i]:
            out[mono[:i] + (mono[i] - 1,) + mono[i + 1:]] = c * mono[i]
    return out


def _ref_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = {}
    for j, entry in enumerate(rows[0]):
        minor = _ref_det([row[:j] + row[j + 1:] for row in rows[1:]])
        term = _ref_mul(entry, minor)
        total = _ref_add(total, _ref_neg(term) if j % 2 else term)
    return total


def _ref_degrees(a, ws):
    return {m: sum(e * w for e, w in zip(m, ws)) for m in a}


#: Coefficients over several coprime denominators.
COEFFS = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 2, 3, 5, 6, 7, 35]))
WEIGHTS = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2),
                           Fraction(5, 3), Fraction(3)])


def ref_polys(n, max_terms=4, max_exp=3):
    return st.dictionaries(
        st.tuples(*[st.integers(0, max_exp)] * n), COEFFS, max_size=max_terms
    ).map(_ref_clean)


@st.composite
def ref_pairs(draw, sizes=(1, 2, 3, 4, 12)):
    """(n, a, b) with some of b's terms chosen to cancel a's exactly."""
    n = draw(st.sampled_from(sizes))
    a = draw(ref_polys(n))
    b = draw(ref_polys(n))
    for m in sorted(a):
        if draw(st.booleans()):
            b[m] = -a[m]
    return n, a, b


def _poly(n, a):
    p = Polynomial(n, a)
    assert p.terms == a
    return p


@settings(max_examples=150, deadline=None)
@given(ref_pairs(), COEFFS, st.integers(-5, 5))
def test_core_ring_operations_match_reference(nab, c, k):
    n, a, b = nab
    p, q = _poly(n, a), _poly(n, b)
    assert (p + q).terms == _ref_add(a, b)
    assert (p - q).terms == _ref_add(a, _ref_neg(b))
    assert (-p).terms == _ref_neg(a)
    assert (p * q).terms == _ref_mul(a, b)
    assert (p * k).terms == (k * p).terms == _ref_clean({m: v * k for m, v in a.items()})
    assert (p * c).terms == _ref_clean({m: v * c for m, v in a.items()})
    # Equal polynomials reached along different paths are equal and hash equal.
    s1, s2 = p + q, Polynomial(n, _ref_add(a, b))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert (q + p) - q == p and hash((q + p) - q) == hash(p)
    # Factors of different lengths in both orders: the shorter one drives
    # the outer loop of linear_combination either way.
    head = dict(sorted(a.items())[:1])
    for x, y in [(head, b), (b, head), (a, b), (b, a)]:
        assert (_poly(n, x) * _poly(n, y)).terms == _ref_mul(x, y)
    # A scalar on the left of -.
    assert (k - p).terms == _ref_add(_ref_factor(k, n), _ref_neg(a))
    assert (c - p).terms == _ref_add(_ref_factor(c, n), _ref_neg(a))
    # Zero operands, as a polynomial and as a scalar, on either side.
    zero = Polynomial.zero(n)
    assert p * zero == zero * p == p * 0 == 0 * p == zero
    assert p + zero == zero + p == p - zero == p + 0 == 0 + p == p - 0 == p
    assert zero - p == 0 - p == -p
    one = Polynomial.constant(1, n)
    assert p ** 0 == zero ** 0 == one and zero ** 3 == zero
    assert p ** 1 == p and (p ** 1).terms == a


@pytest.mark.parametrize("other", [0.5, "2", None])
def test_ring_operators_take_polynomials_ints_and_fractions_only(other):
    # A float, str or None is not an operand of +, - or * on either side:
    # the operator returns NotImplemented and Python raises TypeError.
    x1 = Polynomial.variable(1, 2)
    for op in [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b]:
        with pytest.raises(TypeError):
            op(x1, other)
        with pytest.raises(TypeError):
            op(other, x1)
    for op in ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"]:
        assert getattr(x1, op)(other) is NotImplemented
    # Ints, Fractions and Polynomials of the same n are operands on both
    # sides; another variable count is a ValueError.
    half = Fraction(1, 2)
    assert 2 * x1 - half == x1 * 2 + (-half) == -(half - x1 * 2)
    with pytest.raises(ValueError, match="variable-count mismatch"):
        x1 * Polynomial.variable(1, 1)


@pytest.mark.parametrize("scalar", [0.1, 0.5, "2e3", "1/2", None])
def test_constructors_take_ints_and_fractions_only(scalar):
    # Every scalar slot keeps the ring operators' rule, checked in one place
    # (polycore._ratio): an int or a Fraction, never a float or a string.
    builders = [
        lambda c: Polynomial(1, {(1,): c}),
        lambda c: Polynomial.constant(c, 1),
        lambda c: Polynomial.monomial((1,), c, 1),
        lambda c: WeightVector((c, 1)),
        lambda c: Affine(((c,),), (0,)),
        lambda c: Affine(((1,),), (c,)),
    ]
    x1 = Polynomial.variable(1, 1)
    for build in builders:
        with pytest.raises(TypeError, match="must be an int or a Fraction"):
            build(scalar)
    tenth = Fraction(1, 10)
    assert Polynomial(1, {(1,): tenth, (0,): 3}) == x1 * tenth + 3
    assert Polynomial.constant(tenth, 1) == Polynomial.monomial((0,), tenth, 1)
    assert WeightVector((tenth, 1)).weights == (tenth, 1)
    assert WeightVector((tenth, 1))._int_form == (10, (1, 10))
    assert Affine(((tenth,),), (3,)).matrix == ((tenth,),)


def test_scalar_slots_keep_the_fractions_they_are_handed(count_fractions):
    # A WeightVector keeps a Fraction entry as it is and converts only an
    # int entry.  An Affine holds int rows: its entries read back equal to
    # the ones it was handed, and the only Fraction it builds is det(M).
    half, third = Fraction(1, 2), Fraction(1, 3)
    made = count_fractions()
    a = Affine(((half, 0), (0, third)), (third, 1))
    w = WeightVector((half, third))
    assert made == ["_rref"]
    assert a.matrix == ((half, 0), (0, third)) and a.shift == (third, 1)
    assert w.weights[0] is half and w.weights[1] is third


@settings(max_examples=60, deadline=None)
@given(ref_pairs(), st.integers(0, 4))
def test_core_power_matches_reference(nab, k):
    n, a, _ = nab
    small = dict(sorted(a.items())[:3])
    assert (_poly(n, small) ** k).terms == _ref_pow(small, k, n)


@st.composite
def ref_maps(draw, sizes=(1, 2, 3)):
    n = draw(st.sampled_from(sizes))
    p = draw(ref_polys(n, max_terms=3, max_exp=2))
    coords = [draw(ref_polys(n, max_terms=3, max_exp=2)) for _ in range(n)]
    return n, p, coords


@settings(max_examples=60, deadline=None)
@given(ref_maps())
def test_core_compose_matches_reference(npc):
    n, a, coords = npc
    out = compose(_poly(n, a), [_poly(n, c) for c in coords])
    assert out.terms == _ref_compose(a, coords, n)


@st.composite
def ref_combinations(draw, sizes=(1, 2, 3, 4, 12)):
    """(n, [(a, p)]): factors a that are rationals over coprime denominators,
    ints or polynomials, zero among each kind, and polynomials p."""
    n = draw(st.sampled_from(sizes))
    factors = st.one_of(COEFFS, st.integers(-3, 3), ref_polys(n))
    return n, draw(st.lists(st.tuples(factors, ref_polys(n)), max_size=5))


def _ref_factor(a, n):
    return a if isinstance(a, dict) else _ref_clean({(0,) * n: Fraction(a)})


@settings(max_examples=150, deadline=None)
@given(ref_combinations())
def test_core_linear_combination_matches_reference(npairs):
    n, pairs = npairs

    def polys(ref_pairs):
        return [(_poly(n, a) if isinstance(a, dict) else a, _poly(n, p)) for a, p in ref_pairs]

    expected = {}
    for a, p in pairs:
        expected = _ref_add(expected, _ref_mul(_ref_factor(a, n), p))
    out = linear_combination(polys(pairs), n)
    assert out.terms == expected
    assert out == Polynomial(n, expected) and hash(out) == hash(Polynomial(n, expected))
    # Every pair again with its factor negated: the sum cancels to 0.
    negated = [(_ref_neg(a) if isinstance(a, dict) else -a, p) for a, p in pairs]
    assert linear_combination(polys(pairs + negated), n) == Polynomial.zero(n)


def test_linear_combination_edge_cases():
    x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    assert linear_combination([], 2) == Polynomial.zero(2)
    assert linear_combination(iter([(0, x1), (Polynomial.zero(2), x2)]), 2).is_zero()
    assert linear_combination([(Fraction(1, 2), x1), (x2, x1), (Fraction(1, 3), x1)], 2) == \
        x1 * Fraction(5, 6) + x1 * x2
    with pytest.raises(ValueError, match="variable-count mismatch"):
        linear_combination([(1, x1)], 3)
    with pytest.raises(ValueError, match="variable-count mismatch"):
        linear_combination([(Polynomial.variable(1, 1), x1)], 2)


def test_linear_combination_exponent_overflow_as_mul():
    top = Polynomial.monomial((MAX_EXPONENT,), 1, 1)
    x1 = Polynomial.variable(1, 1)
    with pytest.raises(ExponentOverflow) as by_mul:
        top * x1
    for pair in [(top, x1), (x1, top)]:
        with pytest.raises(ExponentOverflow) as by_sum:
            linear_combination([(1, x1), pair], 1)
        assert str(by_sum.value) == str(by_mul.value)
    # A scalar factor leaves the exponents alone, and only the exponents a
    # sum forms are checked: top + 1 - top is 1, and times x1 it fits.
    assert linear_combination([(3, top), (top + 1 - top, x1)], 1) == top * 3 + x1


def test_linear_combination_overflow_names_the_largest_exponent_of_the_sum():
    # The keys of the whole sum are tested once, cancelled terms included:
    # the error names the largest exponent of all its products.
    top = Polynomial.monomial((MAX_EXPONENT,), 1, 1)
    x1 = Polynomial.variable(1, 1)
    for pairs in [[(x1, top), (x1 * x1, top)], [(x1 * x1, top), (-(x1 * x1), top)]]:
        with pytest.raises(ExponentOverflow, match=f"exponent {MAX_EXPONENT + 2} exceeds"):
            linear_combination(pairs, 1)


def test_determinant_expansion_is_bounded(monkeypatch):
    # A dense 4 x 4 Jacobian takes 1 + 4 * (1 + 3 * (1 + 2 * 1)) = 41
    # expansion steps: the budget admits it at 41 and refuses it at 40.
    # The error is the one Buchberger's MAX_S_PAIRS budget raises.
    from polyaut import groebner
    assert groebner.ResourceCapExceeded is ResourceCapExceeded
    rng = random.Random(4)
    coords = [linear_combination([(rng.randint(1, 9), Polynomial.variable(j, 4))
                                  for j in range(1, 5)], 4) for _ in range(4)]
    expected = jacobian(coords)
    assert expected.is_constant() and not expected.is_zero()
    monkeypatch.setattr(polycore, "MAX_DET_STEPS", 41)
    assert jacobian(coords) == expected
    monkeypatch.setattr(polycore, "MAX_DET_STEPS", 40)
    with pytest.raises(ResourceCapExceeded, match="exceeded 40 steps"):
        jacobian(coords)


@settings(max_examples=60, deadline=None)
@given(ref_pairs())
def test_core_partial_matches_reference(nab):
    n, a, _ = nab
    p = _poly(n, a)
    for i in range(n):
        assert partial(p, i + 1).terms == _ref_partial(a, i)


@settings(max_examples=60, deadline=None)
@given(ref_maps())
def test_core_jacobian_matches_reference(npc):
    n, _, coords = npc
    rows = [[_ref_partial(c, j) for j in range(n)] for c in coords]
    assert jacobian([_poly(n, c) for c in coords]).terms == _ref_det(rows)


@settings(max_examples=100, deadline=None)
@given(ref_pairs(), st.data())
def test_core_weighted_degrees_match_reference(nab, data):
    n, a, _ = nab
    ws = tuple(data.draw(st.lists(WEIGHTS, min_size=n, max_size=n)))
    w = WeightVector(ws)
    p = _poly(n, a)
    degs = _ref_degrees(a, ws)
    if not a:
        assert wdeg(p, w) is MINUS_INFINITY
        assert leading_term(p, w).is_zero()
        return
    top = max(degs.values())
    assert wdeg(p, w) == top
    assert leading_term(p, w).terms == {m: c for m, c in a.items() if degs[m] == top}


@settings(max_examples=100, deadline=None)
@given(ref_pairs())
def test_core_format_round_trips(nab):
    n, a, b = nab
    for p in (_poly(n, a), _poly(n, a) * _poly(n, b)):
        text = format_poly(p)
        assert parse_poly(text, n) == p
        assert hash(parse_poly(text, n)) == hash(p)


# -- the exponent field bound --------------------------------------------------


def test_largest_exponent_builds_and_formats():
    top = Polynomial.monomial((MAX_EXPONENT,), Fraction(-3, 2), 1)
    assert top.terms == {(MAX_EXPONENT,): Fraction(-3, 2)}
    assert format_poly(top) == f"-3/2*x1^{MAX_EXPONENT}"
    assert parse_poly(format_poly(top), 1) == top
    assert parse_poly(f"x1^{MAX_EXPONENT}", 1) == Polynomial.monomial((MAX_EXPONENT,), 1, 1)
    # Fields are separate: the largest exponent in every variable fits.
    x1, x2 = (Polynomial.monomial(e, 1, 2) for e in [(MAX_EXPONENT, 0), (0, MAX_EXPONENT)])
    assert (x1 * x2).terms == {(MAX_EXPONENT, MAX_EXPONENT): 1}


def test_coeff_refuses_malformed_exponents():
    # No term has an exponent past MAX_EXPONENT, so its coefficient is 0;
    # a tuple that names no monomial raises, as monomial does.
    p = parse_poly("x1*x2 + 3", 2)
    assert p.coeff((1, 1)) == 1 and p.coeff((0, 0)) == 3 and p.coeff((2, 0)) == 0
    assert p.coeff((MAX_EXPONENT + 1, 1)) == 0
    for exponents in [(1, 1, 0), (1.0, 1), (-1, 0)]:
        with pytest.raises(ValueError) as got:
            p.coeff(exponents)
        assert not isinstance(got.value, ExponentOverflow)
        with pytest.raises(ValueError):
            Polynomial.monomial(exponents, 1, 2)


@pytest.mark.parametrize("exponents", [(-1, 2**40), (1.5, 2**40), (2**40, -1)])
def test_malformed_exponents_are_named_before_an_overflow(exponents):
    # A negative or non-int exponent is the error even when another
    # exponent is past MAX_EXPONENT: coeff raises instead of reading 0.
    p = parse_poly("x1*x2 + 3", 2)
    with pytest.raises(ValueError, match="needs nonnegative integer exponents"):
        Polynomial.monomial(exponents, 1, 2)
    with pytest.raises(ValueError, match="needs nonnegative integer exponents"):
        p.coeff(exponents)


def test_exponent_overflow_raises_typed_error():
    top = Polynomial.monomial((MAX_EXPONENT,), 1, 1)
    x1 = Polynomial.variable(1, 1)
    with pytest.raises(ExponentOverflow):
        parse_poly(f"x1^{MAX_EXPONENT + 1}", 1)
    with pytest.raises(ExponentOverflow):
        top * x1
    with pytest.raises(ExponentOverflow):
        top ** 2
    with pytest.raises(ExponentOverflow):
        Polynomial(2, {(0, MAX_EXPONENT + 1): 1})
    with pytest.raises(ExponentOverflow):
        Polynomial.monomial((MAX_EXPONENT + 1, 0), 1, 2)
    assert issubclass(ExponentOverflow, ValueError)


def test_constant_power_past_the_largest_exponent_raises():
    # No exponent field bounds c^k, so the exponent itself is refused, with
    # the message of x^k; a constant written with a variable too.
    message = f"exponent {MAX_EXPONENT + 1} exceeds the largest exponent {MAX_EXPONENT}"
    for text in ["0", "1", "(-1)", "(x1 - x1 + 1)"]:
        with pytest.raises(ExponentOverflow) as exc:
            parse_poly(f"{text}^{MAX_EXPONENT + 1}", 1)
        assert str(exc.value) == message
    assert parse_poly(f"(-1)^{MAX_EXPONENT}", 1) == Polynomial.constant(-1, 1)
    assert Polynomial.zero(1) ** MAX_EXPONENT == Polynomial.zero(1)


#: Exponents up to MAX_EXPONENT, with their squares and sums near it.
_WIDE = st.one_of(st.integers(0, 6), st.integers(0, MAX_EXPONENT),
                  st.integers(_TOP - 3, _TOP + 3), st.integers(MAX_EXPONENT - 3, MAX_EXPONENT))


@st.composite
def _wide_pairs(draw):
    """(n, a, b, k): two {exponent tuple: int} polynomials, exponents up to
    MAX_EXPONENT, in the style of _wide_polynomials, and a power k."""
    n = draw(st.integers(1, 3))
    a, b = (draw(st.dictionaries(st.tuples(*[_WIDE] * n), st.integers(-9, 9).filter(bool),
                                 max_size=4)) for _ in "ab")
    return n, a, b, draw(st.integers(0, 3))


def _obeys_the_overflow_rule(compute, reference):
    """compute() raises ExponentOverflow naming the reference's largest
    exponent iff that passes MAX_EXPONENT, and gives the reference otherwise."""
    top = max((e for mono in reference for e in mono), default=0)
    if top > MAX_EXPONENT:
        with pytest.raises(ExponentOverflow) as err:
            compute()
        assert str(err.value) == f"exponent {top} exceeds the largest exponent {MAX_EXPONENT}"
    else:
        p = compute()
        assert p.terms == reference
        assert all(e <= MAX_EXPONENT for mono in p.terms for e in mono)


@settings(max_examples=200, deadline=None)
@given(_wide_pairs())
@example((1, {(MAX_EXPONENT,): 1}, {(1,): 1, (0,): -1}, 2))
@example((1, {(_TOP,): 1, (_TOP - 1,): 2}, {(_TOP - 1,): 1}, 2))
@example((2, {(MAX_EXPONENT, 0): 1, (0, 5): 3}, {(0, MAX_EXPONENT): 1}, 3))
def test_overflow_rule_matches_the_tuple_reference(case):
    # Every exponent the products form is checked exactly: an operation
    # raises iff the tuple-exponent reference has an exponent past
    # MAX_EXPONENT, and otherwise every exponent it reads back fits.
    n, a, b, k = case
    p, q = Polynomial(n, a), Polynomial(n, b)
    _obeys_the_overflow_rule(lambda: p * q, _ref_mul(a, b))
    _obeys_the_overflow_rule(lambda: linear_combination([(q, p)], n), _ref_mul(b, a))
    _obeys_the_overflow_rule(lambda: p - q, _ref_add(a, _ref_neg(b)))
    _obeys_the_overflow_rule(lambda: p ** k, _ref_pow(a, k, n))


def test_power_coefficient_budget(monkeypatch):
    # p^k may need k * ceil(log2(T * max|num| * den)) coefficient bits:
    # (x1 + 3)^4 needs 4 * ceil(log2(2 * 3)) = 12 and (1/3*x1)^6 needs 12.
    p, third = P("x1 + 3", 1), P("1/3*x1", 1)
    monkeypatch.setattr(polycore, "MAX_COEFFICIENT_BITS", 12)
    assert p ** 4 == p * p * p * p
    assert third ** 6 == Polynomial.monomial((6,), Fraction(1, 729), 1)
    for base, k in [(p, 5), (third, 7)]:
        with pytest.raises(ResourceCapExceeded) as exc:
            base ** k
        assert str(exc.value) == f"the coefficients of a power to {k} could need more than 12 bits"
    # 0, 1, -1 and monomials with coefficient 1 need no bits at all.
    monkeypatch.setattr(polycore, "MAX_COEFFICIENT_BITS", 0)
    for text in ["0", "1", "(-1)"]:
        assert P(text, 1) ** MAX_EXPONENT == P(text, 1)
    assert P("x1*x2", 2) ** 1000 == Polynomial.monomial((1000, 1000), 1, 2)


def test_literal_power_past_the_coefficient_budget_is_refused():
    # 3/2^1398101 may need 1398101 * ceil(log2(6)) = 4194303 bits, past
    # MAX_COEFFICIENT_BITS: refused before the power and its gcd are formed.
    assert polycore.MAX_COEFFICIENT_BITS < 4194303
    with pytest.raises(ResourceCapExceeded) as exc:
        parse_poly("3/2^1398101", 1)
    assert str(exc.value) == ("the coefficients of a power to 1398101 could need "
                              f"more than {polycore.MAX_COEFFICIENT_BITS} bits")


def _binary_products(k):
    """The products left-to-right binary powering takes for p^k."""
    return k.bit_length() - 1 + bin(k).count("1") - 1


def test_power_routine_matches_repeated_multiplication(count_products):
    # Asked in ascending, descending or random order, each memo gives
    # p^k = p * .. * p, and a walk through consecutive powers takes one
    # product per power.
    rng = random.Random(20261020)
    bases = [random_polynomial(rng, 2, max_terms=3, max_deg=2, coeff_bound=5,
                               variables=[rng.randrange(2)]) for _ in range(3)]
    bases.append(P("1/2*x1 - 3*x2", 2))
    ks = range(1, 65)
    products = count_products()
    for base in bases:
        powers = [None, base]
        for _ in ks[1:]:
            powers.append(powers[-1] * base)
        for order in (list(ks), list(ks)[::-1], rng.sample(ks, len(ks))):
            memo = {1: base}
            for k in order:
                before = len(products)
                assert polycore._power(memo, k) == powers[k]
                if order[0] == 1:
                    assert len(products) - before == (k > 1)


def test_power_routine_takes_no_more_products_than_binary_powering(count_products):
    # From a fresh memo, p^k takes at most the products of left-to-right
    # binary powering, O(log k), up to the largest exponent (the count does
    # not depend on p, so a monomial keeps each product cheap); and a memo
    # reuses every power it has formed, so a run 4, 3, 2 takes 3 products.
    x = P("x1", 1)
    products = count_products()
    for k in [*range(1, 5000), MAX_EXPONENT - 1, MAX_EXPONENT]:
        before = len(products)
        assert polycore._power({1: x}, k) == Polynomial.monomial((k,), 1, 1)
        assert len(products) - before <= _binary_products(k)
    assert _binary_products(MAX_EXPONENT) == 62
    base = P("x1 - 2", 1)
    expected = {k: base ** k for k in (4, 3, 2)}
    memo, before = {1: base}, len(products)
    assert {k: polycore._power(memo, k) for k in (4, 3, 2)} == expected
    assert len(products) - before == 3


def test_power_products_never_read_a_memo_of_another_base():
    # A memo is kept by its caller; one whose base is not the coordinate
    # (a coordinate since rewritten) is replaced, not read.
    x1, x2 = P("x1", 2), P("x2", 2)
    c1, c2 = P("x1 + 1", 2), P("2*x2", 2)
    powers = [{1: x1, 2: x1 * x1}, {1: c2}]
    assert list(polycore._power_products([(2, 1), (0, 3)], [c1, c2], powers)) == \
        [c1 ** 2 * c2, c2 ** 3]
    assert powers[0][1] is c1 and powers[0][2] == c1 ** 2
    assert powers[1][3] == c2 ** 3
    assert compose(P("x1^2*x2", 2), [c1, x2]) == c1 ** 2 * x2


def test_power_products_hand_a_swapped_memo_to_its_new_position(count_products):
    # A swap of two coordinates moves their memos with them: the memo
    # whose base is a is found at its new position and a^2 is read, not
    # formed again.
    a, b = P("x1 + x2", 2), P("x1 - 2*x2", 2)
    memo_a, memo_b = {1: a, 2: a * a}, {1: b}
    powers, square = [memo_a, memo_b], a * a
    products = count_products()
    assert list(polycore._power_products([(0, 2)], [b, a], powers)) == [square]
    assert products == []
    assert powers[0] is memo_b and powers[1] is memo_a


def test_exponent_bound_is_checked_exactly():
    # top + 1 - top carries the bound of top, but its product with x1 fits.
    top = Polynomial.monomial((MAX_EXPONENT - 1,), 1, 1)
    one = top + 1 - top
    assert one == Polynomial.constant(1, 1)
    x1 = Polynomial.variable(1, 1)
    assert one * x1 * x1 == x1 ** 2


# -- exact row elimination -----------------------------------------------------


def _random_matrix(rng, nrows, ncols):
    return [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(ncols)]
            for _ in range(nrows)]


def _matmul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
             for j in range(len(b[0]))] for i in range(len(a))]


def _identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def _laplace_det(m):
    """Independent determinant: the Jacobian of the linear forms m x."""
    n = len(m)
    forms = [sum((Polynomial.variable(j + 1, n) * a for j, a in enumerate(row) if a),
                 Polynomial.zero(n)) for row in m]
    return jacobian(forms).constant_value()


def _invertible_matrix(rng, n):
    while True:
        m = _random_matrix(rng, n, n)
        if _laplace_det(m) != 0:
            return m


def _divided(rows, pivots):
    """The reduced rows that _rref's int rows stand for: each pivot row
    divided by its pivot, and the zero rows after them as they are."""
    pivot_entries = [row[c] for row, c in zip(rows, pivots)]
    pivot_entries += [1] * (len(rows) - len(pivots))
    return [[Fraction(x, p) for x in row] for row, p in zip(rows, pivot_entries)]


def test_rref_inverse_times_matrix_is_identity():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = _invertible_matrix(rng, n)
        rows, pivots, det = _rref([row + e for row, e in zip(m, _identity(n))])
        assert pivots == list(range(n))
        # [M | I] is wide: its leading block's determinant is not reported.
        assert det == 0 and _rref(m)[2] == _laplace_det(m)
        inv = [row[n:] for row in _divided(rows, pivots)]
        assert _matmul(m, inv) == _identity(n)
        assert _matmul(inv, m) == _identity(n)
        # invert_generator runs the same elimination on [M | I].
        g = invert_generator(Affine(m, [Fraction(0)] * n))
        assert [list(row) for row in g.matrix] == inv


def test_rref_determinant_is_multiplicative():
    rng = random.Random(32)
    for _ in range(20):
        n = rng.randint(1, 4)
        a, b = _random_matrix(rng, n, n), _random_matrix(rng, n, n)
        det_a, det_b = _rref(a)[2], _rref(b)[2]
        assert _rref(_matmul(a, b))[2] == det_a * det_b
        assert det_a == _laplace_det(a)
        if det_a != 0:
            assert word_jacobian(AutWord(n, (Affine(a, [0] * n),))) == det_a


def test_rref_singular_matrix_has_zero_determinant_and_no_inverse():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 4)
        m = _random_matrix(rng, n - 1, n)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n - 1)]
        m.insert(rng.randint(0, n - 1),
                 [sum((c * row[j] for c, row in zip(coeffs, m)), Fraction(0))
                  for j in range(n)])
        assert _rref(m)[2] == 0
        _, pivots, det = _rref([row + e for row, e in zip(m, _identity(n))])
        assert det == 0 and pivots != list(range(n))
        with pytest.raises(ValueError):
            Affine(m, [0] * n)


def test_rref_reports_det_zero_without_a_full_leading_block():
    # Only a square matrix has a determinant: a tall or wide one reports 0,
    # whether or not its leading square block is regular.
    for m in ([[1, 0], [0, 1], [1, 1]], [[0, 1, 0], [0, 0, 1]], [[2, 1, 0], [0, 3, 1]]):
        assert _rref(m)[2] == 0
    assert _rref([[0, 1, 0], [0, 0, 1]])[1] == [1, 2]
    assert _rref([[2, 1], [0, 3]])[2] == 6
    assert _rref([[0, 1], [0, 3]])[2] == 0


def test_rref_rows_are_reduced_and_span_the_input():
    rng = random.Random(34)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 6)
        m = _random_matrix(rng, nrows, ncols)
        for row in m:
            if rng.random() < 0.3:
                row[:] = [Fraction(0)] * ncols
        rows, pivots, _ = _rref(m)
        assert pivots == sorted(pivots)
        assert all(type(a) is int for row in rows for a in row)
        for r, c in enumerate(pivots):
            assert [bool(row[c]) for row in rows] == [i == r for i in range(nrows)]
        assert all(not any(row) for row in rows[len(pivots):])
        # The reduced rows span the row space of the input: stacking them on
        # the input adds no pivot and leaves the echelon form unchanged.
        stacked, stacked_pivots, _ = _rref(rows + m)
        assert stacked_pivots == pivots
        assert (_divided(stacked, pivots)[: len(pivots)]
                == _divided(rows, pivots)[: len(pivots)])


def _reference_rref(matrix):
    """The Fraction Gauss-Jordan elimination that _rref ran before its
    integer interior, kept as the reference: a matrix of Fractions (zero
    entries may be int 0) to the reduced rows, each pivot entry 1, the
    pivot columns, and the determinant of the leading square block when
    there are at least as many columns as rows."""
    rows = [list(r) for r in matrix]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    det = Fraction(1)
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        p = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if p is None:
            det = Fraction(0)
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            det = -det
        pivot_row = rows[r]
        pivot = pivot_row[c]
        det *= pivot
        # Zero entries are skipped: they are most of a sparse matrix, and
        # every entry left of c in the pivot row is zero.
        if pivot != 1:
            pivot_row = rows[r] = [a / pivot if a else a for a in pivot_row]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [a - f * b if b else a for a, b in zip(rows[i], pivot_row)]
        pivots.append(c)
    return rows, pivots, det


_NONZERO_ENTRIES = st.one_of(
    st.integers(-30, 30).filter(bool),
    st.builds(Fraction, st.integers(-60, 60).filter(bool), st.integers(1, 12)),
)
_ENTRIES = st.one_of(st.just(0), st.just(Fraction(0)), _NONZERO_ENTRIES)


@st.composite
def _matrices(draw):
    """Wide, square and tall matrices of int, Fraction and int-0 entries,
    some with a zero row or a row that combines two others; the empty
    matrix too."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 7)) if nrows else 0
    m = [draw(st.lists(_ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if nrows >= 3 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(nrows)))[:3]
        c = draw(_NONZERO_ENTRIES)
        m[k] = [a + c * b for a, b in zip(m[i], m[j])]
    if nrows and draw(st.booleans()):
        m[draw(st.integers(0, nrows - 1))] = [0] * ncols
    return m


def _square(m):
    return not m or len(m[0]) == len(m)


@settings(max_examples=200, deadline=None)
@given(_matrices())
@example([])
@example([[0, 0], [0, 0]])
@example([[Fraction(1, 2), 3], [1, 6]])
@example([[Fraction(1, 2), 3, 0], [1, 6, Fraction(-2, 3)]])
def test_rref_matches_the_fraction_reference(m):
    # The rows are new lists of ints, one per input row, and match the
    # reference once each pivot row is divided by its pivot.  Only a square
    # matrix has a determinant; any other shape reports 0.
    before = [list(row) for row in m]
    rows, pivots, det = _rref(m)
    ref_rows, ref_pivots, ref_det = _reference_rref(
        [[Fraction(a) if a else a for a in row] for row in m])
    assert m == before
    assert pivots == ref_pivots
    assert len(rows) == len(m) and not any(row is r for row in rows for r in m)
    assert all(type(a) is int for row in rows for a in row)
    assert _divided(rows, pivots) == ref_rows
    assert det == (ref_det if _square(m) else 0) and type(det) is Fraction


@settings(max_examples=100, deadline=None)
@given(_matrices(), st.data())
def test_rref_is_unchanged_by_row_scaling(m, data):
    scales = [data.draw(_NONZERO_ENTRIES) for _ in m]
    scaled = [[s * a for a in row] for s, row in zip(scales, m)]
    rows, pivots, det = _rref(m)
    scaled_rows, scaled_pivots, scaled_det = _rref(scaled)
    assert scaled_pivots == pivots
    assert _divided(scaled_rows, pivots) == _divided(rows, pivots)
    assert scaled_det == det * prod(scales)
