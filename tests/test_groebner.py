"""Buchberger engine, kernels of ring maps, and the graded oracle."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from polyaut.autmap import deg2_weights, expand, parse_map
from polyaut.groebner import (
    BlockElimination,
    ResourceCapExceeded,
    _divides as _packed_divides,
    _divisor,
    _packed_key,
    _reduce_basis,
    _remainder,
    buchberger,
    divmod_single,
    graded_kernel_oracle,
    kernel_ideal,
    normal_form,
    span_contains,
)
from polyaut.polycore import (
    FIELD_BITS,
    MAX_EXPONENT,
    ExponentOverflow,
    Polynomial,
    WeightVector,
    _pack,
    _rref,
    _unpacker,
    compose,
    is_homogeneous,
    leading_term,
    parse_poly,
    wdeg,
)
from polyaut.verify import random_polynomial, random_tame_word


def P(text, n):
    return parse_poly(text, n)


# -- reference order keys and division ----------------------------------------
#
# The references below rank exponent tuples with Fraction weights and divide
# with Polynomial arithmetic, independently of the engine's packed int keys
# and in-place division.


def _reference_key(order, exp):
    """(weighted degree, exp) for a WeightVector; ((sum x, x), (wdeg z, z))
    for BlockElimination with front part x and back part z."""
    if isinstance(order, BlockElimination):
        x, z = exp[: order.front], exp[order.front :]
        return ((sum(x), x), _reference_key(order.back_order, z))
    return (sum(w * e for w, e in zip(order.weights, exp)), exp)


def _reference_lm(p, order):
    return max(p.support(), key=lambda exp: _reference_key(order, exp))


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _primitive(p):
    """The rational multiple of p with coprime integer coefficients and a
    positive coefficient at the lexicographically largest monomial."""
    if p.is_zero():
        return p
    coeffs = p.terms
    scale = lcm(*(c.denominator for c in coeffs.values()))
    ints = [int(c * scale) for c in coeffs.values()]
    g = gcd(*ints)
    if coeffs[max(coeffs)] < 0:
        g = -g
    return p * Fraction(scale, g)


def _reference_divide(p, gens, order):
    """Multivariate division of p by gens on Polynomial arithmetic: cancel
    the leading term with the first divisor whose leading monomial divides
    it, else move it to the remainder."""
    lms = [_reference_lm(g, order) for g in gens]
    lcs = [g.coeff(lm) for g, lm in zip(gens, lms)]
    remainder = Polynomial.zero(p.n)
    work = p
    while not work.is_zero():
        mono = _reference_lm(work, order)
        coeff = work.coeff(mono)
        for g, lm, lc in zip(gens, lms, lcs):
            if _divides(lm, mono):
                quot = tuple(a - b for a, b in zip(mono, lm))
                work = work - Polynomial.monomial(quot, coeff / lc, p.n) * g
                break
        else:
            remainder = remainder + Polynomial.monomial(mono, coeff, p.n)
            work = work - Polynomial.monomial(mono, coeff, p.n)
    return remainder


# -- normal form and division ------------------------------------------------


def test_normal_form_self():
    r = P("x1 - x2^2", 2)
    basis = buchberger([r], WeightVector.standard(2))
    assert normal_form(r, basis).is_zero()


def test_normal_form_unit():
    basis = buchberger([P("x1", 2)], WeightVector.standard(2))
    assert normal_form(Polynomial.constant(1, 2), basis) == Polynomial.constant(1, 2)


def test_normal_form_divisible():
    basis = buchberger([P("x1 - x2^2", 2)], WeightVector.standard(2))
    assert normal_form(P("x1^2 - x2^4", 2), basis).is_zero()


def test_basis_holds_its_leading_monomials():
    rng = random.Random(557)
    bases = [buchberger([P("x1^2", 2), P("x1*x2", 2), P("x2^2", 2)], WeightVector.standard(2))]
    for _ in range(4):
        word = random_tame_word(rng, 3, max_gens=4, max_addend_deg=3, max_coord_deg=5)
        m = expand(word)
        w = WeightVector.standard(3)
        bases.append(kernel_ideal([leading_term(c, w) for c in m.coords], deg2_weights(m, w)))
    for basis in bases:
        assert basis.lms == tuple(_reference_lm(g, basis.order) for g in basis.gens)


def _derived_leading_monomials(monkeypatch):
    """Patch groebner._divisor to record each polynomial whose leading
    monomial it finds itself, because the caller held none."""
    from polyaut import groebner

    original = groebner._divisor
    derived = []

    def recording(g, key, lm=None):
        if lm is None:
            derived.append(g)
        return original(g, key, lm)

    monkeypatch.setattr(groebner, "_divisor", recording)
    return derived


def test_normal_form_reads_the_held_leading_monomials(monkeypatch):
    basis = buchberger([P("x1^2", 2), P("x1*x2", 2), P("x2^2", 2)], WeightVector.standard(2))
    assert len(basis) == 3
    derived = _derived_leading_monomials(monkeypatch)
    assert normal_form(Polynomial.constant(1, 2), basis) == Polynomial.constant(1, 2)
    # Division pops the dividend's leading terms off its order keys.
    assert len(derived) == 0


def test_relation_reports_compute_each_leading_monomial_once(monkeypatch):
    from polyaut.relations import relation_report
    from polyaut.verify import space_corpus_principal

    words = space_corpus_principal(20260813, 5)
    derived = _derived_leading_monomials(monkeypatch)
    counts = []
    for word in words:
        derived.clear()
        relation_report(word)
        assert len(set(map(id, derived))) == len(derived)
        counts.append(len(derived))
    assert counts == [3, 3, 3, 3, 3]


def test_a_basis_builds_its_division_form_once(count_calls):
    from polyaut import groebner

    cases = [(p, gens, order) for p, gens, order in _division_cases()]
    basis = max((buchberger(gens, order) for _, gens, order in cases), key=len)
    assert len(basis) >= 2
    fresh = buchberger(basis.gens, basis.order)
    built = count_calls(groebner, "_divisor")
    for p, _, order in cases:
        if order == basis.order:
            assert normal_form(p, basis) == _reference_divide(p, basis.gens, order)
    assert len(built) == len(basis)
    # The kept division form is neither compared nor hashed.
    assert basis == fresh and hash(basis) == hash(fresh)
    with pytest.raises(ValueError, match="polynomial has 2 variables, the basis 3"):
        normal_form(P("x1", 2), basis)


def test_buchberger_refuses_generators_of_different_variable_counts():
    with pytest.raises(ValueError, match="generators have inconsistent variable counts"):
        buchberger([P("x1", 2), P("x2", 3)], WeightVector.standard(2))
    with pytest.raises(ValueError, match="generators have inconsistent variable counts"):
        buchberger([P("0", 2), P("x2", 3)], WeightVector.standard(3))


def test_divmod_single_refuses_a_divisor_of_another_variable_count():
    with pytest.raises(ValueError, match="polynomial has 2 variables, the divisor 3"):
        divmod_single(P("x1^2", 2), P("x1", 3))


def test_span_contains_refuses_a_target_of_another_variable_count():
    with pytest.raises(ValueError, match="vectors and target have inconsistent variable counts"):
        span_contains([P("x1", 3)], P("x1", 2))


def test_divmod_single_exact_and_inexact():
    a = P("x1^2 - x2^4", 2)
    b = P("x1 - x2^2", 2)
    q, r = divmod_single(a, b)
    assert r.is_zero() and q * b == a
    assert not divmod_single(P("x2", 2), P("x1", 2))[1].is_zero()


def _division_cases():
    """Seeded (dividend, divisors, order) triples: dividends with rational
    coefficients, primitive non-monic divisors as inside buchberger, and
    standard, weighted, x2-heavy and block orders."""
    rng = random.Random(558)
    orders = [WeightVector.standard(3), WeightVector((1, 9, 1)),
              WeightVector((Fraction(1, 2), 3, Fraction(2, 3))),
              BlockElimination(1, WeightVector((2, 1)))]
    for trial in range(32):
        p = Polynomial.zero(3)
        for _ in range(3):
            p = p + random_polynomial(rng, 3, max_terms=3, max_deg=4) * Fraction(
                rng.randint(-5, 5), rng.randint(1, 7))
        gens = [_primitive(random_polynomial(rng, 3, max_terms=3, max_deg=2, coeff_bound=6))
                for _ in range(rng.randint(1, 3))]
        yield p, gens, orders[trial % len(orders)]


def _engine_divide(p, gens, lms, order):
    """The engine's remainder of p by nonzero gens with leading monomials lms."""
    key = _packed_key(order, p.n)
    return _remainder(p, [_divisor(g, key, lm) for g, lm in zip(gens, lms)], key)


def test_divide_matches_reference():
    nonmonic = 0
    for p, gens, order in _division_cases():
        lms = [_reference_lm(g, order) for g in gens]
        nonmonic += any(g.coeff(lm) != 1 for g, lm in zip(gens, lms))
        assert _engine_divide(p, gens, lms, order) == _reference_divide(p, gens, order)
        basis = buchberger(gens, order)
        assert normal_form(p, basis) == _reference_divide(p, basis.gens, order)
        q, r = divmod_single(p, gens[0], order)
        assert r == _reference_divide(p, gens[:1], order) and q * gens[0] + r == p
    assert nonmonic >= 10


def test_only_divmod_single_scales_by_a_fraction(count_fractions):
    # Division runs on each divisor's integer multiple; divmod_single alone
    # scales back, once, by the Fraction it builds from the leading terms.
    cases = list(_division_cases())
    bases = [buchberger(gens, order) for _, gens, order in cases]
    made = count_fractions()
    for (p, gens, order), basis in zip(cases, bases):
        buchberger(gens, order)
        normal_form(p, basis)
    assert "_divisor" not in made
    for p, gens, order in cases:
        made.clear()
        divmod_single(p, gens[0], order)
        assert made.count("divmod_single") == 1 and "_divisor" not in made


def test_orders_reject_negative_and_miscounted_weights():
    for weights in [(1, -1), (0, 1)]:
        with pytest.raises(ValueError, match="weights must be positive"):
            WeightVector(weights)
    with pytest.raises(ValueError, match="order has 2 weights, not 3"):
        _packed_key(WeightVector((1, 2)), 3)
    with pytest.raises(ValueError, match="order has 2 weights, not 1"):
        _packed_key(BlockElimination(1, WeightVector((1, 2))), 2)
    with pytest.raises(ValueError, match="order has 1 weights, not 2"):
        kernel_ideal([P("x1", 2), P("x2^2", 2)], WeightVector((1,)))


def test_division_past_the_largest_exponent_raises():
    # x2 leads x2 - x1^2 for the weights (1, 3); cancelling x1^(MAX - 1) * x2
    # would need x1^(MAX + 1).
    order = WeightVector((1, 3))
    g = P("x2 - x1^2", 2)
    p = Polynomial.monomial((MAX_EXPONENT - 1, 1), 1, 2)
    with pytest.raises(ExponentOverflow):
        _engine_divide(p, [g], [(0, 1)], order)
    with pytest.raises(ExponentOverflow):
        divmod_single(p, g, order)
    # Below 2^31 in every field, x2 | x1^(2^31 - 1) * x2 by borrow, and the
    # shifted tail term x1^(2^32) sets a guard bit when it is popped.
    top = 1 << 31
    heavy = WeightVector((1, top + 2))
    h = P("x2", 2) - Polynomial.monomial((top + 1, 0), 1, 2)
    with pytest.raises(ExponentOverflow):
        _engine_divide(Polynomial.monomial((top - 1, 1), 1, 2), [h], [(0, 1)], heavy)
    assert (_engine_divide(Polynomial.monomial((top - 2, 1), 1, 2), [h], [(0, 1)], heavy)
            == Polynomial.monomial((MAX_EXPONENT, 0), 1, 2))
    # The S-pair of x1*x2 + x2^2 and x2^MAX shifts x2^2 by x2^(MAX - 1).
    gens = [P("x1*x2 + x2^2", 2), Polynomial.monomial((0, MAX_EXPONENT), 1, 2)]
    for pair in (gens, gens[::-1]):
        with pytest.raises(ExponentOverflow):
            buchberger(pair, WeightVector.standard(2))
    # A remainder holds its exact exponents, which a later product checks.
    r = _engine_divide(Polynomial.monomial((MAX_EXPONENT, 0), 1, 2), [P("x2", 2)], [(0, 1)],
                       order)
    with pytest.raises(ExponentOverflow):
        r * P("x1", 2)


def test_division_term_past_the_largest_exponent_that_cancels_does_not_raise():
    # Dividing x1^(MAX - 1) * (x2 + x3) by x2 - x1^2 and x3 + x1^2 (leading
    # x2 and x3 for the weights (1, 3, 3)) forms x1^(MAX + 1) twice, with
    # opposite signs, before either is popped: only a popped term raises.
    order = WeightVector((1, 3, 3))
    g, h = P("x2 - x1^2", 3), P("x3 + x1^2", 3)
    p = Polynomial.monomial((MAX_EXPONENT - 1, 0, 0), 1, 3) * P("x2 + x3", 3)
    assert _engine_divide(p, [g, h], [(0, 1, 0), (0, 0, 1)], order).is_zero()
    with pytest.raises(ExponentOverflow):
        _engine_divide(p, [g], [(0, 1, 0)], order)


def _sign(a, b):
    return (a > b) - (a < b)


_WEIGHT = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)
# Weights whose scaled ints can sum past 2^32 + 1, where a WeightVector's
# linear form unpacks: 1/1000003 beside 1000003 scales to (1, 1000003^2).
_ORDER_WEIGHT = st.one_of(_WEIGHT, st.sampled_from([Fraction(1, 1000003), 1000003]))
_EXPONENT = st.one_of(st.integers(0, 6), st.integers(0, MAX_EXPONENT))


@st.composite
def _order_and_exponents(draw):
    """An order on n variables and two exponent tuples for it."""
    kind = draw(st.sampled_from(["standard", "int", "rational", "block"]))
    n = draw(st.integers(1, 4))
    if kind == "standard":
        order = WeightVector.standard(n)
    elif kind == "int":
        order = WeightVector(tuple(draw(st.integers(1, 9)) for _ in range(n)))
    elif kind == "rational":
        order = WeightVector(tuple(draw(_ORDER_WEIGHT) for _ in range(n)))
    else:
        nx = draw(st.integers(1, 3))
        d = tuple(draw(_ORDER_WEIGHT) for _ in range(n))
        order, n = BlockElimination(nx, WeightVector(d)), nx + n
    a = draw(st.tuples(*[_EXPONENT] * n))
    # b shares some of a's entries, so that comparisons often tie on a prefix.
    b = tuple(draw(st.one_of(st.just(e), _EXPONENT)) for e in a)
    return order, n, a, b


def _reference_int_key(order, exp):
    """The packed key as an int from the exponent tuple: the fields sum x and
    x, then the scaled wdeg z in enough bits for MAX_EXPONENT * sum(ws),
    then the packed exponent (x empty for a WeightVector)."""
    nx, back = ((order.front, order.back_order) if isinstance(order, BlockElimination)
                else (0, order))
    ws = back._int_form[1]
    x, z = exp[:nx], exp[nx:]
    front = sum(x) << FIELD_BITS * nx | _pack(x, nx) if nx else 0
    wbits = (MAX_EXPONENT * sum(ws)).bit_length()
    wdeg_z = sum(e * w for e, w in zip(z, ws))
    return (front << wbits | wdeg_z) << FIELD_BITS * len(exp) | _pack(exp, len(exp))


# Fields at MAX // 3, 2^30 and 2^31 (the bit division's overflow guard
# reads) for the weights (1, 2), for a block with two front variables and
# the back weight 3, and for the weights (1/1000003, 1000003), whose linear
# form unpacks, alone and as a block's back order.
_M3 = MAX_EXPONENT // 3
_P30 = 1 << 30
_WIDE = WeightVector((Fraction(1, 1000003), 1000003))


@settings(max_examples=300, deadline=None)
@given(_order_and_exponents())
# Equal sum x, and a back degree 9 * MAX that must not reach the x fields.
@example((BlockElimination(2, WeightVector((9,))), 3, (0, 5, MAX_EXPONENT), (1, 4, 0)))
@example((WeightVector((1, 2)), 2, (_M3 - 1, 1), (_M3, 0)))
@example((WeightVector((1, 2)), 2, (_M3 + 1, 0), (_M3, 1)))
@example((WeightVector((1, 2)), 2, (1 << 31, 0), ((1 << 31) - 1, 1)))
@example((WeightVector((1, 2)), 2, (_P30 - 1, 2), (_P30, 0)))
@example((BlockElimination(2, WeightVector((3,))), 3, (_P30 - 1, 1, _P30 - 1), (_P30, 0, 0)))
@example((BlockElimination(2, WeightVector((3,))), 3, (_M3, 0, _M3 - 1), (_M3 - 1, 1, _M3 + 1)))
@example((BlockElimination(2, WeightVector((3,))), 3, (0, 1 << 31, 0), (1, (1 << 31) - 1, 0)))
@example((_WIDE, 2, (MAX_EXPONENT, 0), (0, 1)))
@example((_WIDE, 2, (1 << 31, 5), ((1 << 31) - 1, 6)))
@example((BlockElimination(1, _WIDE), 3, (2, MAX_EXPONENT, 0), (2, 0, 4295)))
@example((BlockElimination(2, _WIDE), 4, (_M3, 0, 1 << 31, 1), (_M3 - 1, 1, 0, 2)))
def test_packed_key_ranks_like_the_reference_key(case):
    order, n, a, b = case
    key = _packed_key(order, n)
    ka, kb = key(_pack(a, n)), key(_pack(b, n))
    assert (ka, kb) == (_reference_int_key(order, a), _reference_int_key(order, b))
    assert _sign(ka, kb) == _sign(_reference_key(order, a), _reference_key(order, b))
    # Division shifts keys by adding them and reads exponents off the low bits.
    assert ka & ((1 << FIELD_BITS * n) - 1) == _pack(a, n)
    s = tuple(x + y for x, y in zip(a, b))
    if max(s) <= MAX_EXPONENT:
        assert key(_pack(s, n)) == ka + kb


@st.composite
def _exponent_pairs(draw):
    """(a, b) on n variables, b often a plus a small or no step per field."""
    n = draw(st.integers(1, 4))
    a = draw(st.tuples(*[_EXPONENT] * n))
    b = tuple(draw(st.one_of(st.just(e), st.just(e + 1), _EXPONENT)) for e in a)
    return a, tuple(min(e, MAX_EXPONENT) for e in b)


@settings(max_examples=300, deadline=None)
@given(_exponent_pairs())
@example((((1 << 31) - 1, 0), ((1 << 31) - 1, 5)))
@example((((1 << 31) - 1, 3), ((1 << 31) - 1, 2)))
@example(((1 << 31, 0), (1 << 31, 5)))
@example(((1 << 31, 0), ((1 << 31) - 1, 5)))
@example(((0, 1 << 31), (MAX_EXPONENT, MAX_EXPONENT)))
def test_divisibility_by_borrow_matches_the_tuple_test(case):
    # The borrow test for every exponent up to MAX_EXPONENT; the division
    # loop's own copy of it divides x^b by x^a exactly when a | b.
    a, b = case
    n = len(a)
    divides = _divides(a, b)
    assert _packed_divides(_pack(a, n), _pack(b, n), n) == divides
    order = WeightVector.standard(n)
    x_a, x_b = Polynomial.monomial(a, 1, n), Polynomial.monomial(b, 1, n)
    assert _engine_divide(x_b, [x_a], [a], order).is_zero() == divides


# -- buchberger --------------------------------------------------------------


def test_buchberger_zero_input():
    basis = buchberger([Polynomial.zero(2)], WeightVector.standard(2))
    assert basis.is_zero_ideal()


def test_buchberger_two_reductions():
    basis = buchberger([P("x1 - x2^2", 2), P("x2", 2)], WeightVector.standard(2))
    assert set(basis.gens) == {P("x1", 2), P("x2", 2)}


def test_buchberger_principal_input_is_monic_singleton():
    basis = buchberger([P("6*x1^2 - 4*x2", 2)], WeightVector.standard(2))
    assert len(basis) == 1
    assert basis.gens[0] == P("x1^2 - 2/3*x2", 2)


def test_buchberger_s_polynomials_reduce_to_zero():
    rng = random.Random(31)
    for _ in range(6):
        gens = [random_polynomial(rng, 2, max_terms=3, max_deg=3, coeff_bound=4)
                for _ in range(2)]
        basis = buchberger(gens, WeightVector.standard(2))
        for i in range(len(basis.gens)):
            for j in range(i + 1, len(basis.gens)):
                s = _s_poly(basis.gens[i], basis.gens[j], basis.order)
                assert normal_form(s, basis).is_zero()


def test_buchberger_resource_cap(monkeypatch):
    # The budget is the module constant MAX_S_PAIRS, read at the check.
    from polyaut import groebner

    gens = [
        P("x1^3 - 2*x1*x2", 2),
        P("x1^2*x2 - 2*x2^2 + x1", 2),
    ]
    monkeypatch.setattr(groebner, "MAX_S_PAIRS", 1)
    with pytest.raises(ResourceCapExceeded, match="exceeded 1 S-pair reductions"):
        buchberger(gens, WeightVector.standard(2))


def test_division_step_budget(monkeypatch):
    # The budget is the module constant MAX_DIVISION_STEPS, counted per
    # _reduce call and read at its start: x1^5 by x1 - 1 cancels x1^5, x1^4,
    # .., x1 in 5 steps and leaves 1.
    from polyaut import groebner

    p, d = P("x1^5", 1), P("x1 - 1", 1)
    basis = buchberger([d], WeightVector.standard(1))
    monkeypatch.setattr(groebner, "MAX_DIVISION_STEPS", 5)
    assert normal_form(p, basis) == P("1", 1)
    q, r = divmod_single(p, d)
    assert (q, r) == (P("x1^4 + x1^3 + x1^2 + x1 + 1", 1), P("1", 1))
    monkeypatch.setattr(groebner, "MAX_DIVISION_STEPS", 4)
    with pytest.raises(ResourceCapExceeded, match="a division exceeded 4 steps"):
        divmod_single(p, d)
    # Buchberger's S-pair reductions (x1 - x2^5 by x2 - 1 here) and
    # normal_form divide under it too.
    with pytest.raises(ResourceCapExceeded, match="a division exceeded 4 steps"):
        buchberger([P("x1 - x2^6", 2), P("x2 - 1", 2)], WeightVector.standard(2))
    with pytest.raises(ResourceCapExceeded, match="a division exceeded 4 steps"):
        normal_form(p, basis)


def test_relation_report_principal_cases():
    # relation_report reads principality off the size of the reduced basis.
    from polyaut.relations import relation_report

    def report(text, n):
        return relation_report(parse_map(text, n))

    zero = report("x1 + 1; x2 - x1", 2)
    assert zero.principal and zero.R == Polynomial.zero(2)
    assert zero.to_dict()["R"] == "0" and zero.to_dict()["ideal"] == []
    one = report("x1 + x2^2; x2", 2)
    assert one.principal and one.R == P("x1 - x2^2", 2)
    assert one.to_dict()["R"] == "z1 - z2^2"
    two = report("x1 + x3^2; x2 + x3^2; x3", 3)
    assert not two.principal and two.R is None
    assert two.to_dict()["ideal"] == ["z1 - z3^2", "z2 - z3^2"]


def test_relation_report_reads_the_s_pair_budget_constant(monkeypatch, count_calls):
    # relation_report takes no budget parameter: its one buchberger call
    # reads groebner.MAX_S_PAIRS.
    from polyaut import groebner
    from polyaut.relations import relation_report

    m = parse_map("x1 + x2^2\nx2", 2)
    calls = count_calls(groebner, "buchberger")
    with pytest.raises(TypeError, match="pair_cap"):
        relation_report(m, pair_cap=1)
    assert calls == []
    assert relation_report(m).R == P("x1 - x2^2", 2)
    assert len(calls) == 1
    monkeypatch.setattr(groebner, "MAX_S_PAIRS", 0)
    with pytest.raises(ResourceCapExceeded, match="exceeded 0 S-pair reductions"):
        relation_report(m)
    assert len(calls) == 2


# -- kernel ideals -----------------------------------------------------------


def test_kernel_of_affine_leading_terms_is_zero():
    # Leading terms of an affine map are independent linear forms.
    images = [P("x1 + x2", 2), P("x2", 2)]
    basis = kernel_ideal(images, WeightVector((1, 1)))
    assert basis.is_zero_ideal()


def test_kernel_elementary_example():
    images = [P("x2^2", 2), P("x2", 2)]
    basis = kernel_ideal(images, WeightVector((2, 1)))
    assert basis.gens == (P("x1 - x2^2", 2),)


NAGATA_LEADING = [
    "-x1^2*x3^3 - 2*x1*x2^2*x3^2 - x2^4*x3",
    "x1*x3^2 + x2^2*x3",
    "x3",
]


def test_kernel_nagata_example():
    images = [P(t, 3) for t in NAGATA_LEADING]
    d = WeightVector((5, 3, 1))
    basis = kernel_ideal(images, d)
    assert basis.gens == (P("x2^2 + x1*x3", 3),)


def test_kernel_generators_annihilate_images():
    rng = random.Random(77)
    for _ in range(5):
        images = [
            random_polynomial(rng, 2, max_terms=2, max_deg=3, coeff_bound=3)
            for _ in range(2)
        ]
        w = WeightVector.standard(2)
        images = [leading_term(p, w) for p in images]
        d = WeightVector(tuple(max(Fraction(1), wdeg(p, w)) for p in images))
        basis = kernel_ideal(images, d)
        for g in basis.gens:
            assert compose(g, images).is_zero()


def _seeded_kernel_bases():
    """Ten kernel_ideal bases of seeded tame words, each with its weights d."""
    rng = random.Random(83)
    for _ in range(10):
        n = rng.choice([2, 3])
        m = expand(random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                    max_coord_deg=8 if n == 2 else 5))
        w = WeightVector.standard(n)
        d = deg2_weights(m, w)
        yield kernel_ideal([leading_term(c, w) for c in m.coords], d), d


def test_kernel_basis_is_monic_and_sorted_for_the_z_order():
    sizes = []
    for basis, d in _seeded_kernel_bases():
        assert basis.order == d
        keys = [_reference_key(d, _reference_lm(g, d)) for g in basis.gens]
        assert all(g.terms[_reference_lm(g, d)] == 1 for g in basis.gens)
        assert all(a > b for a, b in zip(keys, keys[1:]))
        sizes.append(len(basis))
    assert max(sizes) >= 2


def _reference_kernel_ideal(images, dweights):
    """kernel_ideal by the compose route: compose moves the images into
    Q[x, z] and the x-free members of the block basis back to Q[z]."""
    nx, nz = images[0].n, len(images)
    total = nx + nz
    xs = [Polynomial.variable(j, total) for j in range(1, nx + 1)]
    gens = [Polynomial.variable(nx + i, total) - compose(img, xs)
            for i, img in enumerate(images, start=1)]
    gb = buchberger(gens, BlockElimination(nx, dweights))
    to_z = [Polynomial.zero(nz)] * nx + [Polynomial.variable(i, nz) for i in range(1, nz + 1)]
    kept = [(g, lm) for g, lm in zip(gb.gens, gb.lms) if not any(lm[:nx])]
    return [compose(g, to_z) for g, _ in kept], [lm[nx:] for _, lm in kept]


def test_kernel_ideal_changes_rings_like_the_compose_route(count_calls):
    from polyaut import polycore

    rng = random.Random(20261019)
    cases = []
    for n, max_coord_deg in [(2, 8), (3, 5), (4, 3)]:
        rational = WeightVector(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                      for _ in range(n)))
        for w in [WeightVector.standard(n), rational] * 2:
            m = expand(random_tame_word(rng, n, max_gens=3, max_addend_deg=3,
                                        max_coord_deg=max_coord_deg))
            images = [leading_term(c, w) for c in m.coords]
            d = deg2_weights(m, w)
            cases.append((images, d, _reference_kernel_ideal(images, d)))
    composed = count_calls(polycore, "compose")
    sizes = []
    for images, d, (gens, lms) in cases:
        basis = kernel_ideal(images, d)
        assert list(basis.gens) == gens and list(basis.lms) == lms
        assert basis.n == len(images) and basis.order == d
        sizes.append(len(basis))
    assert composed == []
    assert max(sizes) >= 2 and 0 in sizes


def test_kernel_generators_are_graded():
    images = [P(t, 3) for t in NAGATA_LEADING]
    d = WeightVector((5, 3, 1))
    basis = kernel_ideal(images, d)
    for g in basis.gens:
        assert is_homogeneous(g, d)


# -- graded oracle -----------------------------------------------------------


def test_oracle_affine_images_empty():
    images = [P("x1 + x2", 2), P("x2", 2)]
    assert graded_kernel_oracle(images, WeightVector((1, 1)), 4) == []


def test_oracle_zero_image_leaves_every_column_free():
    # No product of a slice containing z1 has a term, so its matrix has no
    # rows and every such monomial is a relation.
    images = [Polynomial.zero(2), P("x2", 2)]
    assert graded_kernel_oracle(images, WeightVector((1, 1)), 2) == [
        P("x1", 2), P("x1*x2", 2), P("x1^2", 2)]


def test_oracle_elementary_example():
    images = [P("x2^2", 2), P("x2", 2)]
    found = graded_kernel_oracle(images, WeightVector((2, 1)), 2)
    assert found == [P("x1 - x2^2", 2)]


def test_oracle_monomial_budget(monkeypatch, count_calls):
    # The budget is the module constant MAX_ORACLE_MONOMIALS, read at the
    # check.  Under d = (2, 1) up to degree 2 there are 4 monomials, 1, z2,
    # z2^2 and z1; past the budget the oracle stops before it eliminates
    # any slice.
    from polyaut import groebner

    images = [P("x2^2", 2), P("x2", 2)]
    d = WeightVector((2, 1))
    eliminations = count_calls(groebner, "_rref")
    monkeypatch.setattr(groebner, "MAX_ORACLE_MONOMIALS", 3)
    with pytest.raises(ResourceCapExceeded, match="graded oracle exceeded 3 monomials"):
        graded_kernel_oracle(images, d, 2)
    assert eliminations == []
    monkeypatch.setattr(groebner, "MAX_ORACLE_MONOMIALS", 4)
    assert graded_kernel_oracle(images, d, 2) == [P("x1 - x2^2", 2)]


def test_oracle_nagata_example():
    images = [P(t, 3) for t in NAGATA_LEADING]
    d = WeightVector((5, 3, 1))
    found = graded_kernel_oracle(images, d, 6)
    assert found == [P("x2^2 + x1*x3", 3)]


def test_oracle_solutions_vanish_on_images():
    rng = random.Random(5)
    for _ in range(5):
        w = WeightVector.standard(2)
        images = [
            leading_term(random_polynomial(rng, 2, max_terms=3, max_deg=3), w)
            for _ in range(2)
        ]
        d = WeightVector(tuple(max(Fraction(1), wdeg(p, w)) for p in images))
        for g in graded_kernel_oracle(images, d, 6):
            assert compose(g, images).is_zero()


def _linear_form(coeffs):
    n = len(coeffs)
    return sum((Polynomial.variable(j + 1, n) * c for j, c in enumerate(coeffs) if c),
               Polynomial.zero(n))


def _planted_rank_forms(rng, k, n, rank):
    """k linear forms in n variables spanning a space of exactly the given
    rank: `rank` triangular forms (x_i plus later variables) and k - rank
    rational combinations of them, in shuffled order."""
    basis = []
    for i in range(rank):
        coeffs = [Fraction(0)] * i + [Fraction(1)]
        coeffs += [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n - i - 1)]
        basis.append(_linear_form(coeffs))
    forms = list(basis)
    for _ in range(k - rank):
        forms.append(sum((b * Fraction(rng.randint(-3, 3)) for b in basis),
                         Polynomial.zero(n)))
    rng.shuffle(forms)
    return forms


def test_oracle_linear_slice_is_the_nullspace():
    # With linear images and unit weights, the degree-1 slice of the oracle
    # is the nullspace of the images' coefficient matrix: sum c_i z_i with
    # sum c_i * image_i = 0.  Its dimension is k - rank.
    rng = random.Random(41)
    for _ in range(15):
        n = rng.randint(1, 4)
        rank = rng.randint(1, n)
        k = rng.randint(rank, rank + 3)
        images = _planted_rank_forms(rng, k, n, rank)
        found = graded_kernel_oracle(images, WeightVector.standard(k), 1)
        assert len(found) == k - rank
        for g in found:
            assert compose(g, images).is_zero()


def test_span_contains_seeded_combinations():
    rng = random.Random(42)
    for _ in range(15):
        n = rng.randint(1, 3)
        vectors = [random_polynomial(rng, n, max_terms=4, max_deg=3)
                   for _ in range(rng.randint(0, 4))]
        combo = Polynomial.zero(n)
        for v in vectors:
            combo = combo + v * Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert span_contains(vectors, combo)
        # A monomial of degree 4 lies outside every vector's support.
        outside = combo + Polynomial.monomial((4,) + (0,) * (n - 1), 1, n)
        assert not span_contains(vectors, outside)


def _coefficient_rank(polys, support):
    return len(_rref([[p.coeff(m) for m in support] for p in polys])[1])


def test_span_contains_matches_a_rank_reference():
    # target lies in the span iff appending it keeps the rank, over rows of
    # Fraction coefficients built here, not by the library's matrix builder.
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 3)
        vectors = [random_polynomial(rng, n, max_terms=3, max_deg=2, coeff_bound=3)
                   for _ in range(rng.randint(0, 3))]
        if vectors and rng.random() < 0.5:  # a dependent vector, or a zero one
            vectors.append(sum((v * rng.randint(-2, 2) for v in vectors), Polynomial.zero(n)))
        target = rng.choice([
            Polynomial.zero(n),
            random_polynomial(rng, n, max_terms=3, max_deg=2, coeff_bound=3),
            sum((v * Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for v in vectors),
                Polynomial.zero(n)),
        ])
        support = sorted(set().union(target.support(), *(v.support() for v in vectors)))
        expected = (_coefficient_rank(vectors, support)
                    == _coefficient_rank(vectors + [target], support))
        assert span_contains(vectors, target) == expected


def test_buchberger_s_pair_reductions_are_pinned(count_calls):
    # The coprime-lcm and chain criteria skip pairs before any reduction,
    # and the chain criterion skips some over this corpus: it reads a flank
    # pair as done when it is no longer pending.
    from polyaut import groebner
    from polyaut.verify import space_corpus_principal

    words = space_corpus_principal(20260813, 10)
    w1 = WeightVector.standard(3)
    reduced = count_calls(groebner, "_s_pair")
    per_word = []
    for word in words:
        m = expand(word)
        before = len(reduced)
        kernel_ideal([leading_term(c, w1) for c in m.coords], deg2_weights(m, w1))
        per_word.append(len(reduced) - before)
    assert per_word == [2, 1, 1, 2, 1, 1, 2, 2, 1, 1]


def test_oracle_shares_compose_power_products(monkeypatch):
    # The slice products come from compose's cache of image powers, never
    # from a multiply by the constant 1 (a second cache starting from 1
    # made 205 products here); each element is monic for the d-graded lex
    # order without normalization.
    from polyaut.relations import relation_report
    from polyaut.verify import space_corpus_principal

    reports = [relation_report(w, oracle_shadow=False)
               for w in space_corpus_principal(20260813, 10)]
    calls = []
    mul = Polynomial.__mul__

    def counting(*args):
        calls.append(None)
        return mul(*args)

    monkeypatch.setattr(Polynomial, "__mul__", counting)
    monkeypatch.setattr(Polynomial, "__rmul__", counting)
    found = []
    for r in reports:
        dmax = max([r.parachute + 1, *(wdeg(g, r.d) for g in r.ideal.gens)])
        found.append((graded_kernel_oracle(r.fbars, r.d, dmax), r.d))
    assert len(calls) == 65
    assert sum(len(elements) for elements, _ in found) == 15
    for elements, d in found:
        for g in elements:
            assert g.coeff(_reference_lm(g, d)) == 1


def test_oracle_eliminates_int_matrices(monkeypatch, count_fractions):
    # _coefficient_matrix scales each slice by the lcm of the image
    # denominators and builds no Fraction, _rref returns int rows, and the
    # elements are read from those rows as int numerators over the lcm of
    # the pivots.  The oracle's Fractions are one degree bound per call and
    # the determinants of the square slices.  (With a Fraction per matrix
    # entry it made 298 such calls, and the Fraction elimination's
    # arithmetic built 578 more under CPython 3.11.  While the Polynomial
    # constructor passed each coefficient through Fraction once more, it
    # made 74; while _rref returned Fraction rows, with a determinant for
    # every wide slice too, it made 42.)
    from polyaut import groebner
    from polyaut.relations import relation_report
    from polyaut.verify import space_corpus_principal

    reports = [relation_report(w, oracle_shadow=False)
               for w in space_corpus_principal(20260813, 10)]
    matrices = []
    build = groebner._coefficient_matrix

    def recording(polys):
        matrices.append(build(polys))
        return matrices[-1]

    dmaxes = [max([r.parachute + 1, *(wdeg(g, r.d) for g in r.ideal.gens)]) for r in reports]
    monkeypatch.setattr(groebner, "_coefficient_matrix", recording)
    made = count_fractions()
    found = [graded_kernel_oracle(r.fbars, r.d, dmax) for r, dmax in zip(reports, dmaxes)]
    assert len(made) == 20
    for r, oracle in zip(reports, found):
        assert all(span_contains(oracle, g) for g in r.ideal.gens)
    assert len(matrices) > len(reports)
    assert all(type(a) is int for m in matrices for row in m for a in row)


def test_oracle_and_kernel_agree_on_fixed_instances():
    for images, d, dmax in [
        ([P("x2^2", 2), P("x2", 2)], WeightVector((2, 1)), 2),
        ([P(t, 3) for t in NAGATA_LEADING], WeightVector((5, 3, 1)), 7),
    ]:
        basis = kernel_ideal(images, d)
        oracle = graded_kernel_oracle(images, d, dmax)
        for g in oracle:
            assert normal_form(g, basis).is_zero()
        low = [g for g in basis.gens if wdeg(g, d) <= dmax]
        for g in low:
            assert span_contains(oracle, g)


def test_span_contains_basic():
    vs = [P("x1 + x2", 2), P("x2", 2)]
    assert span_contains(vs, P("x1", 2))
    assert span_contains(vs, P("2*x1 + 5*x2", 2))
    assert not span_contains(vs, P("x1^2", 2))


def _s_poly(f, g, order):
    """The S-polynomial of f and g, formed from their leading terms."""
    lf, lg = _reference_lm(f, order), _reference_lm(g, order)
    lcm = tuple(map(max, lf, lg))
    mf = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lf)), 1 / f.coeff(lf), f.n)
    mg = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lg)), 1 / g.coeff(lg), g.n)
    return mf * f - mg * g


def _fixpoint_interreduce(G, order):
    """The reference's own interreduction of a Groebner basis G: drop members
    whose leading monomial another's divides, then divide each member by the
    others, restarting after every change, until nothing changes.  Returns
    the monic members sorted by descending leading monomial."""
    lms = [_reference_lm(g, order) for g in G]
    keep = [g for i, g in enumerate(G)
            if not any(j != i and _divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
                       for j in range(len(G)))]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(keep):
            others = keep[:i] + keep[i + 1 :]
            r = _reference_divide(g, others, order)
            if r.is_zero():
                del keep[i]
            elif r != g:
                keep[i] = _primitive(r)
            else:
                continue
            changed = True
            break
    monic = [g * (1 / g.coeff(_reference_lm(g, order))) for g in keep]
    return tuple(sorted(monic, key=lambda g: _reference_key(order, _reference_lm(g, order)),
                        reverse=True))


def _naive_buchberger(gens, order):
    """Criteria-free reference: process every pair until stable.  Returns the
    generators of the reduced basis, monic and sorted like IdealBasis.gens."""
    G = [_primitive(g) for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop()
        rem = _reference_divide(_s_poly(G[i], G[j], order), G, order)
        if not rem.is_zero():
            G.append(_primitive(rem))
            pairs.extend((k, len(G) - 1) for k in range(len(G) - 1))
    return _fixpoint_interreduce(G, order)


def _criteria_free_inputs():
    """The seeded generator lists the reference comparison runs on."""
    rng = random.Random(555)
    for _ in range(12):
        n = rng.choice([2, 3])
        yield [
            random_polynomial(rng, n, max_terms=3, max_deg=3, coeff_bound=4)
            for _ in range(rng.randint(1, 3))
        ]


def _reference_reduce_basis(divs, order, n):
    """The interreduction on Polynomials: drop members whose leading monomial
    another's divides, divide each kept member by the others, once each, in
    order (when more than one is kept), and scale each to monic by the
    Fraction of its leading coefficient.  Returns (gens, lms), sorted by
    descending key."""
    key = _packed_key(order, n)
    mask = (1 << FIELD_BITS * n) - 1
    unpack = _unpacker(n)
    members = [(Polynomial(n, {d.lm: d.lead, **{unpack(kt & mask): c for kt, c in d.tail}}),
                d.lm) for d in divs]
    keep = [(g, lm) for i, (g, lm) in enumerate(members)
            if not any(j != i and _divides(other, lm) and (other != lm or j < i)
                       for j, (_, other) in enumerate(members))]
    if len(keep) > 1:
        for i, (g, lm) in enumerate(keep):
            others = [_divisor(h, key, hlm) for j, (h, hlm) in enumerate(keep) if j != i]
            keep[i] = _primitive(_remainder(g, others, key)), lm
    keep.sort(key=lambda member: key(_pack(member[1], n)), reverse=True)
    return (tuple(g * (1 / g.coeff(lm)) for g, lm in keep), tuple(lm for _, lm in keep))


def test_interreduction_matches_the_polynomial_reference(monkeypatch, count_calls,
                                                         count_fractions):
    # The divisors buchberger hands to _reduce_basis, on seeded inputs at
    # n = 2, 3 and 4 under weight and block orders and from kernel_ideal.
    from polyaut import groebner

    handed = []

    def recording(divs, order, n):
        handed.append((list(divs), order, n))
        return _reduce_basis(divs, order, n)

    monkeypatch.setattr(groebner, "_reduce_basis", recording)
    rng = random.Random(20261020)
    for n in (2, 3, 4):
        orders = [WeightVector.standard(n),
                  WeightVector(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                     for _ in range(n))),
                  BlockElimination(1, WeightVector.standard(n - 1))]
        for order in orders * 2:
            buchberger([random_polynomial(rng, n, max_terms=3, max_deg=3, min_deg=2,
                                          coeff_bound=5) for _ in range(2)], order)
        w = WeightVector.standard(n)
        for _ in range(2):
            m = expand(random_tame_word(rng, n, max_gens=3, max_addend_deg=3,
                                        max_coord_deg=4))
            kernel_ideal([leading_term(c, w) for c in m.coords], deg2_weights(m, w))
    monkeypatch.undo()
    reduced = count_calls(groebner, "_reduce")
    made = count_fractions()
    sizes, divided = [], []
    for divs, order, n in handed:
        expected = _reference_reduce_basis(divs, order, n)
        made.clear()
        reduced.clear()
        basis = _reduce_basis(divs, order, n)
        # The monic generators are the integer multiples over their leads.
        assert made == []
        assert (basis.gens, basis.lms) == expected
        sizes.append(len(basis))
        divided.append(len(reduced))
    assert len(handed) == 24 and max(sizes) >= 4
    # Some bases had members to divide; many of several members had none.
    assert sum(map(bool, divided)) >= 3
    assert sum(1 for size, d in zip(sizes, divided) if size > 1 and not d) >= 10


def test_buchberger_matches_criteria_free_reference():
    # The reduced Groebner basis is unique, so the optimized engine must
    # agree exactly with a pair-by-pair reference run.
    for trial, gens in enumerate(_criteria_free_inputs()):
        order = WeightVector.standard(gens[0].n)
        assert buchberger(gens, order).gens == _naive_buchberger(gens, order), f"trial {trial}"


def test_buchberger_bases_are_reduced():
    # Monic at the held leading monomial, no term divisible by another
    # member's leading monomial, and the held lms are the true ones.
    bases = [buchberger(gens, WeightVector.standard(gens[0].n))
             for gens in _criteria_free_inputs()]
    bases += [basis for basis, _ in _seeded_kernel_bases()]
    assert max(len(basis) for basis in bases) >= 2
    for basis in bases:
        assert basis.lms == tuple(_reference_lm(g, basis.order) for g in basis.gens)
        for i, (g, lm) in enumerate(zip(basis.gens, basis.lms)):
            assert g.coeff(lm) == 1
            for j, other in enumerate(basis.lms):
                assert j == i or not any(_divides(other, m) for m in g.support())


def test_kernel_and_oracle_agree_on_arbitrary_graded_images():
    # The dual route holds for any weighted homogeneous images, not just
    # leading terms of automorphisms.
    rng = random.Random(556)
    checked = 0
    while checked < 8:
        n = rng.choice([2, 3])
        w = WeightVector.standard(n)
        images = []
        for _ in range(n):
            p = random_polynomial(rng, n, max_terms=3, max_deg=3, coeff_bound=3)
            images.append(leading_term(p, w))
        if any(im.is_constant() for im in images):
            continue
        d = WeightVector(tuple(wdeg(im, w) for im in images))
        dmax = d.total()
        basis = kernel_ideal(images, d)
        oracle = graded_kernel_oracle(images, d, dmax)
        for g in oracle:
            assert normal_form(g, basis).is_zero()
            assert g.coeff(_reference_lm(g, d)) == 1
        for g in basis.gens:
            if wdeg(g, d) <= dmax:
                assert span_contains(oracle, g)
        checked += 1
