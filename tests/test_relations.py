"""Relation reports, the degree lemmas and the drop bound."""

import hashlib
import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from polyaut.autmap import (
    AutWord,
    Elementary,
    certify,
    expand,
    jacobian_constant,
    parse_map,
    word_jacobian,
)
from polyaut.derivation import lnd_witness
from polyaut.polycore import (
    MINUS_INFINITY,
    Polynomial,
    WeightVector,
    compose,
    leading_term,
    parse_poly,
    partial,
    wdeg,
)
from polyaut.relations import (
    check_degree_lemma,
    check_parachute,
    relation_report,
)
from polyaut.verify import random_polynomial, random_tame_word


def P(text, n):
    return parse_poly(text, n)


ELEM = parse_map("x1 + x2^2\nx2", 2)
NAGATA = parse_map(
    "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
    "x2 + x3*(x1*x3+x2^2)\n"
    "x3",
    3,
)


def test_report_affine_word():
    word = AutWord(2, (Elementary(1, P("3*x2", 2)),))
    report = relation_report(word)
    assert report.principal
    assert report.R.is_zero()
    assert report.ideal.is_zero_ideal()
    assert report.bound_ok


def test_report_elementary_map():
    report = relation_report(ELEM)
    assert tuple(report.d.weights) == (2, 1)
    assert report.principal
    assert report.R == P("x1 - x2^2", 2)
    assert report.deg2_of_R == 2
    assert report.parachute == 1
    assert report.bound_ok


def test_report_nagata():
    report = relation_report(NAGATA)
    assert tuple(report.d.weights) == (5, 3, 1)
    assert report.principal
    assert report.R == P("x2^2 + x1*x3", 3)
    assert report.deg2_of_R == 6
    assert report.parachute + 1 == 7
    assert report.bound_ok


def test_report_json_round_trip():
    report = relation_report(ELEM)
    doc = report.to_dict()
    assert parse_poly(doc["R"].replace("z", "x"), 2) == report.R
    assert [Fraction(s) for s in doc["d"]] == list(report.d.weights)


def test_degree_lemma_on_coordinates():
    report = relation_report(ELEM)
    w1 = WeightVector.standard(2)
    for i, d_i in enumerate(report.d.weights, start=1):
        lhs, rhs, strict, _ = check_degree_lemma(
            ELEM, w1, Polynomial.variable(i, 2), report=report
        )
        assert lhs == rhs == d_i
        assert not strict


def test_degree_lemma_strict_case():
    report = relation_report(ELEM)
    lhs, rhs, strict, in_ideal = check_degree_lemma(
        ELEM, WeightVector.standard(2), P("x1 - x2^2", 2), report=report
    )
    assert (lhs, rhs) == (1, 2)
    assert strict and in_ideal


def test_degree_lemma_inverse_coordinate():
    # Non-affine inverse coordinates compose to degree 1, so their
    # deg2-leading terms are relations.
    g1 = P("x1 - x2^2", 2)  # first coordinate of the inverse map
    report = relation_report(ELEM)
    lhs, rhs, strict, in_ideal = check_degree_lemma(
        ELEM, WeightVector.standard(2), g1, report=report
    )
    assert lhs == 1
    assert in_ideal


def test_degree_lemma_zero_polynomial_not_strict():
    report = relation_report(ELEM)
    lhs, rhs, strict, in_ideal = check_degree_lemma(
        ELEM, WeightVector.standard(2), Polynomial.zero(2), report=report
    )
    assert lhs is MINUS_INFINITY and rhs is MINUS_INFINITY
    assert not strict and not in_ideal


def test_parachute_k0_always_holds():
    assert check_parachute(ELEM, P("x1*x2 - 3", 2), 0)


def test_parachute_worked_example():
    # deg1(P o F) = 1 equals deg1(dP/dx2 o F) + d2 - nabla = 1 + 1 - 1.
    assert check_parachute(ELEM, P("x1 - x2^2", 2), 1, var=2)


def test_parachute_vanishing_derivative():
    assert check_parachute(ELEM, P("x1", 2), 3, var=2)


def test_parachute_rejects_negative_k():
    with pytest.raises(ValueError):
        check_parachute(ELEM, P("x1", 2), -1)


def test_degree_bound_on_random_words():
    rng = random.Random(42)
    for _ in range(10):
        word = random_tame_word(rng, 2, max_gens=5, max_coord_deg=10)
        report = relation_report(word)
        assert report.bound_ok
        if report.principal and not report.R.is_zero():
            assert report.deg2_of_R <= report.parachute + 1


def test_uniform_weights_scale_the_degree_bound():
    # Under w1 = c*(1, .., 1) every degree scales by c, so the proved bound
    # deg2(R) <= nabla + 1 of the standard degree reads nabla + c.
    rng = random.Random(45)
    checked = 0
    while checked < 6:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=2,
                                max_coord_deg=6, mode="nonaffine")
        std = relation_report(word)
        if not (std.principal and not std.R.is_zero()):
            continue
        for c in (Fraction(1, 2), Fraction(3)):
            report = relation_report(word, WeightVector((c,) * n))
            assert report.R == std.R
            assert report.deg2_of_R == c * std.deg2_of_R
            assert report.parachute == c * std.parachute
            assert report.bound_ok is True
        checked += 1


SHADOW_CASES = [
    # (addend of x3, w1): R lies above nabla + 1 under the first two weight
    # vectors, and the third is rational.
    ("x1^3", (2, 2, 2)),
    ("x1^2*x2", (1, 2, 3)),
    ("x1^3", (Fraction(1, 2),) * 3),
]


@pytest.mark.parametrize("addend, w1", SHADOW_CASES, ids=["uniform-2", "1-2-3", "half"])
def test_shadow_checks_every_generator_under_any_weights(monkeypatch, count_calls,
                                                         addend, w1):
    from polyaut import relations
    from polyaut.groebner import span_contains

    checked = []

    def recording(vectors, target):
        ok = span_contains(vectors, target)
        checked.append((target, ok))
        return ok

    monkeypatch.setattr(relations, "span_contains", recording)
    shadow_calls = count_calls(relations, "_shadow_check")
    word = AutWord(3, (Elementary(3, P(addend, 3)),))
    report = relation_report(word, WeightVector(w1))
    assert report.principal and not report.R.is_zero()
    assert len(shadow_calls) == 1
    assert (report.R, True) in checked


def test_degree_bound_is_not_proved_for_non_uniform_weights():
    report = relation_report(ELEM, WeightVector((1, 2)))
    assert report.principal and not report.R.is_zero()
    assert report.bound_ok is None
    assert report.to_dict()["bound_ok"] is None


# sha256 of the reports below, one sort_keys JSON line each.
RATIONAL_WEIGHT_REPORTS_SHA256 = (
    "9fdef83d57a26c7e2b283242384718d2b99795c7bc00a64f52cb1cc700a71ecc")


def test_reports_for_rational_weights_and_four_variables_are_pinned():
    # The oracle shadow runs only for n <= 3, so the n = 4 reports among
    # these (n alternating 3 and 4, rational w1) have no cross-check but
    # their pinned bytes.
    rng = random.Random(20261018)
    lines = []
    for k in range(40):
        n = 4 if k % 2 else 3
        word = random_tame_word(rng, n, max_gens=5, max_addend_deg=2, max_coord_deg=6)
        w1 = WeightVector(tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3))
                                for _ in range(n)))
        report = relation_report(word, w1)
        lines.append(json.dumps(report.to_dict(), sort_keys=True) + "\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == RATIONAL_WEIGHT_REPORTS_SHA256


def test_plane_inequality_coordinate_exponent():
    # Principal generators of plane relations are z_a - c*z_b^r: the
    # exponent s on the higher-degree side is 1, and s * d2 <= d1 + d2 - 2
    # whenever the word is not affine (d1 >= d2 are the coordinate degrees).
    rng = random.Random(43)
    checked = 0
    while checked < 8:
        word = random_tame_word(rng, 2, max_gens=5, max_coord_deg=10,
                                mode="nonaffine")
        report = relation_report(word)
        if not (report.principal and not report.R.is_zero()):
            continue
        d1, d2 = sorted(report.d.weights, reverse=True)
        s = min(sum(m) for m in report.R.terms)  # exponent of the linear side
        assert s == 1
        assert s * d2 <= d1 + d2 - 2
        checked += 1


def test_support_bound_on_principal_space_words():
    from polyaut.verify import space_corpus_principal

    # For n = 3 with standard weights nabla + 1 = d1 + d2 + d3 - 2, so the
    # drop bound is the support bound deg2(R) <= sum(d) - 2.
    for word in space_corpus_principal(99, 5):
        report = relation_report(word)
        assert report.parachute + 1 == report.d.total() - 2
        assert report.bound_ok


def test_lemma_1_2_random_cases():
    rng = random.Random(44)
    for _ in range(6):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        report = relation_report(word)
        for _ in range(4):
            p = random_polynomial(rng, n)
            lhs, rhs, strict, in_ideal = check_degree_lemma(
                expand(word), report.w1, p, report=report
            )
            assert lhs <= rhs
            assert strict == in_ideal


def test_parachute_random_cases():
    rng = random.Random(45)
    for _ in range(6):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        m = expand(word)
        for _ in range(4):
            p = random_polynomial(rng, n)
            k = rng.randint(0, 3)
            assert check_parachute(m, p, k, var=rng.randint(1, n))


def test_report_carries_its_map_and_lemma_queries_reuse_it(expand_calls):
    rng = random.Random(46)
    word = random_tame_word(rng, 3, max_gens=4, max_addend_deg=3, max_coord_deg=5)
    expand_calls.clear()  # the sampler's own expansions
    report = relation_report(word)
    for _ in range(5):
        check_degree_lemma(word, report.w1, random_polynomial(rng, 3), report=report)
    assert expand_calls == [word]
    assert report.cert.m == expand(word)
    assert relation_report(ELEM).cert.m is ELEM


def test_report_carries_the_jacobian_constant():
    rng = random.Random(48)
    for n in (2, 3, 3):
        word = random_tame_word(rng, n, max_gens=5, max_coord_deg=8 if n == 2 else 5)
        report = relation_report(word)
        assert report.cert.mu == word_jacobian(word)
        assert "mu" not in report.to_dict()
        m = expand(word)
        assert relation_report(m).cert.mu == jacobian_constant(m)
    assert relation_report(NAGATA).cert.mu == jacobian_constant(NAGATA) == 1


def test_word_and_its_certified_give_equal_results():
    # Each step accepts the Certified in place of the word or map it came
    # from, and reads the same automorphism from it.
    rng = random.Random(49)
    inputs = [ELEM, NAGATA]
    for n in (2, 2, 3, 3):
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        inputs += [word, expand(word)]
    for phi in inputs:
        cert = certify(phi)
        w1 = WeightVector.standard(phi.n)
        report = relation_report(phi)
        assert relation_report(cert) == report
        assert relation_report(cert).to_dict() == report.to_dict()
        if isinstance(phi, AutWord):
            assert lnd_witness(cert, w1) == lnd_witness(phi, w1)
        for _ in range(3):
            p = random_polynomial(rng, phi.n)
            assert check_degree_lemma(cert, w1, p) == check_degree_lemma(phi, w1, p)
            k, var = rng.randint(0, 3), rng.randint(1, phi.n)
            assert check_parachute(cert, p, k, var=var) == check_parachute(phi, p, k, var=var)


def test_degree_lemma_same_with_and_without_report():
    rng = random.Random(47)
    inputs = [ELEM, NAGATA]
    for _ in range(6):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        inputs += [word, expand(word)]
    for phi in inputs:
        w1 = WeightVector.standard(phi.n)
        report = relation_report(phi, w1)
        for _ in range(3):
            p = random_polynomial(rng, phi.n)
            assert check_degree_lemma(phi, w1, p, report=report) == check_degree_lemma(phi, w1, p)


def test_degree_lemma_rejects_a_report_for_other_weights():
    # A report for the standard weights would measure deg2(P) in its own d,
    # so the pair (3, 1) would read as a counterexample to deg1(P o F) <= deg2(P).
    w1 = WeightVector((1, 3))
    report = relation_report(ELEM)
    with pytest.raises(ValueError, match="different w1"):
        check_degree_lemma(ELEM, w1, P("x2", 2), report=report)
    assert check_degree_lemma(ELEM, w1, P("x2", 2))[:2] == (3, 3)


def test_degree_lemma_rejects_a_report_for_another_automorphism():
    # Read through the report of E 2 x1^3, the query for E 1 x2^2 would
    # answer (1, 1, False, False) for the wrong map.
    from polyaut.autmap import parse_word

    phi, other = parse_word("E 1 x2^2"), parse_word("E 2 x1^3")
    w1 = WeightVector.standard(2)
    with pytest.raises(ValueError, match="different automorphism"):
        check_degree_lemma(phi, w1, P("x1", 2), report=relation_report(other))
    assert check_degree_lemma(phi, w1, P("x1", 2)) == (2, 2, False, False)
    # The same automorphism as a word, its map or its Certified reads the report.
    report = relation_report(expand(phi))
    for same in (phi, expand(phi), certify(phi), report.cert):
        assert check_degree_lemma(same, w1, P("x1", 2), report=report) == (2, 2, False, False)


def test_nabla_is_an_integer_for_the_standard_degree():
    # Under the standard degree every d_i is a total degree, so nabla =
    # d_1 + .. + d_n - n is an integer.
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(4):
            word = random_tame_word(rng, n, max_gens=3, max_addend_deg=2, max_coord_deg=6)
            assert relation_report(word).parachute.denominator == 1


# -- the degree predicates against composition with the whole map ----------------


def _parachute_by_composition(m, p, k, var):
    """check_parachute with both degrees read off compositions with the
    whole map: the oracle of the leading-form route."""
    w1 = WeightVector.standard(m.n)
    d = certify(m).d(w1)
    nabla = d.total() - m.n
    lhs = wdeg(compose(p, m.coords), w1)
    pk = p
    for _ in range(k):
        pk = partial(pk, var)
    if pk.is_zero():
        return True
    return lhs >= wdeg(compose(pk, m.coords), w1) + k * d[var] - k * nabla


def _queries(rng, report):
    """(kind, P) pairs for one report: zero; random; tied, a leading form
    of at least two monomials of one deg2 (when the degrees tie); strict,
    a basis element of the relation ideal times a random P, whose leading
    form vanishes at the leading forms of the map; each but the first two
    plus random terms of lower deg2."""
    n, d = report.cert.m.n, report.d

    def deg(mono):
        return sum(a * w for a, w in zip(mono, d))

    def lower(bound):
        q = random_polynomial(rng, n)
        return Polynomial(n, {mono: c for mono, c in q.terms.items() if deg(mono) < bound})

    yield "zero", Polynomial.zero(n)
    yield "random", random_polynomial(rng, n)
    ties = {}
    for mono in itertools.product(range(4), repeat=n):
        if sum(mono) <= 3:
            ties.setdefault(deg(mono), []).append(mono)
    tied = [monos for monos in ties.values() if len(monos) > 1]
    if tied:
        monos = rng.choice(tied)
        top = Polynomial(n, {mono: rng.choice((1, -1, 2, -3)) for mono in monos})
        yield "tied", top + lower(deg(monos[0]))
    if not report.ideal.is_zero_ideal():
        g = report.ideal.gens[0] * random_polynomial(rng, n, max_terms=2, max_deg=1)
        yield "strict", g + lower(wdeg(g, d))


def _non_uniform(rng, n):
    while True:
        w1 = WeightVector(tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3))
                                for _ in range(n)))
        if len(set(w1)) > 1:
            return w1


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree_predicates_agree_with_full_composition(n):
    rng = random.Random(20261020 + n)
    seen = Counter()
    for _ in range(6):
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=6 if n == 2 else 4)
        m = expand(word)
        for w1 in (WeightVector.standard(n), _non_uniform(rng, n)):
            report = relation_report(word, w1, oracle_shadow=False)
            for kind, p in _queries(rng, report):
                lhs, rhs, strict, in_ideal = check_degree_lemma(word, w1, p, report=report)
                assert lhs == wdeg(compose(p, m.coords), w1)
                assert strict == in_ideal
                assert strict or kind != "strict"
                seen[kind, len(leading_term(p, report.d).terms) > 1, strict] += 1
                if w1 != WeightVector.standard(n) or p.is_zero():
                    continue
                for k in range(4):
                    var = rng.randint(1, n)
                    assert (check_parachute(report.cert, p, k, var=var)
                            == _parachute_by_composition(m, p, k, var))
    # Multi-term leading forms, both vanishing and not, and the strict case
    # are all reached.
    assert seen["tied", True, False] and seen["strict", True, True]
    assert seen["zero", False, False] == 12


def test_degree_predicates_agree_with_full_composition_in_nagata_strict_cases():
    # R = z1*z3 + z2^2 generates the relation ideal of Nagata's map; P = R*Q
    # plus terms of lower deg2 (d = (5, 3, 1)) composes to a lower degree.
    report = relation_report(NAGATA)
    w1 = report.w1
    R = P("x1*x3 + x2^2", 3)
    for q, low in [("1", "0"), ("x3", "x1 + 7"), ("x1 - 2*x2", "x2*x3^2 - x3^4"),
                   ("x2^2 + x1*x3 + x3", "3*x1*x2")]:
        p = R * P(q, 3) + P(low, 3)
        lhs, rhs, strict, in_ideal = check_degree_lemma(NAGATA, w1, p, report=report)
        assert lhs == wdeg(compose(p, NAGATA.coords), w1) < rhs
        assert strict and in_ideal
        for k in range(4):
            for var in (1, 2, 3):
                assert (check_parachute(NAGATA, p, k, var=var)
                        == _parachute_by_composition(NAGATA, p, k, var))


def test_degree_predicates_compose_the_whole_map_only_in_the_strict_case(count_calls):
    from polyaut import polycore

    report = relation_report(ELEM)
    w1, fbars, coords = report.w1, report.fbars, report.cert.m.coords
    composed = count_calls(polycore, "compose", every_arg=True)
    # d = (2, 1) and fbar = (x2^2, x2).  The one-term leading form z1 is
    # nonzero at fbar, and nothing is composed.
    assert check_degree_lemma(ELEM, w1, P("x1 + 3*x2", 2), report=report)[0] == 2
    assert composed == []
    # z1 + z2^2 is composed with the leading forms only: 2*x2^2 != 0.
    assert check_degree_lemma(ELEM, w1, P("x1 + x2^2 + 5*x2", 2), report=report)[0] == 2
    assert composed == [(P("x1 + x2^2", 2), fbars)]
    # z1 - z2^2 vanishes at fbar: one composition with the map's coordinates.
    strict = P("x1 - x2^2", 2)
    composed.clear()
    assert check_degree_lemma(ELEM, w1, strict, report=report) == (1, 2, True, True)
    assert composed == [(strict, fbars), (strict, coords)]
    # check_parachute reads both of its degrees the same way; the derivative
    # -2*x2 has a one-term leading form.
    composed.clear()
    assert check_parachute(ELEM, strict, 1, var=2)
    assert composed == [(strict, fbars), (strict, coords)]
