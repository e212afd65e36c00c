"""Derivations: Leibniz action, degrees, nilpotence, Jacobian derivations."""

import dataclasses
import random
from fractions import Fraction

import pytest

from polyaut import polycore
from polyaut.autmap import (
    Affine,
    AutWord,
    Elementary,
    PolyMap,
    Transposition,
    certify,
    expand,
    expansion,
    invert_word,
    jacobian_constant,
    parse_map,
    word_jacobian,
)
from polyaut.derivation import (
    Derivation,
    LocallyNilpotent,
    Unknown,
    apply,
    default_cap,
    delta_derivation,
    derivation_degree,
    is_locally_nilpotent,
    leading_derivation,
    lnd_witness,
    nilpotence_order,
    word_derivations,
)
from polyaut.polycore import (
    MINUS_INFINITY,
    Polynomial,
    WeightVector,
    compose,
    parse_poly,
    partial,
    wdeg,
)
from polyaut.verify import _mixed_corpus, random_polynomial, random_tame_word
from test_autmap import _benchmark_words, _seeded_words


def P(text, n):
    return parse_poly(text, n)


def D(coeff_texts, n):
    return Derivation(n, tuple(P(t, n) for t in coeff_texts))


def test_apply_power_rule():
    assert apply(Derivation.coordinate(1, 2), P("x1^2", 2)) == P("2*x1", 2)


def test_apply_kills_constants():
    d = D(["x2", "x1^2"], 2)
    assert apply(d, Polynomial.constant(5, 2)).is_zero()


def test_apply_witness_example():
    d = D(["2*x2", "1"], 2)
    assert apply(d, P("x1 - x2^2", 2)).is_zero()


def test_apply_satisfies_leibniz():
    rng = random.Random(3)
    for _ in range(10):
        n = rng.choice([2, 3])
        d = Derivation(
            n, tuple(random_polynomial(rng, n, max_deg=2) for _ in range(n))
        )
        p = random_polynomial(rng, n)
        q = random_polynomial(rng, n)
        assert apply(d, p * q) == apply(d, p) * q + p * apply(d, q)


def test_derivation_degree_coordinate():
    w = WeightVector((2, 5))
    assert derivation_degree(Derivation.coordinate(1, 2), w) == -2
    assert derivation_degree(Derivation.coordinate(2, 2), w) == -5


def test_derivation_degree_zero():
    d = Derivation(2, (Polynomial.zero(2), Polynomial.zero(2)))
    assert derivation_degree(d, WeightVector.standard(2)) is MINUS_INFINITY


def test_derivation_degree_example():
    d = D(["2*x2", "1"], 2)
    assert derivation_degree(d, WeightVector((2, 1))) == -1


def test_derivation_degree_bounds_application():
    rng = random.Random(4)
    w = WeightVector((2, 1))
    for _ in range(10):
        d = Derivation(2, tuple(random_polynomial(rng, 2) for _ in range(2)))
        p = random_polynomial(rng, 2)
        from polyaut.polycore import wdeg

        if apply(d, p).is_zero():
            continue
        assert wdeg(apply(d, p), w) <= derivation_degree(d, w) + wdeg(p, w)


def test_leading_derivation_homogeneous_fixed_point():
    d = D(["2*x2", "1"], 2)
    assert leading_derivation(d, WeightVector((2, 1))) == d


def test_leading_derivation_selects_components():
    d = D(["2*x2 + 1", "1"], 2)
    assert leading_derivation(d, WeightVector((2, 1))) == D(["2*x2", "1"], 2)
    d2 = D(["1", "x1"], 2)
    assert leading_derivation(d2, WeightVector.standard(2)) == D(["0", "x1"], 2)


def test_nilpotence_order_examples():
    d = Derivation.coordinate(1, 2)
    assert nilpotence_order(d, Polynomial.zero(2), 5) is MINUS_INFINITY
    assert nilpotence_order(d, P("x1^3", 2), 10) == 3


def test_nilpotence_degree_is_additive_on_products():
    rng = random.Random(6)
    d = D(["x2^2", "0"], 2)  # triangular, locally nilpotent
    for _ in range(8):
        p = random_polynomial(rng, 2, max_deg=2)
        q = random_polynomial(rng, 2, max_deg=2)
        np_ = nilpotence_order(d, p, 60)
        nq = nilpotence_order(d, q, 60)
        npq = nilpotence_order(d, p * q, 120)
        if p.is_zero() or q.is_zero():
            assert npq is MINUS_INFINITY
        else:
            assert npq == np_ + nq


def test_is_locally_nilpotent_coordinate():
    v = is_locally_nilpotent(Derivation.coordinate(2, 2))
    assert isinstance(v, LocallyNilpotent)
    assert all(k <= 2 for k in v.orders)


def test_is_locally_nilpotent_euler_is_unknown():
    # x1 * d/dx1 fixes x1, which bounded iteration can only report as Unknown.
    d = D(["x1", "0"], 2)
    v = is_locally_nilpotent(d, cap=50)
    assert isinstance(v, Unknown)
    assert v.cap == 50


def test_is_locally_nilpotent_triangular_fiber_derivation():
    # x1^k d/dx2 - dP/dx2 d/dx3 kills x1^k x3 + P and is locally nilpotent.
    k = 2
    fiber = P("x2^3 + x1^2*x2^2", 3)
    d = Derivation(3, (Polynomial.zero(3), P("x1^2", 3), -partial(fiber, 2)))
    assert apply(d, P("x1^2*x3", 3) + fiber).is_zero()
    assert isinstance(is_locally_nilpotent(d), LocallyNilpotent)


def test_default_cap_formula():
    d = D(["2*x2", "1"], 2)
    assert default_cap(d) == 4 * (1 + 1) * 2


def test_delta_derivation_identity_map():
    ident = PolyMap.identity(2)
    assert delta_derivation(ident, 1, Fraction(1)) == Derivation.coordinate(1, 2)


def test_delta_derivation_elementary_example():
    inv = parse_map("x1 - x2^2\nx2", 2)  # inverse of (x1 + x2^2, x2)
    d = delta_derivation(inv, 2, Fraction(1))
    assert d == D(["2*x2", "1"], 2)


def test_delta_derivation_dual_basis_property():
    inv = parse_map("x1 - x2^2\nx2", 2)
    for i in (1, 2):
        d = delta_derivation(inv, i, Fraction(1))
        for j in (1, 2):
            expected = Polynomial.constant(int(i == j), 2)
            assert apply(d, inv.coords[j - 1]) == expected


def test_delta_derivation_validates_mu():
    inv = parse_map("x1 - x2^2\nx2", 2)
    with pytest.raises(ValueError):
        delta_derivation(inv, 1, Fraction(2))


def test_delta_derivation_rejects_nonconstant_jacobian():
    inv = parse_map("x1^2 + x2\nx2", 2)  # Jacobian 2*x1
    for i in (1, 2):
        with pytest.raises(ValueError):
            delta_derivation(inv, i, Fraction(1))


def test_delta_derivation_rejects_constant_jacobian_other_than_inverse_mu():
    # An automorphism, but not the inverse of a map with Jacobian 1: its
    # Jacobian is the constant 3, not 1/mu = 1.
    inv = parse_map("x1 + x2^2\n3*x2\nx3 - x1*x2", 3)
    for i in (1, 2, 3):
        with pytest.raises(ValueError):
            delta_derivation(inv, i, Fraction(1))
        # With the consistent mu = 1/3, Delta_i(g_j) = [i == j] * j(inv) = [i == j] * 3.
        d = delta_derivation(inv, i, Fraction(1, 3))
        for j in (1, 2, 3):
            assert apply(d, inv.coords[j - 1]) == Polynomial.constant(3 * (i == j), 3)


def test_word_derivations_equal_the_laplace_cofactors():
    # The chain rule through the generators gives exactly the cofactors of
    # the expanded inverse's Jacobian matrix, for every index.
    words = _seeded_words() + _benchmark_words()
    assert {w.n for w in words} == {2, 3, 4}
    assert any(len(w) == 0 for w in words)
    gens = [g for w in words for g in w]
    assert any(isinstance(g, Affine) and g.det not in (1, -1) and any(g.shift)
               and any(a.denominator != 1 for row in g.matrix for a in row) for g in gens)
    assert any(isinstance(g, Transposition) for g in gens)
    assert any(isinstance(g, Affine) and abs(g.det) == 2 for g in gens)  # lnd-ladder
    for w in words:
        mu = word_jacobian(w)
        inv = expand(invert_word(w))
        assert list(word_derivations(certify(w))) == [
            delta_derivation(inv, i, mu) for i in range(1, w.n + 1)]


def test_word_route_rejects_a_wrong_mu():
    words = [w for w in _seeded_words() if len(w)][::3]
    for w in words:
        mu = word_jacobian(w)
        for wrong in (2 * mu, -mu):
            with pytest.raises(ValueError, match="inconsistent"):
                next(word_derivations(dataclasses.replace(certify(w), mu=wrong)))
    w = AutWord(2, (Elementary(1, P("x2^2", 2)), Transposition(1, 2, 2)))
    cert = dataclasses.replace(certify(w), mu=Fraction(1))  # mu is -1
    with pytest.raises(ValueError, match="inconsistent"):
        lnd_witness(cert, WeightVector.standard(2))


def test_word_witness_computes_no_determinant(count_calls):
    calls = count_calls(polycore, "_det")
    for w in _seeded_words():
        lnd_witness(w, WeightVector.standard(w.n))
    assert calls == []


def test_ladder_witness_fraction_constructions(count_fractions):
    # An lnd-ladder word A; E; A; E; A with det 2 matrices.  Its Affine
    # generators hold int rows, so inverting them and applying them to
    # coordinates and witness columns builds no Fraction.  The 8 left are
    # 3 wdeg, 2 word_jacobian (certify, and the column scale 1/mu),
    # 1 constant_value and 1 _check_cofactors (the cofactor check), and
    # 1 _degree_and_leading.  (While an Affine held Fraction entries, the
    # inverse made one per nonzero entry of M^-1 and -M^-1 s: 35 in all.)
    def affine(matrix):
        return Affine(matrix, (0, 0, 0))

    word = AutWord(3, (
        affine(((1, 1, 0), (0, 1, 1), (1, 0, 1))),
        Elementary(2, Polynomial.monomial((2, 0, 0), 1, 3)),
        affine(((0, 1, 1), (1, 1, 0), (1, 0, 1))),
        Elementary(1, Polynomial.monomial((0, 1, 1), 1, 3)),
        affine(((1, 0, 1), (1, 1, 0), (0, 1, 1))),
    ))
    assert {abs(g.det) for g in word if isinstance(g, Affine)} == {2}
    made = count_fractions()
    i, dbar = lnd_witness(word, WeightVector.standard(3))
    assert is_locally_nilpotent(dbar) == LocallyNilpotent((2, 2, 2))
    assert len(made) == 8
    assert i == 1 and dbar.coeffs[1] == 2 * dbar.coeffs[0] == 2 * dbar.coeffs[2]


def test_sums_of_products_build_no_intermediate_polynomials(monkeypatch):
    # Affine coordinates, Elementary coordinates (the coordinate plus the
    # composed addend), chain-rule columns, cofactor rows and D(P) are each
    # one polycore.linear_combination, and each chain-rule column starts
    # from det(J_g) * e_i instead of being scaled at the end.  What is left
    # is compose's products of powers, each power formed once per
    # expansion (there were 46 and 92 + when each Elementary added its
    # coordinate apart, and 95 and 238 * when each substitution formed its
    # own powers).
    words = _mixed_corpus(20260810, 25)
    assert len(words) == 30
    calls = {"+": 0, "*": 0}
    for name, op in [("__add__", "+"), ("__radd__", "+"), ("__mul__", "*"), ("__rmul__", "*")]:
        method = getattr(Polynomial, name)

        def counting(*args, method=method, op=op):
            calls[op] += 1
            return method(*args)

        monkeypatch.setattr(Polynomial, name, counting)
    for w in words:
        for _ in expansion(w):  # apply_generator, once per generator
            pass
    assert calls == {"+": 0, "*": 78}
    calls.update({"+": 0, "*": 0})
    for w in words:
        lnd_witness(w, WeightVector.standard(w.n))
    assert calls == {"+": 0, "*": 204}


def test_lnd_witness_word_matches_raw_map_with_inverse():
    # Word input takes mu from the word; the raw-map path recomputes it from
    # the expanded map after checking the inverse by composition.
    rng = random.Random(13)
    for n in (2, 2, 2, 3, 3):
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=2,
                                max_coord_deg=4 if n == 2 else 3)
        w1 = WeightVector.standard(n)
        raw = lnd_witness(certify(expand(word), expand(invert_word(word))), w1)
        assert lnd_witness(word, w1) == raw


def test_lnd_witness_affine_word():
    w = AutWord(2, (Elementary(1, P("x2", 2)),))  # linear addend: affine map
    i, dbar = lnd_witness(w, WeightVector.standard(2))
    assert all(c.is_constant() for c in dbar.coeffs)


def test_lnd_witness_elementary_example():
    w = AutWord(2, (Elementary(1, P("x2^2", 2)),))
    i, dbar = lnd_witness(w, WeightVector.standard(2))
    assert i == 2
    assert dbar == D(["2*x2", "1"], 2)
    assert apply(dbar, P("x1 - x2^2", 2)).is_zero()


NAGATA = (
    "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
    "x2 + x3*(x1*x3+x2^2)\n"
    "x3"
)
NAGATA_INVERSE = (
    "x1 + 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
    "x2 - x3*(x1*x3+x2^2)\n"
    "x3"
)


def test_lnd_witness_nagata():
    m = parse_map(NAGATA, 3)
    inv = parse_map(NAGATA_INVERSE, 3)
    i, dbar = lnd_witness(certify(m, inv), WeightVector.standard(3))
    assert apply(dbar, P("x2^2 + x1*x3", 3)).is_zero()
    assert isinstance(is_locally_nilpotent(dbar), LocallyNilpotent)


def test_raw_map_has_no_inverse_steps():
    # A raw map's Certified has no generator word: both word-only entry
    # points raise a typed error, and lnd_witness takes the Laplace route.
    cert = certify(parse_map(NAGATA, 3), parse_map(NAGATA_INVERSE, 3))
    with pytest.raises(TypeError, match="no generator word.*delta_derivation"):
        cert.inverse_steps
    with pytest.raises(TypeError, match="no generator word.*delta_derivation"):
        next(word_derivations(cert))
    assert lnd_witness(cert, WeightVector.standard(3))[0] == 1


def test_lnd_witness_requires_inverse_for_raw_maps():
    with pytest.raises(ValueError):
        lnd_witness(parse_map("x1 + x2^2\nx2", 2), WeightVector.standard(2))


def test_lnd_witness_rejects_an_inverse_with_a_word():
    # A word carries its own inverse; a supplied one is an error, not ignored.
    # lnd_witness takes no inverse: one enters through certify.
    w = AutWord(2, (Elementary(1, P("x2^2", 2)),))
    with pytest.raises(TypeError):
        lnd_witness(w, WeightVector.standard(2), inverse=parse_map("x1 - x2^2\nx2", 2))
    with pytest.raises(ValueError, match="carries its own inverse"):
        lnd_witness(certify(w, parse_map("x1 + 5\nx2^7", 2)), WeightVector.standard(2))


def test_intertwining_identities_on_random_words():
    rng = random.Random(11)
    for _ in range(8):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=3, max_addend_deg=2,
                                max_coord_deg=4 if n == 2 else 3)
        m = expand(word)
        inv = expand(invert_word(word))
        mu = jacobian_constant(m)
        p = random_polynomial(rng, n, max_deg=2)
        for i in range(1, n + 1):
            delta = delta_derivation(inv, i, mu)
            # Delta_i(P) o F = mu^-1 * d(P o F)/dx_i
            lhs = compose(apply(delta, p), m.coords)
            rhs = partial(compose(p, m.coords), i) * (Fraction(1) / mu)
            assert lhs == rhs
            # Delta_i(P o F^-1) = mu^-1 * (dP/dx_i) o F^-1
            assert apply(delta, compose(p, inv.coords)) == compose(
                partial(p, i) * (Fraction(1) / mu), inv.coords
            )


def test_delta_derivations_of_words_are_locally_nilpotent():
    rng = random.Random(12)
    for _ in range(6):
        word = random_tame_word(rng, 2, max_gens=3, max_addend_deg=2,
                                max_coord_deg=4)
        m = expand(word)
        inv = expand(invert_word(word))
        mu = jacobian_constant(m)
        d = WeightVector.standard(2)
        d2 = WeightVector(tuple(wdeg(c, d) for c in m.coords))
        for i in (1, 2):
            delta = delta_derivation(inv, i, mu)
            assert isinstance(is_locally_nilpotent(delta), LocallyNilpotent)
            if not delta.is_zero():
                lead = leading_derivation(delta, d2)
                assert isinstance(is_locally_nilpotent(lead), LocallyNilpotent)


def test_format_derivation_prints_one_coefficient_per_line():
    from polyaut.derivation import format_derivation

    assert format_derivation(D(["2*x2", "1"], 2)) == "2*x2\n1"
    assert format_derivation(D(["0", "x1^2 - 1/2", "3"], 3)) == "0\nx1^2 - 1/2\n3"


def test_witness_leading_derivation_stabilizes_the_relation_ideal():
    # The full stabilization statement: dbar maps the relation ideal into
    # itself.  Checking the (homogeneous) basis generators suffices, since a
    # derivation of the ambient ring that sends generators into the ideal
    # sends the whole ideal into it by the Leibniz rule.  Exercised on
    # non-principal kernels too, which the principal-only corpora skip.
    from polyaut.groebner import normal_form
    from polyaut.relations import relation_report
    from polyaut.polycore import is_homogeneous

    def check(word):
        rep = relation_report(word)
        if rep.ideal.is_zero_ideal():
            return None
        _, dbar = lnd_witness(word, WeightVector.standard(word.n))
        for g in rep.ideal.gens:
            assert is_homogeneous(g, rep.d)
            assert normal_form(apply(dbar, g), rep.ideal).is_zero()
        return rep.principal

    # Leading terms (x3^2, x3^3, x3) generate a height-two kernel: the
    # stabilization claim is about the whole ideal, not only principal ones.
    stacked = AutWord(
        3,
        (
            Elementary(1, P("x3^2", 3)),
            Elementary(2, P("x3^3", 3)),
        ),
    )
    assert check(stacked) is False

    rng = random.Random(314159)
    checked = 0
    while checked < 10:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        if check(word) is not None:
            checked += 1
