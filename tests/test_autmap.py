"""Automorphism words: expansion, inversion, Jacobians, induced weights."""

import random
from fractions import Fraction

import pytest

from polyaut.autmap import (
    Affine,
    AutWord,
    Elementary,
    NonConstantJacobian,
    PolyMap,
    Transposition,
    ZeroJacobian,
    certify,
    compose_map,
    deg2_weights,
    expand,
    format_map,
    format_word,
    invert_word,
    jacobian_constant,
    parse_map,
    parse_word,
    word_jacobian,
)
from polyaut.polycore import WeightVector, parse_poly
from polyaut.verify import random_tame_word


def E(i, text, n):
    return Elementary(i, parse_poly(text, n))


def test_expand_single_elementary():
    w = AutWord(2, (E(1, "x2^2", 2),))
    assert expand(w) == parse_map("x1 + x2^2\nx2", 2)


def test_expand_transposition():
    w = AutWord(2, (Transposition(1, 2, 2),))
    assert expand(w) == parse_map("x2\nx1", 2)


def test_expand_empty_word_is_identity():
    assert expand(AutWord.identity(3)).is_identity()


def test_expand_is_monoid_homomorphism():
    u = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2)))
    v = AutWord(2, (E(1, "x2^3", 2),))
    assert expand(u + v) == compose_map(expand(u), expand(v))


def test_expand_matches_stepwise_substitution():
    word = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2), E(1, "x2^3", 2)))
    m = PolyMap.identity(2)
    for g in word.gens:
        from polyaut.autmap import generator_map

        m = compose_map(m, generator_map(g))
    assert expand(word) == m


def test_elementary_rejects_target_variable():
    with pytest.raises(ValueError):
        Elementary(1, parse_poly("x1", 2))


def test_affine_rejects_singular_matrix():
    with pytest.raises(ValueError):
        Affine(((1, 2), (2, 4)), (0, 0))


def test_invert_elementary():
    w = AutWord(2, (E(1, "x2^2", 2),))
    inv = invert_word(w)
    assert inv.gens[0] == E(1, "-x2^2", 2)


def test_invert_identity_word():
    assert invert_word(AutWord.identity(2)) == AutWord.identity(2)


def test_invert_random_words_compose_to_identity():
    rng = random.Random(8)
    for _ in range(12):
        n = rng.choice([2, 3])
        w = random_tame_word(rng, n, max_gens=5, max_addend_deg=3, max_coord_deg=10)
        m = expand(w)
        mi = expand(invert_word(w))
        assert compose_map(m, mi).is_identity()
        assert compose_map(mi, m).is_identity()


def test_jacobian_constant_examples():
    assert jacobian_constant(PolyMap.identity(3)) == 1
    assert jacobian_constant(parse_map("x1 + x2^2\nx2", 2)) == 1
    assert jacobian_constant(parse_map("2*x1\nx2", 2)) == 2


def test_jacobian_constant_errors():
    with pytest.raises(NonConstantJacobian):
        jacobian_constant(parse_map("x1^2\nx2", 2))
    with pytest.raises(ZeroJacobian):
        jacobian_constant(parse_map("x1\nx1", 2))


def test_word_jacobian_matches_expansion():
    rng = random.Random(9)
    for _ in range(12):
        w = random_tame_word(rng, 2, max_gens=5, max_coord_deg=10)
        assert jacobian_constant(expand(w)) == word_jacobian(w)


def test_certify_words_and_raw_maps():
    rng = random.Random(10)
    for n in (2, 2, 3, 3):
        w = random_tame_word(rng, n, max_gens=5, max_coord_deg=8 if n == 2 else 5)
        assert certify(w) == (expand(w), word_jacobian(w))
        m = expand(w)
        assert certify(m) == (m, jacobian_constant(m))
    with pytest.raises(NonConstantJacobian):
        certify(parse_map("x1^2\nx2", 2))


def test_affine_keeps_its_determinant_outside_eq_and_repr():
    a = Affine(((2, 1), (3, 4)), (0, 1))
    assert a.det == 5
    assert a == Affine(((2, 1), (3, 4)), (0, 1))
    assert hash(a) == hash(Affine(((2, 1), (3, 4)), (0, 1)))
    assert "det" not in repr(a)
    assert format_word(AutWord(2, (a,))) == "A 2 1 3 4 | 0 1"


def test_word_jacobian_runs_no_elimination(count_calls):
    from polyaut import polycore

    rng = random.Random(11)
    words = [random_tame_word(rng, 3, max_gens=6, max_coord_deg=5) for _ in range(4)]
    assert any(isinstance(g, Affine) for w in words for g in w)
    rref_calls = count_calls(polycore, "_rref")
    for w in words:
        word_jacobian(w)
    assert rref_calls == []


def test_deg2_weights_identity():
    d = deg2_weights(PolyMap.identity(2), WeightVector.standard(2))
    assert tuple(d.weights) == (1, 1)


def test_deg2_weights_elementary():
    d = deg2_weights(parse_map("x1 + x2^2\nx2", 2), WeightVector.standard(2))
    assert tuple(d.weights) == (2, 1)


def test_deg2_weights_nagata():
    nag = parse_map(
        "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
        "x2 + x3*(x1*x3+x2^2)\n"
        "x3",
        3,
    )
    d = deg2_weights(nag, WeightVector.standard(3))
    assert tuple(d.weights) == (5, 3, 1)


def test_deg2_weights_are_at_least_one_for_words():
    rng = random.Random(10)
    for _ in range(10):
        w = random_tame_word(rng, 2, max_coord_deg=10)
        d = deg2_weights(expand(w), WeightVector.standard(2))
        assert all(di >= 1 for di in d.weights)


def test_word_text_round_trip():
    word = AutWord(
        2,
        (
            E(1, "x2^2 - 3*x2", 2),
            Transposition(1, 2, 2),
            Affine(((1, 1), (0, Fraction(1, 2))), (3, Fraction(-2, 3))),
        ),
    )
    assert parse_word(format_word(word), 2) == word


def test_map_text_round_trip():
    m = parse_map("x1 + 1/2*x2^2\nx2 - 3", 2)
    assert parse_map(format_map(m), 2) == m


def test_jacobian_chain_identity():
    # Replacing one coordinate of an expanded word by P o F multiplies the
    # Jacobian constant by the matching partial of P, composed with F.
    from polyaut.polycore import compose, jacobian, partial
    from polyaut.verify import random_polynomial

    rng = random.Random(13)
    for _ in range(6):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=3, max_addend_deg=2,
                                max_coord_deg=4 if n == 2 else 3)
        m = expand(word)
        mu = jacobian_constant(m)
        p = random_polynomial(rng, n, max_deg=2)
        for i in range(1, n + 1):
            entries = list(m.coords)
            entries[i - 1] = compose(p, m.coords)
            assert jacobian(entries) == compose(partial(p, i), m.coords) * mu
