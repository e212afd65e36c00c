"""Constructive plane decomposition and its relation shortcut."""

import random
from fractions import Fraction

import pytest

from polyaut.autmap import Elementary, PolyMap, expand, parse_map
from polyaut.groebner import monic
from polyaut.jvdk import (
    Decomposition,
    NotAnAutomorphism,
    NotAnAutomorphismError,
    decompose2,
    reduce_step,
    relation2,
)
from polyaut.polycore import Polynomial, WeightVector, leading_term, parse_poly
from polyaut.relations import relation_report
from polyaut.verify import random_tame_word


def P(text, n):
    return parse_poly(text, n)


def test_reduce_step_elementary():
    assert reduce_step(P("x1 + x2^2", 2), P("x2", 2)) == (Fraction(1), 2)


def test_reduce_step_not_reducible_distinct_variables():
    assert reduce_step(P("x1^2", 2), P("x2", 2)) is None


def test_reduce_step_constructed_instance():
    g = P("x2 + x1", 2)
    f = (g ** 5) * 3 + P("x1^2", 2)
    assert reduce_step(f, g) == (Fraction(3), 5)


def test_decompose_identity():
    dec = decompose2(PolyMap.identity(2))
    assert isinstance(dec, Decomposition)
    assert len(dec.word) == 0
    assert dec.affine_tail.is_identity()


def test_decompose_single_elementary():
    dec = decompose2(parse_map("x1 + x2^2\nx2", 2))
    assert isinstance(dec, Decomposition)
    assert dec.word.gens == (Elementary(1, P("x2^2", 2)),)


def test_decompose_stacked_elementaries():
    m = parse_map("x1 + x2^2\nx2 + (x1 + x2^2)^3", 2)
    dec = decompose2(m)
    assert isinstance(dec, Decomposition)
    assert len(dec.steps) == 2
    assert expand(dec.word) == m


def test_decompose_strict_descent():
    m = parse_map("x1 + x2^2\nx2 + (x1 + x2^2)^3", 2)
    dec = decompose2(m)
    sums = [s.degree_sum_before for s in dec.steps]
    assert all(a > b for a, b in zip(sums, sums[1:]))
    for s in dec.steps:
        assert s.degree_sum_after < s.degree_sum_before


def test_decompose_rejects_non_automorphism():
    # A perturbed tame map: the Jacobian stops being constant.
    bad = parse_map("x1 + x2^2\nx2 + x1^2", 2)
    out = decompose2(bad)
    assert isinstance(out, NotAnAutomorphism)
    assert out.stage in ("reduce step", "affine base")


def test_decompose_rejects_singular_affine_base():
    out = decompose2(parse_map("x1 + x2\nx1 + x2 + 1", 2))
    assert out == NotAnAutomorphism(
        "affine base", "linear part of the residual affine map is singular"
    )


def test_decompose_rejects_constant_coordinate():
    out = decompose2(parse_map("x1\n7", 2))
    assert isinstance(out, NotAnAutomorphism)


def test_decompose_random_round_trip():
    rng = random.Random(99)
    for _ in range(25):
        word = random_tame_word(rng, 2, max_coord_deg=12)
        m = expand(word)
        dec = decompose2(m)
        assert isinstance(dec, Decomposition), dec
        assert expand(dec.word) == m


def test_decompose_rejects_perturbed_words():
    rng = random.Random(100)
    rejected = 0
    for _ in range(20):
        word = random_tame_word(rng, 2, max_coord_deg=10, mode="nonaffine")
        m = expand(word)
        f, g = m.coords
        # Perturb one coefficient of the higher-degree coordinate.
        mono = max(f.terms, key=sum)
        bumped = f + Polynomial.monomial(mono, 1, 2)
        from polyaut.polycore import jacobian

        if jacobian([bumped, g]).is_constant():
            continue  # perturbation accidentally stayed automorphic-looking
        out = decompose2(PolyMap(2, (bumped, g)))
        assert isinstance(out, NotAnAutomorphism)
        rejected += 1
    assert rejected >= 5


def test_relation2_affine():
    assert relation2(parse_map("x2 - 3\n2*x1", 2)).is_zero()


def test_relation2_elementary():
    assert relation2(parse_map("x1 + x2^2\nx2", 2)) == P("x1 - x2^2", 2)


def test_relation2_swapped():
    assert relation2(parse_map("x2\nx1 + x2^3", 2)) == P("x2 - x1^3", 2)


def test_relation2_raises_on_non_automorphism():
    with pytest.raises(NotAnAutomorphismError):
        relation2(parse_map("x1 + x2^2\nx2 + x1^2", 2))


def test_relation2_matches_kernel_ideal():
    rng = random.Random(101)
    for _ in range(8):
        word = random_tame_word(rng, 2, max_coord_deg=10)
        m = expand(word)
        rel = relation2(m)
        report = relation_report(m)
        assert report.principal
        if rel.is_zero():
            assert report.R.is_zero()
            continue
        normalized = monic(rel, report.ideal.order)
        assert normalized == report.R


def test_relation2_annihilates_leading_forms():
    rng = random.Random(102)
    w = WeightVector.standard(2)
    for _ in range(8):
        word = random_tame_word(rng, 2, max_coord_deg=10, mode="nonaffine")
        m = expand(word)
        rel = relation2(m)
        from polyaut.polycore import compose

        fbars = [leading_term(c, w) for c in m.coords]
        assert compose(rel, fbars).is_zero()
