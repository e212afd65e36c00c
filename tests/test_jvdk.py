"""Constructive plane decomposition and its relation shortcut."""

import random
from fractions import Fraction

import pytest

from polyaut import autmap, jvdk, polycore
from polyaut.autmap import Elementary, PolyMap, expand, parse_map
from polyaut.jvdk import (
    Decomposition,
    NotAnAutomorphism,
    NotAnAutomorphismError,
    decompose2,
    lead,
    reduce_step,
    relation2,
)
from polyaut.polycore import Polynomial, WeightVector, leading_term, parse_poly
from polyaut.relations import relation_report
from polyaut.verify import plane_corpus, random_polynomial, random_tame_word


def P(text, n):
    return parse_poly(text, n)


def _monic(p, order):
    """p divided by its leading coefficient for the weighted graded order
    (0 stays 0)."""
    if p.is_zero():
        return p
    lm = max(p.support(), key=lambda e: (sum(w * a for w, a in zip(order.weights, e)), e))
    return p * (Fraction(1) / p.coeff(lm))


def _reference_reduce(f, g):
    """The leading-form criterion: (c, r) with leading(f) = c * leading(g)^r
    and r = deg(f)/deg(g), c read off one monomial of leading(g)^r, or None."""
    w = WeightVector.standard(f.n)
    df, dg = f.total_degree(), g.total_degree()
    if df % dg != 0:
        return None
    r = df // dg
    fbar = leading_term(f, w)
    gbar_r = leading_term(g, w) ** r
    mono = next(iter(gbar_r.terms))
    c = fbar.coeff(mono) / gbar_r.terms[mono]
    if c == 0 or fbar != gbar_r * c:
        return None
    return c, r


def _reduced(f, g):
    """reduce_step(f, g), with the Lead of h read as its degree."""
    red = reduce_step(f, g)
    return red and (*red[:3], red[3].degree)


def test_reduce_step_elementary():
    assert _reduced(P("x1 + x2^2", 2), P("x2", 2)) == (Fraction(1), 2, P("x1", 2), 1)


def test_reduce_step_reads_c_at_the_lex_largest_monomial():
    # x1*x2 comes first in g's terms but is no vertex of its Newton polygon:
    # the coefficient of x1^2*x2^2 in g^2 is 3, not 1^2, so c must be read
    # at x1^4, the square of g's lexicographically largest monomial.
    g = Polynomial(2, {(1, 1): 1, (2, 0): 1, (0, 2): 1})
    f = (g ** 2) * 2 + P("x1", 2)
    assert _reduced(f, g) == (Fraction(2), 2, P("x1", 2), 1)


def test_reduce_step_not_reducible_distinct_variables():
    assert reduce_step(P("x1^2", 2), P("x2", 2)) is None


def test_reduce_step_constructed_instance():
    g = P("x2 + x1", 2)
    f = (g ** 5) * 3 + P("x1^2", 2)
    assert _reduced(f, g) == (Fraction(3), 5, P("x1^2", 2), 2)


def _met_pairs(monkeypatch, maps):
    """The (f, g) pairs decompose2 hands to reduce_step on the maps, each
    with the Leads and the power memo of g that it hands on."""
    pairs = []

    def recording(f, g, leads, powers):
        assert leads == (lead(f), lead(g))
        assert leads[0].degree == f.total_degree()
        assert powers[1] is g
        pairs.append((f, g))
        return reduce_step(f, g, leads, powers)

    monkeypatch.setattr(jvdk, "reduce_step", recording)
    for m in maps:
        decompose2(m)
    monkeypatch.undo()
    return pairs


def _perturbed_maps(rng, count):
    """Non-automorphisms: tame plane maps with one top monomial bumped."""
    maps = []
    for _ in range(count):
        f, g = expand(random_tame_word(rng, 2, max_coord_deg=10, mode="nonaffine")).coords
        if f.total_degree() < g.total_degree():
            f, g = g, f
        mono = max(f.terms, key=lambda e: (sum(e), e))
        maps.append(PolyMap(2, (f + Polynomial.monomial(mono, rng.choice([-1, 1]), 2), g)))
    return maps


def _constructed_pairs(rng, count):
    """f = c*g^r + q with q of degree up to deg(g^r), and unrelated pairs."""
    pairs = []
    for _ in range(count):
        g = random_polynomial(rng, 2, max_deg=3, min_deg=1)
        r = rng.randint(1, 3)
        q = random_polynomial(rng, 2, max_deg=r * g.total_degree())
        c = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
        pairs.append(((g ** r) * c + q, g))
        f = random_polynomial(rng, 2, max_deg=6, min_deg=g.total_degree())
        if f.total_degree() >= g.total_degree():
            pairs.append((f, g))
    return pairs


def test_reduce_step_agrees_with_the_leading_form_criterion(monkeypatch):
    # The degree drop of h = f - c*g^r decides exactly as the comparison of
    # leading forms does, with the same c and r.
    rng = random.Random(20260815)
    maps = [expand(w) for w in plane_corpus(20260810, 100)]
    met = _met_pairs(monkeypatch, maps)
    rejected_maps = _met_pairs(monkeypatch, _perturbed_maps(rng, 30))
    pairs = met + rejected_maps + _constructed_pairs(rng, 150)
    accepted = rejected = 0
    for f, g in pairs:
        red = reduce_step(f, g)
        expected = _reference_reduce(f, g)
        if expected is None:
            assert red is None, (f, g)
            rejected += 1
            continue
        assert red is not None, (f, g)
        c, r, h, lh = red
        assert (c, r) == expected
        assert h == f - (g ** r) * c
        assert lh == lead(h)
        assert lh.degree == h.total_degree() < f.total_degree()
        accepted += 1
    assert len(met) > 100 and accepted > len(met) and rejected >= 50


def test_decompose2_powers_and_eliminations(monkeypatch, count_calls):
    # Per reduction step one g^r, asked of the power memo of g (the
    # elementary generator's addend is a monomial); per map one
    # elimination, the Affine of the base case.
    maps = [expand(w) for w in plane_corpus(20260810, 25)]
    powers = []
    power = jvdk._power

    def counting(memo, k):
        powers.append(k)
        return power(memo, k)

    monkeypatch.setattr(jvdk, "_power", counting)
    eliminations = count_calls(autmap, "_rref")
    steps = sum(len(decompose2(m).steps) for m in maps)
    assert steps == 64
    assert len(powers) == 64
    assert len(eliminations) == 25


def test_decompose2_products(count_products):
    # Every product is one linear_combination: reduce_step builds
    # f - c*g^r in one call, g^r never multiplies by 1, each power of g is
    # formed once while g stays the same, and each recomposition check
    # forms each coordinate power once per expansion.  So the 25 maps take
    # 130 calls of *, the recomposition checks included (198 when every
    # g^r and every substitution formed its powers anew, 326 when * had
    # its own loop, g^r started from 1 and h was f - (g^r * c)).
    maps = [expand(w) for w in plane_corpus(20260810, 25)]
    calls = count_products()
    for m in maps:
        decompose2(m)
    assert len(calls) == 130


def test_decompose2_takes_each_degree_once(count_calls):
    # One pass over the degrees of each polynomial: the two coordinates of
    # each map to start, then h at each reduction step, whose Lead
    # reduce_step returns with it and decompose2 hands on.  The 25 maps
    # take 64 steps, and 50 + 64 = 114 (242 when reduce_step measured f
    # and g again at each step).
    maps = [expand(w) for w in plane_corpus(20260810, 25)]
    passes = count_calls(polycore, "_scaled_degrees")
    for m in maps:
        decompose2(m)
    assert len(passes) == 114


def test_decompose_identity():
    dec = decompose2(PolyMap.identity(2))
    assert isinstance(dec, Decomposition)
    assert len(dec.word) == 0
    assert dec.steps == ()


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


def test_decompose2_refuses_before_any_power(monkeypatch):
    # The smallest x1 exponent over the leading form of x1^3200 is 3200,
    # not 3200 times the 0 of x1 + x2, so reduce_step refuses the map
    # without building (x1 + x2)^3200, with the refusal that degree drop
    # gives.  With three variables the same holds for x2 in x2^3200 and
    # x2 + x3, whose x1 exponents agree.
    m = parse_map("x1^3200; x1 + x2", 2)
    f3, g3 = P("x2^3200", 3), P("x2 + x3", 3)

    def refuse(memo, k):
        raise AssertionError(f"a power to {k} was built")

    monkeypatch.setattr(jvdk, "_power", refuse)
    assert decompose2(m) == NotAnAutomorphism(
        "reduce step",
        "leading form of degree 3200 is not a scalar multiple of the "
        "degree-1 leading form raised to 3200/1",
    )
    assert reduce_step(f3, g3) is None


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
        normalized = _monic(rel, report.ideal.order)
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
