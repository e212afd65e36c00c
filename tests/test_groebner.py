"""Buchberger engine, kernels of ring maps, and the graded oracle."""

import random
from fractions import Fraction

import pytest

from polyaut.autmap import deg2_weights, expand, parse_map
from polyaut.groebner import (
    GradedLex,
    ResourceCapExceeded,
    buchberger,
    divmod_single,
    graded_kernel_oracle,
    kernel_ideal,
    leading_monomial,
    normal_form,
    span_contains,
)
from polyaut.polycore import (
    Polynomial,
    WeightVector,
    compose,
    is_homogeneous,
    leading_term,
    parse_poly,
    wdeg,
)
from polyaut.verify import random_polynomial, random_tame_word


def P(text, n):
    return parse_poly(text, n)


# -- normal form and division ------------------------------------------------


def test_normal_form_self():
    r = P("x1 - x2^2", 2)
    basis = buchberger([r], GradedLex())
    assert normal_form(r, basis).is_zero()


def test_normal_form_unit():
    basis = buchberger([P("x1", 2)], GradedLex())
    assert normal_form(Polynomial.constant(1, 2), basis) == Polynomial.constant(1, 2)


def test_normal_form_divisible():
    basis = buchberger([P("x1 - x2^2", 2)], GradedLex())
    assert normal_form(P("x1^2 - x2^4", 2), basis).is_zero()


def test_basis_holds_its_leading_monomials():
    rng = random.Random(557)
    bases = [buchberger([P("x1^2", 2), P("x1*x2", 2), P("x2^2", 2)], GradedLex())]
    for _ in range(4):
        word = random_tame_word(rng, 3, max_gens=4, max_addend_deg=3, max_coord_deg=5)
        m = expand(word)
        w = WeightVector.standard(3)
        bases.append(kernel_ideal([leading_term(c, w) for c in m.coords], deg2_weights(m, w)))
    for basis in bases:
        assert basis.lms == tuple(leading_monomial(g, basis.order) for g in basis.gens)


def test_normal_form_reads_the_held_leading_monomials(count_calls):
    from polyaut import groebner

    basis = buchberger([P("x1^2", 2), P("x1*x2", 2), P("x2^2", 2)], GradedLex())
    assert len(basis) == 3
    calls = count_calls(groebner, "leading_monomial")
    assert normal_form(Polynomial.constant(1, 2), basis) == Polynomial.constant(1, 2)
    # One call: the leading monomial of the dividend; none for the basis.
    assert len(calls) == 1


def test_relation_reports_compute_each_leading_monomial_once(count_calls):
    from polyaut import groebner
    from polyaut.relations import relation_report
    from polyaut.verify import space_corpus_principal

    words = space_corpus_principal(20260813, 5)
    calls = count_calls(groebner, "leading_monomial")
    for word in words:
        relation_report(word)
    assert len(calls) <= 129


def test_divmod_single_exact_and_inexact():
    a = P("x1^2 - x2^4", 2)
    b = P("x1 - x2^2", 2)
    q, r = divmod_single(a, b)
    assert r.is_zero() and q * b == a
    assert not divmod_single(P("x2", 2), P("x1", 2))[1].is_zero()


# -- buchberger --------------------------------------------------------------


def test_buchberger_zero_input():
    basis = buchberger([Polynomial.zero(2)], GradedLex())
    assert basis.is_zero_ideal()


def test_buchberger_two_reductions():
    basis = buchberger([P("x1 - x2^2", 2), P("x2", 2)], GradedLex())
    assert set(basis.gens) == {P("x1", 2), P("x2", 2)}


def test_buchberger_principal_input_is_monic_singleton():
    basis = buchberger([P("6*x1^2 - 4*x2", 2)], GradedLex())
    assert len(basis) == 1
    assert basis.gens[0] == P("x1^2 - 2/3*x2", 2)


def test_buchberger_s_polynomials_reduce_to_zero():
    rng = random.Random(31)
    for _ in range(6):
        gens = [random_polynomial(rng, 2, max_terms=3, max_deg=3, coeff_bound=4)
                for _ in range(2)]
        basis = buchberger(gens, GradedLex())
        for i in range(len(basis.gens)):
            for j in range(i + 1, len(basis.gens)):
                s = _s_poly(basis.gens[i], basis.gens[j], basis.order)
                assert normal_form(s, basis).is_zero()


def test_buchberger_resource_cap():
    gens = [
        P("x1^3 - 2*x1*x2", 2),
        P("x1^2*x2 - 2*x2^2 + x1", 2),
    ]
    with pytest.raises(ResourceCapExceeded):
        buchberger(gens, GradedLex(), pair_cap=1)


def test_relation_report_principal_cases():
    # relation_report reads principality off the size of the reduced basis.
    from polyaut.relations import relation_report

    def report(text, n):
        return relation_report(parse_map(text.replace(";", "\n"), n))

    zero = report("x1 + 1; x2 - x1", 2)
    assert zero.principal and zero.R == Polynomial.zero(2)
    assert zero.to_dict()["R"] == "0" and zero.to_dict()["ideal"] == []
    one = report("x1 + x2^2; x2", 2)
    assert one.principal and one.R == P("x1 - x2^2", 2)
    assert one.to_dict()["R"] == "z1 - z2^2"
    two = report("x1 + x3^2; x2 + x3^2; x3", 3)
    assert not two.principal and two.R is None
    assert two.to_dict()["ideal"] == ["z1 - z3^2", "z2 - z3^2"]


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
        order = GradedLex(tuple(d.weights))
        assert basis.order == order
        keys = [order.key(leading_monomial(g, order)) for g in basis.gens]
        assert all(g.terms[leading_monomial(g, order)] == 1 for g in basis.gens)
        assert all(a > b for a, b in zip(keys, keys[1:]))
        sizes.append(len(basis))
    assert max(sizes) >= 2


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


def test_oracle_elementary_example():
    images = [P("x2^2", 2), P("x2", 2)]
    found = graded_kernel_oracle(images, WeightVector((2, 1)), 2)
    assert found == [P("x1 - x2^2", 2)]


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
    lf, lg = leading_monomial(f, order), leading_monomial(g, order)
    lcm = tuple(map(max, lf, lg))
    mf = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lf)), 1 / f.coeff(lf), f.n)
    mg = Polynomial.monomial(tuple(a - b for a, b in zip(lcm, lg)), 1 / g.coeff(lg), g.n)
    return mf * f - mg * g


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _fixpoint_interreduce(G, order):
    """The reference's own interreduction of a Groebner basis G: drop members
    whose leading monomial another's divides, then divide each member by the
    others, restarting after every change, until nothing changes.  Returns
    the monic members sorted by descending leading monomial."""
    from polyaut.groebner import _divide

    lms = [leading_monomial(g, order) for g in G]
    keep = [g for i, g in enumerate(G)
            if not any(j != i and _divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i)
                       for j in range(len(G)))]
    changed = True
    while changed:
        changed = False
        for i, g in enumerate(keep):
            others = keep[:i] + keep[i + 1 :]
            r = _divide(g, others, [leading_monomial(o, order) for o in others], order)
            if r.is_zero():
                del keep[i]
            elif r != g:
                keep[i] = r.primitive()
            else:
                continue
            changed = True
            break
    monic = [g * (1 / g.coeff(leading_monomial(g, order))) for g in keep]
    return tuple(sorted(monic, key=lambda g: order.key(leading_monomial(g, order)),
                        reverse=True))


def _naive_buchberger(gens, order):
    """Criteria-free reference: process every pair until stable.  Returns the
    generators of the reduced basis, monic and sorted like IdealBasis.gens."""
    from polyaut.groebner import _divide

    G = [g.primitive() for g in gens if not g.is_zero()]
    pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
    while pairs:
        i, j = pairs.pop()
        lms = [leading_monomial(g, order) for g in G]
        rem = _divide(_s_poly(G[i], G[j], order), G, lms, order)
        if not rem.is_zero():
            G.append(rem.primitive())
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


def test_buchberger_matches_criteria_free_reference():
    # The reduced Groebner basis is unique, so the optimized engine must
    # agree exactly with a pair-by-pair reference run.
    for trial, gens in enumerate(_criteria_free_inputs()):
        order = GradedLex()
        assert buchberger(gens, order).gens == _naive_buchberger(gens, order), f"trial {trial}"


def test_buchberger_bases_are_reduced():
    # Monic at the held leading monomial, no term divisible by another
    # member's leading monomial, and the held lms are the true ones.
    bases = [buchberger(gens, GradedLex()) for gens in _criteria_free_inputs()]
    bases += [basis for basis, _ in _seeded_kernel_bases()]
    assert max(len(basis) for basis in bases) >= 2
    for basis in bases:
        assert basis.lms == tuple(leading_monomial(g, basis.order) for g in basis.gens)
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
        for g in basis.gens:
            if wdeg(g, d) <= dmax:
                assert span_contains(oracle, g)
        checked += 1
