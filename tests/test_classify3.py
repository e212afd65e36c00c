"""The three-variable classification and its tame normal forms."""

import hashlib
import random
from fractions import Fraction

import pytest

from polyaut.autmap import expand
from polyaut.classify3 import (
    Binomial,
    Classified,
    FORBIDDEN_ENTRIES,
    Forbidden,
    NONZERO_TAGS,
    NeedsExtension,
    NormalForm,
    NotInList,
    NotWeightedHomogeneous,
    Tag,
    TriangularFiber,
    WitnessVerificationFailed,
    X3,
    Zero,
    _read_canonical,
    _square_part,
    _x3_parts,
    canonical_lnd,
    classify,
    normalize,
    reconstruct,
    sample_classified,
    sample_forbidden,
)
from polyaut.derivation import LocallyNilpotent, apply, is_locally_nilpotent
from polyaut.polycore import Polynomial, WeightVector, compose, parse_poly, wdeg


def P(text):
    return parse_poly(text, 3)


def W(*ws):
    return WeightVector(tuple(Fraction(w) for w in ws))


# -- classification: fixed examples -------------------------------------------


def test_classify_zero():
    out = classify(Polynomial.zero(3), W(1, 2, 3))
    assert isinstance(out, Classified) and out.info.tag is Tag.ZERO


def test_classify_elem_reducible_with_shift():
    out = classify(P("2*x3 + 2*x1*x2"), W(1, 2, 3))
    assert isinstance(out, Classified) and out.info.tag is Tag.ELEM_REDUCIBLE
    assert out.info.shift_h == P("x1*x2")
    assert out.info.scalar == 2


def test_classify_two_var_binomial():
    out = classify(P("3*x1^3 + 7*x2^2"), W(2, 3, 4))
    assert isinstance(out, Classified) and out.info.tag is Tag.TWO_VAR_BINOMIAL
    assert out.info.params == {"c": Fraction(7, 3), "e1": 3, "e2": 2}


def test_classify_binomial_noncoprime_rejected():
    out = classify(P("x1^2 + x2^2"), W(1, 1, 1))
    assert isinstance(out, NotInList)


def test_classify_t5_fixed_example():
    out = classify(P("x3^2 + 5*x2^3"), W(1, 2, 3))
    assert isinstance(out, Classified) and out.info.tag is Tag.T5
    assert out.info.params == {"c": Fraction(5)}
    assert out.info.shift_h.is_zero()


def test_classify_t4_nagata_relation():
    # The Nagata relation with coordinates reordered so weights ascend.
    out = classify(P("x2^2 + x1*x3"), W(1, 3, 5))
    assert isinstance(out, Classified) and out.info.tag is Tag.T4
    assert out.info.params["k"] == 1
    assert out.info.params["P"] == P("x2^2")


def test_classify_forbidden_platonic():
    out = classify(P("x3^2 + x1^4 + x2^3"), W(3, 4, 6))
    assert isinstance(out, Forbidden) and out.entry == 1


def test_classify_not_homogeneous():
    out = classify(P("x3^2 + x1"), W(1, 2, 3))
    assert isinstance(out, NotWeightedHomogeneous)


def test_classify_requires_sorted_integer_weights():
    with pytest.raises(ValueError):
        classify(P("x3"), W(3, 2, 1))
    with pytest.raises(ValueError):
        classify(P("x3"), WeightVector((Fraction(1, 2), 1, 2)))


def test_classify_reducible_shapes_rejected():
    # x1^k * x3 with no fiber part is a product.
    out = classify(P("x1^2*x3"), W(1, 2, 2))
    assert isinstance(out, NotInList)
    # (x2 + a*x1)*x3 with no remainder is a product as well.
    out = classify(P("x2*x3 + x1*x3"), W(1, 1, 1))
    assert isinstance(out, NotInList)


def test_classify_t9_and_extension_boundary():
    out = classify(P("x3^2 + x1^3 + 2*x2^2"), W(2, 3, 3))
    assert isinstance(out, Classified) and out.info.tag is Tag.T9
    nf = normalize(out.info)
    assert isinstance(nf, NeedsExtension)  # sqrt(-2) is irrational
    out = classify(P("x3^2 + x1^3 - 4*x2^2"), W(2, 3, 3))
    nf = normalize(out.info)
    assert isinstance(nf, NormalForm)
    assert isinstance(nf.canonical, TriangularFiber)


def test_classify_t11_extension_boundary():
    # x2^2 - x1^4 splits rationally; x2^2 + x1^4 does not.
    out = classify(P("x3^2 + x2^2 - x1^4"), W(2, 4, 4))
    assert isinstance(out, Classified) and out.info.tag is Tag.T11
    out = classify(P("x3^2 + x2^2 + x1^4"), W(2, 4, 4))
    assert isinstance(out, NeedsExtension)


def test_classify_quartic_x2_degree_not_in_list():
    out = classify(P("x3^2 + x1^8 - x1^4*x2^2 - 2*x2^4"), W(1, 2, 4))
    assert isinstance(out, NotInList)


def test_classify_deterministic():
    R, d = P("x3^2 + x1^3 - 4*x2^2"), W(2, 3, 3)
    a = classify(R, d)
    b = classify(R, d)
    assert a == b


# -- the x3-shift --------------------------------------------------------------


def test_classify_square_cross_term_shift():
    R = P("(x3 + x1^3)^2 + 5*x2^3")
    out = classify(R, W(2, 4, 6))
    assert isinstance(out, Classified) and out.info.tag is Tag.T5
    assert out.info.shift_h == P("x1^3")
    assert out.info.params == {"c": Fraction(5)}
    assert reconstruct(out.info) == R


def test_classify_perfect_square_rejected():
    out = classify(P("x3^2 + 2*x1*x3 + x1^2"), W(1, 1, 1))
    assert out == NotInList("a perfect square x3'^2 is reducible")


def test_complete_square_no_cross_term():
    # Without an x1/x2-dependent x3 term there is nothing to complete: the
    # shift is zero and R is its own completed square.
    R = P("x3^2 + 5*x2^3")
    out = classify(R, W(1, 2, 3))
    assert isinstance(out, Classified)
    assert out.info.shift_h.is_zero()
    assert reconstruct(out.info) == R


def test_classify_linear_case_shift_is_quotient():
    # x2*x3 + x1^4 + x1^2*x2^2 = x2*(x3 + x1^2*x2) + x1^4.
    R = P("x2*x3 + x1^4 + x1^2*x2^2")
    out = classify(R, W(1, 1, 3))
    assert isinstance(out, Classified) and out.info.tag is Tag.T3
    assert out.info.shift_h == P("x1^2*x2")
    assert out.info.params == {"c": Fraction(1), "a": Fraction(0), "e1": 1, "k": 4}
    assert reconstruct(out.info) == R


def test_classify_nonconstant_square_coefficient_rejected():
    out = classify(P("x1*x3^2 + x2^3"), W(1, 1, 1))
    assert isinstance(out, NotInList)
    assert "non-constant coefficient" in out.diagnostic


# -- forbidden list ------------------------------------------------------------


def _entry(text, *ws):
    """The forbidden entry classify reports for R at ascending weights, or
    None when R classifies otherwise."""
    out = classify(P(text), W(*ws))
    return out.entry if isinstance(out, Forbidden) else None


def test_forbidden_examples():
    assert _entry("x3^2 + x1^5 + x2^3", 6, 10, 15) == 2
    assert _entry("x3^2 + (x1^3 + x2^2)*x2", 4, 6, 9) == 5
    t5 = classify(P("x3^2 + x2^3"), W(4, 4, 6))  # T5, not forbidden
    assert isinstance(t5, Classified) and t5.info.tag is Tag.T5
    assert _entry("x3^2 + (x1^3 - x2^2)*x1", 4, 6, 8) == 6
    assert _entry("x3^2 + (x1 + x2)*(x1 - x2)*(x1 + 2*x2)", 4, 4, 6) == 4
    # With a bare x1 factor the product of two independent x2-linear forms
    # sits in families 3 and 4 at once; first match reports 3.
    assert _entry("x3^2 + (x1 + x2)*(x1 - x2)*x1", 4, 4, 6) == 3
    assert _entry("x3^2 + (x1^2 + x2)*(x1^2 - x2)*x1", 4, 8, 10) == 3


def test_forbidden_families_never_classify():
    rng = random.Random(7)
    for entry in range(1, 7):
        for _ in range(2):
            R, d = sample_forbidden(entry, rng)
            out = classify(R, d)
            assert isinstance(out, Forbidden) and out.entry == entry


def test_forbidden_three_with_irrational_split_still_detected():
    # Discriminant nonzero but not a square: the determinant condition is
    # rational even when the factors are not.
    # (x1^2 - s*x2)(x1^2 + s*x2)x1 with s = sqrt(2)
    assert _entry("x3^2 + (x1^4 - 2*x2^2)*x1", 4, 8, 10) == 3


# -- repeated factors of binary cubics -----------------------------------------


def _form(a, b):
    """a*x1 + b*x2."""
    return (Polynomial.monomial((1, 0, 0), Fraction(a), 3)
            + Polynomial.monomial((0, 1, 0), Fraction(b), 3))


def _planted_cubic(kind, rng):
    """(Q, repeated) for a binary cubic Q in x1, x2 whose core has degree 3
    (no x1 or x2 factor) or 2 (one x2 or x1 factor), built with or without a
    repeated linear factor; roots and factor coefficients are nonzero."""

    def nonzero():
        return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2, 3]))

    def root_form():
        return _form(1, -nonzero())

    def distinct_roots(k):
        while True:
            ts = [nonzero() for _ in range(k)]
            if len(set(ts)) == k:
                return [_form(1, -t) for t in ts]

    irrational = _form(1, 0) * _form(1, 0) - Polynomial.monomial(
        (0, 2, 0), Fraction(rng.choice([2, 3, 5, -1, -2])), 3)  # x1^2 - k*x2^2
    c = Polynomial.constant(nonzero(), 3)
    x1, x2 = _form(1, 0), _form(0, 1)
    if kind == "cubic double":
        r = root_form()
        return c * r * r * _form(nonzero(), nonzero()), True
    if kind == "cubic triple":
        r = root_form()
        return c * r * r * r, True
    if kind == "cubic rational":
        a, b, d = distinct_roots(3)
        return c * a * b * d, False
    if kind == "cubic irrational":
        if rng.random() < 0.5:
            return c * (x1 * x1 * x1 - Polynomial.monomial((0, 3, 0), Fraction(2), 3)), False
        return c * irrational * _form(nonzero(), nonzero()), False
    if kind == "quadratic double":
        r = root_form()
        return c * rng.choice([x1, x2]) * r * r, True
    if kind == "quadratic rational":
        a, b = distinct_roots(2)
        return c * x2 * a * b, False
    if kind == "quadratic irrational":
        return c * x2 * irrational, False
    raise ValueError(kind)


@pytest.mark.parametrize("kind", [
    "cubic double", "cubic triple", "cubic rational", "cubic irrational",
    "quadratic double", "quadratic rational", "quadratic irrational",
])
def test_classify_binary_cubic_repeated_factor(kind):
    rng = random.Random(f"repeated factor: {kind}")
    x3 = Polynomial.variable(3, 3)
    for _ in range(25):
        q, repeated = _planted_cubic(kind, rng)
        w = rng.randint(1, 3)
        R = (x3 * x3 + q) * Fraction(rng.choice([-2, 1, 3]), rng.choice([1, 5]))
        out = classify(R, W(2 * w, 2 * w, 3 * w))
        if repeated:
            assert isinstance(out, Classified) and out.info.tag is Tag.T12, (q, out)
            assert reconstruct(out.info) == R
        else:
            assert isinstance(out, Forbidden) and out.entry == 4, (q, out)


# -- soundness, exclusivity, normal forms --------------------------------------


def test_sampler_round_trip_all_lines():
    rng = random.Random(20260810)
    for tag in NONZERO_TAGS:
        for _ in range(3):
            R, d = sample_classified(tag, rng)
            assert wdeg(R, d) <= d.total() - 2
            out = classify(R, d)
            assert isinstance(out, Classified), (tag, out)
            assert out.info.tag is tag, (tag, out.info.tag)
            assert reconstruct(out.info) == R


#: sha256 over repr((R, d)) of five rounds of sample_classified for every
#: nonzero tag, then sample_forbidden for every entry, from one generator:
#: pins each sampler's polynomial, weights and draw order.
EXPECTED_SAMPLER_DIGEST = (
    "18d2ec69d17674b1876bf4e8f9620391d08705f5848a3bd3e8d91237a6bea520"
)


def test_sampler_draws_characterization():
    rng = random.Random(20261019)
    lines = []
    for _ in range(5):
        lines += [repr(sample_classified(tag, rng)) for tag in NONZERO_TAGS]
        lines += [repr(sample_forbidden(entry, rng)) for entry in FORBIDDEN_ENTRIES]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXPECTED_SAMPLER_DIGEST


def test_normalize_t5_reaches_binomial():
    out = classify(P("x3^2 + 5*x2^3"), W(1, 2, 3))
    nf = normalize(out.info)
    assert isinstance(nf.canonical, Binomial)
    assert (nf.canonical.r, nf.canonical.s) == (2, 3)
    # The witness is exact: R o psi = sigma * (x1^2 + x2^3).
    lhs = compose(P("x3^2 + 5*x2^3"), expand(nf.witness).coords)
    assert lhs == nf.canonical_poly * nf.residual_scalar
    assert nf.canonical_poly == P("x1^2 + x2^3")


def test_normalize_t4_empty_witness():
    out = classify(P("x2^2 + x1*x3"), W(1, 3, 5))
    nf = normalize(out.info)
    assert len(nf.witness) == 0
    assert isinstance(nf.canonical, TriangularFiber)
    assert nf.canonical.k == 1 and nf.canonical.fiber == P("x2^2")


def test_normalize_t3_lands_in_triangular_fiber():
    # The documented x2-shift alone does not reach a binomial; the verified
    # witness sends (x2 + a*x1^e1)*x3' + c*x1^k to x1*x3 + c*x2^k.
    R = P("(x2 + 2*x1)*x3 + 3*x1^4")
    out = classify(R, W(1, 1, 3))
    assert out.info.tag is Tag.T3
    nf = normalize(out.info)
    assert isinstance(nf.canonical, TriangularFiber)
    assert nf.canonical.k == 1
    assert nf.canonical.fiber == P("3*x2^4")


def test_normalize_witnesses_verify_for_all_samples():
    rng = random.Random(3141)
    for tag in NONZERO_TAGS:
        R, d = sample_classified(tag, rng)
        out = classify(R, d)
        nf = normalize(out.info)
        if isinstance(nf, NeedsExtension):
            assert out.info.tag in (Tag.T9, Tag.T11)
            continue
        lhs = compose(R, expand(nf.witness).coords)
        assert lhs == nf.canonical_poly * nf.residual_scalar


def _witness_corpus(per_tag=10, seed=20261019):
    """The classified lines of per_tag sample_classified draws per nonzero tag."""
    rng = random.Random(seed)
    infos = []
    for tag in NONZERO_TAGS:
        for _ in range(per_tag):
            R, d = sample_classified(tag, rng)
            infos.append(classify(R, d).info)
    return infos


#: sha256 over repr(normalize(info)) for _witness_corpus(): every witness
#: generator with its exact Fractions, residual scalar, canonical form and
#: canonical polynomial, or the NeedsExtension reason.
EXPECTED_WITNESS_DIGEST = (
    "dbac102af5bd2f05299b4cd8f641f4dc6b8bb1e86128e238168e1ef1d8b6e6bd"
)


def test_witness_words_characterization():
    lines = [repr(normalize(info)) for info in _witness_corpus()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == EXPECTED_WITNESS_DIGEST


def test_normalize_composes_with_its_witness_once(count_calls):
    from polyaut import autmap, polycore

    infos = _witness_corpus()
    composed = count_calls(polycore, "compose")
    substituted = count_calls(autmap, "_substitution")
    expanded = count_calls(autmap, "expand")
    outs = [normalize(info) for info in infos]
    normal = sum(isinstance(nf, NormalForm) for nf in outs)
    assert (len(outs), normal) == (130, 119)
    # One expand and one composition with R per normal form; the rest of
    # the compositions are the x3-shifts of reconstruct.  Each composition
    # substitutes once, and so does each of the 45 Elementaries of the 119
    # witness words inside expand.
    assert len(expanded) == normal
    assert len(composed) == 138
    assert len(substituted) == 138 + 45


def test_read_canonical_refuses_a_three_term_binomial():
    with pytest.raises(WitnessVerificationFailed, match="two-term binomial"):
        _read_canonical(P("x1^2 + x2^3 + x1*x2"), False)


def test_read_canonical_refuses_a_binomial_with_unequal_coefficients():
    with pytest.raises(WitnessVerificationFailed, match="coefficients differ"):
        _read_canonical(P("x1^2 + 5*x2^3"), False)
    canonical, canonical_poly, sigma = _read_canonical(P("7*x1^2 + 7*x2^3"), False)
    assert (canonical, canonical_poly, sigma) == (Binomial(2, 3), P("x1^2 + x2^3"), 7)


def test_normalize_refuses_a_binomial_witness_that_skips_its_rescale(monkeypatch):
    # Without its rescaling Affine the T5 witness ends at x1^2 + c*x2^3
    # with c != 1, and the canonical binomial x1^2 + x2^3 must not match.
    from polyaut import classify3
    from polyaut.autmap import Affine

    rng = random.Random(5)
    R, d = sample_classified(Tag.T5, rng)
    info = classify(R, d).info
    assert normalize(info).canonical == Binomial(2, 3)
    monkeypatch.setattr(classify3, "_rescale_binomial",
                        lambda r, s, rho: Affine(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)))
    with pytest.raises(WitnessVerificationFailed, match="coefficients differ"):
        normalize(info)


def test_canonical_forms_lie_in_lnd_kernels():
    rng = random.Random(2718)
    seen = set()
    for tag in NONZERO_TAGS:
        R, d = sample_classified(tag, rng)
        out = classify(R, d)
        nf = normalize(out.info)
        if isinstance(nf, NeedsExtension):
            continue
        lnd = canonical_lnd(nf)
        assert apply(lnd, nf.canonical_poly).is_zero()
        assert isinstance(is_locally_nilpotent(lnd), LocallyNilpotent)
        seen.add(type(nf.canonical).__name__)
    assert {"Binomial", "TriangularFiber"} <= seen


def test_zero_normal_form():
    out = classify(Polynomial.zero(3), W(1, 1, 1))
    nf = normalize(out.info)
    assert isinstance(nf.canonical, Zero)
    assert nf.canonical_poly.is_zero()


def test_elem_reducible_normal_form():
    out = classify(P("2*x3 + 2*x1*x2"), W(1, 2, 3))
    nf = normalize(out.info)
    assert isinstance(nf.canonical, X3)
    assert compose(P("2*x3 + 2*x1*x2"), expand(nf.witness).coords) == (
        nf.canonical_poly * nf.residual_scalar
    )


def test_real_relation_generators_always_classify():
    # Generators coming from genuine automorphisms can never be Forbidden
    # or fall outside the list (permute coordinates so weights ascend).
    from polyaut.relations import relation_report
    from polyaut.verify import space_corpus_principal

    def reorder(R, d):
        order = sorted(range(3), key=lambda i: d.weights[i])
        terms = {
            tuple(m[order[j]] for j in range(3)): c for m, c in R.terms.items()
        }
        return Polynomial(3, terms), WeightVector(
            tuple(d.weights[i] for i in order)
        )

    for word in space_corpus_principal(424242, 8):
        rep = relation_report(word)
        R, d = reorder(rep.R, rep.d)
        out = classify(R, d)
        assert isinstance(out, (Classified, NeedsExtension)), out


def test_nagata_relation_classifies_and_normalizes_end_to_end():
    from polyaut.relations import relation_report
    from polyaut.autmap import parse_map

    nagata = parse_map(
        "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
        "x2 + x3*(x1*x3+x2^2)\nx3",
        3,
    )
    rep = relation_report(nagata)
    # weights (5, 3, 1) descend; reading variables in reverse order gives
    # ascending weights (1, 3, 5) and the relation x2^2 + x1*x3.
    R = Polynomial(3, {m[::-1]: c for m, c in rep.R.terms.items()})
    out = classify(R, W(1, 3, 5))
    assert out.info.tag is Tag.T4
    nf = normalize(out.info)
    assert isinstance(nf.canonical, TriangularFiber)
    lnd = canonical_lnd(nf)
    assert apply(lnd, nf.canonical_poly).is_zero()


def test_classify_fuzz_never_crashes_and_reconstructs():
    # Random deg2-homogeneous inputs over random ascending integer weights:
    # every outcome is a well-formed value, Classified outcomes reconstruct
    # exactly, and repeated runs agree.
    rng = random.Random(31337)
    from polyaut.classify3 import (
        ClassifyOutcome,
        NotInList as _NotInList,
    )

    outcomes = {}
    for _ in range(300):
        d1 = rng.randint(1, 4)
        d2 = rng.randint(d1, 6)
        d3 = rng.randint(d2, 8)
        d = W(d1, d2, d3)
        target = rng.randint(d3, 2 * d3 + 2)
        monos = [
            (a1, a2, a3)
            for a1 in range(target // d1 + 1)
            for a2 in range((target - a1 * d1) // d2 + 1)
            for a3 in range((target - a1 * d1 - a2 * d2) // d3 + 1)
            if a1 * d1 + a2 * d2 + a3 * d3 == target
        ]
        if not monos:
            continue
        terms = {}
        for m in monos:
            if rng.random() < 0.5:
                c = rng.randint(-4, 4)
                if c:
                    terms[m] = Fraction(c)
        R = Polynomial(3, terms)
        out = classify(R, d)
        outcomes[type(out).__name__] = outcomes.get(type(out).__name__, 0) + 1
        assert classify(R, d) == out  # deterministic
        if isinstance(out, Classified):
            assert reconstruct(out.info) == R
            nf = normalize(out.info)
            if not isinstance(nf, NeedsExtension):
                from polyaut.autmap import expand as _expand

                assert compose(R, _expand(nf.witness).coords) == (
                    nf.canonical_poly * nf.residual_scalar
                )
    # The fuzz must actually exercise both accepting and rejecting paths.
    assert "Classified" in outcomes and "NotInList" in outcomes


# -- characterization: square-part outcomes on a seeded corpus ---------------


def _char_weights(q):
    """Ascending integer weights (d1, d2, d3) making q deg2-homogeneous of
    degree 2*d3, searched over small d1 <= d2 and a common multiple t;
    the first that satisfies the square-case bound d3 <= d1+d2-2 wins,
    else the first found; None when q admits none."""
    if q.is_zero():
        return None
    first = None
    for d1 in range(1, 9):
        for d2 in range(d1, 13):
            degs = {a * d1 + b * d2 for a, b, _ in q.terms}
            if len(degs) != 1:
                continue
            deg = degs.pop()
            if deg < 2 * d2:
                continue
            for t in (1, 2, 3, 4):
                if t * deg % 2:
                    continue
                d = (t * d1, t * d2, t * deg // 2)
                if d[2] <= d[0] + d[1] - 2:
                    return W(*d)
                first = first or d
    return None if first is None else W(*first)


def _char_mono(a, b, c):
    return Polynomial.monomial((a, b, 0), Fraction(c), 3)


def _char_coeff(rng):
    return Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 1, 1, 2]))


def _char_line(rng):
    """Random subset of a weighted line x1^v1*x2^v2 * x1^(j*e1)*x2^((s-j)*e2)."""
    e1, e2 = rng.randint(1, 5), rng.randint(1, 4)
    v1, v2, s = rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 4)
    js = [j for j in range(s + 1) if rng.random() < 0.6] or [rng.randint(0, s)]
    q = Polynomial.zero(3)
    for j in js:
        q = q + _char_mono(v1 + j * e1, v2 + (s - j) * e2, _char_coeff(rng))
    return q


def _char_binomials(rng):
    """x1^r1*x2^r2 * prod (a*x1^e1 + b*x2^e2), repeated factors, perturbed."""
    if rng.random() < 0.4:
        e1 = e2 = 1
        k = rng.randint(1, 3)
        r1 = rng.randint(0, 3 - k)
        r2 = 3 - k - r1
    else:
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        k, r1, r2 = rng.randint(1, 3), rng.randint(0, 2), rng.randint(0, 2)
    pool = [(1, 0), (0, 1)] + [
        (rng.randint(-3, 3), rng.choice([-2, -1, 1, 2])) for _ in range(2)
    ]
    q = _char_mono(r1, r2, _char_coeff(rng))
    for _ in range(k):
        a, b = rng.choice(pool)
        q = q * (_char_mono(e1, 0, a) + _char_mono(0, e2, b))
    if q.terms and rng.random() < 0.3:
        mono = rng.choice(sorted(q.terms))
        q = q + _char_mono(mono[0], mono[1], rng.choice([-1, 1]))
    return q


def _char_x2_quadratic(rng):
    """A*x2^2 + B*x1^e*x2 + C*x1^(2e) with square, zero and non-square
    discriminants, or A*x2^2 + C*x1^k, times x1^0..2."""
    A = Fraction(rng.choice([1, -1, 2, 4, -4, 3, 9]), rng.choice([1, 1, 4]))
    e = rng.randint(1, 3)
    kind = rng.randrange(5)
    if kind == 0:  # square discriminant: two rational roots
        t1 = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        t2 = t1 + rng.choice([-2, -1, 1, 3])
        B, C = -A * (t1 + t2), A * t1 * t2
    elif kind == 1:  # zero discriminant
        t = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        B, C = -2 * A * t, A * t * t
    elif kind == 2:  # arbitrary, mostly non-square
        B, C = Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))
    elif kind == 3:  # one of B, C zero
        B, C = (Fraction(rng.randint(-4, 4)), Fraction(0))
        if rng.random() < 0.5:
            B, C = C, B
    else:
        q = _char_mono(0, 2, A) + _char_mono(rng.randint(1, 7), 0, _char_coeff(rng))
        return q * _char_mono(rng.randint(0, 2), 0, 1)
    q = _char_mono(0, 2, A) + _char_mono(e, 1, B) + _char_mono(2 * e, 0, C)
    return q * _char_mono(rng.randint(0, 2), 0, 1)


def _char_near_forbidden(rng):
    """Lines through the two-term forbidden shapes and their neighbours."""
    e1, e2, v1, v2 = rng.choice([
        (4, 3, 0, 0), (5, 3, 0, 0), (3, 2, 0, 1), (3, 2, 1, 0), (4, 3, 1, 0),
        (5, 3, 0, 1), (3, 2, 0, 0), (5, 2, 1, 0), (3, 2, 1, 1),
    ])
    s = rng.choice([1, 1, 1, 2])
    q = _char_mono(v1, v2 + s * e2, _char_coeff(rng))
    q = q + _char_mono(v1 + s * e1, v2, _char_coeff(rng))
    if s == 2 and rng.random() < 0.5:
        q = q + _char_mono(v1 + e1, v2 + e2, _char_coeff(rng))
    return q


def _char_arbitrary(rng):
    q = Polynomial.zero(3)
    for _ in range(rng.randint(1, 4)):
        q = q + _char_mono(rng.randint(0, 5), rng.randint(0, 5), _char_coeff(rng))
    return q


def _char_shift(rng, d):
    """A random h(x1, x2), homogeneous of degree d3 when weights are given."""
    h = Polynomial.zero(3)
    if rng.random() < 0.5:
        return h
    if d is None:
        for _ in range(rng.randint(1, 2)):
            h = h + _char_mono(rng.randint(0, 3), rng.randint(0, 2), rng.randint(-2, 2))
        return h
    d1, d2, d3 = (int(w) for w in d)
    for a in range(d3 // d1 + 1):
        if (d3 - a * d1) % d2 == 0 and rng.random() < 0.7:
            h = h + _char_mono(a, (d3 - a * d1) // d2, rng.randint(-2, 2))
    return h


def _char_x3_linear(rng):
    """(R, d) = b*(x2 + a*x1^e)*x3 + P(x1, x2) with d = (1, e, d3)."""
    e, d3 = rng.randint(1, 3), rng.randint(3, 6)
    a = Fraction(rng.choice([0, 0, 1, -2, 3]))
    b = _char_coeff(rng)
    deg = e + d3
    p = Polynomial.zero(3)
    for i in range(deg // e + 1):
        if rng.random() < 0.5:
            p = p + _char_mono(deg - i * e, i, rng.randint(-3, 3))
    front = (_char_mono(0, 1, 1) + _char_mono(e, 0, a)) * b
    return front * Polynomial.variable(3, 3) + p, W(1, e, d3)


def _square_part_entry(R):
    """The forbidden entry matched by the x3-free part Q of R = lam*((x3 +
    h)^2 + Q) when the x3^2 coefficient lam is a constant, else None.  Unlike
    classify, this reads Q whether or not it is weighted homogeneous."""
    parts = _x3_parts(R)
    if max(parts) != 2 or not parts[2].is_constant():
        return None
    matched = _square_part(parts)[3]
    return matched.entry if isinstance(matched, Forbidden) else None


def square_part_outcomes_digest(count=4000, seed=20261018):
    """sha256 over classify and the square-part forbidden entry of
    lam*((x3 + h)^2 + Q) for a seeded corpus of x3-free parts Q, plus
    x3-linear inputs."""
    rng = random.Random(seed)
    makers = [_char_line, _char_binomials, _char_x2_quadratic, _char_near_forbidden,
              _char_arbitrary]
    lines = []
    x3 = Polynomial.variable(3, 3)
    for i in range(count):
        if i % 20 == 19:
            R, d = _char_x3_linear(rng)
            lines.append(repr(classify(R, d)))
            lines.append(repr(_square_part_entry(R)))
            continue
        q = makers[i % len(makers)](rng)
        d = _char_weights(q)
        lam = _char_coeff(rng)
        x3p = x3 + _char_shift(rng, d)
        R = (x3p * x3p + q) * lam
        if d is not None:
            lines.append(repr(classify(R, d)))
        lines.append(repr(_square_part_entry(R)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: Changes when any outcome, params dict (key order included), detail,
#: reason or diagnostic of the corpus changes.
EXPECTED_SQUARE_PART_DIGEST = (
    "48edeae9d3541673c309d9b79152a5bc97025ba656303072af3001bffbe24d3d"
)


def test_square_part_outcomes_characterization():
    assert square_part_outcomes_digest() == EXPECTED_SQUARE_PART_DIGEST
