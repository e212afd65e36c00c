"""Automorphism words: expansion, inversion, Jacobians, induced weights."""

import importlib.util
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from polyaut import polycore
from polyaut.autmap import (
    Affine,
    AutWord,
    Certified,
    Elementary,
    InverseMismatch,
    NonConstantJacobian,
    PolyMap,
    Transposition,
    ZeroJacobian,
    certify,
    compose_map,
    deg2_weights,
    expand,
    expansion,
    format_map,
    format_word,
    invert_generator,
    invert_word,
    jacobian_constant,
    parse_map,
    parse_word,
    word_jacobian,
)
from polyaut.polycore import Polynomial, WeightVector, _rref, parse_poly
from polyaut.verify import random_polynomial, random_tame_word

ROOT = Path(__file__).resolve().parent.parent


def E(i, text, n):
    return Elementary(i, parse_poly(text, n))


def _reference_generator_map(g):
    """The coordinate tuple of one generator, built term by term."""
    n = g.n
    xs = [Polynomial.variable(i, n) for i in range(1, n + 1)]
    if isinstance(g, Affine):
        coords = []
        for row, s in zip(g.matrix, g.shift):
            p = Polynomial.constant(s, n)
            for a, x in zip(row, xs):
                if a:
                    p = p + x * a
            coords.append(p)
        return PolyMap(n, tuple(coords))
    if isinstance(g, Elementary):
        xs[g.target - 1] = xs[g.target - 1] + g.addend
    else:
        xs[g.i - 1], xs[g.j - 1] = xs[g.j - 1], xs[g.i - 1]
    return PolyMap(n, tuple(xs))


def _reference_expand(word):
    """G1 o .. o Gk folded from the inside out: result o Gi, first to last."""
    result = PolyMap.identity(word.n)
    for g in word.gens:
        result = compose_map(result, _reference_generator_map(g))
    return result


def _rational_affine(rng, n):
    while True:
        matrix = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                  for _ in range(n)]
        shift = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        if _rref(matrix)[2] not in (0, 1, -1):
            return Affine(matrix, shift)


def _rational_word(rng, n, length):
    """Rational non-unimodular affines, transpositions and elementaries with
    small addends, in random order."""
    gens = []
    for _ in range(length):
        kind = rng.choice(("affine", "elementary", "transposition"))
        if kind == "affine":
            gens.append(_rational_affine(rng, n))
        elif kind == "elementary":
            target = rng.randint(1, n)
            others = [i for i in range(n) if i != target - 1]
            addend = random_polynomial(rng, n, 2, 2, 5, variables=others, min_deg=1)
            gens.append(Elementary(target, addend * Fraction(1, rng.randint(1, 3))))
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            gens.append(Transposition(i, j, n))
    return AutWord(n, tuple(gens))


def _benchmark_words():
    """Words of the generator families the benchmark corpora draw from:
    plane words A; E; .. ; A with dense unimodular 2 x 2 matrices, n = 3
    words A; E; A with unimodular 0/1 matrices, and n = 3 ladders whose
    affine maps have determinant +-2."""
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = random.Random(1)
    words = workloads.PlaneDecompose().build(rng)[::8]
    kernel = workloads.RelationsKernel()
    words += [kernel._word(rng, *shape) for shape in kernel.ADDENDS]
    words += workloads.LndLadder().build(rng)[::5]
    return words


def _seeded_words():
    rng = random.Random(12)
    words = [AutWord(n, ()) for n in (2, 3, 4)]
    for n, budget in ((2, 10), (3, 5), (4, 3)):
        words += [random_tame_word(rng, n, max_gens=5, max_addend_deg=2, max_coord_deg=budget)
                  for _ in range(6)]
        words += [_rational_word(rng, n, length) for length in (1, 2, 3, 4)]
    return words


def test_expand_single_elementary():
    w = AutWord(2, (E(1, "x2^2", 2),))
    assert expand(w) == parse_map("x1 + x2^2\nx2", 2)


def test_expand_transposition():
    w = AutWord(2, (Transposition(1, 2, 2),))
    assert expand(w) == parse_map("x2\nx1", 2)


def test_expand_empty_word_is_identity():
    assert expand(AutWord(3, ())).is_identity()


def test_expand_is_monoid_homomorphism():
    u = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2)))
    v = AutWord(2, (E(1, "x2^3", 2),))
    assert expand(AutWord(2, u.gens + v.gens)) == compose_map(expand(u), expand(v))
    rng = random.Random(14)
    for n in (2, 3, 4):
        for _ in range(4):
            u = _rational_word(rng, n, rng.randint(0, 3))
            v = _rational_word(rng, n, rng.randint(0, 3))
            assert expand(AutWord(n, u.gens + v.gens)) == compose_map(expand(u), expand(v))


def test_expand_matches_stepwise_substitution():
    word = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2), E(1, "x2^3", 2)))
    words = [word, *_seeded_words(), *_benchmark_words()]
    assert {len(w) for w in words} >= {0, 1, 5}
    assert {w.n for w in words} == {2, 3, 4}
    gens = [g for w in words for g in w]
    assert any(isinstance(g, Affine) and g.det not in (1, -1)
               and any(a.denominator != 1 for row in g.matrix for a in row) for g in gens)
    assert any(isinstance(g, Transposition) for g in gens)
    for w in words:
        assert expand(w) == _reference_expand(w)
        inverse = invert_word(w)
        assert expand(inverse) == _reference_expand(inverse)


def _run_word(rng, n):
    """Two runs of Elementaries with one target each (the shape of a
    decompose2 word), the first ended by an Elementary that rewrites a
    coordinate the run has taken powers of, or by a rational Affine; a
    Transposition sits inside one run."""
    gens = []
    swap = rng.randrange(4)
    for end in rng.sample(("rewrite", "affine"), 2):
        target = rng.randint(1, n)
        others = [i for i in range(n) if i != target - 1]
        for _ in range(2):
            addend = random_polynomial(rng, n, 2, 2, 5, variables=others, min_deg=1)
            gens.append(Elementary(target, addend * Fraction(1, rng.randint(1, 3))))
            if len(gens) == swap:
                gens.append(Transposition(*rng.sample(range(1, n + 1), 2), n))
        if end == "rewrite":
            addend = random_polynomial(rng, n, 2, 2, 5, variables=[target - 1], min_deg=1)
            gens.append(Elementary(rng.choice(others) + 1, addend))
        else:
            gens.append(_rational_affine(rng, n))
    return AutWord(n, tuple(gens))


def test_expansion_with_shared_powers_matches_stepwise_composition():
    # expansion keeps one power memo per coordinate for the whole word.
    # Every tuple it yields is the suffix of the word composed generator by
    # generator, including after a swap inside a run and after an
    # Elementary that rewrote a coordinate whose powers were cached.
    rng = random.Random(20261020)
    words = [_run_word(rng, n) for n in (2, 2, 2, 3, 3, 3) for _ in range(4)]
    words.append(AutWord(2, (E(1, "x2^3 + x2", 2), E(2, "x1^2", 2), E(1, "x2^3 - x2^2", 2))))
    words.append(AutWord(3, (E(1, "x2^2*x3", 3), Transposition(2, 3, 3), E(1, "x2^2 + x3^3", 3))))
    assert any(isinstance(g, Transposition) for w in words for g in w)
    for w in words:
        for k, coords in enumerate(expansion(w)):
            suffix = AutWord(w.n, w.gens[len(w.gens) - k:])
            assert PolyMap(w.n, coords) == _reference_expand(suffix)


def test_expansion_forms_each_power_once_along_a_run(count_products):
    # Along a run of Elementaries with target 1, the powers of x2 are
    # formed once for the whole expansion: x2^2 and x2^4 are 2 products,
    # the substitutions of the 3 addends x2^4 then take none.
    word = AutWord(2, (E(1, "x2^4", 2),) * 3)
    expected = parse_map("x1 + 3*x2^4; x2", 2)
    calls = count_products()
    assert expand(word) == expected
    assert len(calls) == 2


def test_expand_composes_once_per_elementary(count_calls):
    # Affine and Transposition steps are linear combinations and swaps of
    # the coordinates; only an Elementary substitutes them into its addend,
    # through compose's (numerator, power product) pairs.
    words = _seeded_words()
    calls = count_calls(polycore, "_substitution")
    for w in words:
        before = len(calls)
        expand(w)
        assert len(calls) - before == sum(isinstance(g, Elementary) for g in w)


def test_elementary_rejects_target_variable():
    with pytest.raises(ValueError):
        Elementary(1, parse_poly("x1", 2))


def test_affine_rejects_singular_matrix():
    with pytest.raises(ValueError):
        Affine(((1, 2), (2, 4)), (0, 0))


@pytest.mark.parametrize("matrix, shift, expected", [
    (((1, 0), (0, 1)), (0, 0), True),
    (((1, 0), (0, 1)), (0, Fraction(1, 2)), False),
    (((1, 0), (1, 1)), (0, 0), False),
    (((0, 1), (1, 0)), (0, 0), False),
    (((1, 0, 0), (0, 1, 0), (0, 0, -1)), (0, 0, 0), False),
])
def test_affine_is_identity(matrix, shift, expected):
    assert Affine(matrix, shift).is_identity() is expected


def test_invert_elementary():
    w = AutWord(2, (E(1, "x2^2", 2),))
    inv = invert_word(w)
    assert inv.gens[0] == E(1, "-x2^2", 2)


def test_invert_word_eliminates_once_per_affine(count_calls):
    words = _seeded_words()
    assert sum(isinstance(g, Affine) for w in words for g in w) > 10
    calls = count_calls(polycore, "_rref")
    for w in words:
        before = len(calls)
        invert_word(w)
        assert len(calls) - before == sum(isinstance(g, Affine) for g in w)


def test_invert_word_fraction_constructions(count_fractions):
    # invert_generator hands _rref [M | I | s], which it scales to int rows;
    # the Fractions are the nonzero entries of M^-1 and -M^-1 s, each an
    # int of the reduced rows over its pivot.  The wide matrix has no
    # determinant.  (The Fraction elimination made 188 such calls, and its
    # arithmetic built 1342 more Fractions under CPython 3.11.  While _rref
    # returned Fraction rows and a determinant of the leading block, it
    # made 227.)
    words = _seeded_words()
    made = count_fractions()
    for w in words:
        invert_word(w)
    assert len(made) == 208


def test_inverse_affine_keeps_the_reciprocal_determinant():
    rng = random.Random(15)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            a = _rational_affine(rng, n)
            inv = invert_generator(a)
            assert inv.det == 1 / a.det
            assert inv.det == _rref(inv.matrix)[2]
            assert inv == Affine(inv.matrix, inv.shift)
            assert expand(AutWord(n, (a, inv))).is_identity()


def test_inverse_affine_shift_stays_a_fraction():
    # Zero shift entries are skipped, but every entry stays a Fraction.
    a = Affine(((1, 1, 0), (0, 1, 1), (1, 0, 1)), (0, 0, 0))
    b = Affine(((1, 1), (0, 1)), (0, Fraction(1, 2)))
    for g, text in ((a, "| 0 0 0"), (b, "| 1/2 -1/2")):
        inv = invert_generator(g)
        assert all(type(s) is Fraction for s in inv.shift)
        assert format_word(AutWord(g.n, (inv,))).endswith(text)


def test_invert_identity_word():
    assert invert_word(AutWord(2, ())) == AutWord(2, ())


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
        cert = certify(w)
        assert (cert.phi, cert.m, cert.mu) == (w, expand(w), word_jacobian(w))
        assert cert.inverse == expand(invert_word(w))
        m = expand(w)
        raw = certify(m)
        assert (raw.phi, raw.m, raw.mu, raw.inverse) == (m, m, jacobian_constant(m), None)
        assert certify(m, cert.inverse).inverse == cert.inverse
    with pytest.raises(NonConstantJacobian):
        certify(parse_map("x1^2\nx2", 2))


def test_certify_returns_a_certified_unchanged():
    w = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2)))
    m = parse_map("x1 + x2^2\nx2", 2)
    for cert in (certify(w), certify(m), certify(m, parse_map("x1 - x2^2\nx2", 2))):
        assert isinstance(cert, Certified)
        assert certify(cert) is cert


def test_certify_checks_a_supplied_inverse():
    m = parse_map("x1 + x2^2\nx2", 2)
    # Each wrong inverse fails both sides of the composition, as certify's
    # docstring proves it must; certify composes one side only.
    for wrong in ("x1 + x2^2\nx2", "x1 - x2^2\n2*x2", "x1\nx2"):
        g = parse_map(wrong, 2)
        assert not compose_map(m, g).is_identity()
        assert not compose_map(g, m).is_identity()
        with pytest.raises(InverseMismatch, match="does not invert"):
            certify(m, g)
    # The Jacobian is checked first, as it is without an inverse.
    with pytest.raises(NonConstantJacobian):
        certify(parse_map("x1^2\nx2", 2), parse_map("x1\nx2", 2))
    # A word, or an object already certified, carries its own inverse.
    w = AutWord(2, (E(1, "x2^2", 2),))
    for phi in (w, certify(w), certify(m)):
        with pytest.raises(ValueError, match="carries its own inverse"):
            certify(phi, parse_map("x1 - x2^2\nx2", 2))


def test_certify_composes_a_raw_inverse_once(count_calls):
    # G o F = id implies F o G = id (certify's docstring), so certify makes
    # one composition, the inverse G outside the map F.
    from polyaut import autmap

    m = parse_map("x1 + x2^2 + x3^3\nx2 + x3\nx3", 3)
    inverse = parse_map("x1 - (x2 - x3)^2 - x3^3\nx2 - x3\nx3", 3)
    composed = count_calls(autmap, "compose_map")
    cert = certify(m, inverse)
    assert composed == [inverse]
    assert cert.inverse is inverse and cert.mu == 1
    with pytest.raises(InverseMismatch):
        certify(m, m)
    assert composed == [inverse, m]


def test_certified_keeps_the_inverse_and_the_weights(count_calls):
    # The inverse expansion and each d(w1) are memos: computed on first use,
    # kept, and invisible to equality.
    from polyaut import autmap

    w = AutWord(2, (E(1, "x2^2", 2), Transposition(1, 2, 2)))
    inverts = count_calls(autmap, "invert_word")
    weights = count_calls(autmap, "deg2_weights")
    cert = certify(w)
    assert inverts == [] and weights == []
    assert cert.inverse is cert.inverse
    assert cert.inverse_steps[-1] == cert.inverse.coords
    assert len(cert.inverse_steps) == len(w) + 1
    w1, w2 = WeightVector.standard(2), WeightVector((3, 1))
    assert cert.d(w1) is cert.d(w1)
    assert cert.d(w2) == deg2_weights(cert.m, w2) != cert.d(w1)
    assert inverts == [w] and len(weights) == 2  # one per w1
    assert cert == certify(w) and hash(cert) == hash(certify(w))


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


# -- the word and map reader -----------------------------------------------------


@pytest.mark.parametrize(
    "text, n",
    [
        ("E 1 x3^2", 3),
        ("E 4 x1 + 2", 4),
        ("T 2 5", 5),
        ("A 1 0 0 1 | 0 0", 2),
        ("T 1 2; E 3 x1", 3),  # the largest index over all lines
    ],
)
def test_word_variable_count_is_the_largest_index_named(text, n):
    assert parse_word(text).n == n


def test_map_variable_count_is_the_number_of_lines():
    assert parse_map("x1 + x2^2\n\nx2\n").n == 2
    assert parse_map(" x1 ;; x3 ; x2 ;").n == 3
    with pytest.raises(ValueError, match="^empty map input$"):
        parse_map(" ; \n")
    with pytest.raises(ValueError, match="^expected 3 coordinate lines, got 2$"):
        parse_map("x1; x2", 3)


def test_affine_line_is_square_only_while_inferring():
    with pytest.raises(ValueError,
                       match="^line 1: affine line does not contain a square matrix$"):
        parse_word("A 1 2 3 | 0 0")
    with pytest.raises(ValueError,
                       match="^line 2: affine line needs 4 matrix entries and 2 shifts$"):
        parse_word("T 1 2\nA 1 2 3 | 0 0", 2)


@pytest.mark.parametrize(
    "parse, text, n",
    [
        (parse_word, "E 1 x2", 0),
        (parse_word, "E 1 x2", -1),
        (parse_word, "E 1 x2", polycore.MAX_VARIABLES + 1),
        (parse_word, f"E 1 x{polycore.MAX_VARIABLES + 1}", None),
        (parse_word, f"E 1 2x{polycore.MAX_VARIABLES + 1}", None),  # inside a bad token too
        (parse_word, f"T 1 {polycore.MAX_VARIABLES + 1}", None),
        (parse_word, " ; ", None),  # names no variable
        (parse_map, "x1", 0),
        (parse_map, "x1", polycore.MAX_VARIABLES + 1),
        (parse_map, "; ".join(["x1"] * (polycore.MAX_VARIABLES + 1)), None),
    ],
)
def test_variable_count_outside_the_cap_is_refused_before_parsing(count_calls, parse, text, n):
    parse_calls = count_calls(polycore, "parse_poly")
    with pytest.raises(ValueError, match=f"must lie in 1..{polycore.MAX_VARIABLES}, got "):
        parse(text, n)
    assert parse_calls == []


def test_semicolons_end_lines_like_newlines():
    rng = random.Random(23)
    for _ in range(12):
        word = random_tame_word(rng, rng.choice([2, 3]))
        text = format_word(word)
        assert parse_word(text.replace("\n", "; "), word.n) == parse_word(text, word.n) == word
        m = expand(word)
        text = format_map(m)
        assert parse_map(text.replace("\n", ";")) == parse_map(text) == m


@pytest.mark.parametrize("text, k", [("T x 1", 1), ("E 1 x2\n\nT 1", 3), ("T 1 2; T +1 2", 2)])
def test_malformed_transposition_names_the_line(text, k):
    bad = re.split(r"[;\n]", text)[-1].strip()
    with pytest.raises(ValueError) as err:
        parse_word(text)
    assert str(err.value) == f"line {k}: bad transposition line {bad!r}"


@pytest.mark.parametrize(
    "text, n, message",
    [
        ("E 1 x2; T 1 2; E 3 x1", 2, "line 3: target 3 out of range 1..2"),
        ("T 1 2; T 1 1", None, "line 2: transposition needs two distinct indices"),
        ("E 1 x1", None, "line 1: elementary addend must not involve the target variable"),
        ("A 1 2 2 4 | 0 0", None, "line 1: affine generator has singular matrix"),
        ("E 1_0 x2", None, "line 1: bad elementary target in 'E 1_0 x2'"),
        ("E +1 x2", None, "line 1: bad elementary target in 'E +1 x2'"),
        ("T ١ ٢", None, "line 1: bad transposition line 'T ١ ٢'"),
    ],
)
def test_invalid_generator_lines_name_the_line(text, n, message):
    with pytest.raises(ValueError) as err:
        parse_word(text, n)
    assert str(err.value) == message


def test_indices_are_ascii_digits():
    # int() and str.isdigit take other digits (x٣ would mean x3, x² fails
    # inside int()); every reader takes [0-9]+ only.
    for text, position in [("x²", 1), ("x٣", 1), ("٣", 0), ("x1^²", 3)]:
        with pytest.raises(polycore.PolyParseError) as err:
            parse_poly(text, 3)
        assert err.value.position == position
    with pytest.raises(polycore.PolyParseError) as err:
        parse_word("E 1 x٣")
    assert (err.value.message, err.value.position) == ("line 1: expected an integer", 5)
    # Whitespace is insignificant after x, for the inferred n too.
    assert parse_word("E 1 x 3") == parse_word("E 1 x3") == parse_word("E 1 x3", 3)


@pytest.mark.parametrize(
    "parse, text, k, message, position",
    [
        (parse_word, "E 1 x2\nE 2 (x1 +", 2, "unexpected end of input", 16),
        (parse_word, "E 1 " + "(" * 101, 1, "parentheses nested deeper than 100", 104),
        (parse_word, "T 1 2;\tE 2  x1 + )", 2, "unexpected character ')'", 17),
        (parse_map, "x1\r\n\r\n x2 + )", 3, "unexpected character ')'", 12),
    ],
)
def test_parse_errors_name_the_line_and_point_into_the_text(parse, text, k, message,
                                                            position):
    # The position is that of the offending character in the text as given
    # (the end of the text for an unexpected end).
    with pytest.raises(polycore.PolyParseError) as err:
        parse(text)
    assert err.value.message == f"line {k}: {message}"
    assert err.value.position == position
    assert str(err.value) == f"line {k}: {message} (at position {position})"
