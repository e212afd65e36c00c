"""Acceptance suite: nine exact criteria, one PASS line each.

Everything here is an exact identity or inequality over the rationals at a
fixed seed; tolerances are zero.  Run with -s to see the per-criterion
lines.  The shared corpora: 100 seeded random tame plane words (generator
count <= 6, addend degree <= 4, coefficients in [-9, 9]) and 20 seeded
random three-variable words whose relation ideal has a singleton basis.
"""

import random
import time
from fractions import Fraction

import pytest

from polyaut.autmap import expand, invert_word, jacobian_constant, parse_map
from polyaut.classify3 import (
    Classified,
    Forbidden,
    NONZERO_TAGS,
    NeedsExtension,
    Tag,
    canonical_lnd,
    classify,
    normalize,
    reconstruct,
    sample_classified,
    sample_forbidden,
)
from polyaut.derivation import (
    LocallyNilpotent,
    apply,
    delta_derivation,
    derivation_degree,
    is_locally_nilpotent,
    lnd_witness,
)
from polyaut.groebner import (
    graded_kernel_oracle,
    normal_form,
    span_contains,
)
from polyaut.jvdk import Decomposition, decompose2, relation2
from polyaut.polycore import (
    MINUS_INFINITY,
    WeightVector,
    compose,
    leading_term,
    parse_poly,
    partial,
    wdeg,
)
from polyaut.relations import check_degree_lemma, check_parachute, relation_report
from polyaut.verify import (
    plane_corpus,
    random_polynomial,
    random_tame_word,
    space_corpus_principal,
)

SEED = 20260810
PLANE_COUNT = 100
SPACE_COUNT = 20


def report(criterion: int, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _monic(p, order):
    """p divided by its leading coefficient for the weighted graded order
    (0 stays 0)."""
    if p.is_zero():
        return p
    lm = max(p.support(), key=lambda e: (sum(w * a for w, a in zip(order.weights, e)), e))
    return p * (Fraction(1) / p.coeff(lm))


@pytest.fixture(scope="module")
def plane_words():
    return plane_corpus(SEED, PLANE_COUNT)


@pytest.fixture(scope="module")
def space_words():
    return space_corpus_principal(SEED + 3, SPACE_COUNT)


@pytest.fixture(scope="module")
def plane_decompositions(plane_words):
    return [decompose2(expand(w)) for w in plane_words]


@pytest.fixture(scope="module")
def plane_reports(plane_words):
    return [relation_report(w) for w in plane_words]


@pytest.fixture(scope="module")
def space_reports(space_words):
    return [relation_report(w) for w in space_words]


def test_criterion_1_jvdk_round_trip(plane_words):
    start = time.monotonic()
    failures = []
    for idx, word in enumerate(plane_words):
        m = expand(word)
        dec = decompose2(m)
        if not isinstance(dec, Decomposition):
            failures.append((idx, f"rejected: {dec}"))
            continue
        if expand(dec.word) != m:
            failures.append((idx, "recomposition differs"))
            continue
        sums = [s.degree_sum_before for s in dec.steps]
        sums += [dec.steps[-1].degree_sum_after] if dec.steps else []
        if any(a <= b for a, b in zip(sums, sums[1:])):
            failures.append((idx, f"degree sums not strictly decreasing: {sums}"))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 60.0
    report(
        1,
        ok,
        f"{PLANE_COUNT} plane words decompose and recompose exactly, "
        f"degree sums strictly decrease, {elapsed:.1f}s < 60s"
        + (f"; failures: {failures[:3]}" if failures else ""),
    )


def test_criterion_2_reduction_shape(plane_words, plane_decompositions, plane_reports):
    # Replay each decomposition: every elementary step must cancel the full
    # leading form, f_bar = c * g_bar^r with integral r = deg(f)/deg(g).
    w1 = WeightVector.standard(2)
    bad_shape = []
    for idx, (word, dec) in enumerate(zip(plane_words, plane_decompositions)):
        f, g = expand(word).coords
        for s in dec.steps:
            if s.swapped:
                f, g = g, f
            df, dg = int(wdeg(f, w1)), int(wdeg(g, w1))
            if dg < 1 or df % dg != 0 or s.r != df // dg:
                bad_shape.append((idx, "step exponent is not the degree ratio"))
                break
            if leading_term(f, w1) != leading_term(g, w1) ** s.r * s.c:
                bad_shape.append((idx, "leading form is not c * g_bar^r"))
                break
            f = f - (g ** s.r) * s.c
    mismatches = []
    for idx in range(25):
        rel = relation2(expand(plane_words[idx]))
        rep = plane_reports[idx]
        if rel.is_zero():
            if not rep.R.is_zero():
                mismatches.append(idx)
        elif _monic(rel, rep.ideal.order) != rep.R:
            mismatches.append(idx)
    ok = not bad_shape and not mismatches
    report(
        2,
        ok,
        "every reduction step writes the leading form as c * g_bar^r with "
        f"integral r; relation2 equals the kernel generator on 25 maps"
        + (f"; bad: {bad_shape[:3]} {mismatches[:3]}" if not ok else ""),
    )


def test_criterion_3_degree_bound(plane_reports, space_reports):
    violations = []
    for idx, rep in enumerate(plane_reports + space_reports):
        if not (rep.principal and rep.R is not None) or rep.R.is_zero():
            continue
        deg = rep.deg2_of_R
        if deg is MINUS_INFINITY or Fraction(deg).denominator != 1:
            violations.append((idx, f"degree {deg} is not an integer"))
        elif deg > rep.parachute + 1:
            violations.append((idx, f"{deg} > {rep.parachute + 1}"))
    report(
        3,
        not violations,
        f"deg2(R) <= d1+..+dn-n+1 on {len(plane_reports)} plane and "
        f"{len(space_reports)} space kernels, zero violations"
        + (f"; {violations[:3]}" if violations else ""),
    )


def test_criterion_4_lnd_witness(plane_words, plane_reports, space_words, space_reports):
    failures = []
    corpora = list(zip(plane_words, plane_reports)) + list(zip(space_words, space_reports))
    for idx, (word, rep) in enumerate(corpora):
        n = word.n
        w1 = WeightVector.standard(n)
        try:
            i, dbar = lnd_witness(word, w1)
        except Exception as exc:  # noqa: BLE001
            failures.append((idx, f"witness raised {exc}"))
            continue
        delta = delta_derivation(
            expand(invert_word(word)), i, jacobian_constant(expand(word))
        )
        if not derivation_degree(delta, rep.d) >= -w1[i]:
            failures.append((idx, "witness index inequality fails"))
            continue
        verdict = is_locally_nilpotent(dbar)
        if not isinstance(verdict, LocallyNilpotent):
            failures.append((idx, f"verdict {verdict}"))
            continue
        if rep.principal and rep.R is not None and not rep.R.is_zero():
            if not apply(dbar, rep.R).is_zero():
                failures.append((idx, "leading derivation does not annihilate R"))
    report(
        4,
        not failures,
        f"witness index, local nilpotence within cap and annihilation of "
        f"principal R hold on all {len(corpora)} corpus maps, zero Unknown"
        + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_5_intertwining_identity():
    rng = random.Random(SEED + 4)
    checked = 0
    failures = []
    while checked < 200:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=2,
                                max_coord_deg=4 if n == 2 else 3)
        m = expand(word)
        inv = expand(invert_word(word))
        mu = jacobian_constant(m)
        for _ in range(min(2, 200 - checked)):
            p = random_polynomial(rng, n, max_deg=3)
            for i in range(1, n + 1):
                delta = delta_derivation(inv, i, mu)
                lhs = compose(apply(delta, p), m.coords)
                rhs = partial(compose(p, m.coords), i) * (Fraction(1) / mu)
                if lhs != rhs:
                    failures.append((checked, i))
            checked += 1
    report(
        5,
        not failures,
        "Delta_i(P) o F = mu^-1 * d(P o F)/dx_i exactly for all i on 200 "
        "seeded (P, word) pairs in n = 2 and 3"
        + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_6_degree_lemma_and_parachute():
    rng = random.Random(SEED + 5)
    checked = 0
    failures = []
    while checked < 200:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5)
        rep = relation_report(word)
        m = expand(word)
        for _ in range(min(5, 200 - checked)):
            p = random_polynomial(rng, n)
            k = rng.randint(0, 3)
            var = rng.randint(1, n)
            lhs, rhs, strict, in_ideal = check_degree_lemma(m, rep.w1, p, report=rep)
            if not (lhs <= rhs and strict == in_ideal):
                failures.append((checked, "degree lemma"))
            if not check_parachute(m, p, k, var=var):
                failures.append((checked, f"parachute k={k}"))
            checked += 1
    report(
        6,
        not failures,
        "deg1(P o F) <= deg2(P) with strictness iff the leading term is a "
        "relation, and the k-fold parachute bound, on 200 seeded cases"
        + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_7_oracle_equivalence(plane_words, plane_reports, space_words, space_reports):
    failures = []
    fixed = [
        (parse_map("x1 + x2^2\nx2", 2), parse_poly("x1 - x2^2", 2)),
        (
            parse_map(
                "x1 - 2*x2*(x1*x3+x2^2) - x3*(x1*x3+x2^2)^2\n"
                "x2 + x3*(x1*x3+x2^2)\nx3",
                3,
            ),
            parse_poly("x2^2 + x1*x3", 3),
        ),
    ]
    for m, expected in fixed:
        rep = relation_report(m)
        if rep.R != expected:
            failures.append(("fixed", f"generator {rep.R} != {expected}"))
    corpora = list(zip(plane_words, plane_reports)) + list(zip(space_words, space_reports))
    for idx, (word, rep) in enumerate(corpora):
        dmax = rep.parachute + 1
        oracle = graded_kernel_oracle(rep.fbars, rep.d, dmax)
        if not all(normal_form(g, rep.ideal).is_zero() for g in oracle):
            failures.append((idx, "oracle element outside the kernel"))
            continue
        low = [g for g in rep.ideal.gens if wdeg(g, rep.d) <= dmax]
        if not all(span_contains(oracle, g) for g in low):
            failures.append((idx, "kernel generator outside the oracle span"))
    report(
        7,
        not failures,
        f"Buchberger kernel and graded oracle agree up to deg2 <= nabla+1 on "
        f"{len(corpora)} corpus maps and both fixed instances"
        + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_8_classifier():
    rng = random.Random(SEED + 6)
    failures = []
    per_line = 5
    for tag in NONZERO_TAGS:
        for trial in range(per_line):
            R, d = sample_classified(tag, rng)
            out = classify(R, d)
            if not isinstance(out, Classified) or out.info.tag is not tag:
                failures.append((tag.value, trial, f"classified {out}"))
                continue
            if reconstruct(out.info) != R:
                failures.append((tag.value, trial, "reconstruction mismatch"))
                continue
            nf = normalize(out.info)
            if isinstance(nf, NeedsExtension):
                if tag not in (Tag.T9, Tag.T11):
                    failures.append((tag.value, trial, "unexpected NeedsExtension"))
                continue
            if compose(R, expand(nf.witness).coords) != (
                nf.canonical_poly * nf.residual_scalar
            ):
                failures.append((tag.value, trial, "witness does not verify"))
                continue
            lnd = canonical_lnd(nf)
            if not apply(lnd, nf.canonical_poly).is_zero():
                failures.append((tag.value, trial, "canonical form not in LND kernel"))
            elif not isinstance(is_locally_nilpotent(lnd), LocallyNilpotent):
                failures.append((tag.value, trial, "canonical derivation not LND"))
    for entry in range(1, 7):
        for trial in range(2):
            R, d = sample_forbidden(entry, rng)
            out = classify(R, d)
            if not (isinstance(out, Forbidden) and out.entry == entry):
                failures.append(("forbidden", entry, f"{out}"))
    report(
        8,
        not failures,
        f"{13 * per_line} sampled instances classify to their generating line "
        "with exact reconstruction, witnesses verify by composition, canonical "
        "forms lie in LND kernels; 12 forbidden instances are rejected"
        + (f"; {failures[:3]}" if failures else ""),
    )


def test_criterion_9_affine_characterization():
    rng = random.Random(SEED + 7)
    failures = []
    for idx in range(20):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, mode="affine")
        rep = relation_report(word)
        if not rep.ideal.is_zero_ideal():
            failures.append(("affine", idx))
    for idx in range(20):
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5,
                                mode="nonaffine")
        rep = relation_report(word)
        if rep.ideal.is_zero_ideal():
            failures.append(("nonaffine", idx))
    report(
        9,
        not failures,
        "20 affine words have zero relation ideal and 20 non-affine words "
        "have nonzero relation ideal under the standard degree"
        + (f"; {failures[:3]}" if failures else ""),
    )
