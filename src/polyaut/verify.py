"""Seeded property suites over randomly generated tame words.

Each suite draws a deterministic corpus from an explicit seed and checks
one family of exact identities or inequalities case by case:

  jvdk-roundtrip     decompose, recompose exactly, strict degree descent
  lemma-1<2          deg1(P o F) <= deg2(P), strict iff the leading term
  (alias lemma-1-2)  of P is a relation
  parachute          the k-fold degree minoration
  lnd-witness        witness index inequality, the same leading derivation
                     by the chain rule and by Laplace cofactors, local
                     nilpotence of it, annihilation of principal R
  lnd01              the intertwining Delta_i(P) o F = mu^-1 * d(P o F)/dx_i
                     and its inverse Delta_i(P o G) = (mu^-1 * dP/dx_i) o G
                     for G = F^-1
  degree-bound       deg2(R) <= d1+..+dn-n+1 for principal kernels
  oracle-agreement   Buchberger kernel == graded linear-algebra oracle up
                     to degree max(nabla+1, top deg2 of a basis member)
  affine-ideal       zero relation ideal exactly for affine words
  classify-soundness classifier round-trip, witness verification, kernel
                     membership of the canonical forms

All verification is exact rational arithmetic; a suite fails only when a
checked identity genuinely fails.

A suite is a function cases(seed, count), registered in SUITES by
@_suite(name, *aliases), that returns an iterator of one (ok, detail) pair
per case in case order; run_suite numbers the cases and builds the
SuiteResult, which reports the suite under its name for every alias.
lnd-witness and oracle-agreement report an exception of the step they
check as a failing case; any other exception propagates.  lnd-witness,
degree-bound and oracle-agreement check count plane words and then
max(1, count // 5) principal n = 3 words; every other suite has count
cases.

A report is a pure function of (seed, count), so it is byte-identical
across runs, but its cases are not independent: they draw from one rng in
turn, and in the three mixed suites the word at an index depends on count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import classify3
from .autmap import (
    Affine,
    AutWord,
    Elementary,
    Transposition,
    certify,
    expand,
)
from .classify3 import (
    Classified,
    NeedsExtension,
    Tag,
    canonical_lnd,
    classify,
    normalize,
    reconstruct,
    sample_classified,
)
from .derivation import (
    LocallyNilpotent,
    apply,
    delta_derivation,
    derivation_degree,
    is_locally_nilpotent,
    leading_derivation,
    lnd_witness,
)
from .jvdk import decompose2, Decomposition
from .polycore import (
    MINUS_INFINITY,
    Polynomial,
    compose,
    partial,
)
from .relations import (
    OracleMismatch,
    _shadow_check,
    check_degree_lemma,
    check_parachute,
    relation_report,
)


@dataclass(frozen=True)
class CaseResult:
    index: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class SuiteResult:
    name: str
    seed: int
    cases: tuple

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    @property
    def failures(self):
        return [c for c in self.cases if not c.ok]


# -- random corpora ----------------------------------------------------------


def random_polynomial(rng: random.Random, n: int, max_terms: int = 4,
                      max_deg: int = 3, coeff_bound: int = 9, *,
                      variables=None, min_deg: int = 0) -> Polynomial:
    """A random nonzero polynomial with small integer coefficients.

    Each term has between min_deg and max_deg variable factors, drawn from
    the 0-based indices in variables (default: all n variables).
    """
    if variables is None:
        variables = range(n)
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = [0] * n
            for _ in range(rng.randint(min_deg, max_deg)):
                mono[rng.choice(variables)] += 1
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[tuple(mono)] = Fraction(c)
        p = Polynomial(n, terms)
        if not p.is_zero():
            return p


def _random_affine(rng: random.Random, n: int) -> Affine:
    while True:
        matrix = tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)) for _ in range(n))
        try:
            return Affine(matrix, tuple(Fraction(rng.randint(-3, 3)) for _ in range(n)))
        except ValueError:
            continue


def _random_generator(rng: random.Random, n: int, mode: str, max_addend_deg: int):
    r = rng.random()
    if mode == "affine":
        kind = "affine" if r < 0.7 else "transposition"
    elif r < 0.6:
        kind = "elementary"
    elif r < 0.85:
        kind = "transposition"
    else:
        kind = "affine"
    if kind == "elementary":
        # The addend is nonconstant and free of the target variable.
        target = rng.randint(1, n)
        others = [i for i in range(n) if i != target - 1]
        return Elementary(target, random_polynomial(
            rng, n, 3, max_addend_deg, variables=others, min_deg=1))
    if kind == "transposition":
        i = rng.randint(1, n)
        j = rng.randint(1, n - 1)
        return Transposition(i, j if j < i else j + 1, n)
    return _random_affine(rng, n)


def random_tame_word(rng: random.Random, n: int, max_gens: int = 6,
                     max_addend_deg: int = 4, max_coord_deg: int = 16,
                     mode: str = "any") -> AutWord:
    """A random word of tame generators whose expansion stays within a
    degree budget; mode selects 'any', 'affine' or 'nonaffine' corpora.

    Outside 'affine' mode the word drawn so far is expanded after each
    draw and abandoned as soon as a coordinate degree leaves the budget, so
    rejected draws never pay for a large expansion.
    """
    for _ in range(2000):
        target_len = rng.randint(1, max_gens)
        word = AutWord(n, ())
        ok = True
        for _ in range(target_len):
            g = _random_generator(rng, n, mode, max_addend_deg)
            word = AutWord(n, word.gens + (g,))
            if mode != "affine":
                m = expand(word)
                degs = [c.total_degree() for c in m.coords]
                if any(d is MINUS_INFINITY or d > max_coord_deg for d in degs):
                    ok = False
                    break
        if not ok:
            continue
        if mode == "affine":
            return word
        if mode == "nonaffine" and max(c.total_degree() for c in m.coords) < 2:
            continue
        return word
    raise RuntimeError("failed to sample a word within the degree budget")


@lru_cache(maxsize=8)
def plane_corpus(seed: int, count: int):
    """The seeded n = 2 corpus, coordinate degree at most 16, shared by the
    decomposition, bound, witness and oracle suites."""
    rng = random.Random(seed)
    return tuple(random_tame_word(rng, 2) for _ in range(count))


@lru_cache(maxsize=8)
def space_corpus_principal(seed: int, count: int):
    """Seeded n = 3 words, coordinate degree at most 6, whose relation ideal
    has a singleton basis."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = random_tame_word(rng, 3, max_gens=5, max_addend_deg=3,
                                max_coord_deg=6, mode="nonaffine")
        report = relation_report(word, oracle_shadow=False)
        if report.principal and not report.R.is_zero():
            words.append(word)
    return tuple(words)


def _mixed_corpus(seed: int, count: int) -> tuple:
    """The plane corpus followed by max(1, count // 5) principal n = 3 words."""
    return plane_corpus(seed, count) + space_corpus_principal(seed + 3, max(1, count // 5))


def _word_batches(rng: random.Random, count: int, per_word: int, budgets,
                  max_addend_deg: int):
    """Yield (word, cases) until count cases are covered: each word
    (n = 2 or 3, coordinate degree at most budgets[n - 2]) serves up to
    per_word consecutive cases, which draw from rng before the next word."""
    while count > 0:
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=max_addend_deg,
                                max_coord_deg=budgets[n - 2])
        yield word, min(per_word, count)
        count -= per_word


# -- the suites --------------------------------------------------------------

#: Suite name or alias -> (reported name, cases function).
SUITES = {}


def _suite(name: str, *aliases: str):
    """Register a cases function under name and its aliases."""
    def register(cases):
        for key in (name, *aliases):
            SUITES[key] = (name, cases)
        return cases
    return register


def run_suite(name: str, seed: int, count: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    reported, cases = SUITES[name]
    return SuiteResult(reported, seed, tuple(
        CaseResult(index, ok, detail)
        for index, (ok, detail) in enumerate(cases(seed, count))))


def _roundtrip(word):
    m = expand(word)
    dec = decompose2(m)
    if not isinstance(dec, Decomposition):
        return False, f"decomposition failed: {dec}"
    if expand(dec.word) != m:
        return False, "recomposition mismatch"
    sums = [s.degree_sum_before for s in dec.steps] + (
        [dec.steps[-1].degree_sum_after] if dec.steps else []
    )
    if any(a <= b for a, b in zip(sums, sums[1:])):
        return False, f"degree sums not strictly decreasing: {sums}"
    bad = [
        s for s in dec.steps
        if s.degree_sum_before - s.degree_sum_after <= 0 or s.r < 1
    ]
    if bad:
        return False, f"bad reduction step {bad[0]}"
    return True, f"{len(dec.steps)} steps"


@_suite("jvdk-roundtrip")
def _jvdk_roundtrip(seed: int, count: int):
    return map(_roundtrip, plane_corpus(seed, count))


@_suite("lemma-1<2", "lemma-1-2")  # shell-friendly alias
def _lemma_1_2(seed: int, count: int):
    rng = random.Random(seed + 1)
    for word, cases in _word_batches(rng, count, 5, (8, 5), 3):
        report = relation_report(word)
        for _ in range(cases):
            p = random_polynomial(rng, word.n)
            lhs, rhs, strict, tilde_in = check_degree_lemma(
                word, report.w1, p, report=report
            )
            yield (lhs <= rhs and strict == tilde_in,
                   f"n={word.n} lhs={lhs} rhs={rhs} strict={strict} in_I={tilde_in}")


@_suite("parachute")
def _parachute(seed: int, count: int):
    rng = random.Random(seed + 2)
    for word, cases in _word_batches(rng, count, 5, (8, 5), 3):
        cert = certify(word)
        for _ in range(cases):
            p = random_polynomial(rng, word.n)
            k = rng.randint(0, 3)
            var = rng.randint(1, word.n)
            yield check_parachute(cert, p, k, var=var), f"n={word.n} k={k} var={var}"


def _witness(word):
    cert = certify(word)
    report = relation_report(cert)
    try:
        i, dbar = lnd_witness(cert, report.w1)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return False, f"witness failed: {exc}"
    # The Laplace route, independent of lnd_witness's chain rule.
    delta = delta_derivation(cert.inverse, i, cert.mu)
    if not derivation_degree(delta, report.d) >= -report.w1[i]:
        return False, "witness inequality fails"
    if leading_derivation(delta, report.d) != dbar:
        return False, "leading derivation differs from the Laplace route"
    verdict = is_locally_nilpotent(dbar)
    if not isinstance(verdict, LocallyNilpotent):
        return False, f"leading derivation verdict {verdict}"
    if report.principal and not report.R.is_zero() and not apply(dbar, report.R).is_zero():
        return False, "leading derivation does not kill R"
    return True, f"n={word.n} index={i}"


@_suite("lnd-witness")
def _lnd_witness(seed: int, count: int):
    return map(_witness, _mixed_corpus(seed, count))


def _intertwining(cert, deltas, p):
    """Both identities for each Delta_i: forward through F, inverse
    through F^-1; (ok, detail) at the first that fails."""
    m, inv, scale = cert.m.coords, cert.inverse.coords, Fraction(1) / cert.mu
    for i, delta in enumerate(deltas, start=1):
        if compose(apply(delta, p), m) != partial(compose(p, m), i) * scale:
            return False, f"n={p.n} forward identity fails at i={i}"
        if apply(delta, compose(p, inv)) != compose(partial(p, i) * scale, inv):
            return False, f"n={p.n} inverse identity fails at i={i}"
    return True, f"n={p.n}"


@_suite("lnd01")
def _lnd01(seed: int, count: int):
    rng = random.Random(seed + 4)
    for word, cases in _word_batches(rng, count, 2, (4, 3), 2):
        cert = certify(word)
        deltas = [delta_derivation(cert.inverse, i, cert.mu) for i in range(1, word.n + 1)]
        for _ in range(cases):
            yield _intertwining(cert, deltas, random_polynomial(rng, word.n, max_deg=3))


def _bound(word):
    report = relation_report(word)
    if not report.principal:
        return True, "kernel not principal; bound vacuous"
    if report.R.is_zero():
        return True, "zero ideal"
    deg = report.deg2_of_R
    ok = (
        deg is not MINUS_INFINITY
        and Fraction(deg).denominator == 1
        and deg <= report.parachute + 1
    )
    return ok, f"deg2(R)={deg} <= nabla+1={report.parachute + 1}"


@_suite("degree-bound")
def _degree_bound(seed: int, count: int):
    return map(_bound, _mixed_corpus(seed, count))


def _oracle(word):
    try:
        oracle = _shadow_check(relation_report(word, oracle_shadow=False))
    except OracleMismatch as exc:
        return False, f"oracle mismatch: {exc}"
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return False, f"{type(exc).__name__}: {exc}"
    return True, f"n={word.n} oracle elements={len(oracle)}"


@_suite("oracle-agreement")
def _oracle_agreement(seed: int, count: int):
    return map(_oracle, _mixed_corpus(seed, count))


@_suite("affine-ideal")
def _affine_ideal(seed: int, count: int):
    rng = random.Random(seed + 5)
    for drawn in range(count):
        affine = drawn < count // 2
        n = rng.choice([2, 3])
        word = random_tame_word(rng, n, max_gens=4, max_addend_deg=3,
                                max_coord_deg=8 if n == 2 else 5,
                                mode="affine" if affine else "nonaffine")
        ok = relation_report(word).ideal.is_zero_ideal() == affine
        yield ok, (f"affine n={n}: ideal zero={ok}" if affine
                   else f"nonaffine n={n}: ideal nonzero={ok}")


def _soundness(tag, rng):
    R, d = sample_classified(tag, rng)
    out = classify(R, d)
    if not isinstance(out, Classified) or out.info.tag is not tag:
        return False, f"{tag.value}: classified as {out}"
    if reconstruct(out.info) != R:
        return False, f"{tag.value}: reconstruction mismatch"
    nf = normalize(out.info)
    if isinstance(nf, NeedsExtension):
        return tag in (Tag.T9, Tag.T11), f"{tag.value}: {nf.reason}"
    if not apply(canonical_lnd(nf), nf.canonical_poly).is_zero():
        return False, f"{tag.value}: canonical LND fails"
    return True, f"{tag.value} -> {type(nf.canonical).__name__}"


@_suite("classify-soundness")
def _classify_soundness(seed: int, count: int):
    rng = random.Random(seed + 6)
    tags = classify3.NONZERO_TAGS
    for drawn in range(count):
        yield _soundness(tags[drawn % len(tags)], rng)
